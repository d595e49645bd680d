"""Basic-block execution profiling.

The local scheduler sorts basic blocks by "the number of times the first
instruction in each basic block is estimated to be executed", and the
footnote says "these estimates are derived from profiling the execution of
the application" (Section 3.5).  Two estimators are provided:

* :func:`profile_by_walk` — a functional execution profile: walk the CFG's
  edge probabilities with a seeded RNG (our stand-in for running the
  instrumented binary) and count block entries.
* :func:`profile_analytically` — solve the steady-state visit-count flow
  equations ``count(b) = entry(b) + sum(count(p) * prob(p->b))`` exactly,
  one strongly connected component at a time in topological order: an
  acyclic block is a sum over finished predecessors, and a loop is a
  small dense linear system.  Deterministic and exact for the Markov
  control-flow model.

Both write ``block.profile_count``.
"""

from __future__ import annotations

import random

from repro.errors import CompileError
from repro.ir.cfg import ControlFlowGraph
from repro.ir.program import ILProgram

#: A pivot this small means a loop whose exit probability is zero.
_SINGULAR = 1e-12


def profile_by_walk(
    program: ILProgram,
    max_instructions: int = 100_000,
    seed: int = 1,
    write_counts: bool = True,
    restart: bool = True,
) -> dict[str, int]:
    """Profile by stochastic CFG walk; returns label -> entry count.

    With ``restart`` (default), the walk re-enters the program when it
    reaches an exit, until the instruction budget is spent — the same
    convention the trace generator uses, so profiles match trace behaviour.
    """
    rng = random.Random(seed)
    cfg = program.cfg
    counts = {label: 0 for label in cfg.labels()}
    label = cfg.entry_label
    executed = 0
    while label is not None and executed < max_instructions:
        block = cfg.block(label)
        counts[label] += 1
        executed += max(len(block), 1)
        if not block.succ_labels:
            if not restart:
                break
            label = cfg.entry_label
            continue
        r = rng.random()
        cumulative = 0.0
        chosen = block.succ_labels[-1]
        for succ in block.succ_labels:
            cumulative += block.edge_probs.get(succ, 0.0)
            if r < cumulative:
                chosen = succ
                break
        label = chosen
    if write_counts:
        for lbl, count in counts.items():
            cfg.block(lbl).profile_count = count
    return counts


def profile_analytically(
    program: ILProgram,
    entries: float = 1.0,
    scale: float = 1000.0,
    write_counts: bool = True,
) -> dict[str, float]:
    """Profile by solving the visit-count flow equations exactly.

    Strongly connected components are solved one at a time in
    topological order, so every predecessor outside a component is final
    before the component is.  An acyclic block's count is its entry
    inflow plus its predecessors' counts times edge probabilities; a
    loop of ``k`` blocks is solved as ``(I - A) x = b`` by Gaussian
    elimination, O(k³).  A loop that is entered but has no exit mass
    raises :class:`~repro.errors.CompileError`.  Counts are scaled by
    ``scale`` and rounded when written back.
    """
    cfg = program.cfg
    labels = cfg.labels()
    preds = cfg.predecessor_map()
    counts = dict.fromkeys(labels, 0.0)
    for scc in reversed(_strongly_connected_components(cfg)):
        members = set(scc)
        # Inflow from outside the component: the program entry plus
        # every finished predecessor.  A block named twice as a
        # successor contributes once per edge.
        inflow = []
        for label in scc:
            total = entries if label == cfg.entry_label else 0.0
            for pred in preds[label]:
                if pred not in members:
                    total += counts[pred] * cfg.block(pred).edge_probs.get(label, 0.0)
            inflow.append(total)
        if not any(inflow):
            continue  # never entered: every count stays zero
        if len(scc) == 1 and scc[0] not in cfg.block(scc[0]).succ_labels:
            counts[scc[0]] = inflow[0]
            continue
        for label, count in zip(scc, _solve_loop(cfg, scc, preds, inflow)):
            counts[label] = count
    if write_counts:
        for label, count in counts.items():
            cfg.block(label).profile_count = int(round(count * scale))
    return counts


def _solve_loop(
    cfg: ControlFlowGraph,
    scc: list[str],
    preds: dict[str, list[str]],
    inflow: list[float],
) -> list[float]:
    """Counts of one cyclic component: ``(I - A) x = b`` by Gaussian
    elimination with partial pivoting, where ``A[i][j]`` is the
    probability of the edge from ``scc[j]`` to ``scc[i]``."""
    k = len(scc)
    index = {label: i for i, label in enumerate(scc)}
    # Augmented rows [I - A | b].
    rows = [[0.0] * k + [b] for b in inflow]
    for i, label in enumerate(scc):
        rows[i][i] += 1.0
        for pred in preds[label]:
            j = index.get(pred)
            if j is not None:
                rows[i][j] -= cfg.block(pred).edge_probs.get(label, 0.0)
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(rows[r][col]))
        if abs(rows[pivot][col]) < _SINGULAR:
            raise CompileError(
                f"profile: the loop over blocks {', '.join(scc)} is entered "
                "but has no exit probability, so its visit counts are unbounded",
                blocks=list(scc),
            )
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        for r in range(col + 1, k):
            factor = rows[r][col] / head[col]
            if factor:
                row = rows[r]
                for c in range(col, k + 1):
                    row[c] -= factor * head[c]
    x = [0.0] * k
    for i in range(k - 1, -1, -1):
        row = rows[i]
        x[i] = (row[k] - sum(row[c] * x[c] for c in range(i + 1, k))) / row[i]
    return x


def _strongly_connected_components(cfg: ControlFlowGraph) -> list[list[str]]:
    """Tarjan's algorithm, iterative (a CFG can be deeper than Python's
    recursion limit).  Components come out in reverse topological order;
    members keep layout order."""
    layout = {label: i for i, label in enumerate(cfg.labels())}
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    for root in layout:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            label, child = work[-1]
            if child == 0:
                index[label] = lowlink[label] = len(index)
                stack.append(label)
                on_stack.add(label)
            succs = cfg.block(label).succ_labels
            if child < len(succs):
                work[-1] = (label, child + 1)
                succ = succs[child]
                if succ not in index:
                    work.append((succ, 0))
                elif succ in on_stack:
                    lowlink[label] = min(lowlink[label], index[succ])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[label])
            if lowlink[label] == index[label]:
                members = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    members.append(member)
                    if member == label:
                        break
                components.append(sorted(members, key=layout.__getitem__))
    return components
