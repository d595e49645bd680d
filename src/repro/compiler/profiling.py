"""Basic-block execution profiling.

The local scheduler sorts basic blocks by "the number of times the first
instruction in each basic block is estimated to be executed", and the
footnote says "these estimates are derived from profiling the execution of
the application" (Section 3.5).  Two estimators are provided:

* :func:`profile_by_walk` — a functional execution profile: walk the CFG's
  edge probabilities with a seeded RNG (our stand-in for running the
  instrumented binary) and count block entries.
* :func:`profile_analytically` — solve the steady-state visit-count flow
  equations ``count(b) = entry(b) + sum(count(p) * prob(p->b))`` directly;
  deterministic and exact for the Markov control-flow model.

Both write ``block.profile_count``.
"""

from __future__ import annotations

import random

from repro.ir.program import ILProgram


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
    max_sweeps: int = 10_000,
    tolerance: float = 1e-9,
) -> dict[str, float]:
    """Profile by solving visit-count flow equations with Gauss–Seidel sweeps.

    Exit probability mass (blocks with no successors, or truncated edges)
    guarantees convergence for any well-formed program.  Counts are scaled
    by ``scale`` and rounded when written back.
    """
    cfg = program.cfg
    labels = cfg.labels()
    preds = cfg.predecessor_map()
    entry = cfg.entry_label
    order = cfg.reverse_postorder()
    for label in labels:
        if label not in order:
            order.append(label)
    # The sweep works on a list indexed like ``labels``; each block's
    # (predecessor index, edge probability) rows are looked up once.
    index = {label: i for i, label in enumerate(labels)}
    rows = [
        (
            index[label],
            entries if label == entry else 0.0,
            [(index[pred], cfg.block(pred).edge_probs.get(label, 0.0)) for pred in preds[label]],
        )
        for label in order
    ]
    values = [0.0] * len(labels)
    for _ in range(max_sweeps):
        delta = 0.0
        for i, total, incoming in rows:
            for pred, prob in incoming:
                total += values[pred] * prob
            change = abs(total - values[i])
            if change > delta:  # max(delta, change), without the call
                delta = change
            values[i] = total
        if delta < tolerance:
            break
    counts = dict(zip(labels, values))
    if write_counts:
        for label, count in counts.items():
            cfg.block(label).profile_count = int(round(count * scale))
    return counts
