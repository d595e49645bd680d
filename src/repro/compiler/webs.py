"""Web construction: refine IL values into live ranges.

A *web* is a maximal set of definitions and uses of one value connected
through def->use reachability; each web is one
:class:`~repro.ir.live_range.LiveRange` — the unit of both cluster
partitioning (Section 3.5) and register allocation (Section 3.4).  Distinct
webs of the same source-level value are independent and may land in
different clusters or registers.

Implementation: bit-vector reaching definitions over a block worklist, then
union-find merging every pair of definitions that reach a common use.
Every def site is one bit, and so is one synthetic entry definition per
program value (values live into the program entry, such as the stack
pointer, which is never defined, still form a web).  The bits of one value
are contiguous.  Each block gets a ``gen`` mask (its last def of each value)
and a ``kill`` mask (every bit of each value it defines); the worklist
applies ``out = gen | (in & ~kill)`` and requeues a block's successors only
when its ``out`` changes.  The walk that merges webs decodes
``in & mask[value]`` into def uids lazily, at the first use of a value in a
block.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Iterable

from repro.ir.live_range import LiveRangeSet
from repro.ir.program import ILProgram
from repro.ir.values import ILValue

#: Synthetic uid for the program-entry definition of value ``v``.
def _entry_def(value: ILValue) -> int:
    return -1 - value.vid


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(self, key: tuple[int, int]) -> tuple[int, int]:
        parent = self.parent.setdefault(key, key)
        if parent != key:
            root = self.find(parent)
            self.parent[key] = root
            return root
        return key

    def union(self, a: tuple[int, int], b: tuple[int, int]) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def build_live_ranges(program: ILProgram) -> LiveRangeSet:
    """Construct the live ranges (webs) of ``program``.

    Requires ``program.renumber()`` to have run (instruction uids valid).
    """
    cfg = program.cfg
    labels = cfg.labels()
    blocks = [cfg.block(label) for label in labels]

    # Def sites per value id, entry definition first; bit ``base[vid] + i``
    # stands for ``sites[vid][i]``.  ``last_defs`` holds each block's last
    # def of each value it defines, as an offset into ``sites[vid]``.
    sites: dict[int, list[int]] = {
        value.vid: [_entry_def(value)] for value in program.values
    }
    last_defs: list[dict[int, int]] = []
    for block in blocks:
        last: dict[int, int] = {}
        for instr in block.instructions:
            if instr.dest is not None:
                uids = sites.setdefault(instr.dest.vid, [])
                last[instr.dest.vid] = len(uids)
                uids.append(instr.uid)
        last_defs.append(last)
    base: dict[int, int] = {}
    next_bit = 0
    for vid, uids in sites.items():
        base[vid] = next_bit
        next_bit += len(uids)
    entry_bits = 0
    for value in program.values:
        entry_bits |= 1 << base[value.vid]

    # Per-block gen and the complement of kill (every bit of each value
    # the block defines).
    gen: list[int] = []
    keep: list[int] = []
    for last in last_defs:
        block_gen = block_kill = 0
        for vid, offset in last.items():
            block_gen |= 1 << (base[vid] + offset)
            block_kill |= ((1 << len(sites[vid])) - 1) << base[vid]
        gen.append(block_gen)
        keep.append(~block_kill)

    # Forward worklist to the least fixed point, seeded in reverse postorder
    # with unreachable blocks after.
    index = {label: i for i, label in enumerate(labels)}
    preds = [[index[p] for p in plist] for plist in cfg.predecessor_map().values()]
    succs = [[index[s] for s in block.succ_labels] for block in blocks]
    entry = index[cfg.entry_label] if cfg.entry_label is not None else -1
    order = [index[label] for label in cfg.reverse_postorder()]
    seen = set(order)
    order += [i for i in range(len(blocks)) if i not in seen]
    reach_in = [0] * len(blocks)
    reach_out = [0] * len(blocks)
    queued = [True] * len(blocks)
    worklist = deque(order)
    while worklist:
        i = worklist.popleft()
        queued[i] = False
        rin = entry_bits if i == entry else 0
        for p in preds[i]:
            rin |= reach_out[p]
        reach_in[i] = rin
        out = gen[i] | (rin & keep[i])
        if out != reach_out[i]:
            reach_out[i] = out
            for s in succs[i]:
                if not queued[s]:
                    queued[s] = True
                    worklist.append(s)

    def reaching(rin: int, value: ILValue) -> list[int]:
        uids = sites.get(value.vid)
        if uids is None:
            return []
        bits = (rin >> base[value.vid]) & ((1 << len(uids)) - 1)
        found = []
        while bits:
            low = bits & -bits
            found.append(uids[low.bit_length() - 1])
            bits ^= low
        return found

    # Walk blocks, merging defs that reach a common use.
    uf = _UnionFind()
    use_attach: dict[tuple[int, ILValue], tuple[int, int]] = {}
    real_defs: set[tuple[int, int]] = set()
    for block, rin in zip(blocks, reach_in):
        current: dict[ILValue, list[int]] = {}
        for instr in block.instructions:
            for src in instr.srcs:
                defs = current.get(src)
                if defs is None:
                    defs = reaching(rin, src) or [_entry_def(src)]
                    current[src] = defs
                keys = [(d, src.vid) for d in defs]
                for other in keys[1:]:
                    uf.union(keys[0], other)
                use_attach[(instr.uid, src)] = keys[0]
            if instr.dest is not None:
                current[instr.dest] = [instr.uid]
                real_defs.add((instr.uid, instr.dest.vid))
                uf.find((instr.uid, instr.dest.vid))  # register in the forest

    # Build LiveRange objects, one per union-find root.
    lrs = LiveRangeSet()
    by_value = {v.vid: v for v in program.values}
    root_to_lr: dict[tuple[int, int], "object"] = {}
    web_counter: dict[int, int] = defaultdict(int)

    def lr_for_root(root: tuple[int, int]):
        if root not in root_to_lr:
            value = by_value[root[1]]
            index = web_counter[value.vid]
            web_counter[value.vid] += 1
            root_to_lr[root] = lrs.new_range(value, web_index=index)
        return root_to_lr[root]

    for def_key in sorted(real_defs):
        uid, vid = def_key
        lr = lr_for_root(uf.find(def_key))
        lr.def_uids.add(uid)
        lrs.def_map[(uid, by_value[vid])] = lr

    for (uid, value), key in sorted(use_attach.items(), key=lambda kv: (kv[0][0], kv[0][1].vid)):
        lr = lr_for_root(uf.find(key))
        lr.use_uids.add(uid)
        lrs.use_map[(uid, value)] = lr

    # Webs of a value with a single web keep the bare value name.
    for lr in lrs:
        if web_counter[lr.value.vid] == 1:
            lr.web_index = 0
    return lrs


def designate_global_candidates(
    lrs: LiveRangeSet, extra_values: Iterable[ILValue] = ()
) -> None:
    """Step 3 of the methodology (Section 3.1).

    Live ranges of the stack pointer and global pointer become candidates
    for global registers; everything else stays a local-register candidate.
    ``extra_values`` lets experiments widen the global set (a future-work
    idea the paper raises for key loop variables).
    """
    extra = set(extra_values)
    for lr in lrs:
        value = lr.value
        lr.global_candidate = (
            value.is_stack_pointer or value.is_global_pointer or value in extra
        )


def compute_spill_weights(program: ILProgram, lrs: LiveRangeSet) -> None:
    """Profile-weighted reference counts, the allocator's spill-cost metric."""
    count_of: dict[int, float] = {}
    for block in program.cfg.blocks():
        weight = float(max(block.profile_count, 1))
        for instr in block.instructions:
            count_of[instr.uid] = weight
    for lr in lrs:
        lr.spill_weight = sum(count_of.get(uid, 1.0) for uid in lr.reference_uids)
