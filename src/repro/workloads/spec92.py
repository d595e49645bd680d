"""SPEC92 benchmark profiles (the six programs of Table 2).

Each profile parameterizes the synthetic generator to match the documented
character of the benchmark — the properties that drive the paper's
results: instruction mix (integer vs FP vs divide), dependence-chain depth
(ILP), basic-block geometry, branch predictability, code footprint, and
memory locality.  The profiles are *behavioural stand-ins*, not
reimplementations; DESIGN.md records the substitution rationale.

* ``compress`` — LZW compression: integer, hash-table probes over a large
  scattered region (data-dependent loads), data-dependent branches of
  middling predictability, modest basic blocks.
* ``doduc`` — Monte-Carlo nuclear-reactor simulation: irregular FP code,
  FP divides, branchy for a floating-point program, mid-sized blocks.
* ``gcc1`` — the GNU C compiler: integer, very branchy, many distinct
  small loop nests (large code footprint), pointer-rich hot/cold memory.
* ``ora`` — ray tracing through optical systems: a tight FP kernel
  dominated by a long serial chain of divides/square-roots, nearly
  perfectly predictable branches, tiny data footprint.
* ``su2cor`` — quantum-physics quark propagation: vectorizable FP loops,
  long basic blocks, strided sweeps over multi-megabyte arrays.
* ``tomcatv`` — vectorized mesh generation: the most memory-bound; very
  long blocks sweeping several large arrays with high ILP.
"""

from __future__ import annotations

import difflib
from typing import Callable, Iterable

from repro.errors import ConfigError

from repro.workloads.generator import (
    ArraySpec,
    LoopSpec,
    Workload,
    WorkloadSpec,
    generate_workload,
)

#: Default dynamic trace length used by the Table 2 experiment.
DEFAULT_TRACE_LENGTH = 120_000


def build_compress(seed: int = 11) -> Workload:
    spec = WorkloadSpec(
        name="compress",
        seed=seed,
        mix={
            "int_alu": 0.44,
            "int_mul": 0.01,
            "fp_alu": 0.0,
            "fp_div": 0.0,
            "load": 0.34,
            "store": 0.21,
        },
        arrays=[
            ArraySpec("htab", kind="hotcold", size=1 << 19, hot_fraction=0.94),
            ArraySpec("codetab", kind="hotcold", size=1 << 17, hot_fraction=0.93),
            ArraySpec("inbuf", kind="strided", size=1 << 15, stride=8),
            ArraySpec("outbuf", kind="strided", size=1 << 15, stride=8),
        ],
        loops=[
            LoopSpec(
                body_blocks=4,
                block_size=8,
                trip_count=60,
                trip_jitter=15,
                diamond_prob=0.7,
                diamond_model="bernoulli",
                diamond_taken_prob=0.78,
                arrays=("htab", "codetab", "inbuf"),
            ),
            LoopSpec(
                body_blocks=3,
                block_size=7,
                trip_count=35,
                trip_jitter=10,
                diamond_prob=0.7,
                diamond_model="markov",
                diamond_taken_prob=0.72,
                arrays=("htab", "outbuf"),
            ),
            LoopSpec(
                body_blocks=2,
                block_size=8,
                trip_count=50,
                trip_jitter=12,
                diamond_prob=0.6,
                diamond_model="bernoulli",
                diamond_taken_prob=0.82,
                arrays=("codetab", "inbuf", "outbuf"),
            ),
        ],
        chain_bias=0.55,
        live_window=9,
        accumulators=2,
        accumulate_prob=0.45,
        code_replicas=3,
    )
    return generate_workload(spec)


def build_doduc(seed: int = 23) -> Workload:
    spec = WorkloadSpec(
        name="doduc",
        seed=seed,
        mix={
            "int_alu": 0.18,
            "int_mul": 0.01,
            "fp_alu": 0.38,
            "fp_div": 0.02,
            "load": 0.27,
            "store": 0.125,
        },
        arrays=[
            ArraySpec("state", kind="hotcold", size=1 << 18, fp=True, hot_fraction=0.94),
            ArraySpec("xsect", kind="strided", size=48 * 1024, stride=8, fp=True),
        ],
        loops=[
            LoopSpec(
                body_blocks=3,
                block_size=9,
                trip_count=30,
                trip_jitter=10,
                diamond_prob=0.6,
                diamond_model="markov",
                diamond_taken_prob=0.75,
                arrays=("state", "xsect"),
            ),
            LoopSpec(
                body_blocks=2,
                block_size=10,
                trip_count=60,
                trip_jitter=5,
                diamond_prob=0.4,
                diamond_model="pattern",
                arrays=("state",),
            ),
            LoopSpec(
                body_blocks=2,
                block_size=8,
                trip_count=20,
                trip_jitter=6,
                diamond_prob=0.5,
                diamond_taken_prob=0.6,
                arrays=("xsect",),
            ),
        ],
        chain_bias=0.6,
        live_window=11,
        accumulators=3,
        accumulate_prob=0.4,
        code_replicas=4,
    )
    return generate_workload(spec)


def build_gcc1(seed: int = 31) -> Workload:
    spec = WorkloadSpec(
        name="gcc1",
        seed=seed,
        mix={
            "int_alu": 0.47,
            "int_mul": 0.005,
            "fp_alu": 0.0,
            "fp_div": 0.0,
            "load": 0.33,
            "store": 0.195,
        },
        arrays=[
            ArraySpec("rtl", kind="hotcold", size=1 << 21, hot_fraction=0.8),
            ArraySpec("symtab", kind="random", size=1 << 18),
            ArraySpec("obstack", kind="strided", size=1 << 17, stride=8),
        ],
        loops=[
            LoopSpec(
                body_blocks=2,
                block_size=5,
                trip_count=8,
                trip_jitter=5,
                diamond_prob=0.85,
                diamond_model="bernoulli",
                diamond_taken_prob=0.88,
                arrays=("rtl", "symtab"),
            ),
            LoopSpec(
                body_blocks=3,
                block_size=5,
                trip_count=12,
                trip_jitter=6,
                diamond_prob=0.8,
                diamond_model="markov",
                diamond_taken_prob=0.82,
                arrays=("rtl", "obstack"),
            ),
        ],
        chain_bias=0.48,
        live_window=9,
        accumulators=2,
        accumulate_prob=0.15,
        # Many distinct nests: the big-code benchmark of the suite.
        code_replicas=40,
    )
    return generate_workload(spec)


def build_ora(seed: int = 41) -> Workload:
    spec = WorkloadSpec(
        name="ora",
        seed=seed,
        mix={
            "int_alu": 0.13,
            "int_mul": 0.0,
            "fp_alu": 0.72,
            "fp_div": 0.04,
            "load": 0.07,
            "store": 0.04,
        },
        arrays=[
            ArraySpec("rays", kind="stack", size=2048, fp=True),
        ],
        loops=[
            LoopSpec(
                body_blocks=3,
                block_size=10,
                trip_count=150,
                trip_jitter=0,
                diamond_prob=0.3,
                diamond_model="bernoulli",
                diamond_taken_prob=0.92,
                arrays=("rays",),
            ),
            LoopSpec(
                body_blocks=2,
                block_size=9,
                trip_count=80,
                trip_jitter=0,
                diamond_prob=0.2,
                diamond_model="pattern",
                arrays=("rays",),
            ),
        ],
        # A long serial chain: successive surface intersections depend on
        # each other (sqrt/divide chains).
        chain_bias=0.88,
        live_window=5,
        accumulators=1,
        accumulate_prob=0.5,
    )
    return generate_workload(spec)


def build_su2cor(seed: int = 53) -> Workload:
    spec = WorkloadSpec(
        name="su2cor",
        seed=seed,
        mix={
            "int_alu": 0.14,
            "int_mul": 0.005,
            "fp_alu": 0.44,
            "fp_div": 0.012,
            "load": 0.28,
            "store": 0.125,
        },
        arrays=[
            ArraySpec("gauge", kind="strided", size=1 << 21, stride=8, fp=True),
            ArraySpec("prop", kind="strided", size=1 << 21, stride=16, fp=True),
            ArraySpec("tmp", kind="strided", size=1 << 18, stride=8, fp=True),
        ],
        loops=[
            LoopSpec(
                body_blocks=2,
                block_size=16,
                trip_count=100,
                trip_jitter=0,
                arrays=("gauge", "prop"),
            ),
            LoopSpec(
                body_blocks=2,
                block_size=14,
                trip_count=80,
                trip_jitter=0,
                diamond_prob=0.15,
                diamond_taken_prob=0.9,
                arrays=("prop", "tmp"),
            ),
            LoopSpec(
                body_blocks=1,
                block_size=18,
                trip_count=120,
                trip_jitter=0,
                arrays=("gauge", "tmp"),
            ),
        ],
        chain_bias=0.36,
        live_window=13,
        accumulators=3,
        accumulate_prob=0.13,
    )
    return generate_workload(spec)


def build_tomcatv(seed: int = 61) -> Workload:
    spec = WorkloadSpec(
        name="tomcatv",
        seed=seed,
        mix={
            "int_alu": 0.12,
            "int_mul": 0.0,
            "fp_alu": 0.42,
            "fp_div": 0.015,
            "load": 0.31,
            "store": 0.135,
        },
        arrays=[
            ArraySpec("x", kind="strided", size=1 << 22, stride=8, fp=True),
            ArraySpec("y", kind="strided", size=1 << 22, stride=8, fp=True),
            ArraySpec("rx", kind="strided", size=1 << 21, stride=8, fp=True),
            ArraySpec("ry", kind="strided", size=1 << 21, stride=8, fp=True),
        ],
        loops=[
            LoopSpec(
                body_blocks=1,
                block_size=22,
                trip_count=250,
                trip_jitter=0,
                arrays=("x", "y", "rx"),
            ),
            LoopSpec(
                body_blocks=2,
                block_size=18,
                trip_count=250,
                trip_jitter=0,
                arrays=("rx", "ry", "y"),
            ),
        ],
        chain_bias=0.35,
        live_window=12,
        accumulators=2,
        accumulate_prob=0.12,
    )
    return generate_workload(spec)


#: Benchmark registry: name -> builder.
SPEC92: dict[str, Callable[[], Workload]] = {
    "compress": build_compress,
    "doduc": build_doduc,
    "gcc1": build_gcc1,
    "ora": build_ora,
    "su2cor": build_su2cor,
    "tomcatv": build_tomcatv,
}

#: Paper Table 2 reference values: benchmark -> (none %, local %).
PAPER_TABLE2: dict[str, tuple[int, int]] = {
    "compress": (-14, +6),
    "doduc": (-21, -15),
    "gcc1": (-15, -10),
    "ora": (-5, -22),
    "su2cor": (-36, -25),
    "tomcatv": (-41, -19),
}


def check_benchmark(name: str, valid: Iterable[str] = SPEC92) -> None:
    """Raise the :class:`~repro.errors.ConfigError` every command gives for
    a benchmark name not in ``valid``: it lists the valid names and
    suggests the closest one."""
    if name in valid:
        return
    valid = sorted(valid)
    message = f"unknown benchmark {name!r}; valid benchmarks: {', '.join(valid)}"
    close = difflib.get_close_matches(name, valid, n=1)
    if close:
        message += f" (did you mean {close[0]!r}?)"
    raise ConfigError(message, benchmark=name)


def build_benchmark(name: str) -> Workload:
    """Build one of the six SPEC92 stand-ins by name."""
    check_benchmark(name)
    return SPEC92[name]()
