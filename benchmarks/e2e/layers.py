"""Which program names the traced run wraps, and how spans become layer metrics.

Every span name is ``<layer>.<function>``.  A layer metric is a sum of
*self* times, so the compiler steps, partitioning, validation, trace
generation and simulation add up to the traced run without double
counting; ``compiler.unattributed_s`` is what ``compile_program`` spends
outside every wrapped step, so a call a later change moves out of a
wrapped step shows up there instead of vanishing.

The serial search path looks ``evaluate_point``/``compute_baseline`` up in
``repro.gym.drivers`` and the parallel one in ``repro.gym.fitness``, so both
namespaces are wrapped.
"""

from __future__ import annotations

import statistics

from tracer import Target, Tracer


def _part_attrs(args: tuple, kwargs: dict) -> dict:
    workload = args[0] if args else kwargs["workload"]
    part = args[1] if len(args) > 1 else kwargs["part"]
    return {"bench": workload.name, "part": part}


def _count_sim(tracer: Tracer, result) -> None:
    tracer.count("uarch.cycles", result.cycles)
    tracer.count("uarch.instructions", result.stats.instructions)
    tracer.count("uarch.simulations")


def _count_cache(tracer: Tracer, result) -> None:
    tracer.count("cache.misses" if result is None else "cache.hits")


def _count_trace(tracer: Tracer, result) -> None:
    tracer.count("workloads.trace_instructions", len(result))


def _count_rounds(tracer: Tracer, result) -> None:
    tracer.count("compiler.regalloc_rounds", result.iterations)


_PIPELINE = "repro.compiler.pipeline"
_REGALLOC = "repro.compiler.regalloc"
_HARNESS = "repro.experiments.harness"

TARGETS: tuple[Target, ...] = (
    Target(_PIPELINE, "copy.deepcopy", "compiler.deepcopy"),
    Target(_PIPELINE, "optimize_program", "compiler.optimize_program"),
    Target(_PIPELINE, "schedule_program", "compiler.schedule_program"),
    Target(_PIPELINE, "profile_analytically", "compiler.profile_analytically"),
    Target(_PIPELINE, "build_live_ranges", "compiler.build_live_ranges"),
    Target(_PIPELINE, "designate_global_candidates", "compiler.designate_global_candidates"),
    Target(_PIPELINE, "static_distribution_stats", "core.static_distribution_stats"),
    Target(_PIPELINE, "allocate_registers", "compiler.allocate_registers",
           observe=_count_rounds),
    Target(_PIPELINE, "lower_program", "compiler.lower_program"),
    Target(_PIPELINE, "schedule_machine_program", "compiler.schedule_machine_program"),
    Target(_REGALLOC, "build_live_ranges", "compiler.build_live_ranges"),
    Target(_REGALLOC, "compute_spill_weights", "compiler.compute_spill_weights"),
    Target(_REGALLOC, "color_graph", "compiler.color_graph"),
    Target(_REGALLOC, "insert_spill_code", "compiler.insert_spill_code"),
    Target(_HARNESS, "compile_program", "harness.compile_program"),
    Target(_HARNESS, "validate_run", "robustness.validate_run"),
    Target(_HARNESS, "simulate", "uarch.simulate", observe=_count_sim),
    Target(_HARNESS, "evaluate_workload_part", "harness.evaluate_workload_part",
           attrs=_part_attrs),
    Target("repro.gym.fitness", "evaluate_point", "gym.evaluate_point"),
    Target("repro.gym.fitness", "compute_baseline", "gym.compute_baseline"),
    Target("repro.gym.fitness", "evaluate_workload_part", "gym.evaluate_workload_part",
           attrs=_part_attrs),
    Target("repro.gym.fitness", "build_benchmark", "workloads.build_benchmark"),
    Target("repro.gym.drivers", "evaluate_point", "gym.evaluate_point"),
    Target("repro.gym.drivers", "compute_baseline", "gym.compute_baseline"),
    Target("repro.core.partition.local", "LocalScheduler.partition",
           "core.LocalScheduler.partition"),
    Target("repro.workloads.tracegen", "TraceGenerator.generate",
           "workloads.TraceGenerator.generate", observe=_count_trace),
    Target("repro.perf.cache", "ArtifactCache.get", "cache.ArtifactCache.get",
           observe=_count_cache),
    Target("repro.perf.cache", "ArtifactCache.put", "cache.ArtifactCache.put"),
)

#: Span names the benchmark itself opens around set-up and the run.
BUILD_SPAN = "workloads.build"
RUN_SPAN = "e2e.run"

#: Self-time layers: metric -> span names whose self time it sums.  No two
#: overlap, so the largest is the layer that dominates the run.
SELF_LAYERS: dict[str, tuple[str, ...]] = {
    "workloads.tracegen_s": ("workloads.TraceGenerator.generate",),
    "compiler.copy_s": ("compiler.deepcopy",),
    "compiler.optimize_s": ("compiler.optimize_program",),
    "compiler.prepass_schedule_s": ("compiler.schedule_program",),
    "compiler.profile_s": ("compiler.profile_analytically",),
    "compiler.webs_s": ("compiler.build_live_ranges", "compiler.designate_global_candidates"),
    "compiler.regalloc_s": ("compiler.allocate_registers", "compiler.compute_spill_weights"),
    "compiler.color_s": ("compiler.color_graph",),
    "compiler.spill_s": ("compiler.insert_spill_code",),
    "compiler.lower_s": ("compiler.lower_program",),
    "compiler.postpass_s": ("compiler.schedule_machine_program",),
    "compiler.unattributed_s": ("harness.compile_program",),
    "core.partition_s": ("core.LocalScheduler.partition",),
    "core.distribution_stats_s": ("core.static_distribution_stats",),
    "robustness.validate_s": ("robustness.validate_run",),
    "uarch.simulate_s": ("uarch.simulate",),
}

#: Spans that are one unit of fanned-out work, per workload kind.
TASK_SPANS = {
    "table2": ("harness.evaluate_workload_part",),
    "kernels": ("harness.evaluate_workload_part",),
    "explore": ("gym.evaluate_point", "gym.compute_baseline"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, kind: str) -> dict[str, float]:
    """Per-layer metrics of one traced serial run, from its spans and
    counters alone (the ratios against untraced walls are ``run.py``'s)."""
    names = tracer.by_name()
    c = tracer.counters

    def calls(name: str) -> int:
        return names.get(name, {}).get("calls", 0)

    def total(name: str) -> float:
        return names.get(name, {}).get("total_s", 0.0)

    m: dict[str, float] = {}
    m["workloads.build_s"] = tracer.self_seconds([BUILD_SPAN, "workloads.build_benchmark"])
    for metric, spans in SELF_LAYERS.items():
        m[metric] = tracer.self_seconds(spans)
    m["workloads.tracegen_calls"] = calls("workloads.TraceGenerator.generate")
    m["workloads.tracegen_kips"] = _ratio(
        c["workloads.trace_instructions"], 1000 * m["workloads.tracegen_s"]
    )

    compiles = [s.duration for s in tracer.spans if s.name == "harness.compile_program"]
    m["compiler.compile_s"] = sum(compiles)
    m["compiler.compiles"] = len(compiles)
    m["compiler.slowest_compile_s"] = max(compiles, default=0.0)
    m["compiler.webs_calls"] = calls("compiler.build_live_ranges")
    m["compiler.regalloc_rounds"] = c["compiler.regalloc_rounds"]
    m["core.partition_share"] = _ratio(
        m["core.partition_s"] + m["core.distribution_stats_s"], m["compiler.compile_s"]
    )

    sim_s = m["uarch.simulate_s"]
    m["uarch.simulate_s.single"] = tracer.self_seconds(["uarch.simulate"], part="single")
    m["uarch.cycles"] = c["uarch.cycles"]
    m["uarch.sim_kips"] = _ratio(c["uarch.instructions"], 1000 * sim_s)
    m["uarch.host_us_per_kcycle"] = _ratio(1e6 * sim_s, c["uarch.cycles"] / 1000)

    m["cache.hits"] = c["cache.hits"]
    m["cache.misses"] = c["cache.misses"]
    m["cache.hit_rate"] = _ratio(c["cache.hits"], c["cache.hits"] + c["cache.misses"])

    if kind == "explore":
        m["harness.baseline_s"] = total("gym.compute_baseline")
    else:
        m["harness.baseline_s"] = sum(
            s.duration for s in tracer.spans
            if s.name == "harness.evaluate_workload_part" and s.ctx.get("part") == "single"
        )

    tasks = [s.duration for s in tracer.spans if s.name in TASK_SPANS[kind] and s.outermost]
    m["executor.tasks"] = len(tasks)
    m["executor.busy_s"] = sum(tasks)
    m["executor.task_median_s"] = statistics.median(tasks) if tasks else 0.0
    m["executor.critical_task_s"] = max(tasks, default=0.0)

    m["gym.trials"] = calls("gym.evaluate_point")
    m["trace.spans"] = len(tracer.spans)
    return m


def breakdown(tracer: Tracer) -> dict:
    """Per-benchmark and per-part detail for the layer report."""
    compile_by_bench: dict[str, float] = {}
    sim_by_part: dict[str, float] = {}
    for s in tracer.spans:
        if s.name == "harness.compile_program":
            bench = s.ctx.get("bench", "?")
            compile_by_bench[bench] = compile_by_bench.get(bench, 0.0) + s.duration
        elif s.name == "uarch.simulate":
            part = s.ctx.get("part", "?")
            sim_by_part[part] = sim_by_part.get(part, 0.0) + s.self_s
    return {
        "compiler.compile_s": dict(sorted(compile_by_bench.items())),
        "uarch.simulate_s": dict(sorted(sim_by_part.items())),
        "spans": {k: v for k, v in sorted(tracer.by_name().items())},
    }


def largest_layer(metrics: dict[str, float]) -> str:
    """The self-time layer with the most seconds."""
    return max(SELF_LAYERS, key=metrics.__getitem__)
