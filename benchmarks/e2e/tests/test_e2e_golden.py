"""Golden checks, mismatch handling, pair alternation and the --compare verdicts."""

import json

import pytest

import run
import workloads


def _outcome(spec, quick=True):
    size = spec.size(quick)
    ops = workloads.expected_ops(spec, quick)
    return {
        "ops": {op: f"fp-{op}" for op in ops},
        "instructions": {op: size.trace_length for op in ops},
        "retired": len(ops) * size.trace_length,
        "failed": [],
    }


def test_check_rules():
    spec = workloads.WORKLOADS["kernels-sim"]
    outcome = _outcome(spec)
    golden = {"ops": dict(outcome["ops"])}
    assert workloads.check(spec, True, outcome, golden) == []
    golden["ops"]["dot:dual_local"] = "something else"
    assert workloads.check(spec, True, outcome, golden) == ["dot:dual_local"]
    # Without a golden file: every part retires exactly its trace.
    outcome["instructions"]["daxpy:single"] -= 1
    assert workloads.check(spec, True, outcome, None) == ["daxpy:single"]
    # A missing op and a reported failure both count.
    del outcome["ops"]["strhash:single"]
    outcome["failed"].append("listwalk:single")
    assert set(workloads.check(spec, True, outcome, None)) == {
        "daxpy:single", "strhash:single", "listwalk:single",
    }
    # The serial reference must match op for op.
    reference = dict(_outcome(spec)["ops"], **{"dot:single": "other"})
    assert "dot:single" in workloads.check(spec, True, _outcome(spec), None, reference)


def test_golden_files_cover_the_golden_seeds():
    for spec in workloads.WORKLOADS.values():
        for seed in run.GOLDEN_SEEDS:
            golden = run.golden_for(spec, seed, False)
            assert golden is not None, (spec.name, seed)
            assert golden["trace_length"] == spec.full.trace_length, (spec.name, seed)
            assert sorted(golden["ops"]) == sorted(workloads.expected_ops(spec, False))


def _last_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_golden_mismatch_fails_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "GOLDEN_DIR", tmp_path / "golden")
    assert run.main(["--write-golden", "--quick", "--seed", "3",
                     "--workloads", "kernels-sim"]) == 0
    path = run.GOLDEN_DIR / "kernels-seed3-quick.json"
    payload = json.loads(path.read_text())
    payload["ops"]["dot:dual_none"] = "0" * 64
    path.write_text(json.dumps(payload))

    out = tmp_path / "out"
    assert run.main(["--quick", "--seed", "3", "--reps", "1", "--workloads", "kernels-sim",
                     "--out", str(out)]) == 1
    result = json.loads((out / "results.json").read_text())["workloads"]["kernels-sim"]
    assert result["error_rate"] > 0
    assert any(op.endswith("/dot:dual_none") for op in result["mismatched"])

    capsys.readouterr()
    assert run.main(["--workload", "kernels-sim", "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--quick"]) == 1
    last = _last_line(capsys)
    assert last["correct"] is False and last["failed"] >= 1


class FakeChildren:
    """Stands in for ``run.spawn``: every rep reports the same ops, except
    the rep numbered ``corrupt`` (counting untraced ``rep`` spawns from 0)."""

    def __init__(self, corrupt=None):
        self.corrupt = corrupt
        self.calls = []

    def __call__(self, mode, workload, seed, quick, *extra, root=run.ROOT):
        self.calls.append((mode, extra, root))
        if mode == "setup":
            return run.ChildRun(0.3, None)
        spec = workloads.WORKLOADS[workload]
        outcome = _outcome(spec, quick)
        plain_reps = [c for c in self.calls if c[0] == "rep" and not c[1]]
        if mode == "rep" and not extra and len(plain_reps) - 1 == self.corrupt:
            op = workloads.expected_ops(spec, quick)[-1]
            outcome["ops"][op] = "corrupt"
        result = {"wall_s": 1.0, "peak_rss_mb": 50.0, "outcome": outcome}
        if mode == "traced":
            size = spec.size(quick)
            result.update(
                metrics={"executor.busy_s": 1.0}, breakdown={}, largest_layer="x",
                simulations=len(outcome["ops"]),
                instructions=len(outcome["ops"]) * size.trace_length,
            )
        return run.ChildRun(0.3, result)


@pytest.mark.parametrize("workload", ["kernels-sim", "table2-jobs2"])
@pytest.mark.parametrize("corrupt", [None, 0, 1])
def test_reps_must_agree_on_a_seed_without_golden(workload, corrupt, monkeypatch, capsys):
    children = FakeChildren(corrupt)
    monkeypatch.setattr(run, "spawn", children)
    status = run.main(["--workload", workload, "--seed", "3", "--seconds", "3",
                       "--trace", "0", "--quick"])
    last = _last_line(capsys)
    assert status == (0 if corrupt is None else 1)
    assert last["correct"] is (corrupt is None)
    assert (last["failed"] > 0) is (corrupt is not None)
    serial = [c for c in children.calls if c[1] == ("--jobs", "1")]
    assert len(serial) == (1 if workloads.WORKLOADS[workload].jobs > 1 else 0)


def test_ab_alternates_which_side_runs_first(tmp_path, monkeypatch, capsys):
    roots = []
    for side in "ab":
        (tmp_path / side / "src" / "repro").mkdir(parents=True)
        (tmp_path / side / "src" / "repro" / "__init__.py").write_text("")
        roots.append(tmp_path / side)
    children = FakeChildren()
    monkeypatch.setattr(run, "spawn", children)
    out = tmp_path / "out"
    assert run.main(["--ab", str(roots[0]), str(roots[1]), "--reps", "4", "--quick",
                     "--workloads", "kernels-sim", "--out", str(out)]) == 0
    a, b = roots
    order = [root for mode, extra, root in children.calls if mode == "rep"]
    assert order == [a, b, b, a, a, b, b, a]
    setups = [root for mode, extra, root in children.calls if mode == "setup"]
    assert setups[:4] == [a, b, b, a]
    saved = json.loads((out / "compare.json").read_text())
    assert [s["workloads"]["kernels-sim"]["end_to_end"]["wall_s"]["n"]
            for s in saved["sets"]] == [4, 4]
    assert {r["verdict"] for r in saved["compare"]} == {"unchanged"}
    wall = next(r for r in saved["compare"] if r["metric"] == "wall_s")
    assert (wall["pairs"], wall["b_better_pairs"], wall["pair_ratio"]) == (4, 0, 1.0)
    capsys.readouterr()
    assert run.main(["--compare", str(out / "compare.json")]) == 0
    assert "B better in 0/4 pairs" in capsys.readouterr().out


def _summary(samples):
    return run.summarize(samples, "s")


def test_compare_verdicts():
    steady = [10.0, 10.1, 10.2, 9.9, 10.0]
    assert run.verdict(_summary(steady), _summary(steady), "lower", 0.1) == "unchanged"
    slower = [x * 1.3 for x in steady]
    assert run.verdict(_summary(steady), _summary(slower), "lower", 0.1) == "worse"
    assert run.verdict(_summary(slower), _summary(steady), "lower", 0.1) == "better"
    # Higher-is-better metrics flip the sign.
    assert run.verdict(_summary(steady), _summary(slower), "higher", 0.1) == "better"
    noisy = [5.0, 15.0, 10.0, 7.0, 13.0]
    assert run.verdict(_summary(steady), _summary(noisy), "lower", 0.1) == "unresolved"
