"""A --quick pass over every workload, and the one-line result format."""

import json
import shutil
import time
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_quick_suite_emits_every_metric(tmp_path, bench):
    start = time.monotonic()
    done = bench("--quick", "--reps", "1", "--out", str(tmp_path))
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 60, f"quick suite took {elapsed:.1f}s"
    results = json.loads((tmp_path / "results.json").read_text())["workloads"]
    assert sorted(results) == sorted(w["name"] for w in DEFINITION["workloads"])
    for name, result in results.items():
        assert result["correct"] and result["error_rate"] == 0, name
        for metric in DEFINITION["end_to_end"]:
            summary = result["end_to_end"][metric["name"]]
            assert summary["median"] > 0 and summary["unit"] == metric["unit"], name
        for metric in DEFINITION["per_layer"]:
            assert metric["name"] in result["per_layer"], (name, metric["name"])
        trace = json.loads((tmp_path / f"{name}.trace.json").read_text())
        assert trace["traceEvents"], name
    assert "paper_err_pct" in results["table2-compile"]


def test_one_line_results(bench):
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = bench("--workload", "kernels-sim", "--seed", "5", "--seconds", "1",
                     "--trace", trace, "--quick")
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert sorted(line["metrics"]) == sorted(m["name"] for m in DEFINITION[key])


def test_refuses_to_run_without_the_program(tmp_path, bench):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "kernels-sim", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
