"""Reduced-size smoke test of the benchmark (a few seconds).

It lives outside ``tests/``, so the repository's test run does not collect
it.  Run it from the repository root with either of::

    python3 benchmark/smoke_check.py
    python3 -m pytest -q benchmark/smoke_check.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

def test_benchmark_json_names_what_run_reports():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(workloads.REDUCED)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_untraced_run_reports_every_end_to_end_metric():
    for name in workloads.WORKLOADS:
        stats = run.measure(workloads.make(name, 1, reduced=True), 0.0, trace=False)
        assert stats["failed"] == 0, name
        metrics = run.end_to_end_metrics(stats, setup_s=0.1)
        assert list(metrics) == [m for m, _ in run.END_TO_END], name
        assert all(v > 0 for v in metrics.values()), (name, metrics)


def test_traced_run_reports_every_per_layer_metric_and_self_times_add_up():
    for name in workloads.WORKLOADS:
        stats = run.measure(workloads.make(name, 2, reduced=True), 0.0, trace=True)
        assert stats["failed"] == 0, name
        metrics, ratios = run.per_layer_metrics(stats)
        assert list(metrics) == [m for m, _ in run.PER_LAYER], name
        assert set(ratios) == {r[0] for r in run.RATIOS}
        tracer = stats["tracer"]
        for op, per_op in stats["per_op"].items():
            self_sum = sum(v for k, v in per_op.items() if k.endswith(".self_s"))
            assert abs(self_sum - per_op[f"{tracing.ROOT_SPAN}.total_s"]) < 1e-6, (name, op)
        assert metrics["trace.unattributed_frac"] < 0.05, (name, metrics["trace.unattributed_frac"])
        assert not tracer._patches, "tracer left installed"
    from walsh_spectra import cli, dyadic, processes

    assert cli.simulate is processes.simulate and processes.fwht is dyadic.fwht


def test_tracer_counts_fwht_work():
    from walsh_spectra import dyadic, spectra

    tracer = tracing.Tracer()
    tracer.install()
    try:
        span = tracer.begin_op(0)
        spectra.walsh_periodogram(np.ones(512))
        dyadic.fwht(np.ones((3, 8)))
        tracer.end_op(span)
    finally:
        tracer.uninstall()
    stats = tracer.per_op()[0]
    assert stats["dyadic.fwht.calls"] == 2
    assert stats["dyadic.fwht.points"] == 512 + 24
    assert stats["dyadic.fwht.flops"] == 512 * 9 + 24 * 3
    assert stats["spectra.walsh_periodogram.calls"] == 1
    assert stats["dyadic.bit_reversal_permutation.calls"] == 2


def _scratch() -> Path:
    run.OUT.mkdir(exist_ok=True)
    return run.OUT


def _corrupt_csv(path: Path, row: int) -> None:
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[2 + row].rstrip("\n").split(",")
    fields[-1] = repr(float(fields[-1]) * (1 + 1e-6) + 1e-12)
    lines[2 + row] = ",".join(fields) + "\n"
    path.write_text("".join(lines))


def _corrupt_json(path: Path) -> None:
    payload = json.loads(path.read_text())
    payload["passed"] = False
    path.write_text(json.dumps(payload))


def _corrupt_estimate(result: dict, inputs: dict) -> None:
    result["smoothed"][inputs["segment"]].values[0] *= 1.001


CORRUPT = {
    "cli-simulate": lambda tmp, result, inputs: _corrupt_csv(tmp / "path.csv", 5),
    "lib-estimate": lambda tmp, result, inputs: _corrupt_estimate(result, inputs),
    "cli-periodogram": lambda tmp, result, inputs: _corrupt_csv(tmp / "pgram.csv", 512 * inputs["segment"] + 3),
    "cli-analysis": lambda tmp, result, inputs: _corrupt_json(tmp / "frozen.json"),
}


def test_checks_reject_a_wrong_output():
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, 3, reduced=True)
        inputs = workload.next_inputs()
        with tempfile.TemporaryDirectory(dir=_scratch()) as tmp:
            tmp = Path(tmp)
            result = workload.run(inputs, tmp)
            CORRUPT[name](tmp, result, inputs)
            try:
                workload.check(inputs, result, tmp)
            except AssertionError:
                continue
            raise AssertionError(f"{name}: check accepted a corrupted output")


def test_fails_without_the_package():
    with tempfile.TemporaryDirectory(dir=_scratch()) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "cli-analysis",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for test_name, test in list(globals().items()):
        if test_name.startswith("test_"):
            test()
            print(f"ok  {test_name}")
