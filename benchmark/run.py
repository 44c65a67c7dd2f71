"""Benchmark of walsh-spectra: end-to-end and per-layer metrics for four workloads.

Run from the repository root::

    python3 benchmark/run.py --workload cli-simulate --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seconds 20       # every workload, one table

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` alternates untraced and traced ops and reports the
per-layer metrics from the traced ones (see tracing.py).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric with its unit and a ``report:`` line with the environment,
the op statistics and the per-layer ratios with their bases.  The same
report, and the spans of a traced run, are written under ``.bench_out/``.
README.md documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: fresh-interpreter launches timed for setup_s (after one untimed launch)
SETUP_LAUNCHES = 7
#: calibration-kernel time that defines one reference second (see Calibrator)
REFERENCE_KERNEL_S = 0.04
#: each calibration bracket lasts at least this share of the previous op
BRACKET_SHARE = 0.05
#: wall time of a bare ``import numpy`` launch that defines one reference
#: second of set-up time (see measure_setup)
REFERENCE_LAUNCH_S = 0.15
#: measured ops per run at least, whatever --seconds says
MIN_OPS = 3
#: a tail percentile is reported only with this many ops beyond it
TAIL_OPS = 10

END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("work_per_s", "units/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
]

PER_LAYER = [
    ("cli.main.self_s", "s"),
    ("cli.bytes_out", "bytes"),
    ("processes.simulate.self_s", "s"),
    ("processes.make_innovations.total_s", "s"),
    ("processes.make_innovations.values", "count"),
    ("processes.decay_experiment.self_s", "s"),
    ("processes.dma_coefficient_rows.total_s", "s"),
    ("processes.convert_spec_frozen.calls", "count"),
    ("curves.eval_curve.total_s", "s"),
    ("curves.eval_curve.calls", "count"),
    ("curves.eval_curve.points", "count"),
    ("dyadic.fwht.self_s", "s"),
    ("dyadic.fwht.calls", "count"),
    ("dyadic.fwht.points", "count"),
    ("dyadic.fwht.flops", "flop_computed"),
    ("dyadic.fwht.bytes", "B_computed"),
    ("dyadic.bit_reversal_permutation.total_s", "s"),
    ("dyadic.bit_reversal_permutation.calls", "count"),
    ("poly.to_moving_average.total_s", "s"),
    ("poly.to_moving_average.calls", "count"),
    ("spectra.segmented_local_spectrum.self_s", "s"),
    ("spectra.walsh_periodogram.self_s", "s"),
    ("spectra.smooth_periodogram.total_s", "s"),
    ("spectra.smooth_periodogram.calls", "count"),
    ("spectra.tv_dyadic_density.total_s", "s"),
    ("spectra.tv_fourier_density.total_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
]

#: per-layer ratios reported with their base: (name, time key, base key)
RATIOS = [
    ("cli.main.ns_per_byte_out", "cli.main.self_s", "cli.bytes_out"),
    ("processes.make_innovations.ns_per_value", "processes.make_innovations.total_s", "processes.make_innovations.values"),
    ("curves.eval_curve.ns_per_point", "curves.eval_curve.total_s", "curves.eval_curve.points"),
    ("dyadic.fwht.ns_per_point", "dyadic.fwht.self_s", "dyadic.fwht.points"),
    ("dyadic.fwht.ns_per_byte_computed", "dyadic.fwht.self_s", "dyadic.fwht.bytes"),
]


# --------------------------------------------------------------------------
# environment and set-up time


def _openblas_threads():
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "openblas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "platform": platform.platform(),
    }


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def scaled(self, x):
        return self.value * x + 1.0


class Calibrator:
    """Fixed work that measures how fast the machine runs right now.

    On a shared host the same op's wall time drifts by tens of percent
    within a minute, and a whole run can be fast or slow.  Every op is
    therefore bracketed by this kernel and reported in reference seconds:
    ``wall * REFERENCE_KERNEL_S / mean(kernel before, kernel after)``.  The kernel mixes, in about equal shares of its time,
    the four kinds of work the workloads mix: float formatting, numpy
    arithmetic on 4 MB buffers, many numpy calls on 512-point arrays, and
    plain Python method calls.  It uses no package code, so a change to
    the package moves reference seconds exactly as it moves wall time.
    Its buffers are preallocated, so it allocates almost nothing and can
    run while an op's result is alive without raising the peak memory.
    Raw wall times are kept in the report.
    """

    WARMUP_RUNS = 3

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.floats = rng.standard_normal(5000).tolist()
        self.source = rng.standard_normal(1 << 19)
        self.buffer = np.empty_like(self.source)
        self.small = rng.standard_normal(512)
        self.cells = [_Cell(i) for i in range(100)]
        self.times: list[float] = []
        for _ in range(self.WARMUP_RUNS):
            self._kernel()

    def _kernel(self) -> None:
        import numpy as np

        for _ in range(2):
            "\n".join(f"{i},{x!r}" for i, x in enumerate(self.floats))
        for _ in range(6):
            np.multiply(self.source, 0.5, out=self.buffer)
            self.buffer += self.source
            np.sqrt(np.abs(self.buffer, out=self.buffer), out=self.buffer)
        for _ in range(1600):
            a = self.small.reshape(16, 2, 16).copy()
            a[:, 0, :] += a[:, 1, :]
            a.reshape(512)[::-1].sum()
        total, last = 0.0, {}
        for r in range(900):
            for cell in self.cells:
                total += cell.scaled(r)
                last[cell.value] = total

    def run(self, min_seconds: float = 0.0) -> float:
        """Mean time of one kernel, over as many kernels as fill `min_seconds` (at least one).

        A longer op gets a longer bracket, so that the speed estimate
        averages over more of the machine's short-term fluctuation.
        """
        start = time.perf_counter()
        runs = 0
        while True:
            self._kernel()
            runs += 1
            elapsed = time.perf_counter() - start
            if elapsed >= min_seconds:
                break
        self.times.append(elapsed / runs)
        return elapsed / runs


def to_reference(wall: float, before: float, after: float, reference: float = REFERENCE_KERNEL_S) -> float:
    """Wall seconds of an interval bracketed by reference work -> reference seconds."""
    return wall * reference * 2 / (before + after)


def measure_setup(launches: int = SETUP_LAUNCHES) -> tuple[float, list[float]]:
    """Median time of a fresh interpreter importing the CLI and building its parser.

    A launch is a different kind of work from the calibration kernel
    (exec, dynamic loading, reading bytecode), so each CLI launch is
    bracketed by launches of a bare ``import numpy`` instead, the bulk of
    the CLI's own import, and reported in reference seconds:
    ``wall * REFERENCE_LAUNCH_S / mean(numpy launch before, after)``.
    Returns that median and the raw wall times of the CLI launches.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def launch(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    cli = "import walsh_spectra.cli as c; c.build_parser()"
    launch(cli)  # fills the file cache and writes bytecode
    before = launch("import numpy")
    walls, times = [], []
    for _ in range(launches):
        walls.append(launch(cli))
        after = launch("import numpy")
        times.append(to_reference(walls[-1], before, after, REFERENCE_LAUNCH_S))
        before = after
    return statistics.median(times), walls


# --------------------------------------------------------------------------
# ops


def run_op(workload, op: int, calibrator: Calibrator, tracer=None, bracket_s: float = 0.0) -> tuple[tuple | None, bool]:
    """One op: fresh inputs and temp dir, timed run, untimed check, cleanup.

    Returns ((reference seconds, wall seconds), ok); the times are None
    when the op raised.
    """
    from workloads import output_bytes

    inputs = workload.next_inputs()
    tmp = Path(tempfile.mkdtemp(prefix="op-", dir=OUT / "tmp"))
    try:
        gc.collect()
        before = calibrator.run(bracket_s)
        start = time.perf_counter()
        try:
            if tracer is not None:
                tracer.install()
                span = tracer.begin_op(op)
            try:
                result = workload.run(inputs, tmp)
            finally:
                if tracer is not None:
                    tracer.end_op(span)
                    tracer.uninstall()
            wall = time.perf_counter() - start
        except Exception:
            print(f"op {op} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None, False
        times = (to_reference(wall, before, calibrator.run(bracket_s)), wall)
        if tracer is not None:
            tracer.count("cli.bytes_out", output_bytes(tmp))
        try:
            workload.check(inputs, result, tmp)
        except Exception:
            print(f"op {op} failed its check (inputs {inputs}):\n{traceback.format_exc()}", file=sys.stderr)
            return times, False
        return times, True
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def tail(times: list[float]) -> dict | None:
    """Highest percentile with TAIL_OPS ops beyond it (None below 2 * TAIL_OPS ops)."""
    n = len(times)
    if n < 2 * TAIL_OPS:
        return None
    rank = n - TAIL_OPS
    return {"value": sorted(times)[rank - 1], "percentile": 100.0 * rank / n, "ops": n}


def measure(workload, seconds: float, trace: bool, warmup=None) -> dict:
    """Run ops until `seconds` have passed (after an untimed `warmup` op).

    In a traced run, even-numbered ops run untraced and odd ones traced,
    so the tracing overhead is measured in the same process.
    """
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    calibrator = Calibrator()
    tracer = tracing.Tracer() if trace else None
    attempted = failed = 0
    if warmup is not None:
        _, ok = run_op(warmup, -1, calibrator)
        attempted, failed = 1, int(not ok)
    plain, traced, traced_ids = [], [], []
    # a traced run needs two ops of each kind for its medians
    min_ops = 4 if trace else MIN_OPS
    deadline = time.perf_counter() + seconds
    op = 0
    bracket_s = 0.0
    while op < min_ops or time.perf_counter() < deadline:
        use_tracer = tracer if trace and op % 2 else None
        times, ok = run_op(workload, op, calibrator, use_tracer, bracket_s)
        attempted += 1
        failed += not ok
        if times is not None:
            bracket_s = BRACKET_SHARE * times[1]
            (traced if use_tracer else plain).append(times)
            if use_tracer:
                traced_ids.append(op)
        op += 1
    stats = {
        "attempted": attempted,
        "failed": failed,
        "op_times_s": [t for t, _ in plain],
        "op_wall_times_s": [wall for _, wall in plain],
        "units_per_op": workload.units,
        "unit": workload.unit,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calibration_times_s": calibrator.times,
    }
    if trace:
        stats["traced_op_times_s"] = [t for t, _ in traced]
        stats["per_op"] = {i: dict(v) for i, v in tracer.per_op().items() if i in traced_ids}
        stats["tracer"] = tracer
    return stats


# --------------------------------------------------------------------------
# metrics


def end_to_end_metrics(stats: dict, setup_s: float) -> dict:
    times = stats["op_times_s"]
    return {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(times),
        "work_per_s": stats["units_per_op"] * len(times) / sum(times),
        "peak_rss_mb": stats["peak_rss_mb"],
        "ok_ratio": (stats["attempted"] - stats["failed"]) / stats["attempted"],
    }


def per_layer_metrics(stats: dict) -> tuple[dict, dict]:
    """Per-layer metrics (means per traced op) and the ratios with their bases."""
    ops = list(stats["per_op"].values())

    def mean(key):
        return sum(o.get(key, 0.0) for o in ops) / len(ops)

    metrics = {name: mean(name) for name, _ in PER_LAYER if not name.startswith("trace.")}
    plain, traced = stats["op_times_s"], stats["traced_op_times_s"]
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.unattributed_frac"] = sum(
        o["bench.op.self_s"] / o["bench.op.total_s"] for o in ops
    ) / len(ops)
    ratios = {}
    for name, key, base in RATIOS:
        count = mean(base)
        ratios[name] = {
            "value": 1e9 * mean(key) / count if count else None,
            "unit": "ns",
            "base": count,
            "base_metric": base,
        }
    return metrics, ratios


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    env = environment()
    stats = measure(
        workloads.make(workload_name, seed), seconds, trace,
        warmup=workloads.make(workload_name, seed, reduced=True),
    )
    times = stats["op_times_s"]
    report = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "failed_ratio": stats["failed"] / stats["attempted"],
        "ops_timed": len(times),
        "op_times_s": times,
        "op_wall_times_s": stats["op_wall_times_s"],
        "op_wall_p50_s": statistics.median(stats["op_wall_times_s"]),
        "op_tail_s": tail(times),
        "reference_kernel_s": REFERENCE_KERNEL_S,
        "reference_launch_s": REFERENCE_LAUNCH_S,
        "work_unit": f"{stats['unit']} ({stats['units_per_op']} per op)",
    }
    if trace:
        metrics, report["ratios"] = per_layer_metrics(stats)
        units = dict(PER_LAYER)
        report["traced_op_times_s"] = stats["traced_op_times_s"]
        stats["tracer"].write(OUT / f"spans-{workload_name}.jsonl")
    else:
        setup_s, report["setup_wall_times_s"] = measure_setup()
        metrics = end_to_end_metrics(stats, setup_s)
        units = dict(END_TO_END)
    report["calibration_times_s"] = stats["calibration_times_s"]
    report["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    with open(OUT / f"{workload_name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    shutil.rmtree(OUT / "tmp", ignore_errors=True)
    return report


def print_report(report: dict) -> None:
    for name, m in report["metrics"].items():
        print(f"{report['workload']:16s} {name:42s} {m['value']:>14.6g} {m['unit']}")
    if report.get("op_tail_s"):
        t = report["op_tail_s"]
        print(f"{report['workload']:16s} {'op_tail_s (p%.1f of %d ops)' % (t['percentile'], t['ops']):42s} {t['value']:>14.6g} s")
    for name, r in report.get("ratios", {}).items():
        value = "n/a" if r["value"] is None else f"{r['value']:.4g}"
        print(f"{report['workload']:16s} {name:42s} {value:>14s} ns  (base {r['base']:.6g} {r['base_metric']} per op)")
    print("report: " + json.dumps({k: v for k, v in report.items() if k not in ("metrics", "op_times_s")}))


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own interpreter (so peak RSS is per workload)."""
    import workloads

    results, code = {}, 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("report: ")))
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "walsh_spectra" / "__init__.py").is_file():
        print(f"error: no walsh_spectra package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    OUT.mkdir(exist_ok=True)
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
