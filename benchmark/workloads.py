"""The four benchmark workloads: inputs, one timed op, and its output check.

Each workload draws its per-op inputs from a `random.Random` seeded with
the benchmark's ``--seed`` (never from the package's own seed splitter),
runs one op through the package's real entry points, and checks the op's
output outside the timed region against references computed through
public functions.  Calls go through module attributes
(``cli.main``, ``processes.simulate``, ...) so that a traced run sees
them.  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from pathlib import Path

import numpy as np

from walsh_spectra import cli, dyadic, presets, processes, spectra

HERE = Path(__file__).resolve().parent
TVDARMA_SPEC = HERE / "tvdarma.json"

#: relative tolerance for results whose floating-point summation order may differ
RTOL = 1e-9


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in-process, capturing what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def read_csv(path: Path, header: str) -> np.ndarray:
    """Numeric rows of a CLI CSV after checking its provenance and header lines."""
    with open(path) as fh:
        comment, head = fh.readline(), fh.readline().rstrip("\n")
    if not comment.startswith("# tool=walsh-spectra"):
        raise AssertionError(f"{path.name}: missing provenance comment")
    if head != header:
        raise AssertionError(f"{path.name}: header {head!r}, expected {header!r}")
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


def close(actual, expected, what: str) -> None:
    actual, expected = np.asarray(actual), np.asarray(expected)
    if actual.shape != expected.shape:
        raise AssertionError(f"{what}: shape {actual.shape}, expected {expected.shape}")
    scale = max(float(np.max(np.abs(expected), initial=0.0)), 1e-300)
    err = float(np.max(np.abs(actual - expected), initial=0.0))
    if not err <= RTOL * scale:
        raise AssertionError(f"{what}: max error {err:.3e} exceeds {RTOL:g} * {scale:.3e}")


def reflect_smooth(values: np.ndarray, half_width: int) -> np.ndarray:
    """Moving average over 2w+1 bins with mirrored ends, by explicit index reflection."""
    n = values.size
    idx = np.arange(n)[:, None] + np.arange(-half_width, half_width + 1)[None, :]
    idx = np.where(idx < 0, -idx - 1, idx)
    idx = np.where(idx >= n, 2 * n - 1 - idx, idx)
    return values[idx].mean(axis=1)


def load_tvdarma() -> processes.ProcessSpec:
    with open(TVDARMA_SPEC) as fh:
        return processes.spec_from_dict(json.load(fh))


class Workload:
    """One op per `run` call; `units` units of work per op."""

    name = ""
    unit = ""
    units = 1

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}/{seed}")

    def next_inputs(self) -> dict:
        return {"seed": self.rng.randrange(1 << 32)}

    def run(self, inputs: dict, tmp: Path):
        raise NotImplementedError

    def check(self, inputs: dict, result, tmp: Path) -> None:
        """Raise AssertionError when the op's output is wrong."""
        raise NotImplementedError


class CliSimulate(Workload):
    name = "cli-simulate"
    unit = "samples"

    # 2**19 rather than the 2**20 headline size: a 20 s run then holds about
    # seven ops instead of three or four, which its median needs on a noisy host
    def __init__(self, seed: int, T: int = 1 << 19):
        super().__init__(seed)
        self.T = self.units = T

    def run(self, inputs, tmp):
        return call_cli(
            ["simulate", "--preset", "figure1", "--T", str(self.T),
             "--seed", str(inputs["seed"]), "--out", str(tmp / "path.csv")]
        )

    def check(self, inputs, result, tmp):
        code, _, err = result
        if code != 0:
            raise AssertionError(f"simulate exited {code}: {err.strip()}")
        spec = presets.preset_spec("figure1", seed=inputs["seed"])
        expected = processes.simulate(spec, self.T).values
        rows = read_csv(tmp / "path.csv", "t,u,x_value")
        t = np.arange(self.T)
        if not (np.array_equal(rows[:, 0], t) and np.array_equal(rows[:, 1], t / self.T)):
            raise AssertionError("t or u column differs from t, t/T")
        if not np.array_equal(rows[:, 2], expected):
            raise AssertionError("x_value column differs from simulate(...).values")
        with open(tmp / "path.csv.json") as fh:
            sidecar = json.load(fh)
        want = {"fingerprint": spec.fingerprint(), "seed": inputs["seed"], "T": self.T}
        got = {key: sidecar.get(key) for key in want}
        if got != want:
            raise AssertionError(f"sidecar {got}, expected {want}")


class LibEstimate(Workload):
    name = "lib-estimate"
    unit = "samples"

    def __init__(self, seed: int, T: int = 1 << 20, N: int = 512, smooth: int = 2):
        super().__init__(seed)
        self.T = self.units = T
        self.N = N
        self.smooth = smooth
        self.spec = load_tvdarma()
        self.hadamard = dyadic.hadamard_matrix(N.bit_length() - 1)

    def next_inputs(self):
        inputs = super().next_inputs()
        inputs["segment"] = self.rng.randrange(self.T // self.N)
        return inputs

    def run(self, inputs, tmp):
        path = processes.simulate(self.spec.with_seed(inputs["seed"]), self.T)
        whole = spectra.walsh_periodogram(path.values)
        segments = spectra.segmented_local_spectrum(path, self.N)
        smoothed = [spectra.smooth_periodogram(p, self.smooth) for p in segments]
        return {"path": path, "whole": whole, "segments": segments, "smoothed": smoothed}

    def check(self, inputs, result, tmp):
        path = result["path"]
        energy = float(np.sum(path.values**2))
        if not abs(float(np.sum(result["whole"].values)) - energy) <= RTOL * energy:
            raise AssertionError("Parseval: periodogram mass differs from path energy")
        segments, smoothed = result["segments"], result["smoothed"]
        if len(segments) != self.T // self.N or len(smoothed) != len(segments):
            raise AssertionError(f"{len(segments)} segments, expected {self.T // self.N}")
        k = inputs["segment"]
        x = path.values[k * self.N : (k + 1) * self.N]
        expected = (self.hadamard @ x) ** 2 / self.N
        close(segments[k].values, expected, f"segment {k} periodogram")
        close(smoothed[k].values, reflect_smooth(expected, self.smooth), f"segment {k} smoothed")
        if segments[k].u0 != (k * self.N + self.N / 2) / self.T:
            raise AssertionError(f"segment {k} u0 {segments[k].u0}")
        # free the estimates before the residual's full-length temporaries, so
        # that the check does not raise the process's peak memory above the op's
        del segments, smoothed
        result.clear()
        residual = processes.defining_equation_residual(self.spec.with_seed(inputs["seed"]), path)
        if not residual <= 1e-9:
            raise AssertionError(f"defining-equation residual {residual:.3e} > 1e-9")


class CliPeriodogram(Workload):
    name = "cli-periodogram"
    unit = "replicates"

    def __init__(self, seed: int, T: int = 1 << 14, N: int = 512, replicates: int = 100, smooth: int = 2):
        super().__init__(seed)
        self.T = T
        self.N = N
        self.units = replicates
        self.smooth = smooth
        self.hadamard = dyadic.hadamard_matrix(N.bit_length() - 1)

    def next_inputs(self):
        inputs = super().next_inputs()
        inputs["segment"] = self.rng.randrange(self.T // self.N)
        return inputs

    def run(self, inputs, tmp):
        return call_cli(
            ["periodogram", "--preset", "figure1", "--T", str(self.T),
             "--segments", str(self.N), "--replicates", str(self.units),
             "--smooth", str(self.smooth), "--seed", str(inputs["seed"]),
             "--out", str(tmp / "pgram.csv")]
        )

    def check(self, inputs, result, tmp):
        code, _, err = result
        if code != 0:
            raise AssertionError(f"periodogram exited {code}: {err.strip()}")
        rows = read_csv(tmp / "pgram.csv", "segment_u0,x,I")
        if rows.shape != (self.T, 3):
            raise AssertionError(f"{rows.shape[0]} rows, expected {self.T}")
        k = inputs["segment"]
        # the CLI derives replicate r's seed as spawn_seed(seed, r); the
        # reference follows that documented rule
        spec = presets.preset_spec("figure1")
        total = np.zeros(self.N)
        for r in range(self.units):
            seed = processes.spawn_seed(inputs["seed"], r)
            x = processes.simulate(spec.with_seed(seed), self.T).values[k * self.N : (k + 1) * self.N]
            total += reflect_smooth((self.hadamard @ x) ** 2 / self.N, self.smooth)
        block = rows[k * self.N : (k + 1) * self.N]
        u0 = (k * self.N + self.N / 2) / self.T
        if not (np.all(block[:, 0] == u0) and np.array_equal(block[:, 1], np.arange(self.N) / self.N)):
            raise AssertionError(f"segment {k}: u0 or x column is wrong")
        close(block[:, 2], total / self.units, f"segment {k} replicate mean")


class CliAnalysis(Workload):
    name = "cli-analysis"
    unit = "commands"
    units = 4

    def __init__(self, seed: int, T_list: str = "128,256,512,1024,2048,4096,8192",
                 replicates: int = 20, u_points: int = 1025):
        super().__init__(seed)
        self.T_list = T_list
        self.replicates = replicates
        self.u_points = u_points
        self.spec = load_tvdarma()

    def _verify(self, spec_args, mode, seed, out):
        return call_cli(
            ["verify", *spec_args, "--mode", mode, "--u0", "0.3", "--T", self.T_list,
             "--replicates", str(self.replicates), "--radius", "16",
             "--seed", str(seed), "--out", str(out)]
        )

    def run(self, inputs, tmp):
        seed = inputs["seed"]
        return [
            self._verify(["--spec", str(TVDARMA_SPEC)], "conversion", seed, tmp / "conversion.json"),
            self._verify(["--preset", "figure1"], "frozen", seed, tmp / "frozen.json"),
            call_cli(["convert", "--spec", str(TVDARMA_SPEC), "--target", "dma",
                      "--u-points", str(self.u_points), "--out", str(tmp / "K.csv")]),
            call_cli(["spectrum", "--preset", "figure2", "--seed", str(seed), "--u-points", "65",
                      "--m", "6", "--lambda-points", "65",
                      "--out", str(tmp / "g.csv"), "--fourier-out", str(tmp / "f.csv")]),
        ]

    def check(self, inputs, result, tmp):
        for (code, _, err), command in zip(result, ("verify", "verify", "convert", "spectrum")):
            if code != 0:
                raise AssertionError(f"{command} exited {code}: {err.strip()}")
        for (_, out, _), report in zip(result, ("conversion.json", "frozen.json")):
            with open(tmp / report) as fh:
                payload = json.load(fh)
            if payload.get("passed") is not True or ", pass" not in out:
                raise AssertionError(f"{report}: not passed (stdout {out.strip()!r})")
        u = np.arange(self.u_points) / (self.u_points - 1)
        k_rows = processes.dma_coefficient_rows(self.spec, u)
        rows = read_csv(tmp / "K.csv", "u,j,K_j")
        width = k_rows.shape[1]
        if not (np.array_equal(rows[:, 0], np.repeat(u, width))
                and np.array_equal(rows[:, 1], np.tile(np.arange(width), u.size))):
            raise AssertionError("convert: u or j column is wrong")
        close(rows[:, 2], k_rows.reshape(-1), "convert K_j")
        figure2 = presets.preset_spec("figure2", seed=inputs["seed"])
        u65 = np.arange(65) / 64
        for name, header, grid in (
            ("g.csv", "u,x,g", spectra.tv_dyadic_density(figure2, u65, 6)),
            ("f.csv", "u,lambda,f", spectra.tv_fourier_density(figure2, u65, np.linspace(0.0, np.pi, 65))),
        ):
            rows = read_csv(tmp / name, header)
            if not (np.array_equal(rows[:, 0], np.repeat(grid.u_values, grid.x_values.size))
                    and np.array_equal(rows[:, 1], np.tile(grid.x_values, grid.u_values.size))):
                raise AssertionError(f"spectrum {name}: grid columns are wrong")
            close(rows[:, 2], grid.values.reshape(-1), f"spectrum {name}")


WORKLOADS = {w.name: w for w in (CliSimulate, LibEstimate, CliPeriodogram, CliAnalysis)}

#: reduced sizes, for the untimed warm-up op of a run and for the smoke test
REDUCED = {
    "cli-simulate": {"T": 1 << 12},
    "lib-estimate": {"T": 1 << 14},
    "cli-periodogram": {"T": 1 << 12, "replicates": 4},
    "cli-analysis": {"T_list": "256,512,1024,2048,4096", "replicates": 4, "u_points": 33},
}


def make(name: str, seed: int, reduced: bool = False) -> Workload:
    return WORKLOADS[name](seed, **(REDUCED[name] if reduced else {}))


def output_bytes(tmp: Path) -> int:
    """Bytes of every file an op left in its directory."""
    return sum(entry.stat().st_size for entry in os.scandir(tmp) if entry.is_file())
