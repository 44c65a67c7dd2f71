"""Command-line entry point: simulate, estimate, convert, verify, export grids.

All commands read a process from either a JSON spec file or a named
preset, run deterministically from the seed, and write CSV (plus a JSON
sidecar for simulations).  Outputs embed the tool version and the spec
fingerprint, and reruns with identical inputs are byte-identical.

Exit codes: 0 success, 2 configuration/parse error, 3 singular
polynomial or block, 4 verification failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import warnings

import numpy as np

from . import __version__
from .dyadic import as_int, block_exponent
from .poly import SingularPolynomialError, grid_ratio
from .presets import preset_names, preset_spec
from .processes import (
    ProcessSpec,
    SingularBlockError,
    coefficient_rows,
    decay_experiment,
    simulate,
    simulate_seeds,
    spawn_seed,
    spec_from_dict,
)
from .spectra import periodogram_grid, smooth_periodogram, tv_dyadic_density, tv_fourier_density

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_VERIFY = 4

SLOPE_RANGE = (-1.4, -0.6)
#: rows (for a grid, cells) formatted and written per step; bounds the text held in memory
CSV_CHUNK_ROWS = 1 << 12


def _provenance(spec: ProcessSpec | None, **extra) -> str:
    fields = {"tool": "walsh-spectra", "version": __version__}
    if spec is not None:
        fields["fingerprint"] = spec.fingerprint()
    fields.update(extra)
    return "# " + " ".join(f"{k}={v}" for k, v in fields.items())


def _write_path(path: str, comment: str, values: np.ndarray) -> None:
    """Write a sample path as the CSV columns (t, u, x_value), `CSV_CHUNK_ROWS` rows at a time.

    Each chunk's t and u = t / T are made from its row numbers.  ``tolist`` gives Python ints and floats, whose
    ``repr`` is the plain or the shortest round-trip decimal, so the text reads back to the same number.
    """
    T = values.size
    with open(path, "w", newline="\n") as fh:
        fh.write(comment + "\nt,u,x_value\n")
        for lo in range(0, T, CSV_CHUNK_ROWS):
            t = np.arange(lo, min(lo + CSV_CHUNK_ROWS, T))
            cells = (map(repr, c.tolist()) for c in (t, t / T, values[lo : lo + CSV_CHUNK_ROWS]))
            fh.write("\n".join(map(",".join, zip(*cells))))
            fh.write("\n")


def _write_grid(path: str, comment: str, header: list[str], rows, cols, values: np.ndarray) -> None:
    """Write a (len(rows), len(cols)) grid row-major as the CSV columns (row, col, value).

    Each axis value is formatted once, as ``repr(v) + ","``; a cell's line is its row's and its column's text
    followed by the ``repr`` of its value, `CSV_CHUNK_ROWS` cells at a time.
    """
    if values.shape != (len(rows), len(cols)):
        raise ValueError(f"grid values have shape {values.shape}, axes give {(len(rows), len(cols))}")
    row_text, col_text = ([repr(v) + "," for v in axis.tolist()] for axis in (rows, cols))
    labels = map("".join, itertools.product(row_text, col_text))
    with open(path, "w", newline="\n") as fh:
        fh.write(comment + "\n")
        fh.write(",".join(header) + "\n")
        for lo in range(0, values.size, CSV_CHUNK_ROWS):
            cells = map(repr, values.flat[lo : lo + CSV_CHUNK_ROWS].tolist())
            fh.write("\n".join(map(str.__add__, itertools.islice(labels, CSV_CHUNK_ROWS), cells)))
            fh.write("\n")


def _write_json(path: str, spec: ProcessSpec, payload: dict) -> None:
    """Write ``payload`` with the spec fingerprint and tool version as sorted, indented JSON; NaN or inf raises."""
    payload = {**payload, "fingerprint": spec.fingerprint(), "version": __version__}
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)  # before the file is opened
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def _load_spec(args) -> ProcessSpec:
    preset = getattr(args, "preset", None)
    spec_path = getattr(args, "spec", None)
    if preset is not None and spec_path is not None:
        raise ValueError("give either --spec or --preset, not both")
    if preset is not None:
        spec = preset_spec(preset)
    elif spec_path is not None:
        try:
            with open(spec_path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read spec file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"spec file is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ValueError(f"spec file is nested too deeply: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError("spec file must hold a JSON object")
        try:
            spec = spec_from_dict(data)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"bad spec: {exc}") from exc
    else:
        raise ValueError("a spec is required: --spec FILE or --preset NAME")
    seed = getattr(args, "seed", None)
    if seed is not None:
        spec = spec.with_seed(seed)
    return spec


def _u_grid(count: int) -> np.ndarray:
    if as_int(count, "--u-points", 1) == 1:
        return np.array([0.0])
    return np.arange(count) / (count - 1)


def _lambda_grid(count: int) -> np.ndarray:
    return np.linspace(0.0, np.pi, as_int(count, "--lambda-points", 1))


def _parse_T_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"bad T list {text!r}") from exc
    if not values:
        raise ValueError("empty T list")
    return values


# --------------------------------------------------------------------------
# commands


def _cmd_simulate(args) -> int:
    spec = _load_spec(args)
    values = simulate(spec, args.T).values  # the innovations are freed before the write
    comment = _provenance(spec, seed=spec.innovations.seed, T=values.size, command="simulate")
    _write_path(args.out, comment, values)
    sidecar = {"T": values.size, "command": "simulate", "seed": spec.innovations.seed, "spec": spec.to_dict()}
    _write_json(args.out + ".json", spec, sidecar)
    return EXIT_OK


def _write_densities(spec: ProcessSpec, u, m: int, lam, dyadic, fourier) -> None:
    """Write g(u, x) to ``dyadic`` and, if given, f(u, lambda) to ``fourier``, each a (path, comment) pair.

    Both grids are computed before either file is written, so a failure leaves no partial output.
    """
    outputs = [(dyadic, ["u", "x", "g"], tv_dyadic_density(spec, u, m))]
    if fourier is not None:
        outputs.append((fourier, ["u", "lambda", "f"], tv_fourier_density(spec, u, lam)))
    for (path, comment), header, grid in outputs:
        _write_grid(path, comment, header, grid.u_values, grid.x_values, grid.values)


def _cmd_spectrum(args) -> int:
    spec = _load_spec(args)
    u = _u_grid(args.u_points)
    lam = _lambda_grid(args.lambda_points)
    dyadic = (args.out, _provenance(spec, command="spectrum", m=args.m, u_points=args.u_points))
    fourier = (args.fourier_out, _provenance(spec, command="spectrum", lambda_points=args.lambda_points))
    _write_densities(spec, u, args.m, lam, dyadic, fourier if args.fourier_out else None)
    return EXIT_OK


def _cmd_convert(args) -> int:
    spec = _load_spec(args)
    u = _u_grid(args.u_points)
    b_rows, a_rows = coefficient_rows(spec, u)
    # dma: K = A / B, the rows behind `spectrum` and `verify` before the amplitude is folded in; dar: the dual B / A
    num, den = (a_rows, b_rows) if args.target == "dma" else (b_rows, a_rows)
    k_rows = grid_ratio(num, den, where=u)
    comment = _provenance(spec, command="convert", target=args.target)
    _write_grid(args.out, comment, ["u", "j", "K_j"], u, np.arange(k_rows.shape[1]), k_rows)
    return EXIT_OK


def _cmd_verify(args) -> int:
    spec = _load_spec(args)
    given = vars(args)  # the parser sets only the options given, so `decay_experiment` owns every default
    options = {name: given[name] for name in ("u0", "radius", "replicates", "slack") if name in given}
    if "T" in given:
        options["T_values"] = _parse_T_list(given["T"])
    report = decay_experiment(spec, args.mode, **options)
    lo, hi = SLOPE_RANGE
    passed = report.exact or (report.slope is not None and lo <= report.slope <= hi)
    _write_json(args.out, spec, {**report.to_dict(), "slope_range": [lo, hi], "passed": passed})
    if report.exact:
        print("verify: the approximation is exact (constant curves)")
        return EXIT_OK
    if report.slope is None:
        print("verify: no slope fit (some horizons had zero error)")
        return EXIT_VERIFY
    print(f"verify: slope {report.slope:.4f}, target [{lo}, {hi}], {'pass' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_VERIFY


def _cmd_periodogram(args) -> int:
    spec = _load_spec(args)
    T, N, step = args.T, args.segments, args.step
    # every flag is checked before anything is simulated
    block_exponent(T, "--T")
    block_exponent(N, "--segments")
    if N > T:
        raise ValueError(f"--segments {N} exceeds --T {T}")
    if step is not None:
        as_int(step, "--step", 1)
    as_int(args.smooth, "--smooth", 0)
    reps = as_int(args.replicates, "--replicates", 1)
    seeds = [spec.innovations.seed] if reps == 1 else (spawn_seed(spec.innovations.seed, r) for r in range(reps))
    total = 0.0
    for path in simulate_seeds(spec, T, seeds):
        grid = smooth_periodogram(periodogram_grid(path.values, N, step), args.smooth)
        total += grid.values
        u_values, x_values = grid.u_values, grid.x_values
        del path, grid  # freed before the next replicate is drawn and before the write
    total /= reps
    comment = _provenance(spec, command="periodogram", T=T, N=N, replicates=reps, smooth=args.smooth)
    _write_grid(args.out, comment, ["segment_u0", "x", "I"], u_values, x_values, total)
    return EXIT_OK


def _cmd_figures(args) -> int:
    names = preset_names() if args.preset is None else (args.preset,)
    u = _u_grid(args.u_points)
    lam = _lambda_grid(args.lambda_points)
    os.makedirs(args.out, exist_ok=True)
    for name in names:
        spec = preset_spec(name)
        stem = os.path.join(args.out, name)
        _write_densities(
            spec, u, args.m, lam,
            (f"{stem}_dyadic.csv", _provenance(spec, command="figures", preset=name, m=args.m)),
            (f"{stem}_fourier.csv", _provenance(spec, command="figures", preset=name)),
        )
    return EXIT_OK


# --------------------------------------------------------------------------
# argument parsing


def _add_spec_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", help="JSON process spec file")
    p.add_argument("--preset", choices=preset_names(), help="built-in spec")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one JSON line on stderr, like every other error; subparsers inherit it."""

    def error(self, message):
        _error("config", message)
        sys.exit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="walsh-spectra",
        description="Simulation and Walsh-spectral analysis of dyadic time series",
    )
    parser.add_argument("--version", action="version", version=f"walsh-spectra {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a sample path to CSV")
    _add_spec_arguments(p)
    p.add_argument("--T", type=int, required=True, help="path length (power of two)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("spectrum", help="time-varying dyadic spectral density grid")
    _add_spec_arguments(p)
    p.add_argument("--u-points", type=int, default=65)
    p.add_argument("--m", type=int, default=6, help="dyadic grid exponent (2**m bins)")
    p.add_argument("--out", required=True)
    p.add_argument("--fourier-out", help="also write the Fourier comparison grid here")
    p.add_argument("--lambda-points", type=int, default=65)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("convert", help="frozen AR<->MA coefficient conversion on a u grid")
    _add_spec_arguments(p)
    p.add_argument("--target", choices=("dma", "dar"), required=True)
    p.add_argument("--u-points", type=int, default=65)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser(
        "verify", help="decay-rate experiment for the local approximations", argument_default=argparse.SUPPRESS
    )
    _add_spec_arguments(p)
    p.add_argument("--mode", choices=("frozen", "conversion"), required=True)
    p.add_argument("--T", help="comma-separated horizons")
    p.add_argument("--replicates", type=int)
    p.add_argument("--radius", type=int)
    p.add_argument("--u0", type=float)
    p.add_argument("--slack", type=float, help="inject a bounded O(1/T) coefficient perturbation")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("periodogram", help="segmented Walsh periodogram estimates")
    _add_spec_arguments(p)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--segments", type=int, required=True, help="segment length N (power of two)")
    p.add_argument("--step", type=int, default=None, help="segment step (default N, aligned)")
    p.add_argument("--smooth", type=int, default=0, help="smoothing half-width in bins")
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_periodogram)

    p = sub.add_parser("figures", help="export plot-ready dyadic and Fourier density grids")
    p.add_argument("--preset", choices=preset_names(), default=None, help="default: all presets")
    p.add_argument("--u-points", type=int, default=65)
    p.add_argument("--m", type=int, default=6)
    p.add_argument("--lambda-points", type=int, default=65)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_figures)

    return parser


def _error(category: str, message: str) -> None:
    print(json.dumps({"error": category, "message": message}), file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching the config-error code
        return int(exc.code or 0)
    try:
        # a failed command's stderr is its one JSON error line, so warnings are shown only on success
        with warnings.catch_warnings(record=True) as caught:
            code = args.func(args)
        for w in caught:  # the message alone: the package line that warned means nothing to a user
            print(f"{w.category.__name__}: {w.message}", file=sys.stderr)
        return code
    except SingularPolynomialError as exc:
        _error("singular-polynomial", str(exc))
        return EXIT_SINGULAR
    except SingularBlockError as exc:
        _error("singular-block", str(exc))
        return EXIT_SINGULAR
    except (ValueError, OSError, ArithmeticError) as exc:
        _error("config", str(exc))
        return EXIT_CONFIG
    except MemoryError as exc:
        _error("config", f"not enough memory for this input: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
