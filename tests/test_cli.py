import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import walsh_spectra.processes as processes
from walsh_spectra.cli import CSV_CHUNK_ROWS, _write_grid, _write_path, build_parser, main
from walsh_spectra.processes import DISTRIBUTIONS, simulate, simulate_frozen, spawn_seed, spec_from_dict

from oracles import oracle_window_sup_error

WHITE_NOISE = {"kind": "tvDMA", "ma": ["1"], "sigma": 1.0, "seed": 3}
CONSTANT_DAR = {"kind": "tvDAR", "ar": ["2", "1"], "seed": 5}
SINGULAR_DAR = {"kind": "tvDAR", "ar": ["1", "1"], "seed": 1}


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# tool=walsh-spectra")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def test_simulate_white_noise(tmp_path):
    spec = write_spec(tmp_path, WHITE_NOISE)
    out = tmp_path / "path.csv"
    assert main(["simulate", "--spec", spec, "--T", "8", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["t", "u", "x_value"]
    assert len(rows) == 8
    assert [r[0] for r in rows] == [str(t) for t in range(8)]
    sidecar = json.loads((tmp_path / "path.csv.json").read_text())
    assert sidecar["T"] == 8
    assert sidecar["seed"] == 3
    assert len(sidecar["fingerprint"]) == 16


def test_simulate_reruns_byte_identical(tmp_path):
    spec = write_spec(tmp_path, {"kind": "tvDMA", "ma": ["1", "0.5*u"], "seed": 9})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--spec", spec, "--T", "256", "--out", str(out1)]) == 0
    assert main(["simulate", "--spec", spec, "--T", "256", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.csv.json").read_bytes() == (tmp_path / "b.csv.json").read_bytes()


def test_simulate_preset_runs(tmp_path):
    out = tmp_path / "fig1.csv"
    code = main(["simulate", "--preset", "figure1", "--T", "4096", "--seed", "11", "--out", str(out)])
    assert code == 0
    _, rows = read_rows(out)
    assert len(rows) == 4096


def test_simulate_singular_block_exit_code(tmp_path, capsys):
    spec = write_spec(tmp_path, SINGULAR_DAR)
    out = tmp_path / "path.csv"
    assert main(["simulate", "--spec", spec, "--T", "64", "--out", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1  # no RuntimeWarning from the zero pivot
    err = json.loads(lines[0])
    assert err["error"] == "singular-block"
    assert "block 0" in err["message"]


def test_bad_curve_exit_code(tmp_path, capsys):
    spec = write_spec(tmp_path, {"kind": "tvDMA", "ma": ["cos("], "seed": 0})
    assert main(["simulate", "--spec", spec, "--T", "8", "--out", str(tmp_path / "x.csv")]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"


def test_bad_json_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["simulate", "--spec", str(path), "--T", "8", "--out", str(tmp_path / "x.csv")]) == 2


def test_missing_spec_exit_code(tmp_path):
    assert main(["simulate", "--T", "8", "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--preset", "figure1", "--T", "abc", "--out", "x.csv"], "argument --T: invalid int value: 'abc'"),
    (["nope"], "argument command: invalid choice: 'nope' (choose from "
     "'simulate', 'spectrum', 'convert', 'verify', 'periodogram', 'figures')"),
    (["simulate", "--preset", "nope", "--T", "8", "--out", "x.csv"],
     "argument --preset: invalid choice: 'nope' (choose from 'figure1', 'figure2')"),
    (["simulate", "--preset", "figure1", "--T", "8"], "the following arguments are required: --out"),
    ([], "the following arguments are required: command"),
    (["simulate", "--spec", "list.json", "--T", "8", "--out", "x.csv"], "spec file must hold a JSON object"),
], ids=["bad int", "unknown command", "unknown preset", "missing --out", "no command", "spec file holds a list"])
def test_usage_error_exit_code(tmp_path, capsys, monkeypatch, argv, message):
    # usage errors are one JSON line on stderr, like every other error, not argparse's usage block
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text(json.dumps([WHITE_NOISE]))
    assert main(argv) == 2
    assert one_json_line(capsys.readouterr().err) == {"error": "config", "message": message}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["list.json"]


def test_help_is_still_plain_text(capsys):
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["simulate", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: walsh-spectra simulate")


def test_bad_horizon_exit_code(tmp_path, capsys):
    spec = write_spec(tmp_path, WHITE_NOISE)
    assert main(["simulate", "--spec", spec, "--T", "48", "--out", str(tmp_path / "x.csv")]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert "power of two" in err["message"]


def test_spectrum_preset_spot_values(tmp_path):
    out = tmp_path / "grid.csv"
    assert main([
        "spectrum", "--preset", "figure1", "--u-points", "5", "--m", "1", "--out", str(out),
    ]) == 0
    header, rows = read_rows(out)
    assert header == ["u", "x", "g"]
    by_key = {(r[0], r[1]): float(r[2]) for r in rows}
    a0 = -1.8 * math.cos(1.5 - math.cos(0.0))
    assert by_key[("0.0", "0.0")] == pytest.approx((a0 + 0.81) ** 2, abs=1e-9)
    assert by_key[("0.0", "0.5")] == pytest.approx((a0 - 0.81) ** 2, abs=1e-9)


def test_spectrum_figure2_resolves_quarter_cells(tmp_path):
    out = tmp_path / "grid2.csv"
    assert main([
        "spectrum", "--preset", "figure2", "--u-points", "3", "--m", "2", "--out", str(out),
    ]) == 0
    _, rows = read_rows(out)
    # at u = 0.5 the order-2 coefficient is 0.5, so all four quarter cells differ
    at_half = [float(r[2]) for r in rows if r[0] == "0.5"]
    assert len(at_half) == 4
    assert len(set(at_half)) == 4


def test_spectrum_fourier_sidecar(tmp_path):
    out = tmp_path / "grid.csv"
    four = tmp_path / "fourier.csv"
    assert main([
        "spectrum", "--preset", "figure1", "--u-points", "3", "--m", "1",
        "--out", str(out), "--fourier-out", str(four), "--lambda-points", "5",
    ]) == 0
    header, rows = read_rows(four)
    assert header == ["u", "lambda", "f"]
    assert len(rows) == 3 * 5


def test_spectrum_fourier_failure_leaves_no_output(tmp_path, capsys):
    # the Fourier grid needs a moving-average kind; the dyadic grid must not be written first
    spec = write_spec(tmp_path, CONSTANT_DAR)
    out = tmp_path / "grid.csv"
    four = tmp_path / "fourier.csv"
    code = main(["spectrum", "--spec", spec, "--m", "1", "--out", str(out), "--fourier-out", str(four)])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"
    assert not out.exists() and not four.exists()


@pytest.mark.parametrize("m", ["-1", "25"])
def test_spectrum_bad_grid_exponent_exit_code(tmp_path, capsys, monkeypatch, m):
    # the exponent is checked before any coefficient row or (u, 2**m) grid exists
    def fail(*args, **kwargs):
        raise AssertionError("computed rows before checking m")

    monkeypatch.setattr("walsh_spectra.spectra.dma_coefficient_rows", fail)
    out = tmp_path / "grid.csv"
    code = main(["spectrum", "--preset", "figure1", "--u-points", "1", "--m", m, "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert f"m must lie in [0, 25), got {m}" in err["message"]
    assert not out.exists()


def test_convert_constant_dar(tmp_path):
    spec = write_spec(tmp_path, CONSTANT_DAR)
    out = tmp_path / "coef.csv"
    assert main(["convert", "--spec", spec, "--target", "dma", "--u-points", "4", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["u", "j", "K_j"]
    for r in rows:
        expect = 2 / 3 if r[1] == "0" else -1 / 3
        assert float(r[2]) == pytest.approx(expect, abs=1e-12)


def test_convert_identity_for_dma_spec(tmp_path):
    spec = write_spec(tmp_path, {"kind": "tvDMA", "ma": ["u", "0.5"], "seed": 0})
    out = tmp_path / "coef.csv"
    assert main(["convert", "--spec", spec, "--target", "dma", "--u-points", "3", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    values = {(r[0], r[1]): float(r[2]) for r in rows}
    assert values[("0.0", "0")] == 0.0
    assert values[("0.5", "0")] == 0.5
    assert values[("1.0", "1")] == 0.5


def test_convert_singular_exit_code(tmp_path, capsys):
    spec = write_spec(tmp_path, {"kind": "tvDMA", "ma": ["1", "1"], "seed": 0})
    out = tmp_path / "coef.csv"
    assert main(["convert", "--spec", spec, "--target", "dar", "--u-points", "3", "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "singular-polynomial"
    assert "u=0.0" in err["message"]


def test_verify_exact_constant_spec(tmp_path, capsys):
    spec = write_spec(tmp_path, {"kind": "tvDMA", "ma": ["1", "0.5"], "seed": 2})
    out = tmp_path / "report.json"
    code = main([
        "verify", "--spec", spec, "--mode", "frozen", "--T", "128,256",
        "--replicates", "2", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["exact"] is True
    assert report["passed"] is True
    assert "the approximation is exact" in capsys.readouterr().out


def test_verify_exact_constant_spec_in_conversion_mode(tmp_path, capsys):
    # the conversion side goes through grid_ratio, so the errors are round-off,
    # not zero: the message claims an exact approximation, not zero errors
    spec = write_spec(tmp_path, {"kind": "tvDARMA", "ar": ["1", "0.4"], "ma": ["1", "0.3"], "seed": 14})
    out = tmp_path / "report.json"
    code = main([
        "verify", "--spec", spec, "--mode", "conversion", "--T", "64,128",
        "--replicates", "2", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["exact"] is True and report["passed"] is True
    assert 0 < max(report["errors"]) < 1e-14
    printed = capsys.readouterr().out
    assert "the approximation is exact" in printed and "zero" not in printed


def test_verify_small_errors_of_varying_curves_are_not_exact(tmp_path, capsys):
    # at such horizons the frozen errors fall to ~1e-14, but figure1's curves
    # vary, so the report fits a slope as it does at T = 512-4096 and fails
    out = tmp_path / "report.json"
    code = main([
        "verify", "--preset", "figure1", "--mode", "frozen", "--u0", "0.5",
        "--T", "1073741824,2147483648", "--out", str(out),
    ])
    assert code == 4
    report = json.loads(out.read_text())
    assert report["exact"] is False
    assert max(report["errors"]) < 1e-13
    assert "FAIL" in capsys.readouterr().out


def test_verify_passes_at_generic_point(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "verify", "--preset", "figure1", "--mode", "frozen",
        "--T", "128,256,512,1024,2048", "--replicates", "5",
        "--u0", "0.3", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert -1.4 <= report["slope"] <= -0.6


def test_verify_flags_faster_than_first_order_decay(tmp_path):
    # at u0 = 0.5 the figure1 curve is critical, the decay is second order,
    # and the slope gate reports a verification failure (exit code 4)
    out = tmp_path / "report.json"
    code = main([
        "verify", "--preset", "figure1", "--mode", "frozen",
        "--T", "512,1024,2048,4096", "--replicates", "3",
        "--u0", "0.5", "--out", str(out),
    ])
    assert code == 4
    report = json.loads(out.read_text())
    assert report["passed"] is False
    assert report["slope"] < -1.6


def test_verify_conversion_mode(tmp_path):
    spec = write_spec(
        tmp_path,
        {"kind": "tvDARMA", "ar": ["1", "-0.2+0.5*u"], "ma": ["1", "0.25+0.3*u"], "seed": 6},
    )
    out = tmp_path / "report.json"
    code = main([
        "verify", "--spec", spec, "--mode", "conversion",
        "--T", "128,256,512,1024", "--replicates", "4", "--out", str(out),
    ])
    assert code == 0


@pytest.mark.parametrize("u0, code", [("0.3", 0), ("0.75", 3)])
def test_verify_checks_only_the_windows_it_reads(tmp_path, capsys, u0, code):
    # the autoregressive polynomial vanishes on the grid at u = 0.75 alone: the
    # windows around 0.3*T never read that point, the windows around 0.75*T do
    spec = write_spec(tmp_path, {"kind": "tvDAR", "ar": ["abs(u-0.75)+0.1*u+0.01", "0.1*u+0.01"]})
    out = tmp_path / "report.json"
    args = ["verify", "--spec", spec, "--mode", "conversion", "--u0", u0, "--T", "128,256,512", "--out", str(out)]
    assert main(args) == code
    if code == 3:
        err = one_json_line(capsys.readouterr().err)
        assert err["error"] == "singular-polynomial"
        assert "(at u=0.75)" in err["message"]
        assert not out.exists()


def test_verify_runs_horizons_too_large_for_a_whole_path(tmp_path):
    # only the windows are simulated, so no T-length array is ever allocated
    out = tmp_path / "report.json"
    code = main([
        "verify", "--preset", "figure1", "--mode", "frozen", "--T", f"{2**30},{2**31},{2**40}",
        "--replicates", "2", "--u0", "0.3", "--out", str(out),
    ])
    assert code in (0, 4)
    assert json.loads(out.read_text())["T_values"] == [2**30, 2**31, 2**40]


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
def test_verify_rejects_windows_past_the_innovation_index_cap(tmp_path, capsys, distribution):
    # at T = 2**63 the window around 0.5*T reads innovation indices [2**62 - 16, 2**62 + 18)
    spec = write_spec(tmp_path, {"kind": "tvDMA", "ma": ["1", "0.5*u"], "distribution": distribution})
    out = tmp_path / "report.json"
    code = main([
        "verify", "--spec", spec, "--mode", "frozen", "--T", f"{2**62},{2**63}",
        "--replicates", "3", "--u0", "0.5", "--out", str(out),
    ])
    assert code == 2
    err = one_json_line(capsys.readouterr().err)
    assert err == {"error": "config", "message": "innovation indices [4611686018427387888, 4611686018427387922) leave [0, 2**62)"}
    assert not out.exists()


@pytest.mark.parametrize("u0, T_list", [("0.0", "128,256"), ("0.99", "128")])
def test_verify_window_outside_path_exit_code(tmp_path, capsys, u0, T_list):
    # the window of radius 16 around u0*T must fit in [0, T) for every T
    out = tmp_path / "report.json"
    code = main([
        "verify", "--preset", "figure1", "--mode", "frozen", "--T", T_list,
        "--replicates", "2", "--u0", u0, "--out", str(out),
    ])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert "window [" in err["message"] and "leaves the path of length 128" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--T", "abc", "bad T list 'abc'"),
    ("--T", ",", "empty T list"),
    ("--replicates", "0", "replicates must be >= 1"),
    ("--replicates", "-1", "replicates must be >= 1"),
    ("--u0", "nan", "u0 must be a finite number in [0, 1)"),
    ("--u0", "inf", "u0 must be a finite number in [0, 1)"),
    ("--slack", "nan", "slack must be a finite number, got nan"),
    ("--slack", "inf", "slack must be a finite number, got inf"),
])
def test_verify_bad_argument_exit_code(tmp_path, capsys, flag, value, message):
    out = tmp_path / "report.json"
    args = {"--T": "128,256", "--replicates": "2", "--u0": "0.3", "--slack": "0", flag: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([
            "verify", "--preset", "figure1", "--mode", "frozen", "--T", args["--T"], "--replicates",
            args["--replicates"], "--u0", args["--u0"], "--slack", args["--slack"], "--out", str(out),
        ])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert message in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("T_list", ["128", "128,128"])
def test_verify_needs_two_horizons(tmp_path, capsys, monkeypatch, T_list):
    def fail(*args, **kwargs):
        raise AssertionError("simulated before checking the horizons")

    monkeypatch.setattr("walsh_spectra.processes._draw", fail)
    out = tmp_path / "report.json"
    code = main([
        "verify", "--preset", "figure1", "--mode", "frozen", "--T", T_list,
        "--replicates", "2", "--u0", "0.3", "--out", str(out),
    ])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert "needs at least two distinct horizons" in err["message"]
    assert not out.exists()


def test_verify_without_a_slope_fit_exit_code(tmp_path, capsys):
    # 0*u reads u, so the spec is not exact, yet every frozen error is zero
    spec = write_spec(tmp_path, {"kind": "tvDMA", "ma": ["1", "0*u"]})
    out = tmp_path / "report.json"
    code = main(["verify", "--spec", spec, "--mode", "frozen", "--u0", "0.3", "--T", "128,256", "--out", str(out)])
    assert code == 4
    assert capsys.readouterr().out == "verify: no slope fit (some horizons had zero error)\n"
    report = json.loads(out.read_text())
    assert (report["errors"], report["slope"], report["exact"], report["passed"]) == ([0.0, 0.0], None, False, False)


def test_singular_block_numbers_are_whole_path_indices(tmp_path, capsys):
    # every block of SINGULAR_DAR is singular: `simulate` names the worst on the whole
    # path, the first; `verify` names the worst in its first window, [22, 54] at T = 128,
    # whose first aligned block 22..23 is block 11 of the whole path
    spec = write_spec(tmp_path, SINGULAR_DAR)
    tail = r" \(condition estimate [^)]+\): the autoregressive polynomial vanishes on the dyadic grid near this block"
    for argv, block in (
        (["simulate", "--T", "256", "--out", str(tmp_path / "path.csv")], 0),
        (["verify", "--mode", "frozen", "--u0", "0.3", "--T", "128,256", "--out", str(tmp_path / "report.json")], 11),
    ):
        assert main([*argv, "--spec", spec]) == 3
        err = one_json_line(capsys.readouterr().err)
        assert err["error"] == "singular-block"
        assert re.fullmatch(f"singular block {block}{tail}", err["message"]), err["message"]


def test_periodogram_needs_segments_exit_code(tmp_path, capsys):
    spec = write_spec(tmp_path, WHITE_NOISE)
    out = tmp_path / "x.csv"
    assert main(["periodogram", "--spec", spec, "--T", "64", "--out", str(out)]) == 2
    assert one_json_line(capsys.readouterr().err) == {
        "error": "config", "message": "the following arguments are required: --segments"
    }
    assert not out.exists()


def test_periodogram_constant_data_impulse(tmp_path):
    spec = write_spec(tmp_path, {"kind": "tvDMA", "ma": ["0"], "trend": "5", "seed": 0})
    out = tmp_path / "pgram.csv"
    assert main([
        "periodogram", "--spec", spec, "--T", "8", "--segments", "8", "--out", str(out),
    ]) == 0
    header, rows = read_rows(out)
    assert header == ["segment_u0", "x", "I"]
    values = {r[1]: float(r[2]) for r in rows}
    assert values["0.0"] == pytest.approx(8 * 25.0)  # N * mean**2
    for x, v in values.items():
        if x != "0.0":
            assert v == pytest.approx(0.0, abs=1e-12)


def test_periodogram_replicates_and_smoothing(tmp_path):
    spec = write_spec(tmp_path, WHITE_NOISE)
    out = tmp_path / "pgram.csv"
    assert main([
        "periodogram", "--spec", spec, "--T", "512", "--segments", "128",
        "--replicates", "20", "--smooth", "2", "--out", str(out),
    ]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 4 * 128
    levels = np.array([float(r[2]) for r in rows])
    assert abs(np.mean(levels) - 1.0) < 0.15


def test_periodogram_rerun_byte_identical(tmp_path):
    spec = write_spec(tmp_path, WHITE_NOISE)
    args = ["periodogram", "--spec", spec, "--T", "256", "--segments", "64", "--replicates", "5"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_periodogram_evaluates_the_curves_once_per_command(tmp_path, monkeypatch):
    points = []
    evaluate = processes.eval_curve

    def counting(expr, u):
        points.append(np.size(u))
        return evaluate(expr, u)

    monkeypatch.setattr(processes, "eval_curve", counting)
    per_command = []
    for reps in ("1", "5"):
        points.clear()
        out = tmp_path / f"pgram{reps}.csv"
        args = ["periodogram", "--preset", "figure2", "--T", "256", "--segments", "64", "--replicates", reps]
        assert main(args + ["--out", str(out)]) == 0
        per_command.append(list(points))
    assert per_command[0] and per_command[0] == per_command[1]


PERIODOGRAM_T = 1 << 15


def run_periodogram(tmp_path, replicates: int) -> int:
    """figure1's `periodogram` at T = PERIODOGRAM_T; returns its tracemalloc peak in bytes."""
    args = ["periodogram", "--preset", "figure1", "--T", str(PERIODOGRAM_T), "--segments", "512"]
    args += ["--replicates", str(replicates), "--out", str(tmp_path / "pgram.csv")]
    tracemalloc.start()
    try:
        assert main(args) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_periodogram_frees_each_replicates_path(tmp_path):
    # 3 replicates peak above 1 by at most 2 floats per value: the running sum of the grids (about 0.97) is all
    # they add.  Keeping a replicate's path alive while the next one is drawn reads about 3
    run_periodogram(tmp_path, 1)
    extra = run_periodogram(tmp_path, 3) - run_periodogram(tmp_path, 1)
    assert extra / (8 * PERIODOGRAM_T) <= 2


def test_periodogram_writes_its_grid_without_the_last_replicates(tmp_path, monkeypatch):
    # on entering the writer the command holds at most 1.75 floats per value: the mean grid and caches read about
    # 1.25.  Keeping the last replicate's grid alive through the write reads about 2.2
    held = []

    def spy(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return _write_grid(*args)

    run_periodogram(tmp_path, 1)
    monkeypatch.setattr("walsh_spectra.cli._write_grid", spy)
    run_periodogram(tmp_path, 1)
    assert len(held) == 1 and held[0] / (8 * PERIODOGRAM_T) <= 1.75


def test_periodogram_judges_singular_blocks_as_simulate_does(tmp_path):
    # b0 = exp(-40u) is singular on a path of one window (2**15 values), not per window on a path of two
    spec = write_spec(tmp_path, {"kind": "tvDAR", "ar": ["exp(-40*u)"], "seed": 1})
    assert main(["simulate", "--spec", spec, "--T", "65536", "--out", str(tmp_path / "x.csv")]) == 0
    out = tmp_path / "pgram.csv"
    assert main(["periodogram", "--spec", spec, "--T", "65536", "--segments", "64", "--out", str(out)]) == 0
    assert out.exists()


def test_periodogram_segment_too_long(tmp_path, capsys):
    spec = write_spec(tmp_path, WHITE_NOISE)
    assert main([
        "periodogram", "--spec", spec, "--T", "64", "--segments", "128",
        "--out", str(tmp_path / "x.csv"),
    ]) == 2


@pytest.mark.parametrize("flag, value, message", [
    ("--T", "-64", "--T must be a power of two, got -64"),
    ("--T", "100", "--T must be a power of two, got 100"),
    ("--segments", "12", "--segments must be a power of two, got 12"),
    ("--segments", "0", "--segments must be a power of two, got 0"),
    ("--segments", "128", "--segments 128 exceeds --T 64"),
    ("--step", "0", "--step must be >= 1, got 0"),
    ("--smooth", "-1", "--smooth must be >= 0, got -1"),
    ("--replicates", "0", "--replicates must be >= 1, got 0"),
])
def test_periodogram_bad_argument_exit_code(tmp_path, capsys, monkeypatch, flag, value, message):
    def fail(*args, **kwargs):
        raise AssertionError("simulated before checking the flags")

    monkeypatch.setattr("walsh_spectra.cli.simulate_seeds", fail)
    spec = write_spec(tmp_path, WHITE_NOISE)
    out = tmp_path / "x.csv"
    # the flag under test comes last, so it overrides the default --segments 16
    code = main([
        "periodogram", "--spec", spec, "--T", "64", "--segments", "16", "--out", str(out), flag, value,
    ])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert err["message"] == message
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-1"])
@pytest.mark.parametrize("command", ["spectrum", "figures"])
def test_bad_lambda_points_exit_code(tmp_path, capsys, command, count):
    out = tmp_path / "out"
    argv = [command, "--preset", "figure1", "--m", "2", "--out", str(out), "--lambda-points", count]
    if command == "spectrum":
        argv += ["--fourier-out", str(tmp_path / "f.csv")]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "config", "message": f"--lambda-points must be >= 1, got {count}"}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_64_bits_exit_code(tmp_path, capsys, seed):
    out = tmp_path / "x.csv"
    assert main(["simulate", "--preset", "figure1", "--T", "8", "--seed", seed, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert f"seed must lie in [0, 2**64), got {seed}" in err["message"]
    assert not out.exists()


def one_json_line(stderr):
    assert stderr.endswith("\n") and stderr.count("\n") == 1, stderr
    return json.loads(stderr)


def fresh_cli(argv, **env_vars):
    """Run the CLI in a fresh interpreter, which shows warnings on stderr where pytest would capture them.

    Keyword arguments set environment variables for that interpreter; None unsets one.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.update(env_vars)
    env = {k: v for k, v in env.items() if v is not None}
    return subprocess.run([sys.executable, "-m", "walsh_spectra", *argv], env=env, capture_output=True, text=True)


def dynamic_arch_openblas() -> bool:
    """Is numpy's BLAS an OpenBLAS that picks its kernel at run time (so OPENBLAS_CORETYPE can change it)?"""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64") or not dynamic_arch_openblas(),
    reason="needs an x86-64 DYNAMIC_ARCH OpenBLAS to switch kernels",
)
def test_autoregressive_simulate_does_not_depend_on_the_blas_kernel(tmp_path):
    # b1(t+1) outweighs b0(t) for u < 0.47, so blocks pivot in the first half and not in the
    # second; the Nehalem kernels have no fused multiply-add, the default on newer CPUs may
    spec = write_spec(tmp_path, {"kind": "tvDAR", "ar": ["0.3+u", "1-0.5*u"], "seed": 9})
    paths = []
    for coretype in (None, "Nehalem"):
        out = tmp_path / f"{coretype}.csv"
        run = fresh_cli(["simulate", "--spec", spec, "--T", "4096", "--out", str(out)], OPENBLAS_CORETYPE=coretype)
        assert run.returncode == 0, run.stderr
        paths.append(out.read_bytes())
    assert paths[0] == paths[1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_curve_exit_code(tmp_path, capsys):
    spec = write_spec(tmp_path, {"kind": "tvDMA", "ma": ["exp(1000*u)"], "seed": 0})
    out = tmp_path / "x.csv"
    argv = ["simulate", "--spec", spec, "--T", "8", "--out", str(out)]
    assert main(argv) == 2
    err = one_json_line(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "is not finite at u=" in err["message"]
    assert not out.exists()
    run = fresh_cli(argv)
    assert run.returncode == 2
    assert one_json_line(run.stderr) == err
    assert not out.exists()


@pytest.mark.parametrize("command", [["convert", "--target", "dma"], ["convert", "--target", "dar"], ["spectrum"]])
def test_trend_not_finite_on_the_u_grid_exit_code(tmp_path, capsys, command):
    # the whole spec is read on the u grid, trend and amplitude too, as `simulate` and `verify` read it
    spec = write_spec(tmp_path, {"kind": "tvDMA", "ma": ["1", "0.5"], "trend": "1/(u-0.5)", "seed": 0})
    out = tmp_path / "x.csv"
    assert main(["simulate", "--spec", spec, "--T", "4", "--out", str(out)]) == 2  # u = 0.5 is on the path
    err = one_json_line(capsys.readouterr().err)
    assert err["error"] == "config"
    assert main([*command, "--spec", spec, "--u-points", "5", "--out", str(out)]) == 2
    assert one_json_line(capsys.readouterr().err) == err
    assert not out.exists()


@pytest.mark.parametrize("ma", ["12", "0.81"])
def test_curve_list_given_as_string_exit_code(tmp_path, capsys, ma):
    spec = write_spec(tmp_path, {"kind": "tvDMA", "ma": ma, "seed": 0})
    out = tmp_path / "x.csv"
    assert main(["simulate", "--spec", spec, "--T", "8", "--out", str(out)]) == 2
    err = one_json_line(capsys.readouterr().err)
    assert err == {"error": "config", "message": f"bad spec: ma must be a list of curves, got the string {ma!r}"}
    assert not out.exists()


@pytest.mark.parametrize("ma", ["0.5*\u00e9", "\uff55"])
def test_non_ascii_curve_exit_code(tmp_path, capsys, ma):
    spec = write_spec(tmp_path, {"kind": "tvDMA", "ma": ["1", ma], "seed": 0})
    out = tmp_path / "x.csv"
    assert main(["simulate", "--spec", spec, "--T", "8", "--out", str(out)]) == 2
    err = one_json_line(capsys.readouterr().err)
    assert err["error"] == "config"
    assert f"unexpected character {ma[-1]!r} at offset {len(ma) - 1}" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("field, value, message", [
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("seed", "7", "seed must be an integer, got '7'"),
    ("seed", True, "seed must be an integer, got True"),
    ("sigma", True, "sigma must be a finite positive number, got True"),
    ("sigma", "abc", "sigma must be a finite positive number, got 'abc'"),
    ("sigma", "inf", "sigma must be a finite positive number, got 'inf'"),
])
def test_bad_noise_field_exit_code(tmp_path, capsys, field, value, message):
    spec = write_spec(tmp_path, {"kind": "tvDMA", "ma": ["1"], field: value})
    out = tmp_path / "x.csv"
    assert main(["simulate", "--spec", spec, "--T", "8", "--out", str(out)]) == 2
    assert one_json_line(capsys.readouterr().err) == {"error": "config", "message": f"bad spec: {message}"}
    assert not out.exists()


def test_out_of_memory_exit_code(tmp_path, capsys, monkeypatch):
    # stands in for `simulate --T 2**40`: nothing is really allocated
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB for an array with shape (1099511627776,)")

    monkeypatch.setattr("walsh_spectra.cli.simulate", fail)
    out = tmp_path / "x.csv"
    assert main(["simulate", "--preset", "figure1", "--T", str(2**40), "--out", str(out)]) == 2
    err = one_json_line(capsys.readouterr().err)
    assert err == {
        "error": "config",
        "message": "not enough memory for this input: Unable to allocate 8.00 TiB for an array with shape (1099511627776,)",
    }
    assert list(tmp_path.iterdir()) == []


def test_figures_failure_leaves_no_output(tmp_path, capsys, monkeypatch):
    # both grids of a preset are computed before either of its files is written
    def fail(*args, **kwargs):
        raise ValueError("no Fourier grid")

    monkeypatch.setattr("walsh_spectra.cli.tv_fourier_density", fail)
    outdir = tmp_path / "figs"
    argv = ["figures", "--preset", "figure1", "--u-points", "3", "--m", "2", "--lambda-points", "3"]
    assert main([*argv, "--out", str(outdir)]) == 2
    assert one_json_line(capsys.readouterr().err) == {"error": "config", "message": "no Fourier grid"}
    assert list(outdir.iterdir()) == []


def test_figures_exports_all_grids(tmp_path):
    outdir = tmp_path / "figs"
    assert main([
        "figures", "--out", str(outdir), "--u-points", "9", "--m", "2", "--lambda-points", "7",
    ]) == 0
    names = sorted(p.name for p in outdir.iterdir())
    assert names == [
        "figure1_dyadic.csv",
        "figure1_fourier.csv",
        "figure2_dyadic.csv",
        "figure2_fourier.csv",
    ]
    header, rows = read_rows(outdir / "figure2_dyadic.csv")
    assert header == ["u", "x", "g"]
    assert len(rows) == 9 * 4


def test_version_flag():
    assert main(["--version"]) == 0


# ----------------------------------------------------------------- CSV writer


def _reference_cell(v) -> str:
    """Plain decimal for an int, shortest round-trip repr for a float."""
    return str(int(v)) if isinstance(v, np.integer) else repr(float(v))


def _reference_csv(comment, header, columns):
    """Row by row, each cell by `_reference_cell`."""
    lines = [comment, ",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(map(_reference_cell, row)))
    return "".join(line + "\n" for line in lines)


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e22, 1e16, 0.1, -2.5e-300, 1.7976931348623157e308, math.nan, -math.inf]


@pytest.mark.parametrize("T, chunk", [
    (1, None), (CSV_CHUNK_ROWS - 1, None), (CSV_CHUNK_ROWS, None), (CSV_CHUNK_ROWS + 1, None),
    (2 * CSV_CHUNK_ROWS + 3, None),
    (7, 7), (25, 7),  # chunks of 7 rows: one whole chunk, and three that end mid-path before a short fourth
])
def test_write_path_matches_row_reference(tmp_path, monkeypatch, T, chunk):
    if chunk is not None:
        monkeypatch.setattr("walsh_spectra.cli.CSV_CHUNK_ROWS", chunk)
    rng = np.random.default_rng(T)
    values = rng.standard_normal(T) * 10.0 ** rng.integers(-20, 20, T)
    values[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[:T]
    out = tmp_path / "out.csv"
    _write_path(str(out), "# comment", values)
    columns = [np.arange(T), np.arange(T) / T, values]
    assert out.read_bytes() == _reference_csv("# comment", ["t", "u", "x_value"], columns).encode()


SIMULATE_T = 1 << 15


def test_simulate_writes_its_path_from_the_values_alone(tmp_path, monkeypatch):
    # on entering the writer the command holds at most 1.5 floats per value: the path's values and caches read
    # about 1.23.  Keeping the SamplePath (and so its innovations) alive through the write reads about 2.23, and
    # building whole-path t and u columns for the writer about 3.23
    held = []

    def spy(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return _write_path(*args)

    def run():
        tracemalloc.start()
        try:
            assert main(["simulate", "--preset", "figure1", "--T", str(SIMULATE_T), "--out", str(out)]) == 0
        finally:
            tracemalloc.stop()

    out = tmp_path / "path.csv"
    run()
    monkeypatch.setattr("walsh_spectra.cli._write_path", spy)
    run()
    assert len(held) == 1 and held[0] / (8 * SIMULATE_T) <= 1.5


def test_write_path_memory_does_not_grow_with_the_path(tmp_path):
    # the writer's tracemalloc peak grows by at most 1 float per value from 2**15 to 2**16 values: it holds one
    # chunk of text and makes each chunk's t and u from its row numbers (about 0.03).  Building whole-path t and u
    # in the writer reads about 2.03
    def peak(T):
        values = np.random.default_rng(T).standard_normal(T)
        tracemalloc.start()
        try:
            _write_path(str(tmp_path / "out.csv"), "#", values)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(SIMULATE_T)
    assert (peak(2 * SIMULATE_T) - peak(SIMULATE_T)) / (8 * SIMULATE_T) <= 1


def _reference_grid(comment, header, rows, cols, values):
    """Row by row and column by column, each cell by `_reference_cell`."""
    lines = [comment, ",".join(header)]
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            lines.append(",".join(map(_reference_cell, (r, c, values[i, j]))))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("shape, chunk", [
    ((1, 1), None), ((1, 11), None), ((11, 1), None), ((65, 65), None),
    ((3, 5), 7), ((4, 7), 7),  # chunks of 7 cells end mid-row in a 3x5 grid and at a row's end in a 4x7 one
])
@pytest.mark.parametrize("int_cols", [False, True], ids=["float-cols", "int-cols"])
def test_write_grid_matches_row_reference(tmp_path, monkeypatch, shape, chunk, int_cols):
    if chunk is not None:
        monkeypatch.setattr("walsh_spectra.cli.CSV_CHUNK_ROWS", chunk)
    n_rows, n_cols = shape
    rng = np.random.default_rng(n_rows * n_cols)
    rows = np.arange(n_rows) / n_rows
    rows[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[:n_rows]
    if int_cols:  # `convert`'s coefficient index j
        cols = np.arange(n_cols, dtype=np.int64) - n_cols // 2
    else:
        cols = np.linspace(0.0, np.pi, n_cols)
        cols[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[-n_cols:]
    flat = rng.standard_normal(n_rows * n_cols) * 10.0 ** rng.integers(-20, 20, n_rows * n_cols)
    flat[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[: flat.size]
    values = np.asfortranarray(flat.reshape(shape))  # the column-major layout a batched FWHT returns
    out = tmp_path / "out.csv"
    _write_grid(str(out), "# comment", ["u", "x", "g"], rows, cols, values)
    assert out.read_bytes() == _reference_grid("# comment", ["u", "x", "g"], rows, cols, values).encode()


@pytest.mark.parametrize("shape", [(4, 3), (2, 6), (12,), (3, 4, 1)])
def test_write_grid_rejects_values_of_another_shape(tmp_path, shape):
    out = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=r"grid values have shape"):
        _write_grid(str(out), "#", ["u", "x", "g"], np.arange(3.0), np.arange(4), np.zeros(shape))
    assert not out.exists()


def test_write_grid_memory_does_not_grow_with_the_grid(tmp_path):
    # the writer's tracemalloc peak grows by at most 1.5 floats per cell from 2**14 to 2**15 cells: it holds one
    # chunk of text and each axis's labels.  Expanding the axes to full columns (and copying a column-major grid to
    # row-major order) reads about 3
    cols = np.linspace(0.0, np.pi, 512)

    def peak(n_rows):
        values = np.asfortranarray(np.random.default_rng(n_rows).standard_normal((n_rows, cols.size)))
        tracemalloc.start()
        try:
            _write_grid(str(tmp_path / "out.csv"), "#", ["u", "x", "I"], np.arange(n_rows) / n_rows, cols, values)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(32)
    assert (peak(64) - peak(32)) / (8 * 32 * cols.size) <= 1.5


@pytest.mark.parametrize("field, value, message", [
    ("ma", [1, True], "ma[1] must be a curve string or a number, got True"),
    ("ma", [1, None], "ma[1] must be a curve string or a number, got None"),
    ("ma", [1, [2]], "ma[1] must be a curve string or a number, got [2]"),
    ("ma", {"a": 1}, "ma must be a list of curves, got {'a': 1}"),
    ("trend", None, "trend must be a curve string or a number, got None"),
    ("amplitude", True, "amplitude must be a curve string or a number, got True"),
])
def test_non_curve_spec_value_exit_code(tmp_path, capsys, field, value, message):
    spec = write_spec(tmp_path, {"kind": "tvDMA", "ma": ["1"], "seed": 0, field: value})
    out = tmp_path / "x.csv"
    assert main(["simulate", "--spec", spec, "--T", "8", "--out", str(out)]) == 2
    err = one_json_line(capsys.readouterr().err)
    assert err == {"error": "config", "message": f"bad spec: {message}"}
    assert not out.exists()


def test_spec_warning_is_shown_only_when_the_command_succeeds(tmp_path):
    # the zero upper half of `ma` warns that the declared order is inflated
    spec = write_spec(tmp_path, {"kind": "tvDMA", "ma": ["1", "0"], "seed": 0})
    out = tmp_path / "x.csv"
    failed = fresh_cli(["simulate", "--spec", spec, "--T", "3", "--out", str(out)])
    assert failed.returncode == 2
    assert one_json_line(failed.stderr) == {"error": "config", "message": "T must be a power of two, got 3"}
    assert not out.exists()
    passed = fresh_cli(["simulate", "--spec", spec, "--T", "8", "--out", str(out)])
    assert passed.returncode == 0
    assert "UserWarning: moving-average block of length 2 has an identically zero upper half" in passed.stderr
    assert out.exists()


def test_spec_warning_is_printed_without_a_package_path(tmp_path):
    spec = write_spec(tmp_path, {"kind": "tvDMA", "ma": ["1", "0"], "seed": 0})
    passed = fresh_cli(["simulate", "--spec", spec, "--T", "8", "--out", str(tmp_path / "x.csv")])
    assert passed.returncode == 0
    assert passed.stderr == (
        "UserWarning: moving-average block of length 2 has an identically zero upper half; "
        "the declared order is inflated\n"
    )


# curves that ran the parser out of stack, each one exit 1 with a RecursionError traceback
@pytest.mark.parametrize("curve", ["(" * 300 + "u" + ")" * 300, "+".join(["u"] * 1501), "-" * 1200 + "u"],
                         ids=["parentheses", "sum", "negations"])
def test_curves_past_the_token_cap_exit_with_a_config_error(tmp_path, curve):
    spec = write_spec(tmp_path, {"kind": "tvDMA", "ma": [curve], "seed": 0})
    run = fresh_cli(["simulate", "--spec", spec, "--T", "8", "--out", str(tmp_path / "x.csv")])
    assert run.returncode == 2
    assert one_json_line(run.stderr) == {
        "error": "config", "message": "bad spec: ma[0]: curve longer than 256 tokens at offset 256"
    }


# an exponent past the float range exited 1 with an OverflowError traceback, and one of 4,301
# digits with a traceback of Python's integer-string limit ValueError
@pytest.mark.parametrize("digits", [309, 4301])
def test_exponents_past_the_float_range_exit_with_a_config_error(tmp_path, digits):
    spec = write_spec(tmp_path, {"kind": "tvDMA", "ma": ["1", "u^" + "9" * digits], "seed": 0})
    run = fresh_cli(["simulate", "--spec", spec, "--T", "8", "--out", str(tmp_path / "x.csv")])
    assert run.returncode == 2
    assert one_json_line(run.stderr) == {
        "error": "config", "message": "bad spec: ma[1]: integer exponent past the float range at offset 2"
    }


def test_deeply_nested_spec_file_exits_with_a_config_error(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text("[" * 100_000)
    run = fresh_cli(["simulate", "--spec", str(spec), "--T", "8", "--out", str(tmp_path / "x.csv")])
    assert run.returncode == 2
    err = one_json_line(run.stderr)
    assert err["error"] == "config"
    assert err["message"].startswith("spec file is nested too deeply: ")


def test_sigma_squared_overflow_exits_with_a_config_error(tmp_path):
    # the density's sigma**2 overflows a Python float: an OverflowError exited 1 with a traceback
    spec = write_spec(tmp_path, {"kind": "tvDMA", "ma": ["1"], "sigma": 1e300})
    out = tmp_path / "grid.csv"
    run = fresh_cli(["spectrum", "--spec", spec, "--out", str(out)])
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert one_json_line(run.stderr) == {"error": "config", "message": "(34, 'Numerical result out of range')"}
    assert not out.exists()


def test_verify_report_that_is_not_finite_is_not_written(tmp_path):
    # the errors overflow to inf - inf = nan: the report held NaN, which is not JSON, and exited 0
    spec = write_spec(tmp_path, {"kind": "modulated", "ma": ["1"], "amplitude": "1e200", "sigma": 1e300})
    out = tmp_path / "report.json"
    run = fresh_cli(["verify", "--spec", spec, "--mode", "frozen", "--T", "64,128", "--out", str(out)])
    assert run.returncode == 2
    assert run.stdout == "" and "Traceback" not in run.stderr
    assert one_json_line(run.stderr) == {
        "error": "config", "message": "Out of range float values are not JSON compliant: nan"
    }
    assert not out.exists()


def test_verify_frozen_errors_equal_the_mean_library_error(tmp_path):
    # the frozen trend u^3 is evaluated at the scalar u0, the time-varying one on an array
    u0, Ts, radius, reps = 0.38042426988653233, (128, 256, 512), 4, 3
    payload = {"kind": "tvDMA", "ma": ["1", "0.5*u"], "trend": "u^3", "seed": 3}
    out = tmp_path / "report.json"
    main([
        "verify", "--spec", write_spec(tmp_path, payload), "--mode", "frozen", "--T", ",".join(map(str, Ts)),
        "--radius", str(radius), "--replicates", str(reps), "--u0", repr(u0), "--out", str(out),
    ])
    spec = spec_from_dict(payload)
    expected = []
    for T in Ts:
        seeds = [spec.with_seed(spawn_seed(3, r)) for r in range(reps)]
        paths = [(simulate(s, T).values, simulate_frozen(s, u0, T).values) for s in seeds]
        errs = [oracle_window_sup_error(tv, frozen, round(u0 * T), radius) for tv, frozen in paths]
        expected.append(float(np.mean(errs)))
    assert json.loads(out.read_text())["errors"] == expected
