"""Golden outputs of every CLI command.

Each case runs one command in-process on a small input and records the
SHA-256 of everything it leaves behind: stdout, stderr and every file it
wrote, plus its exit code.  The table in ``golden_cli.json`` pins those
outputs byte for byte, so a refactor that changes any of them fails here.

`convert` on autoregressive kinds, and ``convert --target dar`` on any
kind, are checked against the shared conversion route instead: their
``K_j`` column must equal `dma_coefficient_rows` (AR kinds with amplitude
1) or `grid_ratio` on the spec's coefficient rows, bit for bit.

The autoregressive cases in ``MOVED_CASES`` changed bytes when 2 x 2
blocks got a closed-form solve.  Their hashes are pinned like every other
case's, and each is also checked line by line against the same command run
with the LAPACK block solve of ``oracles.py`` swapped in: text must be
equal, and every number within ``MOVED_BOUND`` * eps times the largest
magnitude in its block (see `check_near_lapack_route`).  The cases in
``LAPACK_CASES`` solve blocks of four, which the library hands to
`np.linalg.solve` as ``oracles.py`` does; their output must equal that
route's byte for byte.

To print the table for the current code, run from the repository root::

    PYTHONPATH=src python3 tests/test_golden.py > tests/golden_cli.json
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import walsh_spectra.processes as processes
from walsh_spectra import __version__
from walsh_spectra.cli import main
from walsh_spectra.poly import grid_ratio
from walsh_spectra.presets import preset_spec
from walsh_spectra.processes import coefficient_rows, dma_coefficient_rows, spec_from_dict

from oracles import lapack_block_solve
from test_cli import assert_no_child_left, with_cpus

GOLDEN = Path(__file__).with_name("golden_cli.json")

SPECS = {
    "darma": {"kind": "tvDARMA", "ar": ["1", "-0.2+0.5*u"], "ma": ["1", "0.25+0.3*u"], "seed": 7},
    # non-constant trend and amplitude, and AR/MA blocks of different lengths
    "trend_amp": {
        "kind": "tvDARMA",
        "ar": ["1", "0.4*cos(2*pi*u)"],
        "ma": ["1", "0.3+0.2*u", "0.1", "-0.2*u"],
        "trend": "1+0.5*u",
        "amplitude": "1.5+0.5*sin(2*pi*u)",
        "distribution": "uniform",
        "sigma": 0.8,
        "seed": 4,
    },
    "modulated": {
        "kind": "modulated",
        "ma": ["1", "0.5+0.25*u"],
        "trend": "u",
        "amplitude": "2+cos(2*pi*u)",
        "distribution": "rademacher",
        "seed": 6,
    },
    # an autoregressive block of four curves: the L >= 4 block solve
    "ar4": {"kind": "tvDAR", "ar": ["1", "0.3*u", "-0.2", "0.1*cos(2*pi*u)"], "trend": "-0.5*u", "seed": 2},
}
SPEC_NAMES = ("figure1", "figure2", *SPECS)
CONVERT_U_POINTS = 17


def _cases() -> dict:
    cases = {}
    for s in SPEC_NAMES:
        cases[f"simulate/{s}"] = (s, ["simulate", "--T", "256", "--out", "{out}/path.csv"])
        cases[f"spectrum/{s}"] = (s, [
            "spectrum", "--u-points", "9", "--m", "3", "--lambda-points", "9",
            "--out", "{out}/g.csv", "--fourier-out", "{out}/f.csv",
        ])
        for target in ("dma", "dar"):
            cases[f"convert-{target}/{s}"] = (s, [
                "convert", "--target", target, "--u-points", str(CONVERT_U_POINTS), "--out", "{out}/K.csv",
            ])
        for mode in ("frozen", "conversion"):
            cases[f"verify-{mode}/{s}"] = (s, [
                "verify", "--mode", mode, "--u0", "0.3", "--T", "128,256,512",
                "--replicates", "3", "--out", "{out}/report.json",
            ])
        cases[f"verify-slack/{s}"] = (s, [
            "verify", "--mode", "frozen", "--slack", "1.0", "--T", "128,256,512",
            "--replicates", "2", "--out", "{out}/report.json",
        ])
        cases[f"periodogram/{s}"] = (s, [
            "periodogram", "--T", "512", "--segments", "64", "--replicates", "3",
            "--smooth", "1", "--out", "{out}/pgram.csv",
        ])
    # spans several chunks of the CSV writer
    cases["simulate/figure1-long"] = ("figure1", ["simulate", "--T", "32768", "--out", "{out}/path.csv"])
    cases["simulate-seed/darma"] = ("darma", ["simulate", "--T", "64", "--seed", "11", "--out", "{out}/path.csv"])
    cases["periodogram-step/figure2"] = ("figure2", [
        "periodogram", "--T", "256", "--segments", "32", "--step", "16", "--out", "{out}/pgram.csv",
    ])
    # a 17-bin window, where the BLAS dot product behind np.convolve vectorizes
    cases["periodogram-smooth8/figure1"] = ("figure1", [
        "periodogram", "--T", "1024", "--segments", "64", "--replicates", "3", "--smooth", "8",
        "--out", "{out}/pgram.csv",
    ])
    # a window wider than the segment, so the reflection wraps more than once
    cases["periodogram-smooth40/darma"] = ("darma", [
        "periodogram", "--T", "256", "--segments", "16", "--replicates", "2", "--smooth", "40",
        "--out", "{out}/pgram.csv",
    ])
    # overlapping segments whose step does not divide T - N
    cases["periodogram-overlap/darma"] = ("darma", [
        "periodogram", "--T", "256", "--segments", "32", "--step", "24", "--replicates", "1",
        "--smooth", "2", "--out", "{out}/pgram.csv",
    ])
    cases["periodogram-single/figure2"] = ("figure2", [
        "periodogram", "--T", "256", "--segments", "256", "--replicates", "2", "--smooth", "1",
        "--out", "{out}/pgram.csv",
    ])
    cases["figures"] = (None, [
        "figures", "--u-points", "9", "--m", "3", "--lambda-points", "9", "--out", "{out}/figs",
    ])
    return cases


CASES = _cases()


def _spec(name):
    return spec_from_dict(SPECS[name]) if name in SPECS else preset_spec(name)


def _is_route_case(case_id: str) -> bool:
    command, _, name = case_id.partition("/")
    return command == "convert-dar" or (command == "convert-dma" and _spec(name).kind in ("tvDAR", "tvDARMA"))


#: cases whose output goes through a 2 x 2 autoregressive block solve
MOVED_CASES = (
    "simulate/darma", "simulate/trend_amp", "simulate-seed/darma",
    "periodogram/darma", "periodogram/trend_amp", "periodogram-overlap/darma", "periodogram-smooth40/darma",
    "verify-frozen/darma", "verify-frozen/trend_amp", "verify-slack/trend_amp",
)
#: a moved value may differ from the LAPACK route's by this many eps times the
#: largest magnitude in its block; the largest seen is 7.8 (verify-frozen/darma's errors)
MOVED_BOUND = 16
#: cases whose output goes through a 4 x 4 autoregressive block solve
LAPACK_CASES = ("simulate/ar4", "verify-conversion/ar4")
ROUTE_CASES = sorted(c for c in CASES if _is_route_case(c))
GOLDEN_CASES = sorted(c for c in CASES if not _is_route_case(c))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(case_id: str, workdir: Path) -> tuple[int, str, str, dict]:
    """Run one case in ``workdir``: its exit code, stdout, stderr and the bytes of every file it wrote."""
    spec_name, argv = CASES[case_id]
    out = workdir / "out"
    out.mkdir(parents=True)
    args = [a.replace("{out}", str(out)) for a in argv]
    if spec_name in SPECS:
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(SPECS[spec_name]))
        args += ["--spec", str(spec_path)]
    elif spec_name is not None:
        args += ["--preset", spec_name]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(args)
    files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    return code, stdout.getvalue(), stderr.getvalue(), files


def run_case(case_id: str, workdir: Path) -> dict:
    """Run one case in ``workdir`` and return its exit code and output digests."""
    code, stdout, stderr, files = _run(case_id, workdir)
    return {
        "exit": code,
        "stdout": _sha(stdout.encode()),
        "stderr": _sha(stderr.encode()),
        "files": {name: _sha(data) for name, data in files.items()},
    }


def _golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


# the block of a value: its aligned pair of path rows (one 2 x 2 solve), or its periodogram segment
CSV_BLOCKS = {"t,u,x_value": lambda row: int(row[0]) // 2, "segment_u0,x,I": lambda row: row[0]}


def _moved_values(name: str, ref: bytes, new: bytes):
    """(reference, new, block magnitude) for each number that may move; every other byte must be equal."""
    if name.endswith(".csv"):
        ref_lines, new_lines = ref.decode().splitlines(), new.decode().splitlines()
        assert ref_lines[:2] == new_lines[:2] and len(ref_lines) == len(new_lines)
        block_of = CSV_BLOCKS[ref_lines[1]]
        rows = [(r.split(","), n.split(",")) for r, n in zip(ref_lines[2:], new_lines[2:])]
        magnitude = {}
        for r, n in rows:
            assert r[:-1] == n[:-1]  # only the last column is a solved value
            magnitude[block_of(r)] = max(magnitude.get(block_of(r), 0.0), abs(float(r[-1])))
        return [(float(r[-1]), float(n[-1]), magnitude[block_of(r)]) for r, n in rows]
    # a JSON report: a field's block is the field itself (the errors list, the slope)
    ref_doc, new_doc = json.loads(ref), json.loads(new)
    assert ref_doc.keys() == new_doc.keys()
    values = []
    for key in ref_doc:
        if ref_doc[key] != new_doc[key]:
            r, n = np.atleast_1d(ref_doc[key]).astype(float), np.atleast_1d(new_doc[key]).astype(float)
            assert r.shape == n.shape, key
            values += [(a, b, float(np.max(np.abs(r)))) for a, b in zip(r, n)]
    return values


def check_near_lapack_route(case_id, tmp_path, monkeypatch):
    """A moved case's output: equal text, and numbers near the same command's with the LAPACK block solve.

    The bound is absolute, in eps times the block's largest magnitude: a value
    near 0 moves by many of its own ulps when its block partner is large.
    """
    with monkeypatch.context() as patch:
        patch.setattr(processes, "_block_solve", lapack_block_solve)
        ref_code, ref_out, ref_err, ref_files = _run(case_id, tmp_path / "lapack")
    code, out, err, files = _run(case_id, tmp_path / "closed-form")
    assert (code, out, err) == (ref_code, ref_out, ref_err) and code == 0
    assert files.keys() == ref_files.keys()
    for name in files:
        for ref, new, magnitude in _moved_values(name, ref_files[name], files[name]):
            assert abs(new - ref) <= MOVED_BOUND * np.finfo(float).eps * magnitude, (name, ref, new, magnitude)


@pytest.mark.parametrize("case_id", GOLDEN_CASES)
def test_cli_output_matches_golden(case_id, tmp_path, monkeypatch):
    if case_id in MOVED_CASES:
        check_near_lapack_route(case_id, tmp_path / "route", monkeypatch)
    assert run_case(case_id, tmp_path / "golden") == _golden()[case_id]


@pytest.mark.skipif(sys.platform != "linux", reason="the replicates are split between processes only on Linux")
@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("case_id", [c for c in GOLDEN_CASES if c.startswith("periodogram")])
def test_periodogram_split_between_processes_matches_golden(case_id, cpus, tmp_path, monkeypatch):
    # one part per CPU, at most one per replicate; the record holds every file left in the output directory
    forks = with_cpus(monkeypatch, cpus)
    assert run_case(case_id, tmp_path) == _golden()[case_id]
    argv = CASES[case_id][1]
    replicates = int(argv[argv.index("--replicates") + 1]) if "--replicates" in argv else 1
    assert len(forks) == min(cpus, replicates) - 1
    assert_no_child_left()


@pytest.mark.parametrize("case_id", LAPACK_CASES)
def test_four_curve_blocks_equal_the_lapack_route(case_id, tmp_path, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(processes, "_block_solve", lapack_block_solve)
        reference = _run(case_id, tmp_path / "lapack")
    assert reference[0] == 0
    assert _run(case_id, tmp_path / "library") == reference


def test_golden_table_covers_every_hashed_case():
    assert sorted(_golden()) == GOLDEN_CASES


@pytest.mark.parametrize("case_id", ROUTE_CASES)
def test_convert_equals_shared_route(case_id, tmp_path):
    command, _, name = case_id.partition("/")
    target = command.removeprefix("convert-")
    spec = _spec(name)
    u = np.arange(CONVERT_U_POINTS) / (CONVERT_U_POINTS - 1)
    b_rows, a_rows = coefficient_rows(spec, u)
    if target == "dar":
        k_rows = grid_ratio(b_rows, a_rows)
    elif SPECS.get(name, {}).get("amplitude", "1") == "1":
        k_rows = dma_coefficient_rows(spec, u)
    else:
        k_rows = grid_ratio(a_rows, b_rows)
    record = run_case(case_id, tmp_path)
    assert record["exit"] == 0
    lines = (tmp_path / "out" / "K.csv").read_text().splitlines()
    assert lines[0] == (
        f"# tool=walsh-spectra version={__version__} fingerprint={spec.fingerprint()} "
        f"command=convert target={target}"
    )
    assert lines[1] == "u,j,K_j"
    # repr round-trips a float exactly, so equal text is equal bits
    assert lines[2:] == [
        f"{float(ui)!r},{j},{float(k)!r}" for ui, row in zip(u, k_rows) for j, k in enumerate(row)
    ]


if __name__ == "__main__":
    table = {}
    for case_id in GOLDEN_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            table[case_id] = run_case(case_id, Path(tmp))
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
