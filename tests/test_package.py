import ast
import re
import types
from pathlib import Path

import walsh_spectra

REMOVED = (
    "simulate_tvdma",
    "simulate_tvdarma",
    "finite_walsh_transform",
    "bit_reverse",
    "inverse_fwht",
    "from_grid",
    "convert_spec_frozen",
    "CovarianceSequence",
    "walsh_spectrum_from_cov",
    "approx_error",
    "to_autoregressive",
    "curve_matrix",
    "_REPLICATE_CHUNK",
    "_write_csv",
    "ConfigError",
)
SRC = Path(walsh_spectra.__file__).parent


def test_every_exported_name_resolves():
    missing = [name for name in walsh_spectra.__all__ if not hasattr(walsh_spectra, name)]
    assert missing == []
    assert len(set(walsh_spectra.__all__)) == len(walsh_spectra.__all__)


def test_exports_are_the_imported_public_names():
    assert walsh_spectra.__all__[0] == "__version__"
    names = walsh_spectra.__all__[1:]
    assert names == sorted(names)
    assert not [n for n in names if isinstance(getattr(walsh_spectra, n), types.ModuleType)]
    assert {"fwht", "simulate", "tv_dyadic_density", "WalshPolynomial"} <= set(names)


def test_removed_aliases_are_gone():
    from walsh_spectra import cli, dyadic, poly, processes, spectra

    for name in REMOVED:
        assert name not in walsh_spectra.__all__
        for module in (walsh_spectra, cli, dyadic, poly, processes, spectra):
            assert not hasattr(module, name), (module.__name__, name)


def outside_dyadic(pattern: str) -> list[str]:
    """file:line of every line outside dyadic.py that matches the regular expression ``pattern``."""
    return [
        f"{path.name}:{lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "dyadic.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(pattern, line)
    ]


def test_only_dyadic_decides_power_of_two_blocks():
    # `n & (n - 1)` and `.bit_length(` belong to dyadic.block_exponent and block_size
    assert outside_dyadic(r"&\s*\([^()]*-\s*1\s*\)|\.bit_length\(") == []


def test_only_dyadic_decides_integer_arguments():
    # "an int or a numpy integer, not a bool" belongs to dyadic.as_int
    assert outside_dyadic(re.escape("(int, np.integer)")) == []


def test_only_dyadic_decides_real_arguments():
    # "an int, float or numpy number, not a bool" belongs to dyadic.is_real
    assert outside_dyadic(re.escape("(int, float, np.integer, np.floating)")) == []


def test_only_dyadic_words_range_rules():
    # "in [lo, hi)", ">= lo" and "a finite number" belong to dyadic.as_int and dyadic.as_real
    assert outside_dyadic(r"must be >=|must lie in|must be a finite number") == []


def test_only_dyadic_decides_array_arguments():
    # "one-dimensional" and "finite values" belong to dyadic.as_finite_array
    assert outside_dyadic(r"must be one-dimensional|must hold only finite values|\.ndim !=") == []


def test_only_public_functions_call_as_finite_array():
    # an argument is checked once, by the public function that receives it; a `_` function takes checked
    # arrays.  Dunders such as a public class's __post_init__ are not private.
    def calls(node, owner):
        """(line, innermost enclosing function) of each `as_finite_array` call under node."""
        for child in ast.iter_child_nodes(node):
            func = getattr(child, "func", None)  # only an ast.Call has one
            if "as_finite_array" in (getattr(func, "id", None), getattr(func, "attr", None)):
                yield child.lineno, owner
            yield from calls(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    found = [
        (path.name, lineno, owner)
        for path in sorted(SRC.glob("*.py"))
        for lineno, owner in calls(ast.parse(path.read_text()), None)
    ]
    offenders = [
        f"{name}:{lineno} {owner}"
        for name, lineno, owner in found
        if owner is None or (owner.startswith("_") and not owner.startswith("__"))
    ]
    assert offenders == []
    assert {"coefficient_rows", "periodogram_grid", "__post_init__"} <= {owner for _, _, owner in found}


def calls_outside(name: str, owner: str, skip: str | None = None) -> list[tuple[str, int]]:
    """(file, line) of each call of ``name`` in the package, outside ``skip``, checked to lie in processes.``owner``."""
    def calls(tree):
        return [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]

    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py")) if path.name != skip}
    everywhere = [(file, lineno) for file, tree in trees.items() for lineno in calls(tree)]
    (func,) = [node for node in trees["processes.py"].body if isinstance(node, ast.FunctionDef) and node.name == owner]
    assert everywhere and everywhere == [("processes.py", lineno) for lineno in calls(func)]
    return everywhere


def test_only_paths_calls_block_solve():
    # slack, the XOR core and solve, and trend + amplitude * core belong to processes._paths, whichever reader
    # gives it the rows: `_rows`, or `_dma_rows` for the frozen moving-average form of verify's conversion side
    assert len(calls_outside("_block_solve", "_paths")) == 1
    assert not hasattr(walsh_spectra.processes, "_cores") and not hasattr(walsh_spectra.processes, "_core_values")


def test_only_paths_builds_a_path_from_the_combine():
    # every path is a processes._paths path; the block solve's residual and the defining equation's defect
    # combine rows too, but build no path
    callers = {
        (path.name, func.name)
        for path in sorted(SRC.glob("*.py"))
        for func in ast.parse(path.read_text()).body
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and "_dma_combine" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    assert callers == {("processes.py", name) for name in ("_paths", "_block_solve", "defining_equation_residual")}


def test_only_block_solve_constructs_singular_block_error():
    # finding a singular block, and numbering it on the whole path, belong to processes._block_solve
    assert len(calls_outside("SingularBlockError", "_block_solve")) == 2


def test_only_rows_calls_eval_curve():
    # reading a spec at u, and the rule that a modulated kind reads its MA curves at u = 0, belong to processes._rows
    calls_outside("eval_curve", "_rows", skip="curves.py")


def test_only_the_window_loop_calls_make_innovations():
    # drawing each aligned window's innovations belongs to processes._simulate, behind simulate and simulate_seeds
    tree = ast.parse((SRC / "processes.py").read_text())
    callers = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and "make_innovations" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    assert callers == {"_simulate"}


def test_only_check_horizon_and_decay_experiment_read_the_window():
    # every pass over a path runs in windows of max(_WINDOW, L) values, a rule processes._check_horizon alone
    # states; decay_experiment reads the constant to fill a block of replicates with one window's values
    def reads(node, owner):
        """The innermost enclosing function of each read of `_WINDOW` under node, as a name or an attribute."""
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            if name == "_WINDOW" and isinstance(child.ctx, ast.Load):
                yield owner
            yield from reads(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    owners = {
        (path.name, owner) for path in sorted(SRC.glob("*.py")) for owner in reads(ast.parse(path.read_text()), None)
    }
    assert owners == {("processes.py", "_check_horizon"), ("processes.py", "decay_experiment")}


def test_cli_formats_each_table_shape_one_way():
    # a CSV cell's text comes from cli._write_path (a sample path, whose t and u it makes per chunk) or
    # cli._write_grid (a grid, each axis value formatted once); no grid axis is expanded to a full column, and
    # simulate hands the writer the path's values alone
    def uses(node, owner):
        """(name, innermost enclosing function) of each name or attribute under node."""
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            if name is not None:
                yield name, owner
            yield from uses(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    found = list(uses(ast.parse((SRC / "cli.py").read_text()), None))
    assert {owner for name, owner in found if name == "repr"} == {"_write_path", "_write_grid"}
    assert [(name, owner) for name, owner in found if name in ("repeat", "tile")] == []
    assert ("arange", "_cmd_simulate") not in found


def test_no_module_imports_another_modules_private_names():
    # a `_` name is private to its module; dunders such as __version__ are not
    offenders = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("walsh_spectra"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert offenders == []
