"""Simulation of dyadic-stationary and locally dyadic-stationary processes.

The processes here are triangular arrays X_{t,T}, t = 0..T-1, whose
coefficients are smooth curves of the rescaled time u = t/T:

* moving-average type: ``X_t = mu(t/T) + sum_k a_k(t/T) eps_{t XOR k}``
* autoregressive / mixed type: ``sum_k b_k(t/T) X_{t XOR k} =
  sum_n a_n(t/T) eps_{t XOR n}``, solved exactly block by block (XOR
  couples an index only to the other members of its aligned
  power-of-two block)
* amplitude-modulated stationary: ``X_t = mu(t/T) + s(t/T) Y_t`` with Y a
  fixed-coefficient moving average.

T is restricted to powers of two so that every XOR-shifted index stays in
range.  Innovations come from a splittable counter scheme: the value at
index i is a pure function of (seed, i), so any parallel split of the
work reproduces the serial stream bit for bit, and time-varying and
frozen-coefficient paths driven by the same seed share their noise.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from .curves import CurveExpr, CurveSyntaxError, constant, eval_curve, is_constant, is_constant_zero, parse, serialize
from .dyadic import INDEX_CAP, as_finite_array, as_int, as_real, block_exponent, block_size, check_finite, is_real
# unused here, but kept bound: benchmark/smoke_check.py asserts processes.fwht is dyadic.fwht
from .dyadic import fwht  # noqa: F401
from .poly import SINGULARITY_RTOL, grid_ratio

KINDS = ("tvDMA", "tvDAR", "tvDARMA", "modulated")
#: kinds with a unit autoregressive block: the core is a finite XOR-lag sum of innovations
MA_KINDS = ("tvDMA", "modulated")
DISTRIBUTIONS = ("gaussian", "rademacher", "uniform")
#: values per window of every pass over a path, sized in `_check_horizon`: a pass holds one window's coefficient
#: rows, trend, amplitude and core at a time, so its working set does not grow with the path
_WINDOW = 1 << 15

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


class SingularBlockError(ValueError):
    """A block system of the autoregressive recursion is (near-)singular."""

    def __init__(self, block_index: int, condition: float):
        self.block_index = block_index
        self.condition = condition
        super().__init__(
            f"singular block {block_index} (condition estimate {condition:.3e}): "
            "the autoregressive polynomial vanishes on the dyadic grid near this block"
        )


# --------------------------------------------------------------------------
# innovations: counter-based generation (SplitMix64 stream)


def _mix64_int(z: int) -> int:
    z &= _M64
    z = ((z ^ (z >> 30)) * _MIX1) & _M64
    z = ((z ^ (z >> 27)) * _MIX2) & _M64
    return z ^ (z >> 31)


def _words(seeds, lo: int, hi: int) -> np.ndarray:
    """Pseudorandom 64-bit word for each counter in [lo, hi), a pure function of (seed, counter).

    SplitMix64: state (counter + 1) * gamma + mix(seed + gamma), mixed in place
    (uint64 arithmetic wraps mod 2**64, which is exactly what we want).  A list
    of seeds gives one row per seed: a seed only enters as the additive constant.
    """
    rows = seeds if isinstance(seeds, list) else [seeds]
    z = np.arange(lo, hi, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    offsets = np.array([(_mix64_int(s + _GAMMA) + _GAMMA) & _M64 for s in rows], dtype=np.uint64)
    z = z + offsets[:, None] if rows is seeds else np.add(z, offsets, out=z)
    shifted = np.empty_like(z)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, np.uint64(shift), out=shifted)
        z *= np.uint64(mult)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def spawn_seed(master: int, index: int) -> int:
    """Derived seed for an independent work unit (replicate, worker, block)."""
    master, index = as_int(master, "master", 0, 1 << 64), as_int(index, "index", 0)
    return _mix64_int(master ^ _mix64_int((index + 1) * _GAMMA))


@dataclass(frozen=True)
class InnovationSpec:
    """Law of the i.i.d. innovations: mean 0, variance sigma**2."""

    distribution: str = "gaussian"
    sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"distribution must be one of {DISTRIBUTIONS}, got {self.distribution!r}"
            )
        sigma = self.sigma
        if not (is_real(sigma) and 0 < sigma < np.inf):
            raise ValueError(f"sigma must be a finite positive number, got {sigma!r}")
        seed = as_int(self.seed, "seed", 0, 1 << 64)
        object.__setattr__(self, "sigma", float(sigma))
        object.__setattr__(self, "seed", seed)


def make_innovations(spec: InnovationSpec, count: int, start: int = 0) -> np.ndarray:
    """Innovation values at indices start..start+count-1.

    Deterministic given the seed, and windowed generation agrees with the
    full stream: the value at index i never depends on the requested
    range.  That is what makes parallel generation reproduce serial
    output exactly.
    """
    count, start = as_int(count, "count", 1), as_int(start, "start", 0)
    return _draw(spec, spec.seed, count, start)


def _check_stream(start: int, count: int) -> None:
    if start < 0 or start + count > INDEX_CAP:
        raise ValueError(f"innovation indices [{start}, {start + count}) leave [0, 2**62)")


def _draw(spec: InnovationSpec, seeds, count: int, start: int) -> np.ndarray:
    """Body of `make_innovations` for spec's law; a list of seeds gives one row per seed."""
    _check_stream(start, count)
    if spec.distribution == "gaussian":
        # counters 2i and 2i+1 drive value i: one interleaved pass gives both words
        w = _words(seeds, 2 * start, 2 * (start + count))
        w >>= np.uint64(11)
        u = np.moveaxis(w.reshape(*w.shape[:-1], count, 2), -1, 0).astype(np.float64, order="C")
        del w
        u[0] += 1.0
        u *= 2.0**-53  # u[0] in (0, 1], u[1] in [0, 1)
        z = np.log(u[0])
        z *= -2.0
        np.sqrt(z, out=z)
        z *= np.cos(np.multiply(u[1], 2.0 * np.pi, out=u[1]), out=u[1])
    else:
        w = _words(seeds, start, start + count)
        if spec.distribution == "rademacher":
            z = 1.0 - 2.0 * (w >> np.uint64(63)).astype(np.float64)
        else:
            z = 2.0 * ((w >> np.uint64(11)).astype(np.float64) * 2.0**-53) - 1.0
    overflowed = []  # numpy's flags report a sigma that overflows the draws: a finite draw scans nothing
    with np.errstate(over="call", invalid="call", call=lambda kind, flag: overflowed.append(kind)):
        z *= spec.sigma * (np.sqrt(3.0) if spec.distribution == "uniform" else 1.0)
    if overflowed:
        check_finite(z, "the innovations", ("t", np.arange(start, start + count)))
    return z


# --------------------------------------------------------------------------
# process specifications


def _as_curve(c, name: str) -> CurveExpr:
    if isinstance(c, CurveExpr):
        return c
    if isinstance(c, str):
        try:
            return parse(c)
        except CurveSyntaxError as exc:  # an unknown identifier too, keeping its type
            raise type(exc)(f"{name}: {exc.message}", exc.offset) from None
    if is_real(c):
        return constant(float(c))
    raise ValueError(f"{name} must be a curve string or a number, got {c!r}")


def _curve_block(curves, field: str) -> tuple[CurveExpr, ...]:
    items = [_as_curve(c, f"{field}[{i}]") for i, c in enumerate(curves)]
    items.extend(constant(0.0) for _ in range(block_size(len(items)) - len(items)))
    return tuple(items)


@dataclass(frozen=True)
class ProcessSpec:
    """A simulatable process: kind, coefficient curves, trend, and noise law.

    ``ar`` holds the autoregressive curves b_k (b_0 first), ``ma`` the
    moving-average curves a_n; both blocks are zero-padded to a power of
    two.  ``amplitude`` multiplies the centered process (the modulated
    kind is its main user; it defaults to the constant 1).
    """

    kind: str
    ar: tuple[CurveExpr, ...]
    ma: tuple[CurveExpr, ...]
    trend: CurveExpr
    amplitude: CurveExpr
    innovations: InnovationSpec

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "ar": [serialize(c) for c in self.ar],
            "ma": [serialize(c) for c in self.ma],
            "trend": serialize(self.trend),
            "amplitude": serialize(self.amplitude),
            "distribution": self.innovations.distribution,
            "sigma": self.innovations.sigma,
            "seed": self.innovations.seed,
        }

    def fingerprint(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def with_seed(self, seed: int) -> "ProcessSpec":
        return replace(self, innovations=replace(self.innovations, seed=seed))


def make_process_spec(
    kind: str,
    ar=None,
    ma=None,
    trend="0",
    amplitude="1",
    distribution: str = "gaussian",
    sigma: float = 1.0,
    seed: int = 0,
) -> ProcessSpec:
    """Build a validated `ProcessSpec` from curve strings (or numbers or ASTs).

    Pure moving-average kinds get a unit autoregressive block and vice
    versa.  Declared blocks whose upper dyadic half is identically zero
    trigger a warning (the declared order is then representationally
    inflated), but the algebra is unaffected.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    for field, curves in (("ar", ar), ("ma", ma)):
        # iterating a string or a dict would read its characters or keys as curves
        if curves is not None and not isinstance(curves, (list, tuple)):
            got = f"the string {curves!r}" if isinstance(curves, str) else repr(curves)
            raise ValueError(f"{field} must be a list of curves, got {got}")
    blocks = {}  # the autoregressive block is built, and its curves checked, first
    for field, name, curves, unit in (("ar", "autoregressive", ar, MA_KINDS), ("ma", "moving-average", ma, ("tvDAR",))):
        if kind not in unit and not curves:
            raise ValueError(f"{kind} needs {name} curves")
        blocks[name] = (constant(1.0),) if kind in unit else _curve_block(curves, field)
    for name, block in blocks.items():
        half = len(block) // 2
        if len(block) > 1 and all(is_constant_zero(c) for c in block[half:]):
            warnings.warn(
                f"{name} block of length {len(block)} has an identically zero "
                "upper half; the declared order is inflated",
                # called through `spec_from_dict`, the warning names that function's caller
                stacklevel=3 if sys._getframe(1).f_code is spec_from_dict.__code__ else 2,
            )
    return ProcessSpec(
        kind=kind,
        ar=blocks["autoregressive"],
        ma=blocks["moving-average"],
        trend=_as_curve(trend, "trend"),
        amplitude=_as_curve(amplitude, "amplitude"),
        innovations=InnovationSpec(distribution=distribution, sigma=sigma, seed=seed),
    )


def spec_from_dict(data: dict) -> ProcessSpec:
    """Inverse of `ProcessSpec.to_dict` (the on-disk JSON format)."""
    known = {"kind", "ar", "ma", "trend", "amplitude", "distribution", "sigma", "seed"}
    extra = set(data) - known
    if extra:
        raise ValueError(f"unknown spec fields: {sorted(extra)}")
    if "kind" not in data:
        raise ValueError("spec needs a 'kind' field")
    return make_process_spec(**data)


def coefficient_rows(spec: ProcessSpec, u) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient rows (b_rows, a_rows): the AR and MA curves at each u_i.

    The modulated kind's core is a stationary moving average, so its MA
    curves are read at u = 0 for every row.  Each block keeps its own
    length; `grid_ratio` pads the two to a common one when converting.
    The trend and amplitude are read too: either raises where not finite.
    """
    return _rows(spec, as_finite_array(np.atleast_1d(u), "u"))[:2]


def _read_curves(spec: ProcessSpec) -> tuple:
    """(ar, ma, trend, amplitude): the curves a kind reads at u.

    A modulated kind's core is a stationary moving average, read at u = 0, so each of its MA curves is given as the
    constant curve of its value there.
    """
    ma = tuple(constant(eval_curve(c, 0.0)) for c in spec.ma) if spec.kind == "modulated" else spec.ma
    return spec.ar, ma, spec.trend, spec.amplitude


def _rows(spec: ProcessSpec, u: np.ndarray) -> tuple[np.ndarray, ...]:
    """(b_rows, a_rows, trend, amplitude), the `_read_curves` of the kind at a checked 1-D float64 u."""
    def block(curves) -> np.ndarray:
        out = np.empty((u.size, len(curves)))
        for k, c in enumerate(curves):
            out[:, k] = eval_curve(c, u)
        return out
    ar, ma, trend, amplitude = _read_curves(spec)
    return block(ar), block(ma), eval_curve(trend, u), eval_curve(amplitude, u)


# --------------------------------------------------------------------------
# sample paths


@dataclass(frozen=True)
class SamplePath:
    """A realized path together with the innovations that produced it."""

    values: np.ndarray
    innovations: np.ndarray

    @property
    def length(self) -> int:
        return self.values.size


def _check_horizon(T: int, spec: ProcessSpec, what: str) -> tuple[int, int]:
    """(T, n): the checked power-of-two horizon and its aligned window, max(`_WINDOW`, L) values or the whole path."""
    T, L = 1 << block_exponent(T, what), max(len(spec.ar), len(spec.ma))
    if T < L:
        raise ValueError(f"{what}={T} is shorter than the coefficient block length {L}")
    return T, min(T, max(_WINDOW, L))


def _dma_combine(coef: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """out[..., t] = sum_k coef[t, k] * eps[..., t XOR k] for (T, L) coefficient rows.

    Leading axes of eps are replicates sharing the rows.  Each aligned block
    of L = 2**m values is viewed as m binary axes, most significant bit
    first; XOR with k reverses the axes of k's set bits, a strided view
    rather than an index gather.
    """
    T, L = coef.shape
    m = block_exponent(L)
    shape = (T // L,) + (2,) * m
    e = eps.reshape(eps.shape[:-1] + shape)
    c = coef.reshape(shape + (L,))
    out = np.zeros(e.shape)
    for k in range(L):
        flip = tuple(slice(None, None, -1) if k >> (m - 1 - axis) & 1 else slice(None) for axis in range(m))
        out += c[..., k] * e[(..., slice(None), *flip)]
    return out.reshape(eps.shape)


def _block_matrices(b_rows: np.ndarray) -> np.ndarray:
    """Dense L x L matrix of each aligned block: row i holds b_{i XOR j} at column j."""
    T, L = b_rows.shape
    r = np.arange(L)
    return b_rows.reshape(T // L, L, L)[:, r[:, None], r[:, None] ^ r[None, :]]


def _solve2(b_rows: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Every 2 x 2 block by Gaussian elimination with partial pivoting, in closed form.

    The steps are LAPACK's (getf2/getrs), as in the scalar test oracle `oracle_solve2`:
    pivot on the larger |column 0| entry, the first of equal magnitudes; l = (1/p0)*q0,
    x1 = (y1 - l*y0)/(q1 - l*p1), x0 = (y0 - x1*p1)/p0, plain array expressions
    whose temporaries one window bounds.  Numpy never fuses a multiply-add, so
    the bits do not depend on the BLAS kernel.  A zero pivot gives inf or nan,
    left to the residual check.  Leading axes of rhs are replicates sharing the rows.
    """
    n = b_rows.shape[0] // 2
    b, z = b_rows.reshape(n, 2, 2), rhs.reshape(*rhs.shape[:-1], n, 2)
    r0, r1 = (b[:, 0, 0], b[:, 0, 1], z[..., 0]), (b[:, 1, 1], b[:, 1, 0], z[..., 1])
    swap = np.abs(r1[0]) > np.abs(r0[0])
    if swap.any():  # swapped copies only where some block pivots
        r0, r1 = [np.where(swap, q, p) for p, q in zip(r0, r1)], [np.where(swap, p, q) for p, q in zip(r0, r1)]
    (p0, p1, y0), (q0, q1, y1) = r0, r1
    l = 1.0 / p0 * q0
    x1 = (y1 - l * y0) / (q1 - l * p1)
    x0 = (y0 - x1 * p1) / p0
    return np.stack((x0, x1), axis=-1).reshape(rhs.shape)


def _block_solve(b_rows: np.ndarray, rhs: np.ndarray, first: int = 0) -> np.ndarray:
    """Solve the XOR recursion sum_k b_k(t/T) X_{t XOR k} = rhs_t exactly.

    Row t of the system couples X only within t's aligned block of length
    L = number of autoregressive coefficients, so the global system is
    block diagonal with dense L x L blocks (rows vary with t, so the
    blocks are not XOR-circulant and are LU-solved: in closed form for
    L = 2, by LAPACK for L >= 4).  Leading axes of rhs are replicates sharing
    the rows; each is checked against its own residual tolerance.  A singular
    block raises `SingularBlockError` with the worst block's index counted from
    ``first``, the index of the rows' first block on the whole path.
    """
    T, L = b_rows.shape
    if L == 1:
        diag = b_rows[:, 0]
        bad = np.abs(diag) <= SINGULARITY_RTOL * max(np.max(np.abs(diag)), 1e-300)
        if np.any(bad):
            t = int(np.argmax(bad))
            raise SingularBlockError(first + t, np.inf)
        return rhs / diag
    # a singular block ends in SingularBlockError below, not in a warning
    with np.errstate(all="ignore"):
        if L == 2:
            x = _solve2(b_rows, rhs)
        else:
            try:
                z = rhs.reshape(*rhs.shape[:-1], T // L, L, 1)
                x = np.linalg.solve(_block_matrices(b_rows), z).reshape(rhs.shape)
            except np.linalg.LinAlgError:
                x = None
        # tolerance deliberately ignores |x|: a near-singular block inflates x and
        # the residual with it, which is exactly what should be flagged
        tol = 1e-9 * np.maximum(1.0, np.max(np.abs(rhs), axis=-1))
        if x is not None and np.all(np.max(np.abs(_dma_combine(b_rows, x) - rhs), axis=-1) <= tol):
            return x
        conds = np.linalg.cond(_block_matrices(b_rows))
    conds = np.where(np.isfinite(conds), conds, np.inf)
    worst = int(np.argmax(conds))
    raise SingularBlockError(first + worst, float(conds[worst]))


def _frozen(spec: ProcessSpec, u0: float) -> ProcessSpec:
    """The stationary comparison process: spec with every curve replaced by its constant value in `_rows` at u0."""
    b_rows, a_rows, trend, amplitude = _rows(spec, np.array([u0]))
    ar, ma = (tuple(map(constant, rows[0])) for rows in (b_rows, a_rows))
    return replace(spec, ar=ar, ma=ma, trend=constant(trend[0]), amplitude=constant(amplitude[0]))


def _paths(spec: ProcessSpec, T: int, lo: int, hi: int, slack: float = 0.0, read=_rows):
    """``path(eps)`` = trend + amplitude * core, the values on an aligned window lo <= t < hi.

    ``read`` (`_rows`, or `_dma_rows` for the frozen moving-average form) reads the spec at u = t/T once for every
    run.  XOR couples t only inside its aligned block, so the values equal the whole path's; `_block_solve` numbers
    a singular block, the worst in the window, on the whole path.  A core or path that overflows float64 raises
    a ValueError naming its first u, the core's before it reaches the solve.
    """
    b_rows, a_rows, trend, amp = read(spec, np.arange(lo, hi) / T)
    if slack:  # +-slack/T on the rows: rescaled and actual coefficients then differ at order 1/T
        for rows in (b_rows, a_rows):
            rows += slack / T * (1.0 - 2.0 * ((np.arange(lo, hi)[:, None] + np.arange(rows.shape[1])) & 1))
    def path(eps: np.ndarray) -> np.ndarray:
        # finite rows and innovations give a non-finite value only through an overflow in these ufuncs, which
        # numpy's floating-point flags report: a finite run scans nothing
        overflowed = []
        with np.errstate(over="call", invalid="call", call=lambda kind, flag: overflowed.append(kind)):
            core = _dma_combine(a_rows, eps)
            if overflowed:
                check_finite(core, "the core", ("u", np.arange(lo, hi) / T))
            if spec.kind not in MA_KINDS:
                core = _block_solve(b_rows, core, lo // b_rows.shape[1])
            values = trend + amp * core
        if overflowed:
            check_finite(values, "the path", ("u", np.arange(lo, hi) / T))
        return values
    return path


def _simulate(spec: ProcessSpec, T: int, innovations: np.ndarray | None, path_of) -> SamplePath:
    """The window loop: each aligned window draws its innovations, unless supplied, then runs ``path_of(T, lo, hi)``."""
    T, n = _check_horizon(T, spec, "T")
    _check_stream(0, T)  # before np.empty, which past the cap raises numpy's own error
    if innovations is not None and innovations.size != T:
        raise ValueError(f"innovations must hold T={T} values, got {innovations.size}")
    if n == T:  # one window: its own arrays, neither preallocated nor copied
        eps = make_innovations(spec.innovations, T) if innovations is None else innovations
        return SamplePath(values=path_of(T, 0, T)(eps), innovations=eps)
    eps, values = np.empty(T) if innovations is None else innovations, np.empty(T)
    for lo in range(0, T, n):
        if innovations is None:
            eps[lo : lo + n] = make_innovations(spec.innovations, n, lo)
        values[lo : lo + n] = path_of(T, lo, lo + n)(eps[lo : lo + n])
    return SamplePath(values=values, innovations=eps)


def simulate(spec: ProcessSpec, T: int, innovations=None) -> SamplePath:
    """Simulate the time-varying process on t = 0..T-1 (T a power of two), in aligned windows of max(`_WINDOW`, L).

    Exact for every kind.  A singular block is the worst of the first window that holds one, on that window's scale.
    """
    eps = None if innovations is None else as_finite_array(innovations, "innovations")
    return _simulate(spec, T, eps, functools.partial(_paths, spec))


def simulate_frozen(spec: ProcessSpec, u0: float, T: int, innovations=None) -> SamplePath:
    """Simulate the stationary process with every curve frozen at u0: `simulate` of the frozen spec.

    Uses the same innovation stream as `simulate` for the same seed, so the
    two paths are directly comparable point by point.
    """
    return simulate(_frozen(spec, as_real(u0, "u0", 0, 1)), T, innovations)


def simulate_seeds(spec: ProcessSpec, T: int, seeds):
    """Lazily ``simulate(spec.with_seed(s), T)`` for each seed s, bit for bit; each window's rows serve every seed."""
    path_of = functools.cache(functools.partial(_paths, spec))
    return (_simulate(spec.with_seed(seed), T, None, path_of) for seed in seeds)


def defining_equation_residual(spec: ProcessSpec, path: SamplePath) -> float:
    """Max over t of |sum_k b_k(t/T) core_{t XOR k} - sum_n a_n(t/T) eps_{t XOR n}|, in `simulate`'s windows.

    ``core`` is the path with trend removed and amplitude divided out.  A ValueError naming the first u is
    raised where the amplitude is 0, the core overflows or a window's defect does, so the result is finite; as
    in `simulate`, a defect of the spec is reported from the first window that holds one.  The path's values
    and innovations are finite series of one power-of-two length, at least the coefficient block's.
    """
    values = as_finite_array(path.values, "path.values")
    T, n = _check_horizon(values.size, spec, "path length")
    eps = as_finite_array(path.innovations, "path.innovations")
    if eps.size != T:
        raise ValueError(f"path.innovations must hold as many values as path.values ({T}), got {eps.size}")
    worst = 0.0
    for lo in range(0, T, n):
        u = np.arange(lo, lo + n) / T
        b_rows, a_rows, trend, amp = _rows(spec, u)
        if not amp.all():
            raise ValueError(f"amplitude vanishes at u={u[np.argmin(amp != 0.0)]}: the core process is undefined there")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below, naming its first u
            core = np.divide(values[lo : lo + n] - trend, amp, out=trend)  # in the trend's buffer, not read again
            check_finite(core, "the core (path - trend) / amplitude", ("u", u))
            defect = np.abs(_dma_combine(b_rows, core) - _dma_combine(a_rows, eps[lo : lo + n]))
            check_finite(defect, "the defining equation's defect", ("u", u))
        worst = max(worst, float(np.max(defect)))
        del u, b_rows, a_rows, trend, amp, core, defect  # freed before the next window's rows are read
    return worst


def dma_coefficient_rows(spec: ProcessSpec, u) -> np.ndarray:
    """Frozen moving-average coefficients K_j(u_i) for each u, as a matrix.

    For autoregressive kinds this applies the frozen AR -> MA conversion
    `grid_ratio` to all rows at once.  The amplitude curve is folded in,
    and the trend is read too: either raises where not finite.  Raises
    `SingularPolynomialError` naming the first offending u when the AR
    polynomial vanishes on the grid there, and a ValueError naming the first
    (u, j) at which K overflows float64.
    """
    return _dma_rows(spec, as_finite_array(np.atleast_1d(u), "u"))[1]


def _dma_rows(spec: ProcessSpec, u: np.ndarray) -> tuple[np.ndarray, ...]:
    """`_rows` of the frozen moving-average form: unit b rows, `dma_coefficient_rows` at u, trend, unit amplitude."""
    b_rows, a_rows, trend, amp = _rows(spec, u)
    with np.errstate(over="ignore", invalid="ignore"):  # finite rows can still give a K that overflows
        k_rows = (grid_ratio(a_rows, b_rows, where=u) if spec.kind not in MA_KINDS else a_rows) * amp[:, None]
    check_finite(k_rows, "the moving-average coefficients K", ("u", u), ("j", np.arange(k_rows.shape[1])))
    return np.ones((u.size, 1)), k_rows, trend, np.ones(u.size)


# --------------------------------------------------------------------------
# approximation experiments


def _window(center: int, radius: int, length: int) -> slice:
    """Index window |t - center| <= radius, checked to lie inside a path of the given length."""
    lo, hi = center - radius, center + radius
    if lo < 0 or hi >= length:
        raise ValueError(f"window [{lo}, {hi}] leaves the path of length {length}")
    return slice(lo, hi + 1)


@dataclass(frozen=True)
class ApproxReport:
    """Decay of the local approximation error as the horizon doubles."""

    mode: str
    u0: float
    radius: int
    T_values: tuple[int, ...]
    errors: tuple[float, ...]
    slope: float | None
    exact: bool
    replicates: int

    def to_dict(self) -> dict:
        return asdict(self)


def decay_experiment(
    spec: ProcessSpec,
    mode: str,
    T_values=(128, 256, 512, 1024, 2048, 4096, 8192),
    u0: float = 0.5,
    radius: int = 16,
    replicates: int = 20,
    slack: float = 0.0,
) -> ApproxReport:
    """Measure how fast the local approximation error shrinks with T.

    mode "frozen"     : time-varying path vs. the path with coefficients
                        frozen at u0, same innovations.
    mode "conversion" : autoregressive-kind path vs. the moving-average
                        path built from the frozen per-t conversion
                        K(t/T), same innovations.

    For each T the sup-error over the index window of the given radius
    around u0*T is averaged over replicate seeds; the report carries the
    fitted slope of log2(error) against log2(T).  ``slack`` adds a
    bounded coefficient perturbation of size slack/T to the time-varying
    side, which makes the error decay exactly at first order even where
    all curves happen to be flat at u0.

    Only the L-aligned hull of each window is simulated (see `_paths`), and a horizon's
    replicates are drawn and solved in blocks of one window's values (at least one
    replicate); each replicate's error equals its own path's bit for bit.  A mean
    error that overflows float64 raises a ValueError naming its first horizon T.
    """
    if mode not in ("frozen", "conversion"):
        raise ValueError(f"mode must be 'frozen' or 'conversion', got {mode!r}")
    if mode == "conversion" and spec.kind in MA_KINDS:
        raise ValueError("conversion mode needs an autoregressive-kind spec")
    radius, replicates = as_int(radius, "radius", 0), as_int(replicates, "replicates", 1)
    u0, slack = as_real(u0, "u0", 0, 1), as_real(slack, "slack")
    # every horizon and window is checked before anything is simulated
    T_values = tuple(_check_horizon(T, spec, f"T_values[{i}]")[0] for i, T in enumerate(T_values))
    windows = [_window(round(u0 * T), radius, T) for T in T_values]
    if len(set(T_values)) < 2:
        raise ValueError(f"a decay slope needs at least two distinct horizons, got {list(T_values)}")
    seeds = np.fromiter((spawn_seed(spec.innovations.seed, rep) for rep in range(replicates)), np.uint64, replicates)
    frozen = _frozen(spec, u0) if mode == "frozen" else None
    L, mean_errors = max(len(spec.ar), len(spec.ma)), []
    for T, window in zip(T_values, windows):
        lo, hi = window.start // L * L, -(-window.stop // L) * L
        x_tv = _paths(spec, T, lo, hi, slack)
        # frozen rows do not depend on t: laid at 0, blocks are numbered as `simulate_frozen`'s
        x_cmp = _paths(frozen, T, 0, hi - lo) if frozen is not None else _paths(spec, T, lo, hi, read=_dma_rows)
        read = slice(window.start - lo, window.stop - lo)
        errs = np.empty(replicates)  # the sup-error of each replicate
        per_block = max(1, _WINDOW // (hi - lo))  # a block holds one window's values
        with np.errstate(over="ignore", invalid="ignore"):  # finite paths can still differ by more than float64 holds
            for first in range(0, replicates, per_block):
                block = slice(first, first + per_block)
                eps = _draw(spec.innovations, seeds[block].tolist(), hi - lo, lo)  # one row per replicate
                errs[block] = np.max(np.abs(x_tv(eps)[:, read] - x_cmp(eps)[:, read]), axis=1)
            mean_errors.append(float(np.mean(errs)))
    check_finite(np.array(mean_errors), "the mean error", ("T", np.array(T_values)))
    ar, ma, trend, amplitude = _read_curves(spec)
    exact = not slack and all(map(is_constant, (*ar, *ma, trend, amplitude)))  # from the spec, not the errors
    slope = None
    if not exact and all(e > 0 for e in mean_errors):
        slope = float(np.polyfit(np.log2(T_values), np.log2(mean_errors), 1)[0])
    return ApproxReport(
        mode=mode,
        u0=u0,
        radius=radius,
        T_values=T_values,
        errors=tuple(mean_errors),
        slope=slope,
        exact=exact,
        replicates=replicates,
    )
