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

import hashlib
import json
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from .curves import CurveExpr, constant, eval_curve, is_constant_zero, parse, serialize
from .dyadic import INDEX_CAP
# unused here, but kept bound: benchmark/smoke_check.py asserts processes.fwht is dyadic.fwht
from .dyadic import fwht  # noqa: F401
from .poly import SINGULARITY_RTOL, grid_ratio

KINDS = ("tvDMA", "tvDAR", "tvDARMA", "modulated")
#: kinds with a unit autoregressive block: the core is a finite XOR-lag sum of innovations
MA_KINDS = ("tvDMA", "modulated")
DISTRIBUTIONS = ("gaussian", "rademacher", "uniform")

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


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
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _mix64(z: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps mod 2**64, which is exactly what we want
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _words(seed: int, counters: np.ndarray) -> np.ndarray:
    """Pseudorandom 64-bit word for each counter, a pure function of (seed, counter)."""
    base = _mix64_int((int(seed) & _M64) + _GAMMA)
    state = np.uint64(base) + (counters + np.uint64(1)) * np.uint64(_GAMMA)
    return _mix64(state)


def spawn_seed(master: int, index: int) -> int:
    """Derived seed for an independent work unit (replicate, worker, block)."""
    return _mix64_int((int(master) & _M64) ^ _mix64_int((index + 1) * _GAMMA))


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
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not 0 <= self.seed <= _M64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")


def make_innovations(spec: InnovationSpec, count: int, start: int = 0) -> np.ndarray:
    """Innovation values at indices start..start+count-1.

    Deterministic given the seed, and windowed generation agrees with the
    full stream: the value at index i never depends on the requested
    range.  That is what makes parallel generation reproduce serial
    output exactly.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if start < 0 or start + count > INDEX_CAP:
        raise ValueError(f"innovation indices [{start}, {start + count}) leave [0, 2**62)")
    idx = np.arange(start, start + count, dtype=np.uint64)
    if spec.distribution == "gaussian":
        w1 = _words(spec.seed, idx * np.uint64(2))
        w2 = _words(spec.seed, idx * np.uint64(2) + np.uint64(1))
        u1 = ((w1 >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53  # (0, 1]
        u2 = (w2 >> np.uint64(11)).astype(np.float64) * 2.0**-53  # [0, 1)
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        return spec.sigma * z
    w = _words(spec.seed, idx)
    if spec.distribution == "rademacher":
        return spec.sigma * (1.0 - 2.0 * (w >> np.uint64(63)).astype(np.float64))
    u = (w >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return spec.sigma * np.sqrt(3.0) * (2.0 * u - 1.0)


# --------------------------------------------------------------------------
# process specifications


def _as_curve(c) -> CurveExpr:
    if isinstance(c, CurveExpr):
        return c
    if isinstance(c, str):
        return parse(c)
    return constant(float(c))


def _curve_block(curves) -> tuple[CurveExpr, ...]:
    items = [_as_curve(c) for c in curves]
    size = 1
    while size < len(items):
        size *= 2
    items.extend(constant(0.0) for _ in range(size - len(items)))
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
        if isinstance(curves, str):
            raise ValueError(f"{field} must be a list of curves, got the string {curves!r}")
    if kind in MA_KINDS:
        ar_block = (_as_curve("1"),)
    else:
        if not ar:
            raise ValueError(f"{kind} needs autoregressive curves")
        ar_block = _curve_block(ar)
    if kind == "tvDAR":
        ma_block = (_as_curve("1"),)
    else:
        if not ma:
            raise ValueError(f"{kind} needs moving-average curves")
        ma_block = _curve_block(ma)
    for name, block in (("autoregressive", ar_block), ("moving-average", ma_block)):
        half = len(block) // 2
        if len(block) > 1 and all(is_constant_zero(c) for c in block[half:]):
            warnings.warn(
                f"{name} block of length {len(block)} has an identically zero "
                "upper half; the declared order is inflated",
                stacklevel=2,
            )
    return ProcessSpec(
        kind=kind,
        ar=ar_block,
        ma=ma_block,
        trend=_as_curve(trend),
        amplitude=_as_curve(amplitude),
        innovations=InnovationSpec(distribution=distribution, sigma=float(sigma), seed=int(seed)),
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


def curve_matrix(curves, u) -> np.ndarray:
    """Stack of curve values: out[i, k] = curve_k(u_i)."""
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    out = np.empty((u.size, len(curves)))
    for k, c in enumerate(curves):
        out[:, k] = eval_curve(c, u)
    return out


def coefficient_rows(spec: ProcessSpec, u) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient rows (b_rows, a_rows): the AR and MA curves at each u_i.

    The modulated kind's core is a stationary moving average, so its MA
    curves are read at u = 0 for every row.  Each block keeps its own
    length; `grid_ratio` pads the two to a common one when converting.
    """
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    b_rows = curve_matrix(spec.ar, u)
    if spec.kind == "modulated":
        a0 = curve_matrix(spec.ma, np.array([0.0]))[0]
        a_rows = np.broadcast_to(a0, (u.size, a0.size)).copy()
    else:
        a_rows = curve_matrix(spec.ma, u)
    return b_rows, a_rows


# --------------------------------------------------------------------------
# sample paths


@dataclass(frozen=True)
class SamplePath:
    """A realized path together with the innovations that produced it."""

    values: np.ndarray
    innovations: np.ndarray
    spec_fingerprint: str

    @property
    def length(self) -> int:
        return self.values.size


def _check_horizon(T: int, needed: int) -> int:
    T = int(T)
    if T < 1 or T & (T - 1):
        raise ValueError(f"T must be a power of two, got {T}")
    if T < needed:
        raise ValueError(f"T={T} is shorter than the coefficient block length {needed}")
    return T


def _dma_combine(coef: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """out[t] = sum_k coef[t, k] * eps[t XOR k] for (T, L) coefficient rows."""
    t = np.arange(eps.size)
    out = np.zeros(eps.size)
    for k in range(coef.shape[1]):
        out += coef[:, k] * eps[t ^ k]
    return out


def _block_solve(b_rows: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the XOR recursion sum_k b_k(t/T) X_{t XOR k} = rhs_t exactly.

    Row t of the system couples X only within t's aligned block of length
    L = number of autoregressive coefficients, so the global system is
    block diagonal with dense L x L blocks (rows vary with t, so the
    blocks are not XOR-circulant and are LU-solved).
    """
    T, L = b_rows.shape
    if L == 1:
        diag = b_rows[:, 0]
        bad = np.abs(diag) <= SINGULARITY_RTOL * max(np.max(np.abs(diag)), 1e-300)
        if np.any(bad):
            t = int(np.argmax(bad))
            raise SingularBlockError(t, np.inf)
        return rhs / diag
    n_blocks = T // L
    r = np.arange(L)
    mats = b_rows.reshape(n_blocks, L, L)[:, r[:, None], r[:, None] ^ r[None, :]]
    try:
        x = np.linalg.solve(mats, rhs.reshape(n_blocks, L, 1)).reshape(T)
    except np.linalg.LinAlgError:
        x = None
    # tolerance deliberately ignores |x|: a near-singular block inflates x and
    # the residual with it, which is exactly what should be flagged
    tol = 1e-9 * max(1.0, float(np.max(np.abs(rhs))))
    if x is None or not np.max(np.abs(_dma_combine(b_rows, x) - rhs)) <= tol:
        with np.errstate(divide="ignore", invalid="ignore"):
            conds = np.linalg.cond(mats)
        conds = np.where(np.isfinite(conds), conds, np.inf)
        worst = int(np.argmax(conds))
        raise SingularBlockError(worst, float(conds[worst]))
    return x


def _core_values(spec: ProcessSpec, b_rows, a_rows, eps) -> np.ndarray:
    ma_part = _dma_combine(a_rows, eps)
    return ma_part if spec.kind in MA_KINDS else _block_solve(b_rows, ma_part)


def _simulate_on(spec: ProcessSpec, T: int, innovations, u0) -> SamplePath:
    """Body of `simulate` (u0 None: u = t/T) and `simulate_frozen` (u = u0 for every t)."""
    T = _check_horizon(T, max(len(spec.ar), len(spec.ma)))
    eps = make_innovations(spec.innovations, T) if innovations is None else np.asarray(innovations, dtype=np.float64)
    if eps.size != T:
        raise ValueError("innovations length must equal T")
    u = np.arange(T) / T if u0 is None else np.full(T, float(u0))
    # the coefficient rows are released before trend and amplitude are
    # evaluated, which keeps them out of the peak memory at large T
    core = _core_values(spec, *coefficient_rows(spec, u), eps)
    values = eval_curve(spec.trend, u) + eval_curve(spec.amplitude, u) * core
    return SamplePath(values=values, innovations=eps, spec_fingerprint=spec.fingerprint())


def simulate(spec: ProcessSpec, T: int, innovations=None) -> SamplePath:
    """Simulate the time-varying process on t = 0..T-1 (T a power of two).

    Moving-average kinds are an exact finite XOR-lag sum; autoregressive
    and mixed kinds are solved exactly block by block.
    """
    return _simulate_on(spec, T, innovations, None)


def simulate_frozen(spec: ProcessSpec, u0: float, T: int, innovations=None) -> SamplePath:
    """Simulate the stationary process with every curve frozen at u0.

    Uses the same innovation stream as `simulate` for the same seed, so
    the two paths are directly comparable point by point.
    """
    return _simulate_on(spec, T, innovations, u0)


def defining_equation_residual(spec: ProcessSpec, path: SamplePath) -> float:
    """Max over t of |sum_k b_k(t/T) core_{t XOR k} - sum_n a_n(t/T) eps_{t XOR n}|.

    ``core`` is the path with trend removed and amplitude divided out, so
    a ValueError naming the first such u is raised where the amplitude is 0.
    """
    T = path.length
    u = np.arange(T) / T
    amp = eval_curve(spec.amplitude, u)
    zeros = np.flatnonzero(amp == 0.0)
    if zeros.size:
        raise ValueError(f"amplitude vanishes at u={u[zeros[0]]}: the core process is undefined there")
    b_rows, a_rows = coefficient_rows(spec, u)
    core = (path.values - eval_curve(spec.trend, u)) / amp
    lhs = _dma_combine(b_rows, core)
    rhs = _dma_combine(a_rows, path.innovations)
    return float(np.max(np.abs(lhs - rhs)))


def dma_coefficient_rows(spec: ProcessSpec, u) -> np.ndarray:
    """Frozen moving-average coefficients K_j(u_i) for each u, as a matrix.

    For autoregressive kinds this applies the frozen AR -> MA conversion
    `grid_ratio` to all rows at once.  The amplitude curve is folded in.
    Raises `SingularPolynomialError` naming the first offending u when
    the AR polynomial vanishes on the grid there.
    """
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    b_rows, a_rows = coefficient_rows(spec, u)
    if spec.kind not in MA_KINDS:
        a_rows = grid_ratio(a_rows, b_rows, where=u)
    return a_rows * eval_curve(spec.amplitude, u)[:, None]


# --------------------------------------------------------------------------
# approximation experiments


def _window(center: int, radius: int, length: int) -> slice:
    """Index window |t - center| <= radius, checked to lie inside a path of the given length."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    lo, hi = center - radius, center + radius
    if lo < 0 or hi >= length:
        raise ValueError(f"window [{lo}, {hi}] leaves the path of length {length}")
    return slice(lo, hi + 1)


def approx_error(tv: SamplePath, frozen: SamplePath, center: int, radius: int) -> float:
    """Sup of |tv - frozen| over the index window |t - center| <= radius."""
    if tv.length != frozen.length:
        raise ValueError("paths have different lengths")
    if not np.array_equal(tv.innovations, frozen.innovations):
        raise ValueError("paths were built from different innovations")
    window = _window(center, radius, tv.length)
    return float(np.max(np.abs(tv.values[window] - frozen.values[window])))


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


def _slack_pattern(T: int, width: int, magnitude: float) -> np.ndarray:
    # bounded +-magnitude/T perturbation of the coefficient rows; exercises the
    # general case where rescaled and actual coefficients differ at order 1/T
    t = np.arange(T)[:, None]
    k = np.arange(width)[None, :]
    return (magnitude / T) * (1.0 - 2.0 * ((t + k) & 1))


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
    """
    if mode not in ("frozen", "conversion"):
        raise ValueError(f"mode must be 'frozen' or 'conversion', got {mode!r}")
    if mode == "conversion" and spec.kind in MA_KINDS:
        raise ValueError("conversion mode needs an autoregressive-kind spec")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    u0 = float(u0)
    if not (np.isfinite(u0) and 0.0 <= u0 < 1.0):
        raise ValueError(f"u0 must be a finite number in [0, 1), got {u0}")
    T_values = tuple(int(T) for T in T_values)
    needed = max(len(spec.ar), len(spec.ma))
    # every horizon and window is checked before anything is simulated
    windows = [_window(int(round(u0 * T)), radius, _check_horizon(T, needed)) for T in T_values]
    if len(set(T_values)) < 2:
        raise ValueError(f"a decay slope needs at least two distinct horizons, got {list(T_values)}")
    mean_errors = []
    for T, window in zip(T_values, windows):
        u = np.arange(T) / T
        b_rows, a_rows = coefficient_rows(spec, u)
        if slack:
            a_rows = a_rows + _slack_pattern(T, a_rows.shape[1], slack)
            if spec.kind not in MA_KINDS:
                b_rows = b_rows + _slack_pattern(T, b_rows.shape[1], slack)
        if mode == "frozen":
            fb_rows, fa_rows = coefficient_rows(spec, np.full(T, float(u0)))
        else:
            k_rows = dma_coefficient_rows(spec, u)  # amplitude folded in
        trend_vals = eval_curve(spec.trend, u)
        amp_vals = eval_curve(spec.amplitude, u)
        errs = []
        for rep in range(replicates):
            eps = make_innovations(
                replace(spec.innovations, seed=spawn_seed(spec.innovations.seed, rep)), T
            )
            core_tv = _core_values(spec, b_rows, a_rows, eps)
            x_tv = trend_vals + amp_vals * core_tv
            if mode == "frozen":
                core_fr = _core_values(spec, fb_rows, fa_rows, eps)
                x_cmp = eval_curve(spec.trend, u0) + eval_curve(spec.amplitude, u0) * core_fr
            else:
                x_cmp = trend_vals + _dma_combine(k_rows, eps)
            errs.append(float(np.max(np.abs(x_tv[window] - x_cmp[window]))))
        mean_errors.append(float(np.mean(errs)))
    exact = max(mean_errors) < 1e-13
    slope = None
    if not exact and all(e > 0 for e in mean_errors):
        slope = float(
            np.polyfit(np.log2(T_values), np.log2(mean_errors), 1)[0]
        )
    return ApproxReport(
        mode=mode,
        u0=u0,
        radius=int(radius),
        T_values=T_values,
        errors=tuple(mean_errors),
        slope=slope,
        exact=exact,
        replicates=int(replicates),
    )
