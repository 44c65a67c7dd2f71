"""Estimating Walsh spectra from data with segmented periodograms.

The periodogram of one segment is unbiased for the local spectrum but
does not concentrate as the segment grows: averaging over replicates (or
smoothing over bins) is what brings the variance down.  Splitting a
locally stationary path into aligned power-of-two segments turns the
estimator into a time-frequency surface that tracks g(u, x).
"""

import numpy as np

from walsh_spectra import (
    make_process_spec,
    periodogram_grid,
    preset_spec,
    simulate,
    simulate_seeds,
    smooth_periodogram,
    spawn_seed,
    tv_dyadic_density,
)

print("== white noise: flat spectrum, unbiased but inconsistent ==")
noise = make_process_spec("tvDMA", ma=["1"], seed=2)
for n_exp in (8, 10, 12):
    # one segment of the whole path: a grid of one row at u0 = 1/2
    p = periodogram_grid(simulate(noise, 1 << n_exp).values, 1 << n_exp).values[0]
    print(f"  N = 2^{n_exp}: mean level {np.mean(p):6.3f}, bin variance {np.var(p):6.3f}")
print("growing N does not shrink the bin variance; averaging replicates does:")
acc = np.zeros(256)
reps = 400
for path in simulate_seeds(noise, 256, (spawn_seed(2, rep) for rep in range(reps))):
    acc += periodogram_grid(path.values, 256).values[0]
print(f"  400-replicate mean: per-bin max deviation {np.max(np.abs(acc / reps - 1.0)):.3f}")

print()
print("== smoothing trades bin resolution for variance ==")
p = periodogram_grid(simulate(noise, 1 << 10).values, 1 << 10)
for w in (0, 2, 8):
    sm = smooth_periodogram(p, w)
    print(f"  half-width {w}: bin variance {np.var(sm.values):6.4f}")

print()
print("== tracking a time-varying spectrum segment by segment ==")
spec = preset_spec("figure1")
T, N, reps = 1 << 14, 1 << 9, 200
agg = 0.0
for path in simulate_seeds(spec, T, (spawn_seed(9, rep) for rep in range(reps))):
    grid = periodogram_grid(path.values, N)  # one row per aligned segment, at its midpoint u0
    agg += np.stack([grid.values[:, : N // 2].mean(axis=1), grid.values[:, N // 2 :].mean(axis=1)], axis=1)
agg /= reps
u0s = grid.u_values
g = tv_dyadic_density(spec, u0s, 1).values
print("   u0      est[0,1/2)  true      est[1/2,1)  true")
for i in range(0, len(u0s), 4):
    print(
        f"  {u0s[i]:6.4f}   {agg[i, 0]:8.4f}  {g[i, 0]:8.4f}   {agg[i, 1]:8.4f}  {g[i, 1]:8.4f}"
    )
rel = np.max(np.abs(agg - g), axis=1) / np.max(g, axis=1)
print(f"worst per-segment deviation: {100 * np.max(rel):.1f}% of the local density scale")
