"""Walsh-Fourier spectral analysis of dyadic and locally dyadic stationary time series.

The package is organized in layers:

* `walsh_spectra.dyadic` — XOR arithmetic, Walsh functions, Hadamard
  matrices, and the fast Walsh-Hadamard transform.
* `walsh_spectra.poly` — the algebra of finite Walsh polynomials
  (XOR convolution, inversion, AR <-> MA conversion).
* `walsh_spectra.curves` — the small expression language for
  time-varying coefficient curves.
* `walsh_spectra.processes` — innovation streams and exact simulation of
  the time-varying processes, plus the local-approximation experiments.
* `walsh_spectra.spectra` — model-implied spectra and covariances, and
  periodogram-based estimation from data.
* `walsh_spectra.cli` — the ``walsh-spectra`` command-line tool.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .curves import CurveDomainError, CurveSyntaxError, UnknownIdentifierError, eval_curve, parse, serialize
from .dyadic import (
    DyadicPoint,
    dyadic_add,
    dyadic_add_points,
    fwht,
    grid_points,
    grid_values,
    hadamard_matrix,
    rademacher,
    walsh,
)
from .poly import (
    SingularPolynomialError,
    WalshPolynomial,
    invert,
    sigma_determinant,
    sigma_matrix,
    to_moving_average,
    unit,
    xor_convolve,
)
from .presets import preset_names, preset_spec
from .processes import (
    ApproxReport,
    InnovationSpec,
    ProcessSpec,
    SamplePath,
    SingularBlockError,
    decay_experiment,
    defining_equation_residual,
    dma_coefficient_rows,
    make_innovations,
    make_process_spec,
    simulate,
    simulate_frozen,
    simulate_seeds,
    spawn_seed,
    spec_from_dict,
)
from .spectra import (
    Periodogram,
    SpectralGrid,
    covariance_from_density,
    dma_covariance,
    empirical_dyadic_covariance,
    periodogram_grid,
    segmented_local_spectrum,
    smooth_periodogram,
    tv_dyadic_density,
    tv_fourier_density,
    walsh_periodogram,
)

# every public name imported above, so the import list is the one list to keep
__all__ = ["__version__"] + sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
