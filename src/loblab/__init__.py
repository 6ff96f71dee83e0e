"""Six-tick limit-order-book simulator, its diffusion-limit processes, and
closed-form renewal analytics.

The package splits into four modules:

- ``model_params``: parameter validation, derived rate constants, region
  classification of the interior queue pair, and the piecewise-linear
  (G, H) change of variables.
- ``lob_simulator``: exact event-driven simulation of the scaled book on a
  compiled event kernel, renewal detection, and occupation/martingale
  statistics.
- ``limit_processes``: two-speed Brownian motion by an occupation-clock
  time change, excursion decomposition, and the bracketing limit processes
  with their renewal times.
- ``analytics``: excursion hit-time densities and hit probabilities,
  renewal intensities and direction probability, the characteristic-function
  tables, and the length-measure identity (7.62).
"""

from .model_params import (
    ModelParams,
    DerivedConstants,
    Region,
    derive_constants,
    region_of,
    gh_transform,
    gh_inverse,
)
from .lob_simulator import (
    SimConfig,
    RenewalRecord,
    ScaledPathBundle,
    HorizonExceededError,
    REGION_ORDER,
    SERIES_COLUMNS,
    path_stream,
    initial_state,
    run_until_renewal,
    run_scaled_path,
    occupation_fractions,
    martingale_drift_stat,
)
from .limit_processes import (
    GridPath,
    GridSpec,
    TwoSpeedParams,
    ExcursionList,
    LimitRenewalSample,
    sample_two_speed_timechange,
    decompose_excursions,
    build_bracketing_limits,
    simulate_renewal_limit,
)
from .analytics import (
    QuadratureConfig,
    DEFAULT_QUADRATURE,
    p_vstar_density,
    p_ystar_density,
    p_vstar_total,
    p_ystar_total,
    renewal_intensities,
    renewal_down_prob,
    renewal_cf,
    identity_7_62,
)

__all__ = [
    "ModelParams",
    "DerivedConstants",
    "Region",
    "derive_constants",
    "region_of",
    "gh_transform",
    "gh_inverse",
    "SimConfig",
    "RenewalRecord",
    "ScaledPathBundle",
    "HorizonExceededError",
    "REGION_ORDER",
    "SERIES_COLUMNS",
    "path_stream",
    "initial_state",
    "run_until_renewal",
    "run_scaled_path",
    "occupation_fractions",
    "martingale_drift_stat",
    "GridPath",
    "GridSpec",
    "TwoSpeedParams",
    "ExcursionList",
    "LimitRenewalSample",
    "sample_two_speed_timechange",
    "decompose_excursions",
    "build_bracketing_limits",
    "simulate_renewal_limit",
    "QuadratureConfig",
    "DEFAULT_QUADRATURE",
    "p_vstar_density",
    "p_ystar_density",
    "p_vstar_total",
    "p_ystar_total",
    "renewal_intensities",
    "renewal_down_prob",
    "renewal_cf",
    "identity_7_62",
]

__version__ = "0.1.0"
