"""Six-tick limit-order-book simulator, its diffusion-limit processes, and
closed-form renewal analytics.

The package splits into four modules:

- ``model_params``: parameter validation, derived rate constants, region
  classification of the interior queue pair, and the piecewise-linear
  (G, H) change of variables.
- ``lob_simulator``: exact event-driven simulation of the scaled book on a
  compiled event kernel, renewal detection, and occupation/martingale
  statistics.
- ``limit_processes``: two-speed Brownian motion sampled exactly on a grid
  as a skew Brownian motion, excursion decomposition, and the bracketing
  limit processes with their renewal times.
- ``analytics``: excursion hit-time densities and hit probabilities,
  renewal intensities and direction probability, the characteristic-function
  tables, and the length-measure identity (7.62).
"""

from . import model_params, lob_simulator, limit_processes, analytics
from .model_params import *
from .lob_simulator import *
from .limit_processes import *
from .analytics import *

__all__ = (model_params.__all__ + lob_simulator.__all__
           + limit_processes.__all__ + analytics.__all__)

__version__ = "0.1.0"
