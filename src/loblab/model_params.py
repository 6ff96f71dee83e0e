"""Parameters, derived rate constants, region classification, and the
piecewise-linear (G, H) change of variables.

The model is a six-tick order-book window whose interior queue pair (w, x)
determines where the bid and ask sit.  Everything downstream consumes the
derived constants computed here, and the (G, H) coordinates are the
drift-free / collapsing pair used by the diffusion limit.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "DerivedConstants",
    "Region",
    "derive_constants",
    "region_of",
    "gh_transform",
]


@dataclass(frozen=True)
class ModelParams:
    """Primitive model parameters.

    a, b
        Shape parameters of the arrival-rate family; both must exceed 1 and
        satisfy a + b > a*b.
    lambda0
        Market-buy rate; all buy-side rates scale off it.
    theta_b, theta_s
        Per-order cancellation intensities (before the 1/sqrt(n) scaling)
        for stale buy and sell orders.
    """

    a: float = 1.5
    b: float = 1.5
    lambda0: float = 1.0
    theta_b: float = 1.0
    theta_s: float = 1.0


@dataclass(frozen=True)
class DerivedConstants:
    """Rates and limit constants derived from :class:`ModelParams`.

    sigma_plus and sigma_minus are diffusion standard deviations per unit
    square-root time; kappa_L > 0 and kappa_R < 0 are the scaled queue levels
    the outer queues snap to; frac_one_tick/frac_two_tick are the limiting
    fractions of time the spread is one/two ticks wide.  params is the
    :class:`ModelParams` they were derived from, so consumers read the
    primitive rates from it instead of recovering them.
    """

    lambda1: float
    lambda2: float
    mu0: float
    mu1: float
    mu2: float
    c: float
    kappa_L: float
    kappa_R: float
    sigma_plus: float
    sigma_minus: float
    rho: float
    alpha_plus: float
    alpha_minus: float
    frac_one_tick: float
    frac_two_tick: float
    params: ModelParams


class Region(enum.Enum):
    """Classification of the interior queue pair (w, x).

    w counts orders at the third window tick and x at the fourth, with buy
    orders positive and sell orders negative.  The quadrant {w < 0, x > 0}
    (sells resting below buys) is unreachable.
    """

    NE = "NE"
    E = "E"
    SE_plus = "SE+"
    SE = "SE"
    SE_minus = "SE-"
    S = "S"
    SW = "SW"
    O = "O"


def _require(cond: bool, name: str) -> None:
    if not cond:
        raise ValueError(f"parameter constraint violated: requires {name}")


def derive_constants(params: ModelParams) -> DerivedConstants:
    """Validate ``params`` and compute all derived constants.

    Raises ValueError naming the violated constraint if the parameters are
    outside the admissible family (real numbers with a > 1, b > 1,
    a + b > a*b, positive and finite lambda0/theta_b/theta_s).
    """
    for name in ("a", "b", "lambda0", "theta_b", "theta_s"):
        _require(isinstance(getattr(params, name), numbers.Real),
                 f"{name} to be a real number")
    a, b = params.a, params.b
    lambda0 = params.lambda0
    _require(a > 1, "a > 1")
    _require(b > 1, "b > 1")
    _require(a + b > a * b, "a + b > a*b")
    _require(lambda0 > 0, "lambda0 > 0")
    _require(params.theta_b > 0, "theta_b > 0")
    _require(params.theta_s > 0, "theta_s > 0")
    _require(lambda0 < math.inf, "lambda0 < inf")
    _require(params.theta_b < math.inf, "theta_b < inf")
    _require(params.theta_s < math.inf, "theta_s < inf")

    mu0 = a * lambda0 / b          # balance of market flow: a*lambda0 = b*mu0
    lambda1 = (a - 1) * lambda0
    lambda2 = (a + b - a * b) * lambda0
    mu1 = (b - 1) * mu0
    mu2 = (a + b - a * b) * mu0
    c = mu0 - lambda1              # equals lambda0 - mu1 and lambda2/b and mu2/a

    kappa_L = lambda2 * mu1 / (params.theta_b * lambda1)
    kappa_R = -mu2 * lambda1 / (params.theta_s * mu1)

    sigma_plus = math.sqrt(2.0 * (lambda0 + b * lambda1))
    sigma_minus = math.sqrt(2.0 * (mu0 + a * mu1))
    rho = -2.0 * (lambda1 + mu1) / (sigma_plus * sigma_minus)
    alpha_plus = -rho * sigma_minus / sigma_plus
    alpha_minus = -rho * sigma_plus / sigma_minus

    frac_one_tick = 2.0 - (a + b) / (a * b)
    frac_two_tick = (a + b) / (a * b) - 1.0

    return DerivedConstants(
        lambda1=lambda1,
        lambda2=lambda2,
        mu0=mu0,
        mu1=mu1,
        mu2=mu2,
        c=c,
        kappa_L=kappa_L,
        kappa_R=kappa_R,
        sigma_plus=sigma_plus,
        sigma_minus=sigma_minus,
        rho=rho,
        alpha_plus=alpha_plus,
        alpha_minus=alpha_minus,
        frac_one_tick=frac_one_tick,
        frac_two_tick=frac_two_tick,
        params=params,
    )


def region_of(w: float, x: float) -> Region:
    """Classify the interior pair (w, x).

    Comparisons are exact; callers quantize first if they carry float noise.
    Raises ValueError for a NaN or infinite w or x, and for the unreachable
    quadrant {w < 0, x > 0}.
    """
    if not (-math.inf < w < math.inf and -math.inf < x < math.inf):
        raise ValueError(f"invalid interior state (w={w}, x={x}): w and x must be finite")
    if w < 0 and x > 0:
        raise ValueError(f"invalid interior state (w={w}, x={x}): w < 0 with x > 0")
    if x > 0:
        return Region.NE
    if x == 0:
        if w > 0:
            return Region.E
        if w < 0:
            return Region.SW
        return Region.O
    # x < 0
    if w < 0:
        return Region.SW
    if w == 0:
        return Region.S
    s = w + x
    if s > 0:
        return Region.SE_plus
    if s == 0:
        return Region.SE
    return Region.SE_minus


def gh_transform(
    w: float | np.ndarray, x: float | np.ndarray, params: ModelParams
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Map interior pairs (w, x) to the (G, H) coordinates, elementwise.

    G is the drift-free combination (w + b*x on the buy-heavy side, w + x in
    the middle wedge, a*w + x on the sell-heavy side); H is the coordinate
    that collapses in the diffusion limit (x on the buy-heavy side, -w on the
    sell-heavy side).  The map is continuous and piecewise linear.

    w and x are scalars or arrays that broadcast together.  Scalars give a
    pair of floats and arrays a pair of float arrays.  Raises
    :func:`region_of`'s ValueError at the first pair that is not finite or
    lies in the unreachable quadrant.
    """
    w, x = np.broadcast_arrays(w, x)
    bad = ~(np.isfinite(w) & np.isfinite(x)) | ((w < 0) & (x > 0))
    if bad.any():
        i = int(np.argmax(bad))
        region_of(w.flat[i].item(), x.flat[i].item())  # raises its ValueError
    g_ne = (x > 0) | ((x == 0) & (w > 0))  # NE, E
    g_sw = (w < 0) | ((w == 0) & (x < 0))  # SW, S
    g = np.where(g_ne, w + params.b * x, np.where(g_sw, params.a * w + x, w + x))
    # NE, E, O, and SE+ and SE (w > 0 > x with w + x >= 0)
    h_x = g_ne | ((x == 0) & (w == 0)) | ((x < 0) & (w > 0) & (w + x >= 0))
    h = np.where(h_x, x, -w)
    if g.ndim == 0:
        return float(g), float(h)
    return g, h.astype(float, copy=False)
