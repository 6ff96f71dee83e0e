"""Grid constructions of the diffusion-limit objects.

The limiting interior coordinate X is a two-speed Brownian motion: it
diffuses at rate ``sigma_plus`` above zero and ``sigma_minus`` below.  Its
rescaling X / sigma(X) is a skew Brownian motion that starts each excursion
positive with probability p = sigma_minus / (sigma_plus + sigma_minus) (Walsh
1978; Lejay 2006), so X = sigma_s * s * |W| for one standard Brownian motion
W and a sign s drawn afresh whenever W touches zero.  This module samples X
exactly at the grid points, decomposes grid paths into excursions, overlays
the pinned bracketing processes that the outer queues follow, and simulates
the limit system to its first renewal.

Every grid step draws its standard normals from the caller's generator as
one row: column 0 is W's step; columns 1 and 2 give the exponential
E = (z1**2 + z2**2) / 2 that decides whether W touched zero in the step and,
by its excess over the touch bound, the new sign; columns 3 and 4 are the
upper and lower overlay normals.  The renewal draws whole rows block by
block and stops at the first block that holds a crossing, so a value on the
path is fixed by its grid index, not by the block sizes, and the grid step
and horizon only set the step and the budget of the search.

All sampling operations are pure functions of their inputs and the supplied
generator: equal inputs and an equally seeded generator reproduce the same
path, and independent generators may run concurrently.  Each docstring states
the order in which random draws are consumed.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .model_params import DerivedConstants

__all__ = [
    "GridPath",
    "GridSpec",
    "TwoSpeedParams",
    "LimitRenewalSample",
    "sample_two_speed_timechange",
    "decompose_excursions",
    "build_bracketing_limits",
    "simulate_renewal_limit",
]


@dataclasses.dataclass(frozen=True, eq=False)
class GridPath:
    """A real-valued path sampled on a uniform time grid from time zero.

    ``values[i]`` is the path value at time ``i * dt``.  The value array is
    copied on construction and frozen, so a path can be shared freely.
    """

    dt: float
    values: np.ndarray

    def __post_init__(self) -> None:
        dt = float(self.dt)
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError("grid step must be positive and finite")
        values = np.array(self.values, dtype=float, copy=True)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("values must be a one-dimensional sequence with at least one entry")
        if not np.all(np.isfinite(values)):
            raise ValueError("path values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """Uniform grid request for the sampling operations.

    The sampled grid starts at time zero and extends to the smallest whole
    number of steps covering ``horizon``, so the produced paths have
    ``n_steps + 1`` points.
    """

    horizon: float
    dt: float

    def __post_init__(self) -> None:
        horizon = float(self.horizon)
        dt = float(self.dt)
        if not (math.isfinite(horizon) and horizon > 0.0):
            raise ValueError("horizon must be positive and finite")
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError("grid step must be positive and finite")
        if dt > horizon:
            raise ValueError("grid step cannot exceed the horizon")
        if not math.isfinite(horizon / dt):
            raise ValueError("horizon / grid step must be finite (the step count)")
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "dt", dt)

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.horizon / self.dt - 1e-9))


@dataclasses.dataclass(frozen=True)
class TwoSpeedParams:
    """Standard-deviation rates of the two sides of a two-speed Brownian motion.

    ``sigma_plus`` scales diffusion above zero and ``sigma_minus`` below.
    """

    sigma_plus: float
    sigma_minus: float

    def __post_init__(self) -> None:
        for name in ("sigma_plus", "sigma_minus"):
            value = float(getattr(self, name))
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite")
            object.__setattr__(self, name, value)


@dataclasses.dataclass(frozen=True)
class LimitRenewalSample:
    """Outcome of one renewal of the limit system.

    ``direction`` records which pinned process reached zero first ("down"
    for the upper one, "up" for the lower one), ``s_star`` the interpolated
    crossing time, and ``g_at_renewal`` the interior coordinate there.
    """

    direction: str
    s_star: float
    g_at_renewal: float

    def __post_init__(self) -> None:
        if self.direction not in ("down", "up"):
            raise ValueError("direction must be 'down' or 'up'")
        s_star = float(self.s_star)
        g = float(self.g_at_renewal)
        if not (math.isfinite(s_star) and s_star > 0.0):
            raise ValueError("renewal time must be positive and finite")
        if not math.isfinite(g):
            raise ValueError("interior coordinate at renewal must be finite")
        if self.direction == "down" and g >= 0.0:
            raise ValueError("a down renewal requires a negative interior coordinate")
        if self.direction == "up" and g <= 0.0:
            raise ValueError("an up renewal requires a positive interior coordinate")
        object.__setattr__(self, "s_star", s_star)
        object.__setattr__(self, "g_at_renewal", g)


class _Interior:
    """Exact two-speed values on the grid, extended block by block.

    W starts at zero.  Step ``i`` adds ``sqrt(dt) * z0`` to W, and W touched
    zero within the step iff E = (z1**2 + z2**2) / 2, an Exp(1) variable,
    exceeds 2 * max(W_i * W_{i+1}, 0) / dt: a sign change always touches,
    and a bridge between same-signed ends touches with probability
    exp(-2 W_i W_{i+1} / dt).  The excess of E over that bound is again
    Exp(1), so a touch starts a positive epoch iff the excess exceeds
    log(1 / p).  The value is ``sigma_s * s * |W|`` for the epoch's sign s.
    """

    def __init__(self, params: TwoSpeedParams, dt: float) -> None:
        self.sigma_plus, self.sigma_minus, self.dt = params.sigma_plus, params.sigma_minus, dt
        self.log_inv_p = math.log((params.sigma_plus + params.sigma_minus) / params.sigma_minus)
        self.w = 0.0  # W at the last point covered
        self.sign = 1.0  # its epoch's sign

    def extend(self, z: np.ndarray) -> np.ndarray:
        """Values at the last point covered and the ``len(z)`` points after it.

        Row ``i`` of ``z`` holds the step's normals in columns 0 to 2.
        """
        m = z.shape[0]
        w = np.empty(m + 1)
        w[0] = self.w
        np.multiply(z[:, 0], math.sqrt(self.dt), out=w[1:])
        np.add.accumulate(w, out=w)
        excess = 0.5 * (z[:, 1] * z[:, 1] + z[:, 2] * z[:, 2])
        excess -= 2.0 * np.maximum(w[:-1] * w[1:], 0.0) / self.dt
        # each point takes the sign drawn at the last touch, or the carried one
        signs = np.empty(m + 1)
        signs[0] = self.sign
        signs[1:] = np.where(excess > self.log_inv_p, 1.0, -1.0)
        last = np.zeros(m + 1, dtype=np.intp)
        last[1:] = np.where(excess > 0.0, np.arange(1, m + 1), 0)
        np.maximum.accumulate(last, out=last)
        signs = signs[last]
        self.w, self.sign = w[-1], signs[-1]
        return np.abs(w) * np.where(signs > 0.0, self.sigma_plus, -self.sigma_minus)


def sample_two_speed_timechange(
    params: TwoSpeedParams, grid: GridSpec, rng: np.random.Generator
) -> GridPath:
    """Sample a two-speed Brownian motion exactly at the grid points.

    The path starts at zero and diffuses with variance rate
    ``sigma_plus**2`` above zero and ``sigma_minus**2`` below, at any grid
    step.  Draw order: ``rng.standard_normal((n_steps, 3))``, one row per
    grid step (W's step, then the two normals of the touch exponential).
    """
    values = _Interior(params, grid.dt).extend(rng.standard_normal((grid.n_steps, 3)))
    return GridPath(grid.dt, values)


def _zero_tol(dt: float) -> float:
    """Zero-band half width used for excursion bookkeeping: sqrt(dt) / 10.

    Grid paths of Brownian type resolve zero crossings only to the square
    root of the step, so the band scales with that resolution.
    """
    return math.sqrt(dt) / 10.0


def decompose_excursions(
    path: GridPath, min_length: float
) -> tuple[tuple[int, int, int], ...]:
    """The maximal sign-constant stretches of a path, as ``(left, right, sign)``.

    Values within ``_zero_tol(dt)`` of zero count as zero and separate
    stretches; a sign change without an intervening zero value splits them as
    well.  Each entry holds the grid indices just outside its stretch
    (clipped at the window edges) and the stretch's sign, +1 or -1, so every
    value strictly between ``left`` and ``right`` has that sign and lies
    outside the zero band.  Entries come in order with disjoint interiors, so
    neighbours meet only at their ends: at one shared index in the zero band,
    or across a hard sign flip, where each ends at the other's first interior
    point.  Only entries spanning at least ``min_length`` of grid time are
    kept, so ``min_length`` must cover two grid steps.
    """
    dt = path.dt
    min_length = float(min_length)
    if not math.isfinite(min_length) or min_length < 2.0 * dt:
        raise ValueError("minimum length must cover at least two grid steps")
    values = path.values
    sgn = np.where(np.abs(values) < _zero_tol(dt), 0, np.sign(values)).astype(np.int64)
    nonzero = sgn != 0
    change = sgn[1:] != sgn[:-1]
    starts = np.flatnonzero(nonzero & np.concatenate([[True], change]))
    ends = np.flatnonzero(nonzero & np.concatenate([change, [True]]))
    lefts = np.maximum(starts - 1, 0)
    rights = np.minimum(ends + 1, values.size - 1)
    min_steps = int(math.ceil(min_length / dt - 1e-9))
    keep = rights - lefts >= min_steps
    return tuple(zip(lefts[keep].tolist(), rights[keep].tolist(), sgn[starts[keep]].tolist()))


class _Side:
    """One pinned bracketing process over an interior path, extended block by block.

    The interior is on the side's excursions where ``sign * g`` is at least
    the zero band ``_zero_tol(dt)``.  There the process is ``kappa +
    beta * S + alpha * g``, where ``S`` sums the side's normals over the steps
    since the excursion's left end; elsewhere it is ``kappa``.  The side
    takes one standard normal per grid step, so step ``i`` uses its ``i``-th
    normal whatever the blocks are.
    """

    def __init__(self, kappa: float, beta: float, alpha: float, sign: int, tol: float) -> None:
        self.kappa, self.beta, self.alpha = kappa, beta, alpha
        self.sign, self.tol = sign, tol
        self.value = kappa  # at the last point covered
        self.total = 0.0  # sum of every normal taken so far
        self.base = 0.0  # ``total`` at the last point off an excursion

    def extend(self, g: np.ndarray, normals: np.ndarray) -> np.ndarray:
        """Values at the points of ``g``, whose first point is the last one covered.

        ``normals`` holds one standard normal per step of ``g``.
        """
        z = np.empty(g.size)
        z[0] = self.total
        z[1:] = normals
        totals = np.add.accumulate(z)
        on = self.sign * g >= self.tol
        # each point's base is the running total at the last point off an
        # excursion, or the carried base if there is none in this block, so
        # totals - bases restarts at every left end
        at = np.where(on, 0, np.arange(g.size))
        at[0] = 0
        np.maximum.accumulate(at, out=at)
        bases = totals[at]
        bases[at == 0] = self.base
        values = np.where(on, self.kappa + self.beta * (totals - bases) + self.alpha * g,
                          self.kappa)
        values[0] = self.value
        self.value, self.total, self.base = values[-1], totals[-1], bases[-1]
        return values


def _bracketing_sides(params: DerivedConstants, dt: float) -> tuple[_Side, _Side]:
    """The upper side over negative excursions and the lower one over positive ones."""
    tol = _zero_tol(dt)
    sqdt = math.sqrt(dt)
    noise_scale = math.sqrt(1.0 - params.rho**2)
    upper = _Side(params.kappa_L, noise_scale * params.sigma_plus * sqdt, params.alpha_minus,
                  -1, tol)
    lower = _Side(params.kappa_R, noise_scale * params.sigma_minus * sqdt, params.alpha_plus,
                  1, tol)
    return upper, lower


def build_bracketing_limits(
    gstar: GridPath, params: DerivedConstants, rng: np.random.Generator
) -> tuple[GridPath, GridPath]:
    """Overlay the pinned bracketing processes on an interior-coordinate path.

    The upper process sits at ``kappa_L`` wherever the input is nonnegative;
    on each negative excursion it adds a Brownian perturbation of variance
    rate ``(1 - rho**2) * sigma_plus**2`` plus ``alpha_minus`` times the
    excursion, restarting from ``kappa_L`` at the excursion's left endpoint.
    The lower process mirrors this at ``kappa_R`` over positive excursions
    with variance rate ``(1 - rho**2) * sigma_minus**2`` and slope
    ``alpha_plus``.  The excursions are those of ``decompose_excursions``,
    whose zero band ``_zero_tol(dt)`` the overlay shares; the first and last
    points are window edges and stay pinned.  Draw order:
    ``rng.standard_normal((len(gstar) - 1, 2))``, one row per grid step,
    upper normal then lower normal.
    """
    z = rng.standard_normal((len(gstar) - 1, 2))
    upper_side, lower_side = _bracketing_sides(params, gstar.dt)
    upper = upper_side.extend(gstar.values, z[:, 0])
    lower = lower_side.extend(gstar.values, z[:, 1])
    upper[-1] = params.kappa_L
    lower[-1] = params.kappa_R
    return GridPath(gstar.dt, upper), GridPath(gstar.dt, lower)


def _first_crossing(
    start: int, dt: float, g: np.ndarray, upper: np.ndarray, lower: np.ndarray
) -> tuple[str, float, float] | None:
    """First interpolated time the upper path reaches zero or the lower one does.

    The arrays hold grid points ``start, start + 1, ...``, and neither path
    may have reached zero at the first of them.  The crossing step is refined
    by linear interpolation of the crossing path, and the interior coordinate
    is interpolated linearly at the crossing time.
    """
    hit_time = math.inf
    direction = None
    down = np.flatnonzero(upper <= 0.0)
    if down.size:
        i = int(down[0])
        t = dt * (start + i - 1) + dt * upper[i - 1] / (upper[i - 1] - upper[i])
        hit_time = t
        direction = "down"
    up = np.flatnonzero(lower >= 0.0)
    if up.size:
        i = int(up[0])
        t = dt * (start + i - 1) + dt * lower[i - 1] / (lower[i - 1] - lower[i])
        if t < hit_time:
            hit_time = t
            direction = "up"
    if direction is None:
        return None
    g_hit = float(np.interp(hit_time, dt * np.arange(start, start + g.size), g))
    return direction, hit_time, g_hit


# grid steps in the first block of a renewal search; each later block doubles
_FIRST_BLOCK = 256
# the search budget is the grid's step count doubled this many times
_BUDGET_DOUBLINGS = 12


def simulate_renewal_limit(
    params: DerivedConstants, grid: GridSpec, rng: np.random.Generator
) -> LimitRenewalSample:
    """Run the limit system to the first time a bracketing process hits zero.

    The interior coordinate is sampled exactly at the grid points with the
    rates in ``params`` and the bracketing processes are overlaid on it,
    block by block: the first block holds ``_FIRST_BLOCK`` grid steps and
    each later one twice as many as the one before.  The search stops at the
    first block in which a process reaches zero, and that step is refined by
    linear interpolation.  The grid sets the step and the budget: after
    ``grid.n_steps << 12`` steps without a hit the search stops with an
    error.  The grid step must resolve the pinning levels in the squared
    rates.  Draw order: ``rng.standard_normal((m, 5))`` per block of ``m``
    steps, one row per step laid out as in the module docstring.  The
    result does not depend on the block sizes.
    """
    scale = min(
        params.kappa_L**2 / params.sigma_plus**2,
        params.kappa_R**2 / params.sigma_minus**2,
    )
    if grid.dt > scale / 8.0:
        raise ValueError("grid step too coarse to resolve the pinned crossings")
    interior = _Interior(TwoSpeedParams(params.sigma_plus, params.sigma_minus), grid.dt)
    upper, lower = _bracketing_sides(params, grid.dt)
    budget = grid.n_steps << _BUDGET_DOUBLINGS
    done = 0
    block = _FIRST_BLOCK
    while done < budget:
        m = min(block, budget - done)
        z = rng.standard_normal((m, 5))
        g = interior.extend(z)
        hit = _first_crossing(done, grid.dt, g, upper.extend(g, z[:, 3]),
                              lower.extend(g, z[:, 4]))
        if hit is not None:
            return LimitRenewalSample(*hit)
        done += m
        block *= 2
    raise RuntimeError(
        f"no renewal within {_BUDGET_DOUBLINGS} horizon doublings; "
        "increase the grid horizon"
    )
