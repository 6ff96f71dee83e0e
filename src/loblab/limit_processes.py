"""Grid constructions of the diffusion-limit objects.

The limiting interior coordinate is a two-speed Brownian motion: a Brownian
motion run through an occupation-split time change so that its positive and
negative sides diffuse at different rates.  This module samples that process
by inverting its occupation clock, decomposes grid paths into excursions,
overlays the pinned bracketing processes that the outer queues follow, and
simulates the limit system to its first renewal.

All sampling operations are pure functions of their inputs and the supplied
generator: equal inputs and an equally seeded generator reproduce the same
path, and independent generators may run concurrently.  Each docstring states
the order in which random draws are consumed.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import os

import numpy as np

from .model_params import DerivedConstants

__all__ = [
    "GridPath",
    "GridSpec",
    "TwoSpeedParams",
    "ExcursionList",
    "LimitRenewalSample",
    "sample_two_speed_timechange",
    "decompose_excursions",
    "build_bracketing_limits",
    "simulate_renewal_limit",
    "grid_path_to_csv",
    "excursion_list_to_csv",
]


@dataclasses.dataclass(frozen=True, eq=False)
class GridPath:
    """A real-valued path sampled on a uniform time grid.

    ``values[i]`` is the path value at time ``t0 + i * dt``.  The value array
    is copied on construction and frozen, so a path can be shared freely.
    """

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self) -> None:
        t0 = float(self.t0)
        dt = float(self.dt)
        if not math.isfinite(t0):
            raise ValueError("start time must be finite")
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError("grid step must be positive and finite")
        values = np.array(self.values, dtype=float, copy=True)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("values must be a one-dimensional sequence with at least one entry")
        if not np.all(np.isfinite(values)):
            raise ValueError("path values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def times(self) -> np.ndarray:
        """Grid times, same length as ``values``."""
        return self.t0 + self.dt * np.arange(self.values.size)

    @property
    def end_time(self) -> float:
        """Time of the last grid point."""
        return self.t0 + self.dt * (self.values.size - 1)


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """Uniform grid request for the sampling operations.

    The sampled grid starts at time zero and extends to the smallest whole
    number of steps covering ``horizon``, so the produced paths have
    ``n_steps + 1`` points and end at ``span >= horizon``.
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
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "dt", dt)

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.horizon / self.dt - 1e-9))

    @property
    def span(self) -> float:
        return self.n_steps * self.dt


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


@dataclasses.dataclass(frozen=True, eq=False)
class ExcursionList:
    """Excursion intervals of a grid path.

    Each entry ``(left, right, sign)`` holds grid indices bracketing one
    maximal sign-constant stretch: every value strictly between ``left`` and
    ``right`` carries the stated sign, while the endpoint indices sit in the
    zero band, at the window edge, or at a hard sign flip whose true crossing
    lies inside the adjacent step.  Interiors of distinct entries are
    disjoint; two adjacent entries may share a single bracketing index.
    """

    path: GridPath
    entries: tuple

    def __post_init__(self) -> None:
        values = self.path.values
        last = values.size - 1
        cleaned = []
        prev_left = -1
        prev_right = -1
        for entry in self.entries:
            left, right, sign = entry
            left = int(left)
            right = int(right)
            sign = int(sign)
            if sign not in (-1, 1):
                raise ValueError("excursion sign must be +1 or -1")
            if not 0 <= left < right <= last:
                raise ValueError("excursion endpoints must be ordered grid indices")
            if right - left < 2:
                raise ValueError("an excursion must span at least two grid steps")
            if left <= prev_left or left < prev_right - 1:
                raise ValueError("entries must be ordered with disjoint interiors")
            interior = values[left + 1 : right]
            if not np.all(sign * interior > 0.0):
                raise ValueError("excursion interiors must keep a constant sign")
            cleaned.append((left, right, sign))
            prev_left = left
            prev_right = right
        object.__setattr__(self, "entries", tuple(cleaned))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def lengths(self) -> np.ndarray:
        """Time length of each entry."""
        return np.array([(right - left) * self.path.dt for left, right, _ in self.entries])


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


def _sample_brownian(n_steps: int, dt: float, rng: np.random.Generator) -> np.ndarray:
    increments = rng.standard_normal(n_steps) * math.sqrt(dt)
    values = np.empty(n_steps + 1)
    values[0] = 0.0
    np.cumsum(increments, out=values[1:])
    return values


def _timechange_values(
    params: TwoSpeedParams, n_steps: int, dt: float, rng: np.random.Generator
) -> np.ndarray:
    """Two-speed values on the output grid via the occupation-split clock.

    A standard Brownian motion is drawn on a fine auxiliary grid long enough
    that the accumulated split clock deterministically covers the requested
    span; the clock adds one fine step divided by the squared rate of the
    side occupied at the left endpoint (a value exactly at zero counts toward
    the negative side).  Both the clock inversion and the read-out of the
    Brownian path interpolate linearly.  Draw order: one standard normal per
    fine step.
    """
    hi = max(params.sigma_plus, params.sigma_minus) ** 2
    lo = min(params.sigma_plus, params.sigma_minus) ** 2
    span = n_steps * dt
    fine_dt = dt * lo / 4.0  # keeps clock increments at or below a quarter step
    n_fine = int(math.ceil(span * hi / fine_dt - 1e-9))
    b = _sample_brownian(n_fine, fine_dt, rng)
    rate = np.where(b[:-1] > 0.0, 1.0 / params.sigma_plus**2, 1.0 / params.sigma_minus**2)
    theta = np.empty(n_fine + 1)
    theta[0] = 0.0
    np.cumsum(rate * fine_dt, out=theta[1:])
    s_grid = fine_dt * np.arange(n_fine + 1)
    theta_out = dt * np.arange(n_steps + 1)
    s_at = np.interp(theta_out, theta, s_grid)
    return np.interp(s_at, s_grid, b)


def sample_two_speed_timechange(
    params: TwoSpeedParams, grid: GridSpec, rng: np.random.Generator
) -> GridPath:
    """Sample a two-speed Brownian motion by inverting its occupation clock.

    The path diffuses with variance rate ``sigma_plus**2`` above zero and
    ``sigma_minus**2`` below.  Requires the grid step to be small next to the
    horizon measured in the faster squared rate.  Draw order: one standard
    normal per fine auxiliary step.
    """
    hi = max(params.sigma_plus, params.sigma_minus) ** 2
    if grid.dt * hi > grid.span / 4.0:
        raise ValueError("grid step too coarse for the requested horizon")
    values = _timechange_values(params, grid.n_steps, grid.dt, rng)
    return GridPath(0.0, grid.dt, values)


def default_zero_tol(dt: float) -> float:
    """Zero-band half width used for excursion bookkeeping: sqrt(dt) / 10.

    Grid paths of Brownian type resolve zero crossings only to the square
    root of the step, so the band scales with that resolution.
    """
    return math.sqrt(dt) / 10.0


def decompose_excursions(
    path: GridPath, min_length: float, zero_tol: float | None = None
) -> ExcursionList:
    """List the maximal sign-constant stretches of a path.

    Values within ``zero_tol`` of zero count as zero and separate stretches;
    a sign change without an intervening zero value splits them as well.  An
    entry's endpoints are the indices just outside its stretch (clipped at
    the window edges), and only entries spanning at least ``min_length`` of
    grid time are kept, so ``min_length`` must cover two grid steps.
    """
    dt = path.dt
    min_length = float(min_length)
    if not math.isfinite(min_length) or min_length < 2.0 * dt:
        raise ValueError("minimum length must cover at least two grid steps")
    if zero_tol is None:
        zero_tol = default_zero_tol(dt)
    zero_tol = float(zero_tol)
    if not (math.isfinite(zero_tol) and zero_tol >= 0.0):
        raise ValueError("zero tolerance must be nonnegative and finite")
    values = path.values
    sgn = np.where(np.abs(values) < zero_tol, 0, np.sign(values)).astype(np.int64)
    nonzero = sgn != 0
    change = sgn[1:] != sgn[:-1]
    starts = np.flatnonzero(nonzero & np.concatenate([[True], change]))
    ends = np.flatnonzero(nonzero & np.concatenate([change, [True]]))
    lefts = np.maximum(starts - 1, 0)
    rights = np.minimum(ends + 1, values.size - 1)
    min_steps = int(math.ceil(min_length / dt - 1e-9))
    keep = rights - lefts >= min_steps
    entries = tuple(
        zip(lefts[keep].tolist(), rights[keep].tolist(), sgn[starts[keep]].tolist())
    )
    return ExcursionList(path=path, entries=entries)


def _excursion_stream(
    root: np.random.SeedSequence, index: int, bit_generator: type
) -> np.random.Generator:
    """Fresh-noise stream for one excursion, keyed by its enumeration index.

    Rebuilding the stream for the same root and index replays the identical
    increment sequence, so extending a path extends its overlays without
    disturbing values already produced.
    """
    child = np.random.SeedSequence(entropy=root.entropy, spawn_key=root.spawn_key + (index,))
    return np.random.Generator(bit_generator(child))


def _overlay_values(
    gstar: GridPath,
    entries: tuple,
    params: DerivedConstants,
    root: np.random.SeedSequence,
    bit_generator: type,
) -> tuple[np.ndarray, np.ndarray]:
    """Pinned bracketing values (upper, lower) over the interior coordinate."""
    n = len(gstar)
    dt = gstar.dt
    sqdt = math.sqrt(dt)
    noise_scale = math.sqrt(1.0 - params.rho**2)
    beta_upper = noise_scale * params.sigma_plus * sqdt
    beta_lower = noise_scale * params.sigma_minus * sqdt
    upper = np.full(n, params.kappa_L)
    lower = np.full(n, params.kappa_R)
    g = gstar.values
    for index, (left, right, sign) in enumerate(entries):
        m = right - left - 1
        stream = _excursion_stream(root, index, bit_generator)
        fresh = np.cumsum(stream.standard_normal(m))
        interior = slice(left + 1, right)
        if sign < 0:
            upper[interior] = params.kappa_L + beta_upper * fresh + params.alpha_minus * g[interior]
        else:
            lower[interior] = params.kappa_R + beta_lower * fresh + params.alpha_plus * g[interior]
    return upper, lower


def build_bracketing_limits(
    gstar: GridPath, params: DerivedConstants, rng: np.random.Generator
) -> tuple[GridPath, GridPath]:
    """Overlay the pinned bracketing processes on an interior-coordinate path.

    The upper process sits at ``kappa_L`` wherever the input is nonnegative;
    on each negative excursion it adds an independent Brownian perturbation
    of variance rate ``(1 - rho**2) * sigma_plus**2`` plus ``alpha_minus``
    times the excursion, restarting from ``kappa_L`` at the excursion's left
    endpoint.  The lower process mirrors this at ``kappa_R`` over positive
    excursions with variance rate ``(1 - rho**2) * sigma_minus**2`` and slope
    ``alpha_plus``.  Excursions shorter than two grid steps are left pinned.
    Draw order: one child stream per excursion, keyed by its position in
    left-endpoint order.
    """
    entries = decompose_excursions(gstar, 2.0 * gstar.dt).entries
    root = rng.spawn(1)[0].bit_generator.seed_seq
    upper, lower = _overlay_values(gstar, entries, params, root, type(rng.bit_generator))
    return GridPath(gstar.t0, gstar.dt, upper), GridPath(gstar.t0, gstar.dt, lower)


def _first_crossing(
    gstar: GridPath, upper: np.ndarray, lower: np.ndarray
) -> tuple[str, float, float] | None:
    """First interpolated time the upper path reaches zero or the lower one does."""
    dt = gstar.dt
    hit_time = math.inf
    direction = None
    down = np.flatnonzero(upper <= 0.0)
    if down.size:
        i = int(down[0])
        t = dt * (i - 1) + dt * upper[i - 1] / (upper[i - 1] - upper[i])
        hit_time = t
        direction = "down"
    up = np.flatnonzero(lower >= 0.0)
    if up.size:
        i = int(up[0])
        t = dt * (i - 1) + dt * lower[i - 1] / (lower[i - 1] - lower[i])
        if t < hit_time:
            hit_time = t
            direction = "up"
    if direction is None:
        return None
    g = float(np.interp(hit_time, gstar.times, gstar.values))
    return direction, hit_time, g


def simulate_renewal_limit(
    params: DerivedConstants,
    grid: GridSpec,
    rng: np.random.Generator,
    max_doublings: int = 12,
) -> LimitRenewalSample:
    """Run the limit system to the first time a bracketing process hits zero.

    The interior coordinate is sampled through the occupation-split clock
    with the rates in ``params``, the bracketing processes are overlaid, and
    the first grid step carrying a zero crossing is refined by linear
    interpolation.  If neither process reaches zero within the grid horizon,
    the horizon doubles and the same underlying randomness is replayed and
    extended, so the result is the crossing of one consistent path; after
    ``max_doublings`` doublings without a hit the search stops with an error.
    The grid step must resolve the pinning levels in the squared rates.
    """
    scale = min(
        params.kappa_L**2 / params.sigma_plus**2,
        params.kappa_R**2 / params.sigma_minus**2,
    )
    if grid.dt > scale / 8.0:
        raise ValueError("grid step too coarse to resolve the pinned crossings")
    try:
        max_doublings = operator.index(max_doublings)
    except TypeError:
        max_doublings = -1
    if max_doublings < 0:
        raise ValueError("max_doublings must be a non-negative integer")
    two_speed = TwoSpeedParams(sigma_plus=params.sigma_plus, sigma_minus=params.sigma_minus)
    roots = rng.spawn(2)
    interior_seed = roots[0].bit_generator.seed_seq
    overlay_seed = roots[1].bit_generator.seed_seq
    bit_generator = type(rng.bit_generator)
    for attempt in range(max_doublings + 1):
        n_steps = grid.n_steps << attempt
        interior_rng = np.random.Generator(bit_generator(interior_seed))
        values = _timechange_values(two_speed, n_steps, grid.dt, interior_rng)
        gstar = GridPath(0.0, grid.dt, values)
        entries = decompose_excursions(gstar, 2.0 * grid.dt).entries
        upper, lower = _overlay_values(gstar, entries, params, overlay_seed, bit_generator)
        hit = _first_crossing(gstar, upper, lower)
        if hit is not None:
            direction, s_star, g = hit
            return LimitRenewalSample(direction=direction, s_star=s_star, g_at_renewal=g)
    raise RuntimeError(
        f"no renewal within {max_doublings} horizon doublings; "
        "increase the budget or the initial horizon"
    )


def _open_for_write(destination):
    if hasattr(destination, "write"):
        return destination, False
    return open(os.fspath(destination), "w", encoding="utf-8", newline=""), True


def grid_path_to_csv(path: GridPath, destination) -> None:
    """Write a path as CSV rows (t, value) with 17 significant digits."""
    fh, owned = _open_for_write(destination)
    try:
        fh.write("t,value\n")
        for i, value in enumerate(path.values):
            fh.write(f"{path.t0 + i * path.dt:.17g},{value:.17g}\n")
    finally:
        if owned:
            fh.close()


def excursion_list_to_csv(excursions: ExcursionList, destination) -> None:
    """Write excursion entries as CSV rows (left, right, sign, length)."""
    dt = excursions.path.dt
    fh, owned = _open_for_write(destination)
    try:
        fh.write("left,right,sign,length\n")
        for left, right, sign in excursions.entries:
            fh.write(f"{left},{right},{sign},{(right - left) * dt:.17g}\n")
    finally:
        if owned:
            fh.close()
