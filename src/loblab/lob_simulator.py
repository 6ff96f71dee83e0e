"""Event-driven simulation of the six-tick order-book window at scale n.

The book is six signed order counts (buys positive, sells negative), one
per slot of the window that starts at the absolute tick window_origin and
holds the u, v, w, x, y, z queues.  Six Poisson order flows act relative to
the current bid and ask, which the interior pair (w, x) determines, and
stale orders two or more ticks behind the market cancel at per-order rate
theta/sqrt(n).  Within one renewal epoch every event targets a window
slot, so the six slots are the whole book; at a renewal the window shifts
one tick and the queue that leaves it is dropped.  One event sampler
serves both the stopped book, run until a bracketing queue empties, and
the free-running variant whose clocks follow the interior region
regardless of the bracketing queues' values.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model_params import (
    DerivedConstants,
    Region,
    gh_transform,
    region_of,
)

REGION_ORDER: tuple[Region, ...] = tuple(Region)

_REGION_INDEX = {r: i for i, r in enumerate(REGION_ORDER)}

SERIES_COLUMNS = ("u", "v", "w", "x", "y", "z", "g", "h")

_ONE_TICK = frozenset(
    (Region.NE, Region.SE_plus, Region.SE, Region.SE_minus, Region.SW)
)
_TWO_TICK = frozenset((Region.E, Region.S))


class HorizonExceededError(RuntimeError):
    """Raised when no renewal occurs before the configured scaled horizon."""


@dataclass(frozen=True)
class SimConfig:
    """Configuration for a single simulated path.

    n
        Scale parameter; the chain runs in unscaled time up to n * horizon
        and queue values are reported divided by sqrt(n).
    initial_scaled_state
        Scaled six-queue start (u, v, w, x, y, z) with v > 0, y < 0,
        u >= 0, z <= 0.  Unscaled starting queues are round(sqrt(n) * value)
        with ties toward zero.
    horizon
        Scaled time to simulate.  Zero is allowed and records only the
        initial state.
    seed
        64-bit seed; independent paths derive their streams from
        (seed, path_index).
    grid_step
        Spacing of the scaled recording grid.
    """

    n: int
    initial_scaled_state: tuple[float, ...] = (0.75, 0.75, 0.0, 0.0, -0.75, -0.75)
    horizon: float = 1.0
    seed: int = 0
    grid_step: float = 0.01

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "n", operator.index(self.n))
        except TypeError:
            raise ValueError(f"n must be an integer, got {self.n!r}") from None
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        try:
            object.__setattr__(self, "seed", operator.index(self.seed))
        except TypeError:
            raise ValueError(f"seed must be an integer, got {self.seed!r}") from None
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        state = tuple(float(q) for q in self.initial_scaled_state)
        if len(state) != 6:
            raise ValueError(
                f"initial_scaled_state needs six values, got {len(state)}"
            )
        if not all(math.isfinite(q) for q in state):
            raise ValueError(f"initial_scaled_state must be finite, got {state}")
        try:
            sqrt_n = math.sqrt(self.n)
        except OverflowError:  # n beyond the float range
            sqrt_n = math.inf
        if not all(math.isfinite(sqrt_n * q) for q in state):
            raise ValueError(
                "sqrt(n) * initial_scaled_state must be finite (the unscaled"
                f" start), got n={self.n}, state={state}"
            )
        u, v, w, x, y, z = state
        if v <= 0:
            raise ValueError(f"initial scaled v must be positive, got {v}")
        if y >= 0:
            raise ValueError(f"initial scaled y must be negative, got {y}")
        if u < 0:
            raise ValueError(f"initial scaled u must be nonnegative, got {u}")
        if z > 0:
            raise ValueError(f"initial scaled z must be nonpositive, got {z}")
        region_of(w, x)  # rejects the crossed-book quadrant
        object.__setattr__(self, "initial_scaled_state", state)
        horizon = float(self.horizon)
        if not math.isfinite(horizon) or horizon < 0:
            raise ValueError(f"horizon must be finite and >= 0, got {self.horizon}")
        object.__setattr__(self, "horizon", horizon)
        step = float(self.grid_step)
        if not math.isfinite(step) or step <= 0:
            raise ValueError(f"grid_step must be positive, got {self.grid_step}")
        if not math.isfinite(horizon / step):
            raise ValueError(
                "horizon / grid_step must be finite (the grid size), got"
                f" {horizon} / {step}"
            )
        object.__setattr__(self, "grid_step", step)


def _zero_occupation() -> dict[Region, float]:
    return {r: 0.0 for r in REGION_ORDER}


@dataclass
class LOBState:
    """Mutable state of one simulated book.

    queues holds the signed order counts of the six window slots, leftmost
    (u role) first; slot i sits at absolute price tick window_origin + i.
    clock is unscaled elapsed time; occupation accumulates unscaled time
    per interior region and sums to clock exactly at event times.
    """

    queues: list[int]
    window_origin: int = 0
    clock: float = 0.0
    occupation: dict[Region, float] = field(default_factory=_zero_occupation)
    event_count: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.queues, (list, tuple)) or len(self.queues) != 6:
            raise ValueError(
                f"queues must be six window counts, got {self.queues!r}"
            )
        self.queues = [operator.index(c) for c in self.queues]

    def window(self) -> tuple[int, int, int, int, int, int]:
        """Signed counts of the six window slots, leftmost first."""
        return tuple(self.queues)


@dataclass(frozen=True)
class RenewalRecord:
    """Outcome of running a book until a bracketing queue emptied.

    direction is "down" when the v-role queue vanished first and "up" when
    the y-role queue did; s_hat is the scaled stopping time; the state is
    the six scaled queue values at that instant, in pre-shift roles.
    """

    direction: str
    s_hat: float
    state_at_renewal: tuple[float, ...]


@dataclass(frozen=True)
class ScaledPathBundle:
    """Scaled path recorded on a fixed grid.

    series columns follow SERIES_COLUMNS: the six scaled queues, then the
    drift-free coordinate g and the collapsing coordinate h.  occupations
    columns follow REGION_ORDER and hold the fluid-scaled occupation times
    (unscaled region time divided by n) at each grid instant.
    """

    times: np.ndarray
    series: np.ndarray
    occupations: np.ndarray
    n: int


def path_stream(seed: int, path_index: int = 0) -> np.random.Generator:
    """Counter-based RNG stream for one path, split from (seed, path_index)."""
    try:
        path_index = operator.index(path_index)
    except TypeError:
        path_index = -1
    if path_index < 0:
        raise ValueError("path_index must be a non-negative integer")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(path_index,))
    return np.random.Generator(np.random.Philox(ss))


def _rate_table(params: DerivedConstants, n: int):
    p = params.params
    # fixed order-flow rates, in the sampling order documented in _next_event
    fixed = (
        p.lambda0,
        params.mu0,
        params.lambda1,
        params.lambda2,
        params.mu1,
        params.mu2,
    )
    sqrt_n = math.sqrt(n)
    return fixed, sum(fixed), p.theta_b / sqrt_n, p.theta_s / sqrt_n


def _next_event(q, rates, exponential, uniform):
    """Sample the next transition of the six-slot book q by Gillespie's method.

    Returns (dt, slot, delta, region, category): the holding time, the window
    slot that changes by delta, the index in REGION_ORDER of the
    interior region in force, and the flow.  Categories 0..5 are the fixed
    flows (market buy, market sell, limit buys one/two ticks below the ask,
    limit sells one/two ticks above the bid); 6 and 7 are buy- and sell-side
    cancellations.  Stale buys sit at slots <= bid - 2 and stale sells at
    slots >= ask + 2, so each pool spans at most two slots.  The stream is
    consumed in a fixed order (one exponential, then one uniform), so runs
    are reproducible.
    """
    fixed, fixed_total, tb, ts = rates
    q0, q1, w, x, q4, q5 = q
    # region, bid and ask slots, and the stale pools: buys at slots
    # <= bid - 2, sells at slots >= ask + 2
    if x > 0:
        if w < 0:
            region_of(w, x)  # raises: the quadrant is unreachable
        region, bid, ask = 0, 3, 4  # NE
        buy_pool = (q0 if q0 > 0 else 0) + (q1 if q1 > 0 else 0)
        sell_pool = 0
    elif w < 0:
        region, bid, ask = 6, 1, 2  # SW
        buy_pool = 0
        sell_pool = (-q4 if q4 < 0 else 0) + (-q5 if q5 < 0 else 0)
    elif x == 0:
        if w > 0:
            region, bid, ask = 1, 2, 4  # E
            buy_pool = q0 if q0 > 0 else 0
        else:
            region, bid, ask = 7, 1, 4  # O
            buy_pool = 0
        sell_pool = 0
    else:
        if w == 0:
            region, bid = 5, 1  # S
            buy_pool = 0
        else:
            s = w + x
            region = 2 if s > 0 else 3 if s == 0 else 4  # SE+, SE, SE-
            bid = 2
            buy_pool = q0 if q0 > 0 else 0
        ask = 3
        sell_pool = -q5 if q5 < 0 else 0

    total = fixed_total + tb * buy_pool + ts * sell_pool
    dt = exponential() / total
    u = uniform() * total

    if u < fixed_total:
        if u < fixed[0]:
            return dt, ask, 1, region, 0
        u -= fixed[0]
        if u < fixed[1]:
            return dt, bid, -1, region, 1
        u -= fixed[1]
        if u < fixed[2]:
            return dt, ask - 1, 1, region, 2
        u -= fixed[2]
        if u < fixed[3]:
            return dt, ask - 2, 1, region, 3
        u -= fixed[3]
        if u < fixed[4]:
            return dt, bid + 1, -1, region, 4
        return dt, bid + 2, -1, region, 5

    # cancellations: u / rate counts orders into the pool, which is walked
    # leftmost slot first
    u -= fixed_total
    if u < tb * buy_pool:
        # the pool is positive here, so slot 0 or slot 1 is stale
        if bid == 3 and q1 > 0 and (q0 <= 0 or u / tb >= q0):
            return dt, 1, -1, region, 6
        return dt, 0, -1, region, 6
    if ask == 2 and q4 < 0 and (q5 >= 0 or (u - tb * buy_pool) / ts < -q4):
        return dt, 4, 1, region, 7
    if ask <= 3 and q5 < 0:
        return dt, 5, 1, region, 7
    # no stale sell: only rounding could carry u past the buy pool; the
    # slot is the first one beyond the sell pool, as in the dict book
    return dt, ask + 2, 1, region, 7


# signed count each flow may find at its target slot: market buys execute
# against resting sells and market sells against resting buys, limit buys
# must not land on sells nor limit sells on buys; cancellations are free
_INF = math.inf
_ALLOWED = (
    (-_INF, -1),
    (1, _INF),
    (0, _INF),
    (0, _INF),
    (-_INF, 0),
    (-_INF, 0),
    (-_INF, _INF),
    (-_INF, _INF),
)
_FAULTS = (
    "market buy at tick {} found no sell orders",
    "market sell at tick {} found no buy orders",
    "limit buy at tick {} would join sell orders",
    "limit buy at tick {} would join sell orders",
    "limit sell at tick {} would join buy orders",
    "limit sell at tick {} would join buy orders",
)


def _fault(message: str):
    raise RuntimeError(f"model violation: {message}")


def step_event(
    state: LOBState, params: DerivedConstants, n: int, rng: np.random.Generator
) -> LOBState:
    """Advance the book by one sampled transition, in place.

    Competing exponential clocks: market buy/sell at the ask/bid, limit buys
    one and two ticks below the ask, limit sells one and two ticks above the
    bid, and per-order cancellation of buys at ticks <= bid - 2 and sells at
    ticks >= ask + 2 at rates theta/sqrt(n).  Exactly one queue changes by
    one order; the holding time lands in the occupation slot of the interior
    region that was in force.  Returns the same state object.
    """
    q = state.queues
    if q[1] <= 0 or q[4] >= 0:
        _fault("bracketing queues no longer bracket; step past a renewal")
    dt, slot, delta, region, category = _next_event(
        q, _rate_table(params, n), rng.standard_exponential, rng.random
    )
    before = q[slot]
    lo, hi = _ALLOWED[category]
    if not lo <= before <= hi:
        _fault(_FAULTS[category].format(state.window_origin + slot))
    q[slot] = before + delta
    state.occupation[REGION_ORDER[region]] += dt
    state.clock += dt
    state.event_count += 1
    return state


def _round_half_to_zero(value: float) -> int:
    if value >= 0:
        return math.ceil(value - 0.5)
    return math.floor(value + 0.5)


def initial_state(config: SimConfig) -> LOBState:
    """Build the unscaled starting book from the scaled configuration.

    Queues start at round(sqrt(n) * scaled value) with ties toward zero;
    raises if n is too small for the bracketing queues to resolve to their
    required signs.
    """
    sqrt_n = math.sqrt(config.n)
    counts = [_round_half_to_zero(sqrt_n * q) for q in config.initial_scaled_state]
    if counts[1] < 1:
        raise ValueError(
            f"n={config.n} rounds the scaled v start {config.initial_scaled_state[1]}"
            " to an empty queue; increase n or the start value"
        )
    if counts[4] > -1:
        raise ValueError(
            f"n={config.n} rounds the scaled y start {config.initial_scaled_state[4]}"
            " to an empty queue; increase n or the start value"
        )
    return LOBState(queues=counts)


def _run_to_renewal(state, params, n, limit, rng):
    """Step a book until v or y empties; relabel the window; return a record.

    The record keeps the pre-shift roles.  The state is mutated past the
    renewal: after a down move the window origin moves one tick left (the
    old u, v, w, x, y queues take the v, w, x, y, z roles, the new u slot is
    empty and the old z queue leaves the window and is dropped), after an
    up move one tick right (the old u queue is dropped and the new z slot is
    empty).  The dropped queue no longer counts towards any pool, so the
    state is for inspection: no caller steps a book past its renewal.
    """
    rates = _rate_table(params, n)
    exponential, uniform = rng.standard_exponential, rng.random
    allowed = _ALLOWED
    q = state.queues
    origin = state.window_origin
    occ = [state.occupation[r] for r in REGION_ORDER]
    clock = state.clock
    events = state.event_count
    try:
        while True:
            dt, slot, delta, region, category = _next_event(
                q, rates, exponential, uniform
            )
            if clock + dt > limit:
                raise HorizonExceededError(
                    f"no renewal by scaled time {limit / n}; last clock"
                    f" {clock / n}"
                )
            before = q[slot]
            lo, hi = allowed[category]
            if not lo <= before <= hi:
                _fault(_FAULTS[category].format(origin + slot))
            q[slot] = before + delta
            occ[region] += dt
            clock += dt
            events += 1
            if q[1] == 0 or q[4] == 0:
                break
    finally:
        state.occupation.update(zip(REGION_ORDER, occ))
        state.clock = clock
        state.event_count = events
    down = q[1] == 0
    sqrt_n = math.sqrt(n)
    record = RenewalRecord(
        direction="down" if down else "up",
        s_hat=clock / n,
        state_at_renewal=tuple(c / sqrt_n for c in q),
    )
    if down:
        state.queues = [0, *q[:5]]
        state.window_origin = origin - 1
    else:
        state.queues = [*q[1:], 0]
        state.window_origin = origin + 1
    return record


def run_until_renewal(
    config: SimConfig, params: DerivedConstants, path_index: int = 0
) -> RenewalRecord:
    """Simulate one book until a bracketing queue first empties.

    Returns the direction ("down" when v vanished, "up" when y vanished),
    the scaled stopping time, and the six scaled queue values at that
    instant in pre-shift roles.  Raises HorizonExceededError if no renewal
    occurs by the scaled horizon.
    """
    state = initial_state(config)
    rng = path_stream(config.seed, path_index)
    limit = config.n * config.horizon
    return _run_to_renewal(state, params, config.n, limit, rng)


def run_scaled_path(
    config: SimConfig, params: DerivedConstants, path_index: int = 0
) -> ScaledPathBundle:
    """Record the free-running system on the scaled grid.

    The clocks follow the interior region exactly as in the stopped book,
    but the bracketing queues' values never stop or redirect the flow, so
    the path continues through renewals.  Each grid instant reports the
    state after the last event at or before it, and occupation times are
    accumulated exactly up to the grid instant.
    """
    n = config.n
    q = initial_state(config).queues
    rng = path_stream(config.seed, path_index)
    exponential, uniform = rng.standard_exponential, rng.random
    rates = _rate_table(params, n)
    mparams = params.params
    sqrt_n = math.sqrt(n)

    steps = int(math.floor(config.horizon / config.grid_step + 1e-9))
    times = np.arange(steps + 1, dtype=float) * config.grid_step
    if config.horizon - times[-1] > 1e-9 * max(1.0, config.horizon):
        times = np.append(times, config.horizon)
    grid = (times * n).tolist()

    m = len(times)
    series = np.empty((m, 8))
    occupations = np.empty((m, len(REGION_ORDER)))
    occ = [0.0] * len(REGION_ORDER)
    clock = 0.0
    gi = 0
    while gi < m:
        dt, slot, delta, region, category = _next_event(q, rates, exponential, uniform)
        t_next = clock + dt
        while gi < m and grid[gi] < t_next:
            scaled = [c / sqrt_n for c in q]
            g, h = gh_transform(scaled[2], scaled[3], mparams)
            series[gi] = scaled + [g, h]
            row = occ.copy()
            row[region] += grid[gi] - clock
            occupations[gi] = row
            gi += 1
        if gi == m:
            break
        q[slot] += delta
        occ[region] += dt
        clock = t_next
    occupations /= n
    return ScaledPathBundle(times=times, series=series, occupations=occupations, n=n)


def occupation_fractions(bundle: ScaledPathBundle) -> dict[str, float]:
    """Fractions of elapsed time spent in each interior region.

    Also reports the fraction with a one-tick spread (regions NE, SE+, SE,
    SE-, SW) and with a two-tick spread (E and S); the remaining time is the
    three-tick configuration at the origin.
    """
    horizon = float(bundle.times[-1])
    if horizon <= 0:
        raise ValueError("bundle horizon must be positive")
    final = bundle.occupations[-1] / horizon
    fractions = {r.value: float(final[i]) for i, r in enumerate(REGION_ORDER)}
    fractions["one_tick"] = float(
        sum(final[_REGION_INDEX[r]] for r in _ONE_TICK)
    )
    fractions["two_tick"] = float(
        sum(final[_REGION_INDEX[r]] for r in _TWO_TICK)
    )
    return fractions


def martingale_drift_stat(
    paths: Sequence[ScaledPathBundle],
) -> tuple[float, float]:
    """Sample mean and standard error of the drift-free coordinate's net move.

    Takes independent recorded paths and measures g(T) - g(0) across them.
    At least two paths are required, and identical nonzero outcomes on every
    path are rejected as a sign of duplicated streams.
    """
    if len(paths) < 2:
        raise ValueError("martingale_drift_stat needs at least two paths")
    g_col = SERIES_COLUMNS.index("g")
    deltas = np.array([p.series[-1, g_col] - p.series[0, g_col] for p in paths])
    if np.all(deltas == deltas[0]):
        if deltas[0] == 0.0:
            return 0.0, 0.0
        raise ValueError(
            "all paths moved identically; supply paths from distinct streams"
        )
    mean = float(np.mean(deltas))
    se = float(np.std(deltas, ddof=1) / math.sqrt(len(deltas)))
    return mean, se
