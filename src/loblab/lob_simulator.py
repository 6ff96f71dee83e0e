"""Event-driven simulation of the six-tick order-book window at scale n.

The book is six signed order counts (buys positive, sells negative), one
per slot of the window that holds the u, v, w, x, y, z queues.  Six Poisson
order flows act relative to the current bid and ask, which the interior
pair (w, x) determines, and stale orders two or more ticks behind the
market cancel at per-order rate theta/sqrt(n).  Within one renewal epoch
every event targets a window slot, so the six slots are the whole book.
One event sampler serves both the stopped book, run until a bracketing
queue empties, and the free-running variant whose clocks follow the
interior region regardless of the bracketing queues' values.

The sampler draws one holding time and then one flow.  Flows 0..5 are the
fixed flows, in sampling order: market buy at the ask, market sell at the
bid, limit buys one and two ticks below the ask, limit sells one and two
ticks above the bid.  Flows 6 and 7 are buy- and sell-side cancellations.
Stale buys sit at slots <= bid - 2 and stale sells at slots >= ask + 2, so
each pool spans at most two slots.

The sampler and both event loops are a compiled kernel,
``_book_kernel.c``, built with cffi on the first import (see
``_book_kernel``).  The loops draw through the bit generator of the
caller's numpy Generator while holding its lock: per event one standard
exponential, then one standard uniform, exactly the values that
``Generator.standard_exponential()`` and ``Generator.random()`` would
return.  There is no pure-Python fallback; without a C compiler the import
fails with ``KernelBuildError``.

The kernel picks the fixed flow by comparing the scaled uniform with five
thresholds, one per test of the sequential search that subtracts the fixed
rates one by one in sampling order.  Each loop call finds them once, by
bisection over doubles through the same subtractions in the same order,
so the pick is the flow that search picks, rounding ties included (see
``_book_kernel.c``).  Both loops inline the event step.  From the pinned
start (0.75, kappa_L, 0, 0, kappa_R, -0.75) of ``ModelParams(theta_b=2)``
at n = 10^4, a renewal averages 10,057 events (seed 0, 4,000 paths,
counted while the renewal loop still kept an event count).  The
renewal loop spends about 26 to 28 ns per event on a busy 2-core Intel Xeon
host (gcc 12.2; medians of 16 rounds of 500 paths); the two draws, timed
through numpy on the same host, take about 21 ns of it.
"""

from __future__ import annotations

import ctypes
import math
import operator
from dataclasses import dataclass
from typing import NoReturn, Sequence

import numpy as np

from ._book_kernel import load as _load_kernel
from .model_params import (
    DerivedConstants,
    Region,
    gh_transform,
    region_of,
)

__all__ = [
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
]

# compiled on the first import, then loaded from the cache (see _book_kernel)
_ffi, _lib = _load_kernel()

REGION_ORDER: tuple[Region, ...] = tuple(Region)

_REGION_INDEX = {r: i for i, r in enumerate(REGION_ORDER)}

SERIES_COLUMNS = ("u", "v", "w", "x", "y", "z", "g", "h")

_ONE_TICK = frozenset(
    (Region.NE, Region.SE_plus, Region.SE, Region.SE_minus, Region.SW)
)
_TWO_TICK = frozenset((Region.E, Region.S))


class HorizonExceededError(RuntimeError):
    """Raised when no renewal occurs before the configured scaled horizon."""


def _check_seed(seed) -> int:
    """The seed as a Python int; raises unless it is an integer in [0, 2**64)."""
    try:
        value = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= value < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {value}")
    return value


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
        object.__setattr__(self, "seed", _check_seed(self.seed))
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


@dataclass(frozen=True)
class RenewalRecord:
    """Outcome of running a book until a bracketing queue emptied.

    direction is "down" when the v-role queue vanished first and "up" when
    the y-role queue did; s_hat is the scaled stopping time; the state is
    the six scaled queue values at that instant, in the u..z roles they
    held up to it.
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
    seed = _check_seed(seed)
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
    # fixed order-flow rates, in the sampling order of the module docstring
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


_FAULTS = (
    "market buy at tick {} found no sell orders",
    "market sell at tick {} found no buy orders",
    "limit buy at tick {} would join sell orders",
    "limit buy at tick {} would join sell orders",
    "limit sell at tick {} would join buy orders",
    "limit sell at tick {} would join buy orders",
)


def _fault(message: str) -> NoReturn:
    raise RuntimeError(f"model violation: {message}")


def _raise_status(status: int, q, slot: int, category: int) -> NoReturn:
    """Raise the error a kernel status stands for, given the refused event."""
    if status == _lib.KERNEL_UNREACHABLE:
        region_of(q[2], q[3])  # raises: the quadrant is unreachable
    if status == _lib.KERNEL_FAULT:
        _fault(_FAULTS[category].format(slot))
    _fault(f"event at tick {slot} lies outside the six-slot window")


# PyCapsule_GetPointer under a prototype of its own, which leaves the shared
# ctypes.pythonapi function as other callers set it
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def _bitgen(bit_generator):
    """The bitgen_t of a numpy BitGenerator; draw only under its lock.

    The pointer comes from the generator's ``capsule``, numpy's documented
    route, which builds no ctypes objects per generator.
    """
    return _ffi.cast("bitgen_t *", _capsule_pointer(bit_generator.capsule, b"BitGenerator"))


def _round_half_to_zero(value: float) -> int:
    if value >= 0:
        return math.ceil(value - 0.5)
    return math.floor(value + 0.5)


def initial_state(config: SimConfig) -> tuple[int, ...]:
    """The unscaled starting book: six signed counts, u slot first.

    Queues start at round(sqrt(n) * scaled value) with ties toward zero;
    raises if n is too small for the bracketing queues to resolve to their
    required signs.
    """
    sqrt_n = math.sqrt(config.n)
    counts = tuple(_round_half_to_zero(sqrt_n * q) for q in config.initial_scaled_state)
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
    return counts


def _run_to_renewal(counts, params, n, limit, rng):
    """Run the book from the six counts until v or y empties; return a record.

    The compiled loop holds the generator's lock while it draws, and stops
    with a HorizonExceededError once the next event would pass the unscaled
    time limit.
    """
    q = _ffi.new("int64_t[6]", counts)
    clock = _ffi.new("double *")
    ev = _ffi.new("event_t *")
    rates = _ffi.new("rates_t *", _rate_table(params, n))
    bit_generator = rng.bit_generator
    with bit_generator.lock:
        status = _lib.run_to_renewal(_bitgen(bit_generator), q, rates, limit, clock, ev)
    if status == _lib.KERNEL_HORIZON:
        raise HorizonExceededError(
            f"no renewal by scaled time {limit / n}; last clock {clock[0] / n}"
        )
    if status:
        _raise_status(status, q, ev.slot, ev.category)
    sqrt_n = math.sqrt(n)
    return RenewalRecord(
        direction="down" if q[1] == 0 else "up",
        s_hat=clock[0] / n,
        state_at_renewal=tuple(c / sqrt_n for c in q),
    )


def run_until_renewal(
    config: SimConfig, params: DerivedConstants, path_index: int = 0
) -> RenewalRecord:
    """Simulate one book until a bracketing queue first empties.

    Returns the direction ("down" when v vanished, "up" when y vanished),
    the scaled stopping time, and the six scaled queue values at that
    instant.  Raises HorizonExceededError if no renewal occurs by the
    scaled horizon.
    """
    rng = path_stream(config.seed, path_index)
    limit = config.n * config.horizon
    return _run_to_renewal(initial_state(config), params, config.n, limit, rng)


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
    q = _ffi.new("int64_t[6]", initial_state(config))
    rng = path_stream(config.seed, path_index)
    rates = _ffi.new("rates_t *", _rate_table(params, n))

    steps = int(math.floor(config.horizon / config.grid_step + 1e-9))
    times = np.arange(steps + 1, dtype=float) * config.grid_step
    if config.horizon - times[-1] > 1e-9 * max(1.0, config.horizon):
        times = np.append(times, config.horizon)
    grid = times * n

    m = len(times)
    counts = np.empty((m, 6), dtype=np.int64)
    occupations = np.empty((m, len(REGION_ORDER)))
    ev = _ffi.new("event_t *")
    bit_generator = rng.bit_generator
    with bit_generator.lock:
        status = _lib.run_scaled_path(
            _bitgen(bit_generator),
            q,
            rates,
            _ffi.from_buffer("double[]", grid),
            m,
            _ffi.from_buffer("int64_t[]", counts),
            _ffi.from_buffer("double[]", occupations),
            ev,
        )
    if status:
        _raise_status(status, q, ev.slot, ev.category)
    occupations /= n
    scaled = counts / math.sqrt(n)
    g, h = gh_transform(scaled[:, 2], scaled[:, 3], params.params)
    series = np.column_stack([scaled, g, h])
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
