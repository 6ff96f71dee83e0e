import functools
import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from loblab import (
    HorizonExceededError,
    ModelParams,
    Region,
    REGION_ORDER,
    SimConfig,
    derive_constants,
    gh_transform,
    initial_state,
    martingale_drift_stat,
    occupation_fractions,
    path_stream,
    region_of,
    run_scaled_path,
    run_until_renewal,
)
from loblab import lob_simulator as sim

CONSTANTS = derive_constants(ModelParams())


class ScriptRng:
    """Stands in for a Generator: fixed holding-time draw, scripted uniforms."""

    def __init__(self, uniforms, exponential=1.0):
        self._uniforms = list(uniforms)
        self._exponential = exponential

    def standard_exponential(self):
        return self._exponential

    def random(self):
        return self._uniforms.pop(0)


# six-slot books putting the interior pair (slots 2 and 3) in each region;
# slots 0..5 hold the u, v, w, x, y, z roles
PANEL_BOOKS = {
    Region.NE: [5, 3, 1, 1, -3, -2],
    Region.E: [5, 3, 1, 0, -3, -2],
    Region.SE_plus: [5, 3, 2, -1, -3, -6],
    Region.SE: [5, 3, 1, -1, -3, -6],
    Region.SE_minus: [5, 3, 1, -2, -3, -6],
    Region.S: [5, 3, 0, -1, -3, -6],
    Region.SW: [5, 3, -1, -1, -3, -6],
    Region.O: [5, 3, 0, 0, -3, -6],
}

# (slot, delta) per fixed flow, in sampling order: market buy at the ask,
# market sell at the bid, limit buys one and two ticks below the ask,
# limit sells one and two ticks above the bid
PANEL_TARGETS = {
    Region.NE: ((4, 1), (3, -1), (3, 1), (2, 1), (4, -1), (5, -1)),
    Region.E: ((4, 1), (2, -1), (3, 1), (2, 1), (3, -1), (4, -1)),
    Region.SE_plus: ((3, 1), (2, -1), (2, 1), (1, 1), (3, -1), (4, -1)),
    Region.SE: ((3, 1), (2, -1), (2, 1), (1, 1), (3, -1), (4, -1)),
    Region.SE_minus: ((3, 1), (2, -1), (2, 1), (1, 1), (3, -1), (4, -1)),
    Region.S: ((3, 1), (1, -1), (2, 1), (1, 1), (2, -1), (3, -1)),
    Region.SW: ((2, 1), (1, -1), (1, 1), (0, 1), (2, -1), (3, -1)),
    Region.O: ((4, 1), (1, -1), (3, 1), (2, 1), (2, -1), (3, -1)),
}

# stale-order pools for the books above: buy orders at slots <= bid - 2 and
# sell orders at slots >= ask + 2 carry per-order cancellation clocks
PANEL_POOLS = {
    Region.NE: (8, 0),        # u and v sit two behind the bid at 3
    Region.E: (5, 0),         # u only; bid at 2 shields v
    Region.SE_plus: (5, 6),   # u behind the bid at 2, z beyond the ask at 3
    Region.SE: (5, 6),
    Region.SE_minus: (5, 6),
    Region.S: (0, 6),         # bid at 1 shields both buy queues
    Region.SW: (0, 9),        # y and z sit two beyond the ask at 2
    Region.O: (0, 0),         # bid 1, ask 4: nothing is stale
}


def classify(book, rates, exponential, uniform):
    """The kernel's sampler on one book: (dt, slot, delta, region, category)."""
    ev = sim._ffi.new("event_t *")
    status = sim._lib.classify(
        sim._ffi.new("int64_t[6]", list(book)), exponential, uniform,
        sim._ffi.new("rates_t *", rates), ev,
    )
    assert status == sim._lib.KERNEL_OK
    return ev.dt, ev.slot, ev.delta, ev.region, ev.category


def apply_event(book, slot, delta, category):
    """Move the list book through the kernel's checked apply step, in place.

    The kernel's buffer is copied back before a refusal is raised, as the
    loops raise it, so a caller sees what the refused step left.
    """
    q = sim._ffi.new("int64_t[6]", book)
    status = sim._lib.apply_event(q, slot, delta, category)
    book[:] = q
    if status:
        sim._raise_status(status, book, slot, category)


def sample(book, uniform):
    """One draw of the six-slot sampler at n = 10^4, its region as a Region."""
    dt, slot, delta, region, category = classify(
        book, sim._rate_table(CONSTANTS, 10000), 1.0, uniform
    )
    return dt, slot, delta, REGION_ORDER[region], category


# Reference for the six-slot sampler: the event sampler of the earlier
# dict book, which kept one count per absolute tick and scanned the whole
# book for stale orders.  It is kept here verbatim, apart from its name.
_REF_BID_ASK = {
    Region.NE: (3, 4),
    Region.E: (2, 4),
    Region.SE_plus: (2, 3),
    Region.SE: (2, 3),
    Region.SE_minus: (2, 3),
    Region.S: (1, 3),
    Region.SW: (1, 2),
    Region.O: (1, 4),
}


def dict_next_event(queues, origin, rt, rng):
    fixed, fixed_total, tb, ts = rt
    w = queues.get(origin + 2, 0)
    x = queues.get(origin + 3, 0)
    region = region_of(w, x)
    bid_rel, ask_rel = _REF_BID_ASK[region]
    bid = origin + bid_rel
    ask = origin + ask_rel
    cancel_bid = bid - 2
    cancel_ask = ask + 2
    buy_pool = 0
    sell_pool = 0
    for tick, count in queues.items():
        if count > 0:
            if tick <= cancel_bid:
                buy_pool += count
        elif count < 0 and tick >= cancel_ask:
            sell_pool -= count
    total = fixed_total + tb * buy_pool + ts * sell_pool
    dt = rng.standard_exponential() / total
    u = rng.random() * total

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

    u -= fixed_total
    if u < tb * buy_pool:
        remaining = u / tb
        chosen = cancel_bid
        for tick in sorted(queues):
            count = queues[tick]
            if count > 0 and tick <= cancel_bid:
                chosen = tick
                if remaining < count:
                    break
                remaining -= count
        return dt, chosen, -1, region, 6
    remaining = (u - tb * buy_pool) / ts
    chosen = cancel_ask
    for tick in sorted(queues):
        count = queues[tick]
        if count < 0 and tick >= cancel_ask:
            chosen = tick
            if remaining < -count:
                break
            remaining += count
    return dt, chosen, 1, region, 7


# Reference for the compiled kernel: the Python event sampler and the two
# Python loops it replaced, with the same arithmetic in the same order; the
# scaled-path loop takes its generator as an argument.  The flow ranges are
# the ones the Python loop checked.
REF_ALLOWED = (
    (-math.inf, -1),
    (1, math.inf),
    (0, math.inf),
    (0, math.inf),
    (-math.inf, 0),
    (-math.inf, 0),
    (-math.inf, math.inf),
    (-math.inf, math.inf),
)


def ref_next_event(q, rates, exponential, uniform):
    fixed, fixed_total, tb, ts = rates
    q0, q1, w, x, q4, q5 = q
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

    u -= fixed_total
    if u < tb * buy_pool:
        if bid == 3 and q1 > 0 and (q0 <= 0 or u / tb >= q0):
            return dt, 1, -1, region, 6
        return dt, 0, -1, region, 6
    if ask == 2 and q4 < 0 and (q5 >= 0 or (u - tb * buy_pool) / ts < -q4):
        return dt, 4, 1, region, 7
    if ask <= 3 and q5 < 0:
        return dt, 5, 1, region, 7
    return dt, ask + 2, 1, region, 7


def ref_run_to_renewal(counts, params, n, limit, rng, final=None):
    """The Python renewal loop; fills final with the loop's last book."""
    rates = sim._rate_table(params, n)
    exponential, uniform = rng.standard_exponential, rng.random
    allowed = REF_ALLOWED
    q = list(counts)
    clock = 0.0
    try:
        while True:
            dt, slot, delta, _, category = ref_next_event(
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
                sim._fault(sim._FAULTS[category].format(slot))
            q[slot] = before + delta
            clock += dt
            if q[1] == 0 or q[4] == 0:
                break
    finally:
        if final is not None:
            final.update(queues=q, clock=clock)
    sqrt_n = math.sqrt(n)
    return sim.RenewalRecord(
        direction="down" if q[1] == 0 else "up",
        s_hat=clock / n,
        state_at_renewal=tuple(c / sqrt_n for c in q),
    )


def ref_run_scaled_path(config, params, rng):
    n = config.n
    q = list(initial_state(config))
    exponential, uniform = rng.standard_exponential, rng.random
    rates = sim._rate_table(params, n)
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
        dt, slot, delta, region, category = ref_next_event(q, rates, exponential, uniform)
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
    return sim.ScaledPathBundle(times=times, series=series, occupations=occupations, n=n)


# interior pairs (w, x) drawn per region
_WX = {
    Region.NE: lambda a, b: (a - 1, b),
    Region.E: lambda a, b: (a, 0),
    Region.SE_plus: lambda a, b: (a + b, -b),
    Region.SE: lambda a, b: (a, -a),
    Region.SE_minus: lambda a, b: (a, -a - b),
    Region.S: lambda a, b: (0, -b),
    Region.SW: lambda a, b: (-a, 1 - b),
    Region.O: lambda a, b: (0, 0),
}


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig(n=100)
        assert cfg.initial_scaled_state == (0.75, 0.75, 0.0, 0.0, -0.75, -0.75)
        assert cfg.horizon == 1.0
        assert cfg.seed == 0
        assert cfg.grid_step == 0.01

    def test_zero_horizon_allowed(self):
        assert SimConfig(n=4, horizon=0.0).horizon == 0.0

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(n=0), "n must"),
            (dict(n=-3), "n must"),
            (dict(n=2.5), "n must"),
            (dict(n=4, seed=-1), "seed"),
            (dict(n=4, seed=2**64), "seed"),
            (dict(n=4, seed=1.5), "seed"),
            (dict(n=4, initial_scaled_state=(1.0, 1.0, 0.0, 0.0, -1.0)), "six"),
            (
                dict(n=4, initial_scaled_state=(0.0, math.nan, 0.0, 0.0, -1.0, 0.0)),
                "finite",
            ),
            (dict(n=4, initial_scaled_state=(0.0, 0.0, 0.0, 0.0, -1.0, 0.0)), "v must"),
            (dict(n=4, initial_scaled_state=(0.0, 1.0, 0.0, 0.0, 0.0, 0.0)), "y must"),
            (dict(n=4, initial_scaled_state=(-0.1, 1.0, 0.0, 0.0, -1.0, 0.0)), "u must"),
            (dict(n=4, initial_scaled_state=(0.0, 1.0, 0.0, 0.0, -1.0, 0.1)), "z must"),
            (
                dict(n=4, initial_scaled_state=(0.0, 1.0, -0.5, 0.5, -1.0, 0.0)),
                "w < 0 with x > 0",
            ),
            (dict(n=4, horizon=-1.0), "horizon"),
            (dict(n=4, horizon=math.inf), "horizon"),
            (dict(n=4, grid_step=0.0), "grid_step"),
            (dict(n=4, grid_step=-0.1), "grid_step"),
            (dict(n=4, grid_step=math.inf), "grid_step"),
            (
                dict(n=4, initial_scaled_state=(1e308, 1e308, 0.0, 0.0, -1e308, -1e308)),
                "sqrt(n) * initial_scaled_state must be finite",
            ),
            (dict(n=4, horizon=1e300, grid_step=1e-300), "horizon / grid_step"),
            (dict(n=10**400), "sqrt(n) * initial_scaled_state must be finite"),
        ],
    )
    def test_rejects(self, kwargs, fragment):
        with pytest.raises(ValueError) as exc:
            SimConfig(**kwargs)
        assert fragment in str(exc.value)


class TestInitialState:
    @pytest.mark.parametrize(
        "value, expected",
        [
            # ties round toward zero, everything else to the nearest integer
            (2.5, 2),
            (-2.5, -2),
            (2.6, 3),
            (-2.6, -3),
            (0.5, 0),
            (-0.5, 0),
            (0.49, 0),
            (1.5, 1),
            (-1.5, -1),
            (7.0, 7),
            (-3.2, -3),
        ],
    )
    def test_rounding_rule(self, value, expected):
        assert sim._round_half_to_zero(value) == expected

    def test_counts_at_square_scale(self):
        # sqrt(10000) * 0.75 = 75 exactly
        assert initial_state(SimConfig(n=10000)) == (75, 75, 0, 0, -75, -75)

    def test_small_scale_rounds_down(self):
        # sqrt(10) * 0.75 = 2.3717... rounds to 2 on both sides
        assert initial_state(SimConfig(n=10)) == (2, 2, 0, 0, -2, -2)

    def test_rejects_scale_that_empties_a_bracket(self):
        with pytest.raises(ValueError, match="increase n"):
            initial_state(
                SimConfig(n=1, initial_scaled_state=(0.0, 0.4, 0.0, 0.0, -1.0, 0.0))
            )
        with pytest.raises(ValueError, match="increase n"):
            initial_state(
                SimConfig(n=1, initial_scaled_state=(0.0, 1.0, 0.0, 0.0, -0.3, 0.0))
            )


class TestPathStream:
    def test_same_key_same_stream(self):
        assert np.array_equal(path_stream(123, 7).random(4), path_stream(123, 7).random(4))

    def test_index_splits_stream(self):
        assert not np.array_equal(path_stream(123, 0).random(4), path_stream(123, 1).random(4))

    def test_counter_based_generator(self):
        assert type(path_stream(0).bit_generator).__name__ == "Philox"

    @pytest.mark.parametrize("path_index", [1.5, -1, "3"])
    def test_rejects_bad_index(self, path_index):
        with pytest.raises(ValueError, match="path_index must be a non-negative integer"):
            path_stream(0, path_index)
        with pytest.raises(ValueError, match="path_index must be a non-negative integer"):
            run_until_renewal(SimConfig(n=100, horizon=50.0, seed=5), CONSTANTS, path_index)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "3"])
    def test_rejects_bad_seed_as_sim_config_does(self, seed):
        with pytest.raises(ValueError, match="seed must") as exc:
            path_stream(seed)
        with pytest.raises(ValueError) as config_exc:
            SimConfig(n=4, seed=seed)
        assert str(exc.value) == str(config_exc.value)

    def test_integer_seed_types_share_a_stream(self):
        want = path_stream(2**64 - 1, 3).random(4)
        assert np.array_equal(path_stream(np.uint64(2**64 - 1), 3).random(4), want)


class TestEventPanels:
    @pytest.mark.parametrize("region", list(PANEL_BOOKS))
    def test_fixed_flow_targets(self, region):
        rt = sim._rate_table(CONSTANTS, 10000)
        fixed, fixed_total, tb, ts = rt
        buy_pool, sell_pool = PANEL_POOLS[region]
        total = fixed_total + tb * buy_pool + ts * sell_pool
        cum = 0.0
        for category, rate in enumerate(fixed):
            probe = (cum + rate / 2) / total
            dt, slot, delta, seen_region, seen_cat = sample(PANEL_BOOKS[region], probe)
            assert seen_region is region
            assert seen_cat == category
            assert (slot, delta) == PANEL_TARGETS[region][category]
            # the holding time exposes the total rate, so it also checks
            # which orders the engine counted as stale
            assert dt == 1.0 / total
            cum += rate

    def test_one_tick_interior_rate(self):
        # with a one-tick spread the interior pair is hit by the market
        # sell and the two limit-buy flows only: mu0 + lambda1 + lambda2
        fixed, _, _, _ = sim._rate_table(CONSTANTS, 10000)
        interior = sum(
            rate
            for (slot, _), rate in zip(PANEL_TARGETS[Region.NE], fixed)
            if slot in (2, 3)
        )
        assert interior == pytest.approx(2.25, abs=0)

    def test_cancel_tick_selection_buys(self):
        # NE book: u=5 at slot 0, v=3 at slot 1, both at or below bid-2 = 1;
        # order slots 0..4 pick slot 0 and order slots 5..7 pick slot 1
        fixed, fixed_total, tb, ts = sim._rate_table(CONSTANTS, 10000)
        total = fixed_total + tb * 8
        for order, expected_slot in ((0.5, 0), (4.5, 0), (5.5, 1), (7.5, 1)):
            probe = (fixed_total + tb * order) / total
            dt, slot, delta, region, cat = sample(PANEL_BOOKS[Region.NE], probe)
            assert (cat, slot, delta) == (6, expected_slot, -1)

    def test_cancel_tick_selection_sells(self):
        # SW book: y=-3 at slot 4, z=-6 at slot 5, both at or beyond
        # ask+2 = 4; order slots 0..2 pick slot 4 and order slots 3..8 pick slot 5
        fixed, fixed_total, tb, ts = sim._rate_table(CONSTANTS, 10000)
        total = fixed_total + ts * 9
        for order, expected_slot in ((0.5, 4), (2.5, 4), (3.5, 5), (8.5, 5)):
            probe = (fixed_total + ts * order) / total
            dt, slot, delta, region, cat = sample(PANEL_BOOKS[Region.SW], probe)
            assert (cat, slot, delta) == (7, expected_slot, 1)

    def test_leftmost_queue_cancelable_off_the_positive_side(self):
        # with the interior pair at SE the bid is at slot 2, so the u queue
        # is stale while v is shielded; the z queue is stale symmetrically
        fixed, fixed_total, tb, ts = sim._rate_table(CONSTANTS, 10000)
        total = fixed_total + tb * 5 + ts * 6
        probe_buy = (fixed_total + tb * 2.5) / total
        _, slot, delta, _, cat = sample(PANEL_BOOKS[Region.SE], probe_buy)
        assert (cat, slot, delta) == (6, 0, -1)
        probe_sell = (fixed_total + tb * 5 + ts * 3.0) / total
        _, slot, delta, _, cat = sample(PANEL_BOOKS[Region.SE], probe_sell)
        assert (cat, slot, delta) == (7, 5, 1)

    def test_cancellation_clock_vanishes_with_scale(self):
        # per-order rate theta_b / sqrt(n) tends to zero at fixed queue size
        _, _, tb, _ = sim._rate_table(CONSTANTS, 10**16)
        assert tb * 1000 < 1e-4


class TestStepEvent:
    # one event through the kernel's checked apply step, which the
    # compiled renewal loop applies every event through
    @pytest.mark.parametrize(
        "category, delta, count, fragment",
        [
            (0, 1, 0, "market buy"),      # nothing resting at the ask
            (0, 1, 2, "market buy"),      # buys resting where sells belong
            (1, -1, 0, "market sell"),
            (1, -1, -1, "market sell"),
            (2, 1, -4, "limit buy"),      # would join a sell queue
            (3, 1, -1, "limit buy"),
            (4, -1, 1, "limit sell"),     # would join a buy queue
            (5, -1, 3, "limit sell"),
        ],
    )
    def test_coexistence_faults(self, category, delta, count, fragment):
        # a flow that targets slot 2 and finds the wrong sign there must be
        # refused, naming the flow and the slot
        book = [1, 1, count, 0, -1, 0]
        with pytest.raises(RuntimeError) as exc:
            apply_event(book, 2, delta, category)
        assert "model violation" in str(exc.value)
        assert fragment in str(exc.value)
        assert "tick 2" in str(exc.value)
        assert book == [1, 1, count, 0, -1, 0]


class TestRunUntilRenewal:
    def test_bit_identical_repeats(self):
        cfg = SimConfig(n=100, horizon=50.0, seed=5)
        assert run_until_renewal(cfg, CONSTANTS) == run_until_renewal(cfg, CONSTANTS)

    def test_distinct_paths_differ(self):
        cfg = SimConfig(n=100, horizon=50.0, seed=5)
        r0 = run_until_renewal(cfg, CONSTANTS, path_index=0)
        r1 = run_until_renewal(cfg, CONSTANTS, path_index=1)
        assert r0 != r1

    def test_down_record(self):
        # frozen stream: seed 5, path 1 ends with the v-role queue emptying
        r = run_until_renewal(SimConfig(n=100, horizon=50.0, seed=5), CONSTANTS, path_index=1)
        assert r.direction == "down"
        assert len(r.state_at_renewal) == 6
        assert r.state_at_renewal[1] == 0.0
        assert r.state_at_renewal[4] < 0.0
        assert 0.0 < r.s_hat <= 50.0

    def test_up_record(self):
        # frozen stream: seed 5, path 0 ends with the y-role queue emptying
        r = run_until_renewal(SimConfig(n=100, horizon=50.0, seed=5), CONSTANTS, path_index=0)
        assert r.direction == "up"
        assert r.state_at_renewal[4] == 0.0
        assert r.state_at_renewal[1] > 0.0

    def test_zero_horizon_raises(self):
        with pytest.raises(HorizonExceededError):
            run_until_renewal(SimConfig(n=100, horizon=0.0, seed=9), CONSTANTS)

    def test_horizon_exceeded_reports_scaled_time(self):
        cfg = SimConfig(
            n=100,
            horizon=0.05,
            seed=9,
            initial_scaled_state=(0.0, 5.0, 0.0, 0.0, -5.0, 0.0),
        )
        with pytest.raises(HorizonExceededError, match="0.05"):
            run_until_renewal(cfg, CONSTANTS)

    def test_down_fraction_balances(self):
        # buy/sell exchange symmetry puts the down probability at 1/2;
        # 200 paths give se 0.035, frozen seed observed 0.490
        downs = sum(
            run_until_renewal(
                SimConfig(n=400, horizon=50.0, seed=77), CONSTANTS, path_index=k
            ).direction
            == "down"
            for k in range(200)
        )
        assert abs(downs / 200 - 0.5) < 0.12


class TestRunScaledPath:
    def test_grid_shape_and_ragged_tail(self):
        bundle = run_scaled_path(
            SimConfig(n=100, horizon=0.05, seed=1, grid_step=0.02), CONSTANTS
        )
        assert bundle.times.tolist() == pytest.approx([0.0, 0.02, 0.04, 0.05], abs=1e-12)
        assert bundle.series.shape == (4, 8)
        assert bundle.occupations.shape == (4, 8)
        assert bundle.n == 100

    def test_zero_horizon_records_initial_instant(self):
        bundle = run_scaled_path(SimConfig(n=10000, horizon=0.0, seed=3), CONSTANTS)
        assert bundle.times.tolist() == [0.0]
        assert bundle.series[0].tolist() == [0.75, 0.75, 0.0, 0.0, -0.75, -0.75, 0.0, 0.0]
        assert bundle.occupations[0].tolist() == [0.0] * 8

    def test_reproducible_and_index_split(self):
        cfg = SimConfig(n=100, horizon=1.0, seed=4, grid_step=0.1)
        b1 = run_scaled_path(cfg, CONSTANTS)
        b2 = run_scaled_path(cfg, CONSTANTS)
        assert np.array_equal(b1.times, b2.times)
        assert np.array_equal(b1.series, b2.series)
        assert np.array_equal(b1.occupations, b2.occupations)
        b3 = run_scaled_path(cfg, CONSTANTS, path_index=1)
        assert not np.array_equal(b1.series, b3.series)

    def test_gh_columns_match_transform(self):
        bundle = run_scaled_path(
            SimConfig(n=100, horizon=2.0, seed=1, grid_step=0.01), CONSTANTS
        )
        params = ModelParams()
        for row in bundle.series:
            g, h = gh_transform(row[2], row[3], params)
            assert row[6] == g
            assert row[7] == h

    def test_h_moves_on_the_counting_lattice(self):
        # h is a signed queue count over sqrt(n)
        bundle = run_scaled_path(
            SimConfig(n=100, horizon=2.0, seed=2, grid_step=0.01), CONSTANTS
        )
        scaled = bundle.series[:, 7] * 10.0
        assert np.allclose(scaled, np.round(scaled), rtol=0, atol=1e-9)

    def test_occupation_accounting(self):
        bundle = run_scaled_path(
            SimConfig(n=100, horizon=2.0, seed=1, grid_step=0.01), CONSTANTS
        )
        assert np.allclose(bundle.occupations.sum(axis=1), bundle.times, rtol=0, atol=1e-9)
        assert np.array_equal(bundle.occupations[0], np.zeros(8))
        diffs = np.diff(bundle.occupations, axis=0)
        assert diffs.min() >= -1e-12
        assert diffs.max() <= 0.01 + 1e-12

    def test_continues_through_renewals(self):
        # the free-running system ignores queue vanishing: this frozen
        # stream drives the v-role value below zero and keeps going
        bundle = run_scaled_path(
            SimConfig(n=100, horizon=6.0, seed=1, grid_step=0.05), CONSTANTS
        )
        assert len(bundle.times) == 121
        assert bundle.series[:, 1].min() < 0.0


class TestOccupationFractions:
    def test_partition_of_time(self):
        bundle = run_scaled_path(
            SimConfig(n=400, horizon=5.0, seed=11, grid_step=0.25), CONSTANTS
        )
        fractions = occupation_fractions(bundle)
        assert set(fractions) == {r.value for r in REGION_ORDER} | {"one_tick", "two_tick"}
        region_sum = sum(fractions[r.value] for r in REGION_ORDER)
        assert region_sum == pytest.approx(1.0, abs=1e-9)
        # the three-tick spread happens only at the origin configuration
        assert fractions["one_tick"] + fractions["two_tick"] == pytest.approx(
            1.0 - fractions["O"], abs=1e-12
        )

    def test_one_tick_fraction_near_limit(self):
        # limit fraction 2 - (a+b)/(ab) = 2/3; frozen seed observed 0.6693
        bundle = run_scaled_path(
            SimConfig(n=6400, horizon=10.0, seed=5, grid_step=0.5), CONSTANTS
        )
        fractions = occupation_fractions(bundle)
        assert fractions["one_tick"] == pytest.approx(2.0 / 3.0, abs=0.05)
        assert fractions["two_tick"] == pytest.approx(1.0 / 3.0, abs=0.05)

    def test_diagonal_and_origin_fractions_shrink(self):
        # same seeds at n=100 and n=6400; observed means 0.0133 and 0.00086
        small, large = [], []
        for seed in (5, 6, 7):
            f_small = occupation_fractions(
                run_scaled_path(
                    SimConfig(n=100, horizon=10.0, seed=seed, grid_step=0.5), CONSTANTS
                )
            )
            f_large = occupation_fractions(
                run_scaled_path(
                    SimConfig(n=6400, horizon=10.0, seed=seed, grid_step=0.5), CONSTANTS
                )
            )
            small.append(f_small["SE"] + f_small["O"])
            large.append(f_large["SE"] + f_large["O"])
        assert sum(large) < sum(small) / 5.0

    def test_zero_horizon_rejected(self):
        bundle = run_scaled_path(SimConfig(n=100, horizon=0.0, seed=3), CONSTANTS)
        with pytest.raises(ValueError, match="horizon"):
            occupation_fractions(bundle)


class TestMartingaleDriftStat:
    def test_needs_two_paths(self):
        bundle = run_scaled_path(
            SimConfig(n=64, horizon=0.5, seed=31, grid_step=0.25), CONSTANTS
        )
        with pytest.raises(ValueError, match="two paths"):
            martingale_drift_stat([bundle])

    def test_duplicated_stream_rejected(self):
        # this frozen path has net move 1.125, so two copies share a
        # nonzero outcome and cannot be independent
        cfg = SimConfig(n=64, horizon=0.5, seed=31, grid_step=0.25)
        bundle = run_scaled_path(cfg, CONSTANTS)
        with pytest.raises(ValueError, match="distinct"):
            martingale_drift_stat([bundle, bundle])

    def test_zero_horizon_gives_zero(self):
        cfg = SimConfig(
            n=1, horizon=0.0, seed=0, initial_scaled_state=(0.0, 1.0, 0.0, 0.0, -1.0, 0.0)
        )
        paths = [run_scaled_path(cfg, CONSTANTS, path_index=k) for k in range(2)]
        assert martingale_drift_stat(paths) == (0.0, 0.0)

    def test_zero_drift_within_band(self):
        # 300 independent paths; frozen seed observed mean 0.082, se 0.082
        cfg = SimConfig(n=64, horizon=0.5, seed=31, grid_step=0.25)
        paths = [run_scaled_path(cfg, CONSTANTS, path_index=k) for k in range(300)]
        mean, se = martingale_drift_stat(paths)
        assert se > 0.0
        assert abs(mean) <= 3.0 * se


class TestRunInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        steps=st.integers(min_value=1, max_value=150),
    )
    def test_sign_discipline_and_accounting(self, n, seed, steps):
        # step the sampler and the checked apply step by hand, drawing as
        # the loops do: one exponential, then one uniform; the loops' clock
        # and occupation are checked against the reference loop below
        book = list(initial_state(SimConfig(n=n)))
        rates = sim._rate_table(CONSTANTS, n)
        rng = path_stream(seed)
        for _ in range(steps):
            if book[1] == 0 or book[4] == 0:
                break
            e, u = rng.standard_exponential(), rng.random()
            dt, slot, delta, _, category = classify(book, rates, e, u)
            assert 0.0 < dt < math.inf
            before = list(book)
            apply_event(book, slot, delta, category)
            # exactly one order joins or leaves exactly one slot
            assert sum(abs(a - b) for a, b in zip(book, before)) == 1
            buys = [t for t, q in enumerate(book) if q > 0]
            sells = [t for t, q in enumerate(book) if q < 0]
            if buys and sells:
                assert max(buys) < min(sells)


class TestSamplerEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(
        region=st.sampled_from(REGION_ORDER),
        ab=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        outer=st.tuples(*[st.integers(-6, 6)] * 4),
        origin=st.integers(-20, 20),
        theta_b=st.sampled_from([1.0, 2.0]),
        n=st.sampled_from([1, 4, 100, 10000]),
        exponential=st.floats(1e-3, 20.0),
        boundary=st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from(["flow", "buy", "sell"]),
                st.integers(0, 12),
                st.sampled_from([-1, 0, 1]),
            ),
        ),
        free=st.floats(0.0, 1.0, exclude_max=True),
    )
    # exact ties at n = 4 (total rate 8): u lands on the first stale slot's
    # last order, which belongs to the next slot, for buys and for sells
    @example(Region.NE, (1, 1), (3, 4, -2, -1), 5, 1.0, 4, 1.0, ("buy", 3, 0), 0.0)
    @example(Region.SW, (1, 1), (0, 2, -3, -4), -7, 1.0, 4, 1.0, ("sell", 3, 0), 0.0)
    def test_matches_dict_book(
        self, region, ab, outer, origin, theta_b, n, exponential, boundary, free
    ):
        # random six-slot books in every region, empty pools included,
        # against the dict-book sampler at a shifted origin; the uniform is
        # either free or placed on (or one ulp either side of) a boundary
        # between flows, between stale orders, or between the two pools
        w, x = _WX[region](*ab)
        u, v, y, z = outer
        book = [u, v, w, x, y, z]
        assert region_of(w, x) is region
        rt = sim._rate_table(derive_constants(ModelParams(theta_b=theta_b)), n)
        fixed, fixed_total, tb, ts = rt
        bid, ask = _REF_BID_ASK[region]
        buy_pool = sum(c for i, c in enumerate(book) if c > 0 and i <= bid - 2)
        sell_pool = -sum(c for i, c in enumerate(book) if c < 0 and i >= ask + 2)
        total = fixed_total + tb * buy_pool + ts * sell_pool
        uniform = free
        if boundary is not None:
            kind, pick, nudge = boundary
            edges = {
                "flow": list(np.cumsum(fixed)),
                "buy": [fixed_total + tb * k for k in range(buy_pool + 1)],
                "sell": [
                    fixed_total + tb * buy_pool + ts * k for k in range(sell_pool + 1)
                ],
            }[kind]
            uniform = edges[pick % len(edges)] / total
            if nudge:
                uniform = float(np.nextafter(uniform, 2.0 * nudge))
            uniform = min(max(uniform, 0.0), float(np.nextafter(1.0, 0.0)))

        expected = dict_next_event(
            {origin + i: c for i, c in enumerate(book)},
            origin,
            rt,
            ScriptRng([uniform], exponential),
        )
        dt, slot, delta, seen_region, category = classify(book, rt, exponential, uniform)
        assert (dt, origin + slot, delta, REGION_ORDER[seen_region], category) == expected


class TestPinnedStreams:
    # exact values of the earlier dict-book engine on the same streams

    def test_renewal_records(self):
        cfg = SimConfig(n=100, horizon=50.0, seed=5)
        assert run_until_renewal(cfg, CONSTANTS, 0) == sim.RenewalRecord(
            "up", 0.11769011626698472, (0.3, 0.9, 0.3, 0.3, 0.0, -0.8)
        )
        assert run_until_renewal(cfg, CONSTANTS, 1) == sim.RenewalRecord(
            "down", 0.19739517302109713, (1.4, 0.0, -0.1, -0.5, -0.2, -0.2)
        )

    def test_pinned_start_record(self):
        c = derive_constants(ModelParams(theta_b=2.0))
        start = (0.75, c.kappa_L, 0.0, 0.0, c.kappa_R, -0.75)
        cfg = SimConfig(n=10**4, horizon=100.0, seed=401, initial_scaled_state=start)
        record = run_until_renewal(cfg, c, 0)
        assert (record.direction, record.s_hat) == ("down", 0.508502158752042)

    def test_pinned_start_horizon_miss_is_a_late_renewal(self):
        # one of the benchmark's rare failed operations: the path is not
        # stuck, it renews just past the horizon of 100
        c = derive_constants(ModelParams(theta_b=2.0))
        start = (0.75, c.kappa_L, 0.0, 0.0, c.kappa_R, -0.75)
        cfg = SimConfig(n=10**4, horizon=100.0, seed=1, initial_scaled_state=start)
        with pytest.raises(HorizonExceededError):
            run_until_renewal(cfg, c, 65_355)
        record = run_until_renewal(replace(cfg, horizon=200.0), c, 65_355)
        assert (record.direction, record.s_hat) == ("down", 106.64241600649684)

    def test_scaled_path_final_row(self):
        c = derive_constants(ModelParams(theta_b=2.0))
        start = (0.75, c.kappa_L, 0.0, 0.0, c.kappa_R, -0.75)
        cfg = SimConfig(n=2500, horizon=2.0, seed=401, initial_scaled_state=start)
        bundle = run_scaled_path(cfg, c, 0)
        assert bundle.series[-1].tolist() == [
            0.0, 0.18, 2.2, 0.04, 0.68, -1.36, 2.2600000000000002, 0.04
        ]
        assert bundle.occupations[-1].tolist() == [
            0.6169229674600574,
            0.6378845664194407,
            0.6196437522640346,
            0.0013404459307725682,
            0.027161376432523077,
            0.0524665773275677,
            0.04255458877364861,
            0.002025725391960632,
        ]


# ---------------------------------------------------------------------------
# the compiled kernel against the Python reference loops above

KERNEL_NS = (1, 100, 400, 10**4)
KERNEL_THETAS = (1.0, 2.0)


def _starts(c, n):
    """Default and pinned starts that resolve to a book at scale n."""
    starts = []
    for start in ((0.75, 0.75, 0.0, 0.0, -0.75, -0.75),
                  (0.75, c.kappa_L, 0.0, 0.0, c.kappa_R, -0.75)):
        try:
            initial_state(SimConfig(n=n, initial_scaled_state=start))
        except ValueError:  # a bracketing queue rounds to empty
            continue
        starts.append(start)
    return starts


def _renew(run, counts, c, n, limit, rng):
    """A renewal run's record, or the type and text of the error it raised."""
    try:
        return run(counts, c, n, limit, rng)
    except (HorizonExceededError, RuntimeError, ValueError) as exc:
        return type(exc), str(exc)


class KernelTap:
    """Stands in for the kernel library and keeps what the renewal loop
    left in its buffers: the book and the clock."""

    def __init__(self, lib):
        self._lib = lib
        self.final = None

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def run_to_renewal(self, bg, q, rates, limit, clock, ev):
        status = self._lib.run_to_renewal(bg, q, rates, limit, clock, ev)
        self.final = dict(queues=list(q), clock=clock[0])
        return status


def _assert_same_renewal(counts, c, n, limit, seed, path_index):
    kernel_rng, ref_rng = path_stream(seed, path_index), path_stream(seed, path_index)
    tap, final = KernelTap(sim._lib), {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_lib", tap)
        got = _renew(sim._run_to_renewal, counts, c, n, limit, kernel_rng)
    ref = functools.partial(ref_run_to_renewal, final=final)
    want = _renew(ref, counts, c, n, limit, ref_rng)
    assert got == want
    # the loop's final book and clock
    assert tap.final == final
    # the kernel consumed exactly the reference's draws
    assert kernel_rng.random() == ref_rng.random()
    return got


class TestKernelMatchesReference:
    @pytest.mark.parametrize("theta_b", KERNEL_THETAS)
    @pytest.mark.parametrize("n", KERNEL_NS)
    def test_renewals(self, n, theta_b):
        c = derive_constants(ModelParams(theta_b=theta_b))
        paths = 4 if n == 10**4 else 30
        outcomes = set()
        for start in _starts(c, n):
            counts = initial_state(SimConfig(n=n, initial_scaled_state=start))
            # a long horizon ends in renewals, a short one mostly in misses
            for horizon in (50.0, 0.02):
                for k in range(paths):
                    got = _assert_same_renewal(counts, c, n, n * horizon, 61, k)
                    outcomes.add(got[0] if isinstance(got, tuple) else got.direction)
        assert {"up", "down", HorizonExceededError} <= outcomes

    @pytest.mark.parametrize(
        "book",
        [
            [1, 1, 0, 1, 2, 0],    # NE with buys resting at the ask
            [1, 2, 0, -1, 1, -1],  # S with buys resting above the bid
            [0, 2, 1, 0, -1, 3],   # E with buys resting beyond the ask
        ],
    )
    def test_coexistence_faults_in_the_loop(self, book):
        outcomes = [
            _assert_same_renewal(book, CONSTANTS, 100, 1e9, 62, k)
            for k in range(40)
        ]
        faults = [o for o in outcomes if isinstance(o, tuple) and o[0] is RuntimeError]
        assert faults and all("model violation" in text for _, text in faults)

    def test_slot_outside_the_window_is_refused(self):
        # only a rounding tie could send a sell cancellation past slot 5;
        # the checked step refuses it instead of writing outside the book
        book = [1, 1, 0, 1, -1, 0]
        with pytest.raises(RuntimeError, match="tick 6 lies outside the six-slot window"):
            apply_event(book, 6, 1, 7)
        assert book == [1, 1, 0, 1, -1, 0]

    def test_unreachable_quadrant_raises_through_region_of(self):
        for run in (sim._run_to_renewal, ref_run_to_renewal):
            with pytest.raises(ValueError, match="w < 0 with x > 0"):
                run((1, 1, -1, 1, -1, 0), CONSTANTS, 100, 1e9, path_stream(0))

    @pytest.mark.parametrize("theta_b", KERNEL_THETAS)
    @pytest.mark.parametrize("n", KERNEL_NS)
    def test_scaled_paths(self, monkeypatch, n, theta_b):
        c = derive_constants(ModelParams(theta_b=theta_b))
        streams = []

        def recorded_stream(seed, path_index=0):
            streams.append(path_stream(seed, path_index))
            return streams[-1]

        monkeypatch.setattr(sim, "path_stream", recorded_stream)
        paths = 2 if n == 10**4 else 8
        # zero horizon, a ragged tail, and a path through renewals
        for horizon, grid_step in ((0.0, 0.01), (0.05, 0.02), (0.3, 0.1)):
            for start in _starts(c, n):
                cfg = SimConfig(n=n, horizon=horizon, seed=63, grid_step=grid_step,
                                initial_scaled_state=start)
                for k in range(paths):
                    got = run_scaled_path(cfg, c, k)
                    ref_rng = path_stream(cfg.seed, k)
                    want = ref_run_scaled_path(cfg, c, ref_rng)
                    assert got.n == want.n
                    for name in ("times", "series", "occupations"):
                        a, b = getattr(got, name), getattr(want, name)
                        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
                    assert streams[-1].random() == ref_rng.random()


class TestGeneratorLock:
    def test_interleaved_draws_continue_the_stream(self):
        # renewals and direct draws on one shared generator, in turn
        seen = {}
        for run in (sim._run_to_renewal, ref_run_to_renewal):
            rng = path_stream(64, 3)
            seen[run] = []
            for _ in range(20):
                counts = initial_state(SimConfig(n=100))
                seen[run].append(run(counts, CONSTANTS, 100, 5000.0, rng))
                seen[run].append(rng.random())
                seen[run].append(rng.standard_exponential())
        assert seen[sim._run_to_renewal] == seen[ref_run_to_renewal]

    def test_kernel_waits_for_the_generator_lock(self):
        rng = path_stream(64, 4)
        records = []

        def renew():
            counts = initial_state(SimConfig(n=100))
            records.append(sim._run_to_renewal(counts, CONSTANTS, 100, 5000.0, rng))

        worker = threading.Thread(target=renew)
        with rng.bit_generator.lock:
            worker.start()
            worker.join(timeout=0.2)
            # the worker cannot draw while another holder has the lock
            assert worker.is_alive()
            assert records == []
        worker.join(timeout=30.0)
        assert not worker.is_alive()
        counts = initial_state(SimConfig(n=100))
        assert records == [ref_run_to_renewal(counts, CONSTANTS, 100, 5000.0, path_stream(64, 4))]


# ---------------------------------------------------------------------------
# non-dyadic rates: the benchmark's asym_full model.  The rates of
# ModelParams(theta_b=...) are dyadic, so on them sequential subtraction and
# cumulative thresholds pick the same flow for every uniform; these rates
# are not, and a prefix sum can land on a uniform exactly.

ASYM_FULL = derive_constants(
    ModelParams(a=1.2, b=1.7, lambda0=2.0, theta_b=2.0, theta_s=0.5)
)


class TestNonDyadicRates:
    def test_flow_tie_follows_sequential_subtraction(self):
        # region O with nothing stale, so the total is the fixed total; each
        # scaled uniform equals a prefix sum of the fixed rates, which a
        # threshold test would pass on to the next flow, while the remainder
        # after the sequential subtractions lies just below the flow's rate
        rt = sim._rate_table(ASYM_FULL, 10**4)
        fixed, fixed_total, _, _ = rt
        assert fixed_total == 7.734117647058823
        book = [0, 2, 0, 0, -2, 0]
        for uniform, u, category in ((0.7152418618801338, 5.5317647058823525, 3),
                                     (0.8430179494980226, 6.52, 4)):
            assert uniform * fixed_total == u == sum(fixed[: category + 1])
            expected = dict_next_event(
                dict(enumerate(book)), 0, rt, ScriptRng([uniform], 1.0)
            )
            assert expected[4] == category
            dt, slot, delta, region, flow = classify(book, rt, 1.0, uniform)
            assert (dt, slot, delta, REGION_ORDER[region], flow) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        region=st.sampled_from(REGION_ORDER),
        ab=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        outer=st.tuples(*[st.integers(-6, 6)] * 4),
        n=st.sampled_from([1, 4, 100, 10000]),
        exponential=st.floats(1e-3, 20.0),
        boundary=st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from(["flow", "buy", "sell"]),
                st.integers(0, 12),
                st.sampled_from([-1, 0, 1]),
            ),
        ),
        free=st.floats(0.0, 1.0, exclude_max=True),
    )
    # the two ties of the test above, reached through the flow edges
    @example(Region.O, (1, 1), (0, 2, -2, 0), 10000, 1.0, ("flow", 3, 0), 0.0)
    @example(Region.O, (1, 1), (0, 2, -2, 0), 10000, 1.0, ("flow", 4, 0), 0.0)
    def test_sampler_matches_dict_book(self, region, ab, outer, n, exponential,
                                       boundary, free):
        # as TestSamplerEquivalence, on asym_full's rates: the uniform is
        # free or on (or one ulp either side of) a flow or pool boundary
        w, x = _WX[region](*ab)
        u, v, y, z = outer
        book = [u, v, w, x, y, z]
        rt = sim._rate_table(ASYM_FULL, n)
        fixed, fixed_total, tb, ts = rt
        bid, ask = _REF_BID_ASK[region]
        buy_pool = sum(c for i, c in enumerate(book) if c > 0 and i <= bid - 2)
        sell_pool = -sum(c for i, c in enumerate(book) if c < 0 and i >= ask + 2)
        total = fixed_total + tb * buy_pool + ts * sell_pool
        uniform = free
        if boundary is not None:
            kind, pick, nudge = boundary
            edges = {
                "flow": list(np.cumsum(fixed)),
                "buy": [fixed_total + tb * k for k in range(buy_pool + 1)],
                "sell": [
                    fixed_total + tb * buy_pool + ts * k for k in range(sell_pool + 1)
                ],
            }[kind]
            uniform = edges[pick % len(edges)] / total
            if nudge:
                uniform = float(np.nextafter(uniform, 2.0 * nudge))
            uniform = min(max(uniform, 0.0), float(np.nextafter(1.0, 0.0)))
        expected = dict_next_event(
            dict(enumerate(book)), 0, rt, ScriptRng([uniform], exponential)
        )
        dt, slot, delta, seen_region, category = classify(book, rt, exponential, uniform)
        assert (dt, slot, delta, REGION_ORDER[seen_region], category) == expected

    @pytest.mark.parametrize("n", (100, 400))
    def test_renewals_match_reference(self, n):
        outcomes = set()
        for start in _starts(ASYM_FULL, n):
            counts = initial_state(SimConfig(n=n, initial_scaled_state=start))
            for horizon in (50.0, 0.02):
                for k in range(30):
                    got = _assert_same_renewal(counts, ASYM_FULL, n, n * horizon, 65, k)
                    outcomes.add(got[0] if isinstance(got, tuple) else got.direction)
        assert {"up", "down", HorizonExceededError} <= outcomes

    @pytest.mark.parametrize("n", (100, 400))
    def test_scaled_paths_match_reference(self, n):
        # a ragged tail and a path through renewals, from both starts
        for horizon, grid_step in ((0.05, 0.02), (0.3, 0.1)):
            for start in _starts(ASYM_FULL, n):
                cfg = SimConfig(n=n, horizon=horizon, seed=66, grid_step=grid_step,
                                initial_scaled_state=start)
                for k in range(30):
                    got = run_scaled_path(cfg, ASYM_FULL, k)
                    want = ref_run_scaled_path(cfg, ASYM_FULL, path_stream(cfg.seed, k))
                    for name in ("times", "series", "occupations"):
                        a, b = getattr(got, name), getattr(want, name)
                        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


# ---------------------------------------------------------------------------
# the fixed-flow pick by per-table thresholds: the kernel counts the T_k at
# or below the scaled uniform, T_k being the least non-negative double that
# passes the first k + 1 sequential subtraction tests


def _bits(value):
    return int(np.float64(value).view(np.int64))


def _from_bits(bits):
    return float(np.int64(bits).view(np.float64))


def ref_thresholds(fixed):
    """The five T_k, bisected over the bit patterns of non-negative doubles."""

    def passes(v, k):
        for f in fixed[: k + 1]:
            if v < f:
                return False
            v -= f
        return True

    thresholds = []
    for k in range(5):
        lo, hi = 0, _bits(math.inf)
        if passes(0.0, k):
            hi = 0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if passes(_from_bits(mid), k):
                hi = mid
            else:
                lo = mid
        thresholds.append(_from_bits(hi))
    return thresholds


# (book, buy pool, sell pool): region O with both pools empty, then NE, SW
# and SE with stale buys, stale sells and both
THRESHOLD_BOOKS = (
    ([0, 2, 0, 0, -2, 0], 0, 0),
    ([5, 3, 1, 1, -3, -2], 8, 0),
    ([5, 3, -1, -1, -3, -6], 0, 9),
    ([5, 3, 1, -1, -3, -6], 5, 6),
)


def _assert_pick_matches_reference_at_thresholds(constants):
    for n in (1, 100, 10**4):
        rates = sim._rate_table(constants, n)
        fixed, fixed_total, tb, ts = rates
        thresholds = ref_thresholds(fixed)
        assert thresholds == sorted(thresholds) and thresholds[-1] < fixed_total
        for book, buy_pool, sell_pool in THRESHOLD_BOOKS:
            total = fixed_total + tb * buy_pool + ts * sell_pool
            for k, t in enumerate(thresholds):
                # raw uniforms within 4 ulps of T_k / total, whose scaled
                # values fall on both sides of T_k
                centre = _bits(t / total)
                sides = set()
                for step in range(-4, 5):
                    uniform = _from_bits(centre + step)
                    sides.add(uniform * total >= t)
                    want = ref_next_event(book, rates, lambda: 1.0, lambda: uniform)
                    assert classify(book, rates, 1.0, uniform) == want
                    assert want[0] == 1.0 / total  # the pools above are the book's
                assert sides == {False, True}


class TestFlowThresholds:
    @pytest.mark.parametrize("params", [
        ModelParams(),
        ModelParams(theta_b=2.0),
        ModelParams(a=1.2, b=1.7, lambda0=2.0, theta_b=2.0, theta_s=0.5),
    ], ids=["symmetric", "asym_theta_b", "asym_full"])
    def test_sweep_models(self, params):
        _assert_pick_matches_reference_at_thresholds(derive_constants(params))

    # 200 examples, about 1.2 s on a 2-core x86-64 host
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        excess=st.floats(0.01, 3.0),
        product=st.floats(0.01, 0.99),
        lambda0=st.floats(0.1, 10.0),
        theta_b=st.floats(0.1, 10.0),
        theta_s=st.floats(0.1, 10.0),
    )
    def test_admissible_models(self, excess, product, lambda0, theta_b, theta_s):
        # (a - 1)(b - 1) = product < 1 is the admissible wedge a + b > ab
        params = ModelParams(a=1.0 + excess, b=1.0 + product / excess, lambda0=lambda0,
                             theta_b=theta_b, theta_s=theta_s)
        try:
            constants = derive_constants(params)
        except ValueError:  # a + b > ab lost to rounding
            assume(False)
        _assert_pick_matches_reference_at_thresholds(constants)


class TestBitgen:
    @pytest.mark.parametrize("kind", [np.random.Philox, np.random.PCG64])
    def test_pointer_is_the_generators_bitgen(self, kind):
        bit_generator = kind(7)
        pointer = int(sim._ffi.cast("uintptr_t", sim._bitgen(bit_generator)))
        assert pointer == bit_generator.ctypes.bit_generator.value
