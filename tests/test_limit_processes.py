import dataclasses
import math

import numpy as np
import pytest

from loblab import limit_processes as lp
from loblab import (
    ExcursionList,
    GridPath,
    GridSpec,
    LimitRenewalSample,
    ModelParams,
    TwoSpeedParams,
    build_bracketing_limits,
    decompose_excursions,
    derive_constants,
    path_stream,
    sample_two_speed_timechange,
    simulate_renewal_limit,
)


def _one_shot_time_change(params, n_steps, dt, rng):
    # the whole horizon at once: enough fine steps for the clock to cover
    # the span at the slower rate, then both interpolations over all of it
    hi = max(params.sigma_plus, params.sigma_minus) ** 2
    lo = min(params.sigma_plus, params.sigma_minus) ** 2
    fine_dt = dt * lo / 4.0
    n_fine = int(math.ceil(n_steps * dt * hi / fine_dt - 1e-9))
    b = np.empty(n_fine + 1)
    b[0] = 0.0
    np.cumsum(rng.standard_normal(n_fine) * math.sqrt(fine_dt), out=b[1:])
    rate = np.where(b[:-1] > 0.0, 1.0 / params.sigma_plus**2, 1.0 / params.sigma_minus**2)
    theta = np.empty(n_fine + 1)
    theta[0] = 0.0
    np.cumsum(rate * fine_dt, out=theta[1:])
    s_grid = fine_dt * np.arange(n_fine + 1)
    s_at = np.interp(dt * np.arange(n_steps + 1), theta, s_grid)
    return np.interp(s_at, s_grid, b)


def _reference_renewal(c, dt, n_steps, rng):
    # full-horizon renewal: the one-shot time change, full-length side
    # streams, the overlay written stretch by stretch over the excursions
    interior_rng, overlay_root = rng.spawn(2)
    upper_rng, lower_rng = overlay_root.spawn(2)
    two_speed = TwoSpeedParams(c.sigma_plus, c.sigma_minus)
    g = _one_shot_time_change(two_speed, n_steps, dt, interior_rng)
    z_upper = upper_rng.standard_normal(n_steps)
    z_lower = lower_rng.standard_normal(n_steps)
    noise_scale = math.sqrt(1.0 - c.rho**2)
    beta_upper = noise_scale * c.sigma_plus * math.sqrt(dt)
    beta_lower = noise_scale * c.sigma_minus * math.sqrt(dt)
    upper = np.full(n_steps + 1, c.kappa_L)
    lower = np.full(n_steps + 1, c.kappa_R)
    for left, right, sign in decompose_excursions(GridPath(0.0, dt, g), 2.0 * dt).entries:
        # point k is reached by step k, which uses normal k - 1 of its side
        inside = slice(left + 1, right)
        if sign < 0:
            fresh = np.cumsum(z_upper[left : right - 1])
            upper[inside] = c.kappa_L + beta_upper * fresh + c.alpha_minus * g[inside]
        else:
            fresh = np.cumsum(z_lower[left : right - 1])
            lower[inside] = c.kappa_R + beta_lower * fresh + c.alpha_plus * g[inside]
    return lp._first_crossing(0, dt, g, upper, lower)


class TestGridSpec:
    def test_step_count_must_be_finite(self):
        with pytest.raises(ValueError, match=r"horizon / grid step must be finite"):
            GridSpec(1e300, 1e-300)
        # a huge but finite step count stays valid
        assert GridSpec(1e300, 1e-7).n_steps > 10**306


class TestBlockedRenewal:
    # the renewal extends its path block by block; it must find the crossing
    # of the full-horizon construction, whatever the block sizes

    def test_matches_full_horizon_reference(self):
        c = derive_constants(ModelParams(theta_b=2.0))
        grid = GridSpec(1.0, 1e-3)
        for i in range(200):
            sample = simulate_renewal_limit(c, grid, path_stream(13, i))
            direction, s_star, g = _reference_renewal(c, grid.dt, 20_000, path_stream(13, i))
            assert sample.direction == direction
            assert sample.s_star == pytest.approx(s_star, rel=1e-12, abs=0.0)
            assert sample.g_at_renewal == pytest.approx(g, rel=1e-12, abs=0.0)

    def test_block_size_does_not_change_samples(self, monkeypatch):
        c = derive_constants(ModelParams(theta_b=2.0))
        grid = GridSpec(1.0, 1e-3)
        results = []
        for first_block in (1, 7, 256, 4096):
            monkeypatch.setattr(lp, "_FIRST_BLOCK", first_block)
            results.append([simulate_renewal_limit(c, grid, path_stream(13, i))
                            for i in range(100)])
        assert all(r == results[0] for r in results[1:])

    def test_budget_exhaustion_is_named(self, monkeypatch):
        # zero doublings leave a budget of one 5-step horizon
        monkeypatch.setattr(lp, "_BUDGET_DOUBLINGS", 0)
        c = derive_constants(ModelParams(theta_b=2.0))
        with pytest.raises(RuntimeError, match="no renewal within 0 horizon doublings"):
            simulate_renewal_limit(c, GridSpec(5e-3, 1e-3), path_stream(13, 0))

    def test_time_change_reads_in_blocks(self):
        # one read and reads cut at 37, 237 and 737 give the one-shot values;
        # the one-shot's last point may clamp at the edge of its fine grid
        params = TwoSpeedParams(1.0, 2.0)
        for i in range(20):
            reference = _one_shot_time_change(params, 1000, 1e-3, path_stream(17, i))
            whole = lp._TimeChange(params, 1e-3, path_stream(17, i)).read(0, 1001)
            blocks = lp._TimeChange(params, 1e-3, path_stream(17, i))
            cut = [blocks.read(a, b + 1) for a, b in ((0, 37), (37, 237), (237, 737), (737, 1000))]
            pieces = np.concatenate([cut[0]] + [piece[1:] for piece in cut[1:]])
            assert np.array_equal(whole, pieces)
            assert np.array_equal(whole[:-1], reference[:-1])


class TestRenewalReplay:
    def test_horizon_doubling_replays_the_same_path(self):
        # 0.05 doubled six times is 3.2: a short first horizon reaches the
        # crossing through doublings, a long one finds it directly, and both
        # must report the crossing of one and the same path
        c = derive_constants(ModelParams(theta_b=2.0))
        short = GridSpec(0.05, 1e-3)
        long = GridSpec(3.2, 1e-3)
        for i in range(40):
            a = simulate_renewal_limit(c, short, path_stream(11, i))
            b = simulate_renewal_limit(c, long, path_stream(11, i))
            assert a == b


class TestPinnedStreams:
    # exact values on fixed streams, so neither the interior time change nor
    # the renewal it feeds can move unnoticed

    def test_renewal_samples(self):
        c = derive_constants(ModelParams(theta_b=2.0))
        grid = GridSpec(1.0, 1e-3)
        # 5 and 7 cross past the 1.0 horizon, in the fifth and third block
        expected = {
            0: LimitRenewalSample("up", 0.10897520858713615, 0.840438355052433),
            3: LimitRenewalSample("up", 0.07367719630161698, 0.19507624063555357),
            4: LimitRenewalSample("up", 0.2639198490782586, 0.36086400693300763),
            5: LimitRenewalSample("up", 4.741642288025958, 1.002818213456),
            7: LimitRenewalSample("down", 1.1330272704381998, -2.0811364398407903),
        }
        for i, sample in expected.items():
            assert simulate_renewal_limit(c, grid, path_stream(5, i)) == sample

    def test_time_change_path(self):
        x = sample_two_speed_timechange(TwoSpeedParams(1.0, 2.0), GridSpec(1.0, 1e-3),
                                        path_stream(3, 0))
        assert x.values[-3:].tolist() == [
            1.394424544881936, 1.4013033486517834, 1.4010869147786773
        ]


class TestTimeChangeLaw:
    # oscillating Brownian motion (Keilson & Wellner 1978) with variance
    # rates s+^2 above zero and s-^2 below sits above zero with probability
    # s- / (s+ + s-) at every time T > 0, is a martingale started at zero,
    # and so has E X_T = 0 and E X_T^2 = T (s+^2 p + s-^2 (1 - p))
    SIGMA_PLUS, SIGMA_MINUS, PATHS = 1.0, 2.0, 4000

    @pytest.fixture(scope="class")
    def endpoints(self):
        params = TwoSpeedParams(self.SIGMA_PLUS, self.SIGMA_MINUS)
        grid = GridSpec(1.0, 1e-2)
        return np.array([
            sample_two_speed_timechange(params, grid, path_stream(3, i)).values[-1]
            for i in range(self.PATHS)
        ])

    def test_positive_side_probability(self, endpoints):
        p = self.SIGMA_MINUS / (self.SIGMA_PLUS + self.SIGMA_MINUS)
        se = math.sqrt(p * (1.0 - p) / self.PATHS)
        assert abs(np.mean(endpoints > 0.0) - p) <= 4.0 * se

    def test_zero_mean(self, endpoints):
        se = endpoints.std(ddof=1) / math.sqrt(self.PATHS)
        assert abs(endpoints.mean()) <= 4.0 * se

    def test_second_moment(self, endpoints):
        p = self.SIGMA_MINUS / (self.SIGMA_PLUS + self.SIGMA_MINUS)
        expected = self.SIGMA_PLUS**2 * p + self.SIGMA_MINUS**2 * (1.0 - p)
        squares = endpoints**2
        se = squares.std(ddof=1) / math.sqrt(self.PATHS)
        assert abs(squares.mean() - expected) <= 4.0 * se

    def test_rejects_coarse_grid(self):
        # dt * max(s+, s-)^2 = 0.04 exceeds a quarter of the 0.1 horizon
        with pytest.raises(ValueError, match="grid step too coarse for the requested horizon"):
            sample_two_speed_timechange(TwoSpeedParams(1.0, 2.0), GridSpec(0.1, 0.01),
                                        path_stream(0))


class TestDecomposeExcursions:
    def test_zero_band_separates_stretches(self):
        # 0.01 lies inside the 0.05 band and splits the positive run in two
        path = GridPath(0.0, 0.1, [0.0, 1.0, 2.0, 0.01, 2.0, 1.0, 0.0])
        assert decompose_excursions(path, 0.2, zero_tol=0.05).entries == ((0, 3, 1), (3, 6, 1))
        assert decompose_excursions(path, 0.2, zero_tol=0.0).entries == ((0, 6, 1),)

    def test_endpoints_clip_at_window_edges(self):
        path = GridPath(0.0, 0.1, [-1.0, -2.0, 0.0, 1.0, 2.0])
        assert decompose_excursions(path, 0.2, zero_tol=0.0).entries == ((0, 2, -1), (2, 4, 1))

    def test_hard_sign_flip_splits(self):
        path = GridPath(0.0, 0.1, [1.0, 2.0, 3.0, -1.0, -2.0, -3.0])
        assert decompose_excursions(path, 0.2, zero_tol=0.0).entries == ((0, 3, 1), (2, 5, -1))

    def test_min_length_drops_short_stretches(self):
        path = GridPath(0.0, 0.1, [0.0, 1.0, 0.0, -1.0, -2.0, 0.0])
        assert decompose_excursions(path, 0.2, zero_tol=0.0).entries == ((0, 2, 1), (2, 5, -1))
        assert decompose_excursions(path, 0.3, zero_tol=0.0).entries == ((2, 5, -1),)

    @pytest.mark.parametrize(
        "min_length, zero_tol",
        [(0.19, None), (math.nan, None), (0.2, -1e-3), (0.2, math.inf), (0.2, math.nan)],
    )
    def test_rejects_bad_arguments(self, min_length, zero_tol):
        path = GridPath(0.0, 0.1, _VALUES)
        with pytest.raises(ValueError):
            decompose_excursions(path, min_length, zero_tol)


class TestBracketingLimits:
    def _interior(self):
        params = TwoSpeedParams(1.0, 2.0)
        return sample_two_speed_timechange(params, GridSpec(1.0, 1e-3), path_stream(7, 0))

    def test_pinned_outside_their_excursions(self):
        c = derive_constants(ModelParams(theta_b=2.0))
        gstar = self._interior()
        upper, lower = build_bracketing_limits(gstar, c, path_stream(7, 1))
        entries = decompose_excursions(gstar, 2.0 * gstar.dt).entries
        in_negative = np.zeros(len(gstar), dtype=bool)
        in_positive = np.zeros(len(gstar), dtype=bool)
        for left, right, sign in entries:
            (in_negative if sign < 0 else in_positive)[left + 1 : right] = True
        assert in_negative.any() and in_positive.any()
        assert np.all(upper.values[~in_negative] == c.kappa_L)
        assert np.all(lower.values[~in_positive] == c.kappa_R)
        assert np.any(upper.values[in_negative] != c.kappa_L)
        assert np.any(lower.values[in_positive] != c.kappa_R)

    def test_equal_seeds_give_equal_paths(self):
        c = derive_constants(ModelParams(theta_b=2.0))
        gstar = self._interior()
        upper_a, lower_a = build_bracketing_limits(gstar, c, path_stream(7, 1))
        upper_b, lower_b = build_bracketing_limits(gstar, c, path_stream(7, 1))
        assert np.array_equal(upper_a.values, upper_b.values)
        assert np.array_equal(lower_a.values, lower_b.values)


class TestOverlayLaw:
    # on a negative stretch, upper - kappa_L - alpha_minus * g is a Brownian
    # motion of variance rate (1 - rho^2) sigma_plus^2 started afresh at the
    # stretch's left end; the lower process mirrors it on positive stretches
    DT, PATHS = 0.01, 2000
    # zero at 0, 11, 22 and 33 around a negative, a positive and a second
    # negative stretch of ten points each
    SIGNS = [0] + [-1] * 10 + [0] + [1] * 10 + [0] + [-1] * 10 + [0]

    @pytest.fixture(scope="class")
    def overlays(self):
        # the model's two rates nearly agree; halving one makes a swap show
        c = derive_constants(ModelParams(theta_b=2.0))
        c = dataclasses.replace(c, sigma_minus=c.sigma_plus / 2.0)
        g = np.array(self.SIGNS) * (0.2 + 0.01 * np.arange(len(self.SIGNS)))
        path = GridPath(0.0, self.DT, g)
        pairs = [build_bracketing_limits(path, c, path_stream(19, i)) for i in range(self.PATHS)]
        upper = np.array([u.values for u, _ in pairs]) - c.kappa_L - c.alpha_minus * g
        lower = np.array([lo.values for _, lo in pairs]) - c.kappa_R - c.alpha_plus * g
        return c, upper, lower

    def _check(self, x, rate, steps):
        n = x.size
        assert abs(x.mean()) <= 4.0 * x.std(ddof=1) / math.sqrt(n)
        squares = (x - x.mean()) ** 2
        expected = rate * steps * self.DT
        assert abs(squares.mean() - expected) <= 4.0 * squares.std(ddof=1) / math.sqrt(n)

    def test_upper_side(self, overlays):
        c, upper, _ = overlays
        rate = (1.0 - c.rho**2) * c.sigma_plus**2
        for index, steps in ((1, 1), (5, 5), (10, 10), (23, 1), (32, 10)):
            self._check(upper[:, index], rate, steps)

    def test_lower_side(self, overlays):
        c, _, lower = overlays
        rate = (1.0 - c.rho**2) * c.sigma_minus**2
        for index, steps in ((12, 1), (16, 5), (21, 10)):
            self._check(lower[:, index], rate, steps)


# zero at indices 0, 3, 6 and 8: one positive, one negative and one short
# positive stretch
_VALUES = [0.0, 1.0, 2.0, 0.0, -1.0, -2.0, 0.0, 3.0, 0.0]


class TestExcursionList:
    def test_accepts_the_decomposition(self):
        path = GridPath(0.0, 0.5, _VALUES)
        entries = ((0, 3, 1), (3, 6, -1), (6, 8, 1))
        excursions = ExcursionList(path, entries)
        assert excursions.entries == entries
        assert np.array_equal(excursions.lengths, [1.5, 1.5, 1.0])
        assert decompose_excursions(path, 1.0, zero_tol=1e-12).entries == entries

    @pytest.mark.parametrize(
        "entries",
        [
            ((0, 3, 0),),                  # sign not +1 or -1
            ((-1, 3, 1),),                 # left before the grid
            ((3, 9, -1),),                 # right past the last index
            ((3, 3, -1),),                 # empty interval
            ((6, 7, 1),),                  # shorter than two steps
            ((0, 3, -1),),                 # interior has the other sign
            ((2, 5, 1),),                  # interior crosses zero
            ((3, 6, -1), (0, 3, 1)),       # out of order
            ((0, 3, 1), (1, 3, 1)),        # overlapping interiors
        ],
    )
    def test_rejects_bad_entries(self, entries):
        path = GridPath(0.0, 0.5, _VALUES)
        with pytest.raises(ValueError):
            ExcursionList(path, entries)

