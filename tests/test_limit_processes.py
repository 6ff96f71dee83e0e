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
    renewal_down_prob,
    sample_two_speed_timechange,
    simulate_renewal_limit,
)


def _exact_interior(params, dt, z):
    # the whole horizon at once: W by one cumsum, then each touch's sign
    # written over every point after it, until a later touch overwrites it
    w = np.concatenate(([0.0], np.cumsum(z[:, 0] * math.sqrt(dt))))
    e = 0.5 * (z[:, 1] * z[:, 1] + z[:, 2] * z[:, 2])
    bound = 2.0 * np.maximum(w[:-1] * w[1:], 0.0) / dt
    log_inv_p = math.log((params.sigma_plus + params.sigma_minus) / params.sigma_minus)
    signs = np.ones(w.size)
    for i in np.flatnonzero(e > bound):
        signs[i + 1 :] = 1.0 if e[i] - bound[i] > log_inv_p else -1.0
    return np.abs(w) * np.where(signs > 0.0, params.sigma_plus, -params.sigma_minus)


def _one_shot_time_change(params, n_steps, dt, rng):
    return _exact_interior(params, dt, rng.standard_normal((n_steps, 3)))


def _reference_renewal(c, dt, n_steps, rng):
    # full-horizon renewal: the whole interior at once, full-length side
    # normals, the overlay written stretch by stretch over the excursions
    z = rng.standard_normal((n_steps, 5))
    g = _exact_interior(TwoSpeedParams(c.sigma_plus, c.sigma_minus), dt, z)
    z_upper = z[:, 3]
    z_lower = z[:, 4]
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
        # one extension and extensions cut at 37, 237 and 737 give the
        # one-shot values at every point, and so does the public sampler
        params = TwoSpeedParams(1.0, 2.0)
        for i in range(20):
            reference = _one_shot_time_change(params, 1000, 1e-3, path_stream(17, i))
            z = path_stream(17, i).standard_normal((1000, 3))
            whole = lp._Interior(params, 1e-3).extend(z)
            blocks = lp._Interior(params, 1e-3)
            cut = [blocks.extend(z[a:b]) for a, b in ((0, 37), (37, 237), (237, 737), (737, 1000))]
            pieces = np.concatenate([cut[0]] + [piece[1:] for piece in cut[1:]])
            sampled = sample_two_speed_timechange(params, GridSpec(1.0, 1e-3), path_stream(17, i))
            assert np.array_equal(whole, pieces)
            assert np.array_equal(whole, reference)
            assert np.array_equal(sampled.values, reference)


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


class TestGenerators:
    def test_samplers_accept_a_generator_that_cannot_spawn(self):
        # a bit generator built from a key has no seed sequence to spawn from
        rng = np.random.Generator(np.random.Philox(key=1))
        c = derive_constants(ModelParams(theta_b=2.0))
        grid = GridSpec(1.0, 1e-3)
        gstar = sample_two_speed_timechange(TwoSpeedParams(1.0, 2.0), grid, rng)
        upper, lower = build_bracketing_limits(gstar, c, rng)
        assert len(upper) == len(lower) == len(gstar) == grid.n_steps + 1
        assert isinstance(simulate_renewal_limit(c, grid, rng), LimitRenewalSample)


class TestAgreesWithAnalytics:
    # the limit_renewal gate's band: 4 binomial SE plus the grid's bias
    # allowance, restated from LIMIT_GRID_ALLOWANCE in perfbench/workloads.py
    LIMIT_GRID_ALLOWANCE, RENEWALS = 0.02, 4000

    def test_down_fraction(self):
        c = derive_constants(ModelParams(theta_b=2.0))
        grid = GridSpec(1.0, 1e-3)
        down = sum(simulate_renewal_limit(c, grid, path_stream(29, i)).direction == "down"
                   for i in range(self.RENEWALS))
        p = renewal_down_prob(c)
        se = math.sqrt(p * (1.0 - p) / self.RENEWALS)
        assert abs(down / self.RENEWALS - p) <= 4.0 * se + self.LIMIT_GRID_ALLOWANCE


class TestPinnedStreams:
    # exact values on fixed streams, so neither the interior sampler nor
    # the renewal it feeds can move unnoticed

    def test_renewal_samples(self):
        c = derive_constants(ModelParams(theta_b=2.0))
        grid = GridSpec(1.0, 1e-3)
        # 0 and 15 cross in the second block; 7 and 42 cross past the 1.0
        # horizon, in the third and fourth block
        expected = {
            0: LimitRenewalSample("down", 0.2776132063960804, -0.5293464927957507),
            7: LimitRenewalSample("down", 1.0209462810962038, -3.677100688391355),
            11: LimitRenewalSample("up", 0.2027090309148921, 0.5084106993746704),
            15: LimitRenewalSample("up", 0.5806703050519533, 1.167588277617054),
            42: LimitRenewalSample("down", 1.9717629179107679, -0.22727721956380892),
        }
        for i, sample in expected.items():
            assert simulate_renewal_limit(c, grid, path_stream(5, i)) == sample

    def test_time_change_path(self):
        x = sample_two_speed_timechange(TwoSpeedParams(1.0, 2.0), GridSpec(1.0, 1e-3),
                                        path_stream(3, 0))
        assert x.values[-3:].tolist() == [
            -1.1843683584168874, -1.2280920439375083, -1.3193395755355046
        ]


class TestTimeChangeLaw:
    # oscillating Brownian motion (Keilson & Wellner 1978) with variance
    # rates s+^2 above zero and s-^2 below sits above zero with probability
    # s- / (s+ + s-) at every time T > 0, is a martingale started at zero,
    # and so has E X_T = 0 and E X_T^2 = T (s+^2 p + s-^2 (1 - p))
    SIGMA_PLUS, SIGMA_MINUS, PATHS, DT = 1.0, 2.0, 4000, 1e-2

    @pytest.fixture(scope="class")
    def endpoints(self):
        params = TwoSpeedParams(self.SIGMA_PLUS, self.SIGMA_MINUS)
        grid = GridSpec(1.0, self.DT)
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



class TestTimeChangeLawCoarseGrid(TestTimeChangeLaw):
    # the sampler is exact at the grid points, so the law holds at any step
    DT = 0.5


class TestDecomposeExcursions:
    # at dt = 0.1 the zero band is sqrt(0.1) / 10 = 0.0316

    def test_zero_band_separates_stretches(self):
        # 0.01 lies inside the band and splits the positive run in two
        path = GridPath(0.0, 0.1, [0.0, 1.0, 2.0, 0.01, 2.0, 1.0, 0.0])
        assert decompose_excursions(path, 0.2).entries == ((0, 3, 1), (3, 6, 1))

    def test_endpoints_clip_at_window_edges(self):
        path = GridPath(0.0, 0.1, [-1.0, -2.0, 0.0, 1.0, 2.0])
        assert decompose_excursions(path, 0.2).entries == ((0, 2, -1), (2, 4, 1))

    def test_hard_sign_flip_splits(self):
        path = GridPath(0.0, 0.1, [1.0, 2.0, 3.0, -1.0, -2.0, -3.0])
        assert decompose_excursions(path, 0.2).entries == ((0, 3, 1), (2, 5, -1))

    def test_min_length_drops_short_stretches(self):
        path = GridPath(0.0, 0.1, [0.0, 1.0, 0.0, -1.0, -2.0, 0.0])
        assert decompose_excursions(path, 0.2).entries == ((0, 2, 1), (2, 5, -1))
        assert decompose_excursions(path, 0.3).entries == ((2, 5, -1),)

    @pytest.mark.parametrize("min_length", [0.19, math.nan])
    def test_rejects_bad_arguments(self, min_length):
        path = GridPath(0.0, 0.1, _VALUES)
        with pytest.raises(ValueError):
            decompose_excursions(path, min_length)


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
        # the zero band at dt = 0.5 is 0.0707, so the zeros are the only endpoints
        assert decompose_excursions(path, 1.0).entries == entries

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

