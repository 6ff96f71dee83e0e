import csv
import io
import math

import numpy as np
import pytest

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
    excursion_list_to_csv,
    grid_path_to_csv,
    path_stream,
    sample_two_speed_timechange,
    simulate_renewal_limit,
)


def _walk(rng, n, dt, start=0.0):
    values = np.empty(n + 1)
    values[0] = start
    np.cumsum(rng.standard_normal(n) * np.sqrt(dt), out=values[1:])
    values[1:] += start
    return GridPath(0.0, dt, values)


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

    @pytest.mark.parametrize("max_doublings", [1.5, "2", None, -1])
    def test_rejects_bad_doubling_budget(self, max_doublings):
        c = derive_constants(ModelParams(theta_b=2.0))
        with pytest.raises(ValueError, match="max_doublings must be a non-negative integer"):
            simulate_renewal_limit(c, GridSpec(1.0, 1e-3), path_stream(0), max_doublings)


class TestPinnedStreams:
    # exact values on fixed streams, so neither the interior time change nor
    # the renewal it feeds can move unnoticed

    def test_renewal_samples(self):
        c = derive_constants(ModelParams(theta_b=2.0))
        grid = GridSpec(1.0, 1e-3)
        expected = {
            0: LimitRenewalSample("down", 0.28869871323045626, -0.291706495987681),
            3: LimitRenewalSample("up", 0.0969913077962714, 0.5763638976731777),
            4: LimitRenewalSample("down", 0.09387075690300645, -0.1680186363391704),
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


class TestCsv:
    def test_grid_path_round_trip(self):
        path = _walk(np.random.default_rng(8), 50, 0.1)
        buf = io.StringIO()
        grid_path_to_csv(path, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == ["t", "value"]
        back = np.array(rows[1:], dtype=float)
        assert np.array_equal(back[:, 0], path.times)
        assert np.array_equal(back[:, 1], path.values)

    def test_excursion_list_round_trip(self):
        excursions = ExcursionList(GridPath(0.0, 0.5, _VALUES),
                                   ((0, 3, 1), (3, 6, -1), (6, 8, 1)))
        buf = io.StringIO()
        excursion_list_to_csv(excursions, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == ["left", "right", "sign", "length"]
        assert [tuple(int(x) for x in r[:3]) for r in rows[1:]] == list(excursions.entries)
        assert np.array_equal([float(r[3]) for r in rows[1:]], excursions.lengths)
