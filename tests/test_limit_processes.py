import csv
import io

import numpy as np
import pytest

from loblab import (
    ExcursionList,
    GridPath,
    GridSpec,
    ModelParams,
    decompose_excursions,
    derive_constants,
    excursion_list_to_csv,
    grid_path_to_csv,
    path_stream,
    phi_coupling,
    simulate_renewal_limit,
    skorohod_map,
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


class TestSkorohodMap:
    @pytest.mark.parametrize("seed, start", [(1, 0.0), (2, 0.3), (3, -0.2)])
    def test_reflection_invariants(self, seed, start):
        z = _walk(np.random.default_rng(seed), 2000, 1e-3, start)
        gamma = skorohod_map(z).values
        reflected = z.values + gamma
        assert np.all(gamma >= 0.0)
        assert np.all(np.diff(gamma) >= 0.0)
        assert np.all(reflected >= 0.0)
        # the reflection term moves only while the reflected path sits at zero
        rises = np.flatnonzero(np.diff(gamma) > 0.0) + 1
        assert rises.size > 0
        assert np.all(reflected[rises] == 0.0)


class TestPhiCoupling:
    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_split_clock_invariants(self, seed):
        rng = np.random.default_rng(seed)
        dt = 1e-3
        z_plus = _walk(rng, 1500, dt)
        z_minus = GridPath(0.0, dt, 2.0 * _walk(rng, 1500, dt).values)
        p_plus, p_minus = phi_coupling(z_plus, z_minus)
        theta = dt * np.arange(len(z_plus))
        np.testing.assert_allclose(p_plus.values + p_minus.values, theta,
                                   rtol=0.0, atol=1e-12)
        for p in (p_plus, p_minus):
            assert p.values[0] == 0.0
            steps = np.diff(p.values) / dt
            assert np.all(np.isclose(steps, 0.0, atol=1e-9)
                          | np.isclose(steps, 1.0, atol=1e-9))

    def test_matches_the_defining_maximiser(self):
        # p_plus(theta_i) / dt is the largest k <= i whose reflection term of
        # z_plus does not exceed that of z_minus at i - k
        rng = np.random.default_rng(7)
        dt = 1e-2
        z_plus = _walk(rng, 300, dt)
        z_minus = _walk(rng, 300, dt)
        g_plus = skorohod_map(z_plus).values
        g_minus = skorohod_map(z_minus).values
        expected = [max(k for k in range(i + 1) if g_plus[k] <= g_minus[i - k])
                    for i in range(len(z_plus))]
        p_plus, _ = phi_coupling(z_plus, z_minus)
        assert np.array_equal(np.rint(p_plus.values / dt).astype(int), expected)


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
