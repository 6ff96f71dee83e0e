import math

import numpy as np
import pytest
from scipy import integrate, special

from loblab import (
    ModelParams,
    analytics,
    derive_constants,
    identity_7_62,
    p_vstar_density,
    p_vstar_total,
    p_ystar_density,
    p_ystar_total,
    renewal_cf,
    renewal_down_prob,
    renewal_intensities,
)
from loblab.analytics import (
    FLAG_SERIES_CAP,
    FLAG_TAIL,
    _ABS_TOL,
    _TABLE_Z,
    _TAIL_CUT,
    _cf_side,
    _cf_table,
    _filon_integral,
    _filon_kernel,
    _hit_density_core,
    _hit_sides,
    _inner_edges,
    _legendre_moments,
    _osc_power_tail,
    _wedge_cut,
    _wedge_series,
    _wedge_sum,
)

# the benchmark's three analytic models and the mirror image of the last
SWEEP_MODELS = {
    "symmetric": ModelParams(),
    "asym_theta_b": ModelParams(theta_b=2.0),
    "asym_full": ModelParams(a=1.2, b=1.7, lambda0=2.0, theta_b=2.0, theta_s=0.5),
    "mirror": ModelParams(a=1.7, b=1.2, lambda0=1.2 * 2.0 / 1.7,
                          theta_b=0.5, theta_s=2.0),
}


def side_numerator(tab, alpha):
    """Reference for one side: the transform of the joint hit-time and
    length law on the side's own hit-time grid, with its own kernel."""
    kernel = _filon_kernel(tab.s_h, tab.s_m, alpha)
    return tab.weight * _filon_integral(kernel, tab.s_coefs)


def side_denominator_part(tab, alpha):
    """Reference for one side: the transform of the hit probability
    against the length measure, with the length grid's own kernel and the
    side's own tail term."""
    kernel = _filon_kernel(tab.l_h, tab.l_m, alpha)
    finite = _filon_integral(kernel, tab.l_coefs)
    tail = tab.ptot_far * _osc_power_tail(alpha, _TAIL_CUT[1])
    return tab.weight * (finite + tail)


def exact_series(z, w, nu_step):
    """The wedge series summed by the table's own filler under the module's
    order cap, as (values, converged)."""
    vals, capped = _wedge_series(z, w, nu_step, analytics._SERIES_TERMS_MAX)
    return vals, not capped.any()


@pytest.fixture(scope="module")
def constants():
    return derive_constants(ModelParams())


@pytest.fixture(scope="module")
def mirror_pair():
    """An asymmetric model and its mirror image, which swaps buy and sell:
    the mirror's v side is the model's y side and the other way round."""
    model = ModelParams(a=1.2, b=1.7, lambda0=2.0, theta_b=2.0, theta_s=0.5)
    mirror = ModelParams(a=1.7, b=1.2, lambda0=1.2 * 2.0 / 1.7,
                         theta_b=0.5, theta_s=2.0)
    return derive_constants(model), derive_constants(mirror)


@pytest.fixture
def series_cap(monkeypatch):
    """Set the per-point Bessel-series cap; the cached side tables are
    cleared before and after, so a capped table never leaks into another
    test."""
    def set_cap(terms):
        _cf_side.cache_clear()
        monkeypatch.setattr(analytics, "_SERIES_TERMS_MAX", terms)
    yield set_cap
    _cf_side.cache_clear()


class TestWedgeSeries:
    # opening of the default model's wedge, so the order step is realistic
    NU_STEP = math.pi / (2.0 * 0.9625507478846870011)
    # large and tiny arguments side by side, with damping factors
    # exp(z - w) from one down to underflow
    Z = np.array([500.0, 480.0, 1e-3, 2e-3, 1.0, 1.0, 5.0, 300.0])
    W = np.array([500.0, 520.0, 1e-3, 0.5, 800.0, 2000.0, 5.2, 1100.0])

    def test_batch_equals_points_alone(self):
        vals, ok = exact_series(self.Z, self.W, self.NU_STEP)
        assert ok
        for i in range(self.Z.size):
            alone, ok_i = exact_series(self.Z[i:i + 1], self.W[i:i + 1],
                                       self.NU_STEP)
            assert ok_i
            assert alone[0] == vals[i]

    def test_matches_full_sum(self):
        vals, _ = exact_series(self.Z, self.W, self.NU_STEP)
        ns = np.arange(1, 201, dtype=float)
        coef = np.where(ns % 2 == 1, 1.0, -1.0) * ns * ns
        ref = (coef[:, None] * special.ive(ns[:, None] * self.NU_STEP, self.Z)
               * np.exp(self.Z - self.W)).sum(axis=0)
        tol = 10.0 * _ABS_TOL * (1.0 + np.abs(ref))
        assert np.all(np.abs(vals - ref) <= tol)

    def test_cap_is_per_point(self, series_cap):
        # the small-argument point converges in a few orders; only the
        # large one runs into a cap of 12
        series_cap(12)
        z = np.array([1e-3, 500.0])
        w = np.array([1e-3, 500.0])
        _, ok_small = exact_series(z[:1], w[:1], self.NU_STEP)
        _, ok_both = exact_series(z, w, self.NU_STEP)
        assert ok_small
        assert not ok_both


class TestWedgeTable:
    # order steps from below the admissible range (every model has rho < 0,
    # so its step exceeds one) to a narrow wedge, the benchmark's two in
    # between
    NU_STEPS = (0.55, 1.0, 1.545, 1.632, 3.0, 8.0)
    NU_STEP = TestWedgeSeries.NU_STEP
    LO, HI = _TABLE_Z
    # points below the table's range, then log-spaced over it
    Z = np.concatenate([np.geomspace(1e-22, LO, 40, endpoint=False),
                        np.geomspace(LO, HI, 4000)])

    @pytest.mark.parametrize("nu", NU_STEPS)
    def test_agrees_with_exact_series(self, nu):
        table, ok = _wedge_sum(self.Z, self.Z, nu)
        exact, ok_exact = exact_series(self.Z, self.Z, nu)
        assert ok and ok_exact
        # the exact series stops once its terms fall under _ABS_TOL, so at
        # small steps and large z it carries a truncation error of its own,
        # measured here against all 400 orders; the table's nodes carry the
        # same kind, so the two may differ by a few times that
        ns = np.arange(1, 401, dtype=float)
        coef = np.where(ns % 2 == 1, 1.0, -1.0) * ns * ns
        full = (coef[:, None] * special.ive(ns[:, None] * nu, self.Z)).sum(axis=0)
        truncation = np.max(np.abs(exact - full))
        tol = 1e-14 * (1.0 + np.abs(exact)) + 4.0 * truncation
        assert np.all(np.abs(table - exact) <= tol)

    @pytest.mark.parametrize("nu", [nu for nu in NU_STEPS if nu >= 1.0])
    def test_relative_error_near_zero(self, nu):
        # the clamp below the range included: the neglected terms are
        # O(z) and O((z/2)^nu), under 1e-16 relative at the range's end
        z = self.Z[self.Z <= 1.0]
        table, _ = _wedge_sum(z, z, nu)
        exact, _ = exact_series(z, z, nu)
        assert np.all(exact > 0.0)
        assert np.all(np.abs(table - exact) <= 1e-13 * exact)

    def test_above_cut_is_zero(self):
        # above z*(nu) a point is never summed: exactly 0 and converged,
        # damped or not and however large, with no floating-point warning;
        # the cut is 40 for the benchmark's steps and grows as 10 nu^2
        for nu in (self.NU_STEP, 3.0, 5.0):
            cut = _wedge_cut(nu)
            z = np.array([cut * 1.0001, 75.0 * cut, 480.0 * cut, 1e300])
            w = z + np.array([0.0, 5.0, 40.0, 0.0])
            with np.errstate(all="raise"):
                vals, ok = _wedge_sum(z, w, nu)
            assert ok
            assert np.array_equal(vals, np.zeros(z.size))
        cuts = [_wedge_cut(nu) for nu in (1.545, 1.632, 2.0, 3.0)]
        assert cuts == [40.0, 40.0, 40.0, 90.0]

    @pytest.mark.parametrize("nu", (2.5, 3.0, 8.0))
    def test_panels_above_40_agree_with_exact_series(self, nu):
        # a cut above _TABLE_Z[1] adds panels of the same width up to it;
        # same tolerance as on the base range
        z = np.geomspace(self.HI, _wedge_cut(nu), 1000)
        table, ok = _wedge_sum(z, z, nu)
        exact, ok_exact = exact_series(z, z, nu)
        assert ok and ok_exact
        ns = np.arange(1, 401, dtype=float)
        coef = np.where(ns % 2 == 1, 1.0, -1.0) * ns * ns
        full = (coef[:, None] * special.ive(ns[:, None] * nu, z)).sum(axis=0)
        truncation = np.max(np.abs(exact - full))
        tol = 1e-14 * (1.0 + np.abs(exact)) + 4.0 * truncation
        assert np.all(np.abs(table - exact) <= tol)

    def test_batch_equals_points_alone(self):
        # below, inside and above the range, damped and undamped
        z = np.array([1e-20, 1e-3, 0.7, 12.0, self.HI, 75.0, 0.7, 300.0])
        w = np.array([1e-20, 1e-3, 0.9, 12.0, self.HI, 80.0, 40.0, 1100.0])
        vals, ok = _wedge_sum(z, w, self.NU_STEP)
        assert ok
        for i in range(z.size):
            alone, ok_i = _wedge_sum(z[i:i + 1], w[i:i + 1], self.NU_STEP)
            assert ok_i
            assert alone[0] == vals[i]

    def test_cap_is_per_panel(self, series_cap):
        # under a cap of 6 the nodes near z = 1e-3 converge and those near
        # z = 30 do not; a point above the cut is never summed, so it
        # reports no cap
        series_cap(6)
        _, ok_small = _wedge_sum(np.array([1e-3]), np.array([1e-3]), self.NU_STEP)
        _, ok_mid = _wedge_sum(np.array([1e-3, 30.0]), np.array([1e-3, 30.0]),
                               self.NU_STEP)
        _, ok_far = _wedge_sum(np.array([1e-3, 500.0]), np.array([1e-3, 500.0]),
                               self.NU_STEP)
        assert ok_small
        assert not ok_mid
        assert ok_far


class TestWedgeCut:
    """The cut z*(nu) is certified against the true series at 60 digits."""

    # order steps from a wide wedge to a narrow one; 2 is where the cut's
    # decay exponent z* (1 - cos(pi/nu)) is least
    NU_STEPS = (1.05, 1.545, 1.632, 2.0, 2.5, 3.0, 5.0)
    # absolute tolerance on a hit density, for sides whose st2 / kappa^2 is
    # at most SCALE (the benchmark models' sides reach 16.8)
    DENSITY_TOL = 1e-11
    SCALE = 20.0

    @staticmethod
    def true_series(mp, nu, z):
        """K(z) = sum_n (-1)^(n-1) n^2 ive(n nu, z) at 60 digits, summed
        until a term past the Gaussian bulk (n nu > sqrt(z)) is under
        1e-70."""
        with mp.workdps(60):
            nu, z = mp.mpf(nu), mp.mpf(z)
            damp = mp.exp(-z)
            total, n = mp.mpf(0), 1
            while True:
                term = n * n * mp.besseli(n * nu, z) * damp
                total += term if n % 2 else -term
                if n * nu > mp.sqrt(z) and term < mp.mpf(10) ** -70:
                    return float(total)
                n += 1

    @staticmethod
    def density_factor(nu, scale):
        """Supremum over (s, ell) at a given z of the hit density's
        prefactor times exp(z - w), divided by sqrt(z), for a side with
        st2 / kappa^2 = scale and wedge opening pi / (2 nu)."""
        alpha = math.pi / (2.0 * nu)
        return (math.sqrt(2.0 * math.pi) * math.pi ** 2 * math.sin(alpha)
                / alpha ** 3 * scale)

    @pytest.mark.parametrize("nu", NU_STEPS)
    def test_true_density_above_cut_is_within_tolerance(self, nu):
        # about 2 s for the seven steps together
        mp = pytest.importorskip("mpmath")
        zs = _wedge_cut(nu) * np.array([1.0, 1.25, 1.5, 2.0])
        bounds = [self.density_factor(nu, self.SCALE) * math.sqrt(z)
                  * abs(self.true_series(mp, nu, z)) for z in zs]
        assert max(bounds) <= self.DENSITY_TOL
        # K keeps falling above the cut, down to the 60-digit sum's noise
        assert all(b <= max(a, 1e-45) for a, b in zip(bounds, bounds[1:]))

    def test_density_factor_bounds_the_module_prefactor(self, monkeypatch):
        # with the series replaced by exp(z - w), the density core returns
        # the prefactor times exp(z - w); it stays under the stated
        # supremum at every point above the cut, on each benchmark side
        def unit_series(z, w, nu_step):
            return np.exp(np.asarray(z) - np.asarray(w)), True

        monkeypatch.setattr(analytics, "_wedge_sum", unit_series)
        ell = np.geomspace(1e-4, 1e3, 300)[:, None]
        s = ell * np.geomspace(1e-9, 1.0 - 1e-9, 400)
        for model in SWEEP_MODELS.values():
            c = derive_constants(model)
            for kappa, st2, _ in _hit_sides(c):
                kappa = abs(kappa)
                alpha = math.atan2(math.sqrt(1.0 - c.rho ** 2), -c.rho)
                nu = math.pi / (2.0 * alpha)
                assert st2 / kappa ** 2 <= self.SCALE
                qq = kappa * kappa / (2.0 * st2 * s)
                z = qq * (ell - s) / (2.0 * (ell - s * c.rho ** 2))
                far = z > _wedge_cut(nu)
                assert far.sum() > 1000
                pref, _ = _hit_density_core(s, ell, kappa, st2, c.rho)
                bound = self.density_factor(nu, st2 / kappa ** 2) * np.sqrt(z)
                assert np.all(pref[far] <= bound[far] * (1.0 + 1e-12))

    def test_public_density_at_a_far_point(self):
        # z = 43 here, above the cut of nu = 1.632; the true density is
        # 2.3e-29 (mpmath), where the exact series used to give 2.5e-7
        c = derive_constants(ModelParams(theta_b=2.0))
        val = p_vstar_density(2.7534e-4, 9.9706e-4, c)
        assert abs(val - 2.3e-29) <= self.DENSITY_TOL


class TestPanelTables:
    def test_edges_for_many_lengths_match_one_at_a_time(self):
        ells = np.geomspace(1e-4, 1e3, 60)
        for lo in (3e-3, 1e-6):
            table = _inner_edges(lo, ells)
            for ell, row in zip(ells, table):
                assert np.array_equal(row, _inner_edges(lo, float(ell)))

    def test_moments_match_one_order_at_a_time(self):
        c = np.concatenate([-np.geomspace(1e-3, 200.0, 40), [0.0],
                            np.geomspace(1e-3, 200.0, 40)])
        mom = _legendre_moments(c)
        for k in range(mom.shape[1]):
            ref = 2.0 * 1j ** k * special.spherical_jn(k, np.abs(c))
            ref[c < 0] = np.conj(ref[c < 0])
            assert np.array_equal(mom[:, k], ref)


class TestHitDensities:
    @pytest.mark.parametrize(
        "s, ell, ref",
        [
            # fixed-precision references computed at 50 significant digits
            (0.4, 1.0, 0.2906641295405466014598),
            (0.05, 1.0, 7.590856876665251824778),
            (0.95, 1.0, 0.01694390186219174754924),
            (2.0, 6.0, 0.01121148979041624333498),
        ],
    )
    def test_reference_values(self, constants, s, ell, ref):
        assert p_vstar_density(s, ell, constants) == pytest.approx(ref, rel=1e-12)

    def test_symmetric_sides_agree_exactly(self, constants):
        for s, ell in [(0.05, 1.0), (0.4, 1.0), (2.0, 6.0)]:
            assert (p_ystar_density(s, ell, constants)
                    == p_vstar_density(s, ell, constants))

    def test_vanishes_at_excursion_end(self, constants):
        vals = [p_vstar_density(s, 1.0, constants)
                for s in (0.9, 0.99, 0.999, 0.9999)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    def test_rejects_bad_times(self, constants):
        for s, ell in [(0.0, 1.0), (1.0, 1.0), (1.5, 1.0), (0.5, 0.0),
                       (1.0, math.inf), (math.nan, 1.0)]:
            with pytest.raises(ValueError):
                p_vstar_density(s, ell, constants)
        for ell in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                p_vstar_total(ell, constants)


class TestDensityBlocks:
    @pytest.fixture
    def side(self, constants):
        (kappa, st2, _), _ = _hit_sides(constants)
        return kappa, st2, constants.rho

    def test_blocks_match_one_call(self, side, monkeypatch):
        # 37 rows of 50 points; blocks of 3 rows leave a last block of one
        ell = np.geomspace(1e-3, 10.0, 37)[:, None]
        s = ell * np.linspace(1e-3, 0.999, 50)
        monkeypatch.setattr(analytics, "_DENSITY_BLOCK", 10 ** 9)
        whole, ok_whole = _hit_density_core(s, ell, *side)
        monkeypatch.setattr(analytics, "_DENSITY_BLOCK", 150)
        blocked, ok = _hit_density_core(s, ell, *side)
        assert ok_whole and ok
        assert np.array_equal(blocked, whole)
        # one axis, the length a scalar: blocks of 7 points
        monkeypatch.setattr(analytics, "_DENSITY_BLOCK", 7)
        row, ok_row = _hit_density_core(s[-1], float(ell[-1, 0]), *side)
        assert ok_row
        assert np.array_equal(row, whole[-1])

    def test_cap_in_one_block_fails_the_call(self, side, series_cap,
                                             monkeypatch):
        # under a cap of 6 the panels near z = 30 fail and those at
        # z = 0.05 or less do not; only the first of three blocks holds a
        # point near 30
        series_cap(6)
        monkeypatch.setattr(analytics, "_DENSITY_BLOCK", 3)
        kappa, st2, _ = side
        s_mid = kappa * kappa / (4.0 * st2 * 30.0)
        s = np.concatenate([[s_mid], np.linspace(0.6, 0.95, 6)])
        _, ok_rest = _hit_density_core(s[1:], 1.0, *side)
        _, ok_all = _hit_density_core(s, 1.0, *side)
        assert ok_rest
        assert not ok_all


class TestHitTotals:
    @pytest.mark.parametrize(
        "ell, ref",
        [
            # adaptive-quadrature references over the verified density
            # (two independent integrators agree to 4e-10)
            (1.0, 0.912483616464),
            (4.0, 0.980774812642),
        ],
    )
    def test_reference_values(self, constants, ell, ref):
        assert p_vstar_total(ell, constants) == pytest.approx(ref, rel=1e-7)
        assert p_ystar_total(ell, constants) == pytest.approx(ref, rel=1e-7)

    def test_monotone_and_bounded(self, constants):
        prev = 0.0
        for ell in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
            val = p_vstar_total(ell, constants)
            assert 0.0 <= val <= 1.0
            assert val >= prev
            prev = val

    def test_small_length_envelope(self, constants):
        # short excursions: bounded by the free-component reflection regime
        st2 = (1.0 - constants.rho ** 2) * constants.sigma_plus ** 2
        for ell in (0.01, 0.02, 0.05):
            bound = math.exp(-constants.kappa_L ** 2 / (4.0 * st2 * ell))
            assert p_vstar_total(ell, constants) <= bound


class TestRenewalIntensities:
    def test_symmetric_model_gives_equal_rates(self, constants):
        lam_minus, lam_plus = renewal_intensities(constants)
        assert lam_minus == lam_plus
        assert lam_minus > 0.0
        assert math.isfinite(lam_minus)

    def test_regression_value(self, constants):
        lam_minus, _ = renewal_intensities(constants)
        assert lam_minus == pytest.approx(1.1367733690588226, rel=1e-6)

    def test_tail_uncertainty_is_reported(self, constants):
        flags = []
        renewal_intensities(constants, flags=flags)
        assert FLAG_TAIL in flags

    def test_agrees_with_transform_table(self):
        # independent reference: adaptive quadrature of the hit probability
        # against the excursion-length measure over the tail cut, plus the
        # frozen power tail beyond it
        lmin, lmax = _TAIL_CUT
        pts = [0.01, 0.05, 0.2, 1.0, 5.0, 25.0, 125.0]
        for model in (ModelParams(), ModelParams(theta_b=2.0)):
            c = derive_constants(model)
            lam_minus, _ = renewal_intensities(c)
            mid, _ = integrate.quad(
                lambda ell: p_vstar_total(ell, c) / math.sqrt(2.0 * math.pi * ell ** 3),
                lmin, lmax, points=pts, limit=200, epsabs=1e-10, epsrel=1e-7)
            far = p_vstar_total(lmax, c) * math.sqrt(2.0 / math.pi) / math.sqrt(lmax)
            ref = (mid + far) / c.sigma_minus
            assert lam_minus == pytest.approx(ref, rel=1e-6)

    def test_term_cap_is_flagged(self, constants, series_cap):
        default_cap = analytics._SERIES_TERMS_MAX
        series_cap(2)
        flags = []
        renewal_intensities(constants, flags=flags)
        assert FLAG_SERIES_CAP in flags
        series_cap(default_cap)
        flags = []
        renewal_intensities(constants, flags=flags)
        assert FLAG_SERIES_CAP not in flags

    def test_symmetric_model_builds_one_side(self, constants):
        tables = _cf_table(constants)
        assert tables[0] is tables[1]


class TestRenewalDownProb:
    def test_symmetric_model_is_exactly_half(self, constants):
        assert renewal_down_prob(constants) == 0.5

    def test_complement_identity(self, constants):
        lam_minus, lam_plus = renewal_intensities(constants)
        down = lam_minus / (lam_minus + lam_plus)
        up = lam_plus / (lam_minus + lam_plus)
        assert down + up == pytest.approx(1.0, abs=1e-15)

    def test_doubled_buy_cancellation_scaling(self):
        # halving the left start gap doubles the down intensity by Brownian
        # scaling (length measure has a 3/2 power law), so the down
        # probability must be exactly 2/3
        c2 = derive_constants(ModelParams(theta_b=2.0))
        assert c2.kappa_L == pytest.approx(0.375, abs=0)
        assert renewal_down_prob(c2) == pytest.approx(2.0 / 3.0, abs=5e-7)
        assert renewal_down_prob(c2) > 0.5


    def test_mirror_model_swaps_directions(self, mirror_pair):
        c, cm = mirror_pair
        down = renewal_down_prob(c)
        assert 0.0 < down < 0.5
        assert abs(down + renewal_down_prob(cm) - 1.0) <= 1e-15
        lam_minus, lam_plus = renewal_intensities(c)
        m_minus, m_plus = renewal_intensities(cm)
        assert lam_minus == pytest.approx(m_plus, rel=1e-12)
        assert lam_plus == pytest.approx(m_minus, rel=1e-12)


class TestRenewalCf:
    def test_at_zero_is_exactly_one(self, constants):
        assert renewal_cf(0.0, constants) == (1.0 + 0.0j, 1.0 + 0.0j, 1.0 + 0.0j)

    @pytest.mark.parametrize("alpha", [0.25, 1.0, 4.0])
    def test_conjugate_symmetry_and_modulus(self, constants, alpha):
        plus = renewal_cf(alpha, constants)
        minus = renewal_cf(-alpha, constants)
        for a, b in zip(plus, minus):
            assert abs(a - b.conjugate()) <= 1e-10
            assert abs(a) <= 1.0 + 1e-9
            assert abs(b) <= 1.0 + 1e-9

    def test_mixture_identity(self, constants):
        lam_minus, lam_plus = renewal_intensities(constants)
        total = lam_minus + lam_plus
        for alpha in (0.25, 1.0, 4.0):
            cf_down, cf_up, cf_all = renewal_cf(alpha, constants)
            mix = (lam_minus * cf_down + lam_plus * cf_up) / total
            assert abs(mix - cf_all) <= 1e-12

    def test_regression_value(self, constants):
        cf_down, _, cf_all = renewal_cf(0.5, constants)
        assert cf_all == pytest.approx(0.970150 + 0.146579j, abs=1e-4)
        # symmetric model: both conditional transforms coincide
        assert cf_down == pytest.approx(cf_all, rel=1e-12)

    def test_denominator_against_direct_quadrature(self, constants):
        # rebuild the transform denominator from the complementary identity:
        # total rates plus the transform of the no-hit length measure
        alpha = 0.5
        lam_minus, lam_plus = renewal_intensities(constants)
        lmax = _TAIL_CUT[1]
        tab_v, tab_y = _cf_table(constants)
        root = math.sqrt(alpha) * complex(1.0, -1.0)
        d_tab = (side_denominator_part(tab_v, alpha)
                 + side_denominator_part(tab_y, alpha)
                 + (tab_v.weight + tab_y.weight) * root)

        def miss(ell):
            return 1.0 - p_vstar_total(ell, constants)

        def re_part(ell):
            return (1.0 - math.cos(alpha * ell)) * miss(ell) / math.sqrt(
                2.0 * math.pi * ell ** 3)

        def im_part(ell):
            return -math.sin(alpha * ell) * miss(ell) / math.sqrt(
                2.0 * math.pi * ell ** 3)

        pts = [0.02, 0.1, 0.5, 2.0, 10.0, 60.0, 300.0]
        re_val, _ = integrate.quad(re_part, 0.0, lmax, points=pts, limit=300)
        im_val, _ = integrate.quad(im_part, 0.0, lmax, points=pts, limit=300)
        d_alt = (lam_minus + lam_plus
                 + (tab_v.weight + tab_y.weight) * complex(re_val, im_val))
        assert abs(d_tab - d_alt) / abs(d_tab) <= 1e-4

    def test_mirror_model_swaps_sides(self, mirror_pair):
        # the y side of an asymmetric model against the v side of its mirror
        c, cm = mirror_pair
        for alpha in (0.5, 2.0):
            down, up, both = renewal_cf(alpha, c)
            m_down, m_up, m_both = renewal_cf(alpha, cm)
            assert abs(down - m_up) <= 1e-12
            assert abs(up - m_down) <= 1e-12
            assert abs(both - m_both) <= 1e-12
            # the two sides differ here, so the swap is not checked vacuously
            assert abs(down - up) > 1e-3
        for ell in (0.5, 4.0):
            assert abs(p_vstar_total(ell, c) - p_ystar_total(ell, cm)) <= 1e-12
            assert abs(p_ystar_total(ell, c) - p_vstar_total(ell, cm)) <= 1e-12

    @pytest.mark.parametrize("model", ["default", "mirror_model", "mirror"])
    def test_shared_kernels_match_per_side_calls(self, constants, mirror_pair,
                                                 model):
        # renewal_cf evaluates one kernel over every grid's panels and a
        # symmetric model's transforms once; per-side references, each with
        # its own kernel, give the same bits
        c = {"default": constants, "mirror_model": mirror_pair[0],
             "mirror": mirror_pair[1]}[model]
        tab_v, tab_y = _cf_table(c)
        lam_minus, lam_plus = tab_v.lam_tab, tab_y.lam_tab
        total = lam_minus + lam_plus
        for alpha in (0.05, -0.7, 3.3, 49.0):
            n_v, n_y = side_numerator(tab_v, alpha), side_numerator(tab_y, alpha)
            d_v = side_denominator_part(tab_v, alpha)
            d_y = side_denominator_part(tab_y, alpha)
            root = math.sqrt(abs(alpha)) * complex(1.0, -math.copysign(1.0, alpha))
            denom = d_v + d_y + (tab_v.weight + tab_y.weight) * root
            expected = ((total / lam_minus) * n_v / denom,
                        (total / lam_plus) * n_y / denom,
                        (n_v + n_y) / denom)
            assert renewal_cf(alpha, c) == expected

    def test_flags_and_domain(self, constants):
        flags = []
        renewal_cf(1.0, constants, flags=flags)
        assert FLAG_TAIL in flags
        with pytest.raises(ValueError):
            renewal_cf(math.nan, constants)


class TestOneMomentEvaluation:
    @pytest.mark.parametrize("model", list(SWEEP_MODELS))
    @pytest.mark.parametrize("alpha", [0.7, -3.3])
    def test_one_spherical_jn_call_per_call(self, monkeypatch, model, alpha):
        c = derive_constants(SWEEP_MODELS[model])
        renewal_cf(0.25, c)
        calls = []
        original = special.spherical_jn

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(special, "spherical_jn", counted)
        for repeat in range(3):
            renewal_cf(alpha, c)
            assert len(calls) == repeat + 1


class TestNeedsDerivedConstants:
    @pytest.mark.parametrize("call", [
        lambda p: p_vstar_density(0.4, 1.0, p),
        lambda p: p_ystar_density(0.4, 1.0, p),
        lambda p: p_vstar_total(1.0, p),
        lambda p: p_ystar_total(1.0, p),
        lambda p: renewal_intensities(p),
        lambda p: renewal_down_prob(p),
        lambda p: renewal_cf(1.0, p),
    ])
    def test_model_params_raise_a_named_error(self, call):
        with pytest.raises(TypeError, match="derive_constants"):
            call(ModelParams(theta_b=2.0))


class TestLengthMeasureIdentity:
    @pytest.mark.parametrize(
        "alpha, ref",
        [
            (1.0, 1.0 - 1.0j),
            (-1.0, 1.0 + 1.0j),
            (4.0, 2.0 - 2.0j),
            (0.25, 0.5 - 0.5j),
        ],
    )
    def test_closed_form_examples(self, alpha, ref):
        numeric, closed = identity_7_62(alpha)
        assert closed == pytest.approx(ref, rel=1e-15)
        assert abs(numeric - closed) <= 1e-5

    @pytest.mark.parametrize("alpha", [0.25, 0.7, 1.0, 2.0, 4.0])
    def test_contract_tolerance_band(self, alpha):
        for a in (alpha, -alpha):
            numeric, closed = identity_7_62(a)
            assert abs(numeric - closed) <= 1e-4

    def test_conjugation(self):
        plus, _ = identity_7_62(1.7)
        minus, _ = identity_7_62(-1.7)
        assert abs(plus - minus.conjugate()) <= 1e-8

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            identity_7_62(0.0)
