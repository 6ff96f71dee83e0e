import math
import re

import numpy as np
import pytest

from loblab import (
    ModelParams,
    Region,
    SimConfig,
    derive_constants,
    gh_transform,
    region_of,
    run_scaled_path,
)

DEFAULT = ModelParams()
NON_FINITE = [
    (math.nan, 0.0),
    (1.0, math.nan),
    (math.nan, 1.0),
    (math.inf, 0.0),
    (0.0, -math.inf),
    (-math.inf, -1.0),
]


class TestDeriveConstants:
    def test_default_values(self):
        # hand-computed oracle for a = b = 1.5, lambda0 = theta_b = theta_s = 1
        d = derive_constants(DEFAULT)
        assert d.lambda1 == pytest.approx(0.5, abs=0)
        assert d.lambda2 == pytest.approx(0.75, abs=0)
        assert d.mu0 == pytest.approx(1.0, abs=0)
        assert d.mu1 == pytest.approx(0.5, abs=0)
        assert d.mu2 == pytest.approx(0.75, abs=0)
        assert d.c == pytest.approx(0.5, abs=0)
        assert d.kappa_L == pytest.approx(0.75, abs=0)
        assert d.kappa_R == pytest.approx(-0.75, abs=0)
        assert d.sigma_plus == pytest.approx(math.sqrt(3.5), rel=1e-15)
        assert d.sigma_minus == pytest.approx(math.sqrt(3.5), rel=1e-15)
        assert d.rho == pytest.approx(-4.0 / 7.0, rel=1e-15)
        assert d.frac_one_tick == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert d.frac_two_tick == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_asymmetric_example(self):
        d = derive_constants(ModelParams(a=2.0, b=1.5))
        assert d.c == pytest.approx(1.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(),
            ModelParams(a=1.2, b=1.7, lambda0=2.0, theta_b=2.0, theta_s=0.5),
        ],
    )
    def test_carries_its_params(self, params):
        # consumers read the primitives from here instead of recovering them
        assert derive_constants(params).params == params

    @pytest.mark.parametrize(
        "params, fragment",
        [
            (ModelParams(a=1.0), "a > 1"),
            (ModelParams(b=0.9), "b > 1"),
            (ModelParams(a=2.0, b=2.0), "a + b > a*b"),
            (ModelParams(lambda0=0.0), "lambda0 > 0"),
            (ModelParams(theta_b=-1.0), "theta_b > 0"),
            (ModelParams(theta_s=0.0), "theta_s > 0"),
            (ModelParams(lambda0=math.inf), "lambda0 < inf"),
            (ModelParams(theta_b=math.inf), "theta_b < inf"),
            (ModelParams(theta_s=math.inf), "theta_s < inf"),
            (ModelParams(a="1.5"), "a to be a real number"),
            (ModelParams(b=None), "b to be a real number"),
            (ModelParams(lambda0="1"), "lambda0 to be a real number"),
            (ModelParams(theta_b=1j), "theta_b to be a real number"),
            (ModelParams(theta_s=[1.0]), "theta_s to be a real number"),
        ],
    )
    def test_errors_name_constraint(self, params, fragment):
        with pytest.raises(ValueError, match="constraint"):
            derive_constants(params)
        with pytest.raises(ValueError) as exc:
            derive_constants(params)
        assert fragment in str(exc.value)

    def test_rate_balance_identities(self):
        # the four expressions for c agree to 1e-14 relative, as does the
        # market-flow balance a*lambda0 = b*mu0
        for params in [
            DEFAULT,
            ModelParams(a=2.0, b=1.5),
            ModelParams(a=1.2, b=1.9, lambda0=0.7, theta_b=2.0, theta_s=0.5),
            ModelParams(a=1.8, b=1.1, lambda0=3.0),
        ]:
            d = derive_constants(params)
            a, b = params.a, params.b
            alt = [
                (a + b - a * b) * params.lambda0 / b,
                (a + b - a * b) * d.mu0 / a,
                params.lambda0 - d.mu1,
            ]
            for v in alt:
                assert d.c == pytest.approx(v, rel=1e-14)
            assert a * params.lambda0 == pytest.approx(b * d.mu0, rel=1e-14)
            assert d.c > 0

    def test_alpha_identities(self):
        for params in [DEFAULT, ModelParams(a=1.3, b=1.7, lambda0=2.0)]:
            d = derive_constants(params)
            assert d.alpha_minus == pytest.approx(
                2.0 * (d.lambda1 + d.mu1) / d.sigma_minus**2, rel=1e-14
            )
            assert d.alpha_minus == pytest.approx(
                -d.rho * d.sigma_plus / d.sigma_minus, rel=1e-14
            )
            assert d.alpha_plus == pytest.approx(
                2.0 * (d.lambda1 + d.mu1) / d.sigma_plus**2, rel=1e-14
            )

    def test_ranges(self):
        for params in [DEFAULT, ModelParams(a=1.05, b=1.9), ModelParams(a=1.9, b=1.05)]:
            d = derive_constants(params)
            assert d.kappa_L > 0
            assert d.kappa_R < 0
            assert -1 < d.rho < 0
            assert d.frac_one_tick + d.frac_two_tick == pytest.approx(1.0, rel=1e-14)
            assert 0 <= d.frac_one_tick <= 1
            assert 0 <= d.frac_two_tick <= 1


class TestRegionOf:
    # classification table frozen by hand from the region definitions
    TABLE = [
        ((1, 1), Region.NE),
        ((0, 1), Region.NE),
        ((3, 2), Region.NE),
        ((2, 0), Region.E),
        ((1, 0), Region.E),
        ((0, 0), Region.O),
        ((0, -1), Region.S),
        ((0, -4), Region.S),
        ((-1, 0), Region.SW),
        ((-2, -1), Region.SW),
        ((-1, -3), Region.SW),
        ((3, -1), Region.SE_plus),
        ((2, -1), Region.SE_plus),
        ((1, -1), Region.SE),
        ((3, -3), Region.SE),
        ((1, -2), Region.SE_minus),
        ((2, -5), Region.SE_minus),
    ]

    @pytest.mark.parametrize("wx, region", TABLE)
    def test_table(self, wx, region):
        assert region_of(*wx) is region

    def test_forbidden_quadrant(self):
        with pytest.raises(ValueError):
            region_of(-1, 1)
        with pytest.raises(ValueError):
            region_of(-0.5, 2.5)

    def test_exact_boundaries(self):
        # comparisons are exact: no epsilon snapping
        assert region_of(2e-300, -1e-300) is Region.SE_plus
        assert region_of(1e-300, -1e-300) is Region.SE
        assert region_of(5e-324, 0.0) is Region.E
        assert region_of(0.0, -5e-324) is Region.S

    @pytest.mark.parametrize("w, x", NON_FINITE)
    def test_rejects_non_finite(self, w, x):
        with pytest.raises(ValueError, match="w and x must be finite"):
            region_of(w, x)


def _random_valid_wx(rng, size):
    """Uniform mixture over all eight regions, float-valued."""
    w = np.empty(size)
    x = np.empty(size)
    kind = rng.integers(0, 8, size)
    u = rng.uniform(0.1, 10.0, size)
    v = rng.uniform(0.1, 10.0, size)
    for i, k in enumerate(kind):
        if k == 0:  # NE
            w[i], x[i] = u[i], v[i]
        elif k == 1:  # E
            w[i], x[i] = u[i], 0.0
        elif k == 2:  # O
            w[i], x[i] = 0.0, 0.0
        elif k == 3:  # S
            w[i], x[i] = 0.0, -u[i]
        elif k == 4:  # SW
            w[i], x[i] = -u[i], -v[i]
        elif k == 5:  # SE+
            w[i], x[i] = u[i] + v[i], -u[i]
        elif k == 6:  # SE
            w[i], x[i] = u[i], -u[i]
        else:  # SE-
            w[i], x[i] = u[i], -u[i] - v[i]
    return w, x


# (w, x) pairs in every region: NE, E, O with signed zeros, S and SW on and
# off the axes, SE+, SE, SE-, and pairs one ulp from each boundary
_UP, _DOWN = math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)
BOUNDARY = [
    (1.0, 1.0), (2.0, 0.0), (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
    (0.0, -2.0), (-0.0, -2.0), (-1.0, 0.0), (-1.0, -0.0), (-1.0, -2.0),
    (3.0, -1.0), (1.0, -1.0), (1.0, -2.0),
    # one ulp off x = 0
    (1.0, 5e-324), (1.0, -5e-324), (5e-324, 0.0), (0.0, 5e-324),
    # one ulp off w = 0
    (0.0, -5e-324), (5e-324, -1.0), (-5e-324, -1.0), (-5e-324, 0.0),
    # one ulp off w + x = 0
    (_UP, -1.0), (_DOWN, -1.0), (1.0, -_UP), (1.0, -_DOWN),
    (2e-300, -1e-300), (1e-300, -1e-300),
]


def _closed_form(w, x, params):
    """(G, H) of one pair by its region's formula, the region from region_of."""
    region = region_of(w, x)
    if region in (Region.NE, Region.E):
        return w + params.b * x, x
    if region in (Region.SW, Region.S):
        return params.a * w + x, -w
    if region is Region.SE_minus:
        return w + x, -w
    return w + x, x  # SE+, SE, O


def _assert_same_bits(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestGHTransform:
    def test_spec_examples(self):
        assert gh_transform(1, 1, DEFAULT) == (2.5, 1.0)
        assert gh_transform(-1, -1, DEFAULT) == (-2.5, 1.0)

    @pytest.mark.parametrize("w, x", BOUNDARY)
    def test_closed_form_table(self, w, x):
        params = ModelParams(a=1.7, b=1.3)
        got = gh_transform(w, x, params)
        assert all(type(v) is float for v in got)
        _assert_same_bits(got, _closed_form(w, x, params))

    def test_boundary_continuity(self):
        # straddling each region boundary by delta changes (G, H) by at most
        # 10*delta*max(a, b)
        params = ModelParams(a=1.7, b=1.3)
        delta = 1e-9
        tol = 10 * delta * max(params.a, params.b)
        pairs = []
        for w in (0.5, 1.0, 3.0):
            pairs.append(((w, delta), (w, -delta)))        # across E
            pairs.append(((w, -w + delta), (w, -w - delta)))  # across SE
        for x in (-0.5, -1.0, -3.0):
            pairs.append(((delta, x), (-delta, x)))        # across S
        pairs.append(((delta, delta), (delta, -delta)))    # near O
        pairs.append(((-delta, -delta), (delta, -delta)))
        for p1, p2 in pairs:
            g1, h1 = gh_transform(*p1, params)
            g2, h2 = gh_transform(*p2, params)
            assert abs(g1 - g2) <= tol
            assert abs(h1 - h2) <= tol

    def test_injective_on_integer_lattice(self):
        # no two valid integer states share a (g, h), so the map loses no state
        w, x = np.meshgrid(np.arange(-20, 21), np.arange(-20, 21))
        valid = ~((w < 0) & (x > 0))
        for params in (DEFAULT, ModelParams(a=1.7, b=1.3)):
            g, h = gh_transform(w[valid], x[valid], params)
            assert len(set(zip(g.tolist(), h.tolist()))) == valid.sum()

    def test_h_sign_structure(self):
        # G carries the sign of the dominant side; H vanishes on E and S
        assert gh_transform(2, 0, DEFAULT) == (2.0, 0.0)
        assert gh_transform(0, -2, DEFAULT) == (-2.0, 0.0)
        g, h = gh_transform(1, -1, DEFAULT)
        assert g == 0.0 and h == -1.0

    @pytest.mark.parametrize("w, x", NON_FINITE)
    def test_rejects_non_finite(self, w, x):
        with pytest.raises(ValueError, match="w and x must be finite"):
            gh_transform(w, x, DEFAULT)
        with pytest.raises(ValueError, match="w and x must be finite"):
            gh_transform(np.array([1.0, w]), np.array([1.0, x]), DEFAULT)


class TestGHColumns:
    # gh_transform over columns of pairs, the way run_scaled_path calls it

    def test_boundary_set_hits_every_region(self):
        w, x = np.array(BOUNDARY).T
        assert {region_of(wi, xi) for wi, xi in BOUNDARY} == set(Region)
        params = ModelParams(a=1.7, b=1.3)
        _assert_same_bits(np.column_stack(gh_transform(w, x, params)),
                          [_closed_form(wi, xi, params) for wi, xi in BOUNDARY])

    def test_random_pairs(self):
        # one array call equals the scalar calls entry by entry
        w, x = _random_valid_wx(np.random.default_rng(99), 20_000)
        params = ModelParams(a=1.4, b=1.6)
        pairs = zip(w.tolist(), x.tolist())
        _assert_same_bits(np.column_stack(gh_transform(w, x, params)),
                          [gh_transform(wi, xi, params) for wi, xi in pairs])

    def test_recorded_rows(self):
        params = ModelParams(theta_b=2.0)
        constants = derive_constants(params)
        for i in range(3):
            series = run_scaled_path(SimConfig(n=2500, horizon=2.0, seed=6, grid_step=0.01),
                                     constants, path_index=i).series
            pairs = zip(series[:, 2].tolist(), series[:, 3].tolist())
            _assert_same_bits(series[:, 6:8], [_closed_form(w, x, params) for w, x in pairs])

    def test_unreachable_quadrant_raises_the_scalar_error(self):
        with pytest.raises(ValueError) as scalar:
            gh_transform(-0.5, 0.25, DEFAULT)
        w = np.array([1.0, -0.5, -2.0])
        x = np.array([1.0, 0.25, 3.0])
        with pytest.raises(ValueError, match=f"^{re.escape(str(scalar.value))}$"):
            gh_transform(w, x, DEFAULT)
