"""Closed-form and quadrature evaluation of the diffusion-limit renewal law.

Covers the densities and probabilities for the bracketing processes to
reach zero within an excursion (a wedge Bessel series), the renewal
intensities and price-shift direction probability built from them, the
quadrature tables behind the renewal-time characteristic functions, and
the length-measure Fourier identity (7.62) whose closed form those
functions use to close the oscillatory tails.

Everything here is a pure function of its arguments.  Functions that rely on
truncated series or truncated improper integrals accept an optional mutable
``flags`` list into which quality warnings are appended (``"series_cap"``,
``"tail_estimate_uncertainty"``, ``"quadrature_tolerance"``).

The wedge series behind every density, sum_n (-1)^(n-1) n^2 I_{n nu}(z)
e^{-w}, factorizes as exp(z - w) K_nu(z) with K_nu(z) = sum_n (-1)^(n-1)
n^2 ive(n nu, z), a function of z alone for each wedge angle (order step
nu).  The first density at a new angle therefore builds a table of
K_nu(z) / (z/2)^nu in u = log z: 86 panels about 0.5 wide, a degree-20
Chebyshev interpolant on each, over z in [1e-17, 40], 1,806 nodes filled by
the exact series and cached per (nu, series cap).  Densities read it by
Clenshaw's recurrence.  Below z = 1e-17 they take the table's end value,
exact to rounding for every admissible model (rho < 0, so nu > 1); above
z = 40 they go to the exact series.  Against the exact series at 4,000 log-spaced z
for nu in {0.55, 1, 1.545, 1.632, 3, 8}, the table differs by at most
1e-14 (1 + |K|) plus the exact series' own truncation error (up to 1e-11
at nu = 0.55, 6e-13 near nu = 1.6, 4e-15 at nu >= 3), and by at most 7e-14
relative for z <= 1 when nu >= 1.

The error targets and truncation rules are fixed constants, not arguments:
absolute tolerance 1e-10 and relative tolerance 1e-8 for series truncation
and quadrature, at most 200 Bessel-series terms per point, and excursion
lengths cut at 1e-4 below and 1e3 above.

scipy is imported inside the functions that call it, not by this module:
``scipy.special`` on the first Bessel, Fresnel or exponential-integral
evaluation and ``scipy.integrate`` only in ``identity_7_62``.  Importing
the package and running the book and limit layers therefore never loads
scipy.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

__all__ = [
    "p_vstar_density",
    "p_ystar_density",
    "p_vstar_total",
    "p_ystar_total",
    "renewal_intensities",
    "renewal_down_prob",
    "renewal_cf",
    "identity_7_62",
]

FLAG_SERIES_CAP = "series_cap"
FLAG_TAIL = "tail_estimate_uncertainty"
FLAG_QUAD = "quadrature_tolerance"

# mass certified away by the reflection envelope: exp(-_ENV_LOG) ~ 1e-13
_ENV_LOG = 30.0


# error targets for series truncation and quadrature
_ABS_TOL = 1e-10
_REL_TOL = 1e-8
# cap on the Bessel-series terms summed at each point; a point hitting it is
# reported through ``flags``, never by raising
_SERIES_TERMS_MAX = 200
# (lower, upper) cutoffs of the improper integrals over excursion length:
# below the lower one the integrand is certified small by a reflection
# envelope, above the upper one the hit probability is frozen and the pure
# power tail integrated in closed form
_TAIL_CUT = (1e-4, 1e3)


def _note(flags, message):
    if flags is not None and message not in flags:
        flags.append(message)


# ---------------------------------------------------------------------------
# composite quadrature helpers

_GL_ORDER = 12
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_ORDER)
# Legendre-coefficient transform: coef_k = sum_j _LEG_M[k, j] * f(x_j)
_LEG_M = (0.5 * (2.0 * np.arange(_GL_ORDER) + 1.0)[:, None]
          * _GL_W[None, :]
          * np.polynomial.legendre.legvander(_GL_X, _GL_ORDER - 1).T)


def _panel_nodes(edges):
    """Gauss-Legendre nodes/weights on consecutive panels.

    Edges run along the last axis; leading axes index independent grids.
    Returns (nodes, weights, half_widths, midpoints); nodes and weights are
    flattened in panel order along the last axis.
    """
    edges = np.asarray(edges, dtype=float)
    a = edges[..., :-1]
    b = edges[..., 1:]
    h = 0.5 * (b - a)
    m = 0.5 * (b + a)
    flat = m.shape[:-1] + (-1,)
    nodes = (m[..., None] + h[..., None] * _GL_X).reshape(flat)
    weights = (h[..., None] * _GL_W).reshape(flat)
    return nodes, weights, h, m


def _inner_edges(lo, ell, n_lead=14, n_tail=6):
    """Panel edges on (lo, ell): geometric growth from lo, geometric
    shrinking into the right endpoint.  Broadcasts over lo and ell, the
    edges running along a new last axis."""
    ell = np.asarray(ell, dtype=float)
    lo = np.minimum(lo, 0.25 * ell)
    mid = 0.5 * ell
    lead = np.geomspace(lo, mid, n_lead + 1, axis=-1)
    gaps = np.geomspace(mid, mid * 1e-3, n_tail, axis=-1)
    tail = ell[..., None] - gaps[..., 1:]
    return np.concatenate([lead, tail, ell[..., None]], axis=-1)


def _legendre_moments(c):
    """Oscillatory panel moments: integral of P_k(x) e^{i c x} over [-1, 1]
    for k below the panel order, elementwise over c."""
    from scipy import special

    c = np.asarray(c, dtype=float)
    J = special.spherical_jn(np.arange(_GL_ORDER), np.abs(c)[..., None])
    mom = 2.0 * (1j ** np.arange(_GL_ORDER)) * J
    neg = c < 0
    mom[neg, :] = np.conj(mom[neg, :])
    return mom


def _filon_coefs(samples):
    """Per-panel Legendre coefficients from samples of shape (..., order)."""
    return np.einsum("...j,kj->...k", samples, _LEG_M)


def _filon_kernel(h, m, alpha):
    """The part of the panel integrals of f(s) e^{i alpha s} that does not
    depend on f: half-width times the phase at each panel's midpoint, and
    the panel moments."""
    return h * np.exp(1j * alpha * m), _legendre_moments(alpha * h)


def _filon_integral(kernel, coefs):
    """Sum over panels of integral f(s) e^{i alpha s} ds, f given by its
    Legendre coefficients per panel and alpha by the ``_filon_kernel``."""
    h_phase, mom = kernel
    return complex(np.sum(h_phase * np.sum(coefs * mom, axis=-1)))


def _osc_power_tail(alpha, L):
    """Closed form of integral_L^inf e^{i alpha ell} (2 pi ell^3)^{-1/2} d ell."""
    if alpha == 0.0:
        return complex(math.sqrt(2.0 / math.pi) / math.sqrt(L))
    from scipy import special

    a = abs(alpha)
    y = math.sqrt(2.0 * a * L / math.pi)
    S, C = special.fresnel(y)
    half = complex(0.5 - C, 0.5 - S) * math.sqrt(math.pi / (2.0 * a))
    val = (2.0 * cmath.exp(1j * a * L) / math.sqrt(L) + 2j * a * 2.0 * half)
    val /= math.sqrt(2.0 * math.pi)
    return val if alpha > 0 else val.conjugate()


# ---------------------------------------------------------------------------
# wedge Bessel series behind the hit densities

# Bessel orders per scaled-Bessel call on the points still summing
_SERIES_BLOCK = 3

# per-order-step table of the series: the z range it covers, its panel
# count in u = log z (each about 0.5 wide) and its Chebyshev degree.  Below
# 1e-17 the table's end value is exact to rounding for order steps above
# one; points with s at or above the envelope cut have z <= 15.
_TABLE_Z = (1e-17, 40.0)
_TABLE_PANELS = 86
_TABLE_DEGREE = 20
_TABLE_U = (math.log(_TABLE_Z[0]), math.log(_TABLE_Z[1]))


def _wedge_sum_scaled(z, w, nu_step):
    """Pointwise sum over n of (-1)^(n-1) n^2 I_{n nu_step}(z) e^{-w}.

    The exact evaluator: its body, ``_wedge_series``, fills the nodes of
    ``_wedge_table``, and it serves the points above the table's range.
    Each term is assembled from the scaled Bessel function times
    exp(z - w), a damping factor never above one here, so nothing can
    overflow.  Orders are taken in blocks of _SERIES_BLOCK and evaluated
    only at the points still summing; each point stops on its own test,
    after three consecutive orders whose term is at most
    _ABS_TOL (1 + |partial|) for that point, and _SERIES_TERMS_MAX caps
    each point's order count.  A point's value therefore does not depend
    on the points it is batched with.  Returns (values, converged),
    converged being False when any point reached the cap first.
    """
    total, capped = _wedge_series(z, w, nu_step, _SERIES_TERMS_MAX)
    return total, not capped.any()


def _wedge_series(z, w, nu_step, terms_max):
    """Body of ``_wedge_sum_scaled`` with an explicit order cap; returns
    (values, capped), capped marking each point that reached the cap."""
    from scipy import special

    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    shape = np.broadcast_shapes(z.shape, w.shape)
    zf = np.broadcast_to(z, shape).ravel()
    damp = np.exp(zf - np.broadcast_to(w, shape).ravel())
    total = np.zeros(zf.shape)
    # the still-summing points: their indices, partial sums and the count
    # of consecutive small orders each has seen
    idx = np.arange(zf.size)
    part = np.zeros(zf.shape)
    run = np.zeros(zf.shape, dtype=int)
    n0 = 1
    while idx.size and n0 <= terms_max:
        n1 = min(n0 + _SERIES_BLOCK - 1, terms_max)
        ns = np.arange(n0, n1 + 1)
        nf = ns.astype(float)
        coef = np.where(ns % 2 == 1, 1.0, -1.0) * nf * nf
        terms = (coef[:, None]
                 * special.ive(nf[:, None] * nu_step, zf[None, :])
                 * damp[None, :])
        done = np.zeros(idx.size, dtype=bool)
        for row in terms:
            part += row
            small = np.abs(row) <= _ABS_TOL * (1.0 + np.abs(part))
            run = np.where(small, run + 1, 0)
            done |= run >= 3
        if done.any():
            total[idx[done]] = part[done]
            keep = ~done
            idx, zf, damp, part, run = (idx[keep], zf[keep], damp[keep],
                                        part[keep], run[keep])
        n0 = n1 + 1
    total[idx] = part
    capped = np.zeros(total.shape, dtype=bool)
    capped[idx] = True
    return total.reshape(shape), capped.reshape(shape)


@functools.lru_cache(maxsize=16)
def _wedge_table(nu_step, terms_max):
    """Piecewise-Chebyshev table of K(z) / (z/2)^nu_step in u = log z, where
    K(z) = sum_n (-1)^(n-1) n^2 ive(n nu_step, z) is the series at w = z.

    Panels split [log _TABLE_Z[0], log _TABLE_Z[1]] evenly; each holds the
    Chebyshev coefficients of its degree-_TABLE_DEGREE interpolant at the
    Chebyshev points of the first kind, whose values come from
    ``_wedge_series``.  Returns (coefs, panel_ok): coefs[k, p] multiplies
    T_k on panel p, and panel_ok[p] is False when a node of panel p reached
    the order cap.  Keyed on the cap too, so a table never outlives a
    change of _SERIES_TERMS_MAX.
    """
    n = _TABLE_DEGREE + 1
    theta = math.pi * (np.arange(n) + 0.5) / n
    u_lo, u_hi = _TABLE_U
    width = (u_hi - u_lo) / _TABLE_PANELS
    frac = 0.5 * (1.0 + np.cos(theta))
    z = np.exp(u_lo + width * (np.arange(_TABLE_PANELS)[:, None] + frac))
    k, capped = _wedge_series(z, z, nu_step, terms_max)
    to_coef = (2.0 / n) * np.cos(np.outer(np.arange(n), theta))
    to_coef[0] *= 0.5
    coefs = (k / np.power(0.5 * z, nu_step)) @ to_coef.T
    return np.ascontiguousarray(coefs.T), ~capped.any(axis=1)


def _wedge_sum(z, w, nu_step):
    """The series of ``_wedge_sum_scaled``, same arguments and returns,
    read from the per-order-step table.

    Since every term carries the same damping exp(z - w), the sum is
    exp(z - w) K(z), and K(z) = (z/2)^nu_step g(log z) with g tabulated by
    ``_wedge_table``.  Points above _TABLE_Z[1] go to the exact series.
    Below _TABLE_Z[0], g takes its value at the table's lower end: g tends
    to 1/Gamma(nu_step + 1) as z -> 0 with corrections O(z) and
    O((z/2)^nu_step), both under 1e-16 relative there for every order step
    above one.  converged is False when a point went to the exact series
    and reached its cap, or when a node of a point's own panel did.
    """
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    shape = np.broadcast_shapes(z.shape, w.shape)
    zf = np.broadcast_to(z, shape).ravel()
    wf = np.broadcast_to(w, shape).ravel()
    out = np.empty(zf.shape)
    far = zf > _TABLE_Z[1]
    ok = True
    if far.any():
        out[far], ok = _wedge_sum_scaled(zf[far], wf[far], nu_step)
        near = ~far
        zf, wf = zf[near], wf[near]
    else:
        near = slice(None)
    coefs, panel_ok = _wedge_table(nu_step, _SERIES_TERMS_MAX)
    u_lo, u_hi = _TABLE_U
    with np.errstate(divide="ignore"):
        t = (np.log(zf) - u_lo) * (_TABLE_PANELS / (u_hi - u_lo))
    t = np.maximum(t, 0.0)
    panel = np.minimum(t.astype(np.intp), _TABLE_PANELS - 1)
    x = 2.0 * (t - panel) - 1.0
    # Clenshaw recurrence for sum_k coefs[k, panel] T_k(x)
    x2 = 2.0 * x
    b1 = coefs[_TABLE_DEGREE][panel]
    b2 = np.zeros(x.shape)
    for row in coefs[_TABLE_DEGREE - 1:0:-1]:
        b1, b2 = row[panel] + x2 * b1 - b2, b1
    g = coefs[0][panel] + x * b1 - b2
    out[near] = np.power(0.5 * zf, nu_step) * np.exp(zf - wf) * g
    ok = ok and bool(panel_ok[panel].all())
    return out.reshape(shape), ok


# ---------------------------------------------------------------------------
# excursion-conditioned hit densities for the bracketing processes


def _hit_density_core(s, ell, kappa, st2, rho):
    """Density (broadcast over s and ell) that the bracketing process first
    hits zero at time s during an excursion of length ell.

    kappa is the starting gap, st2 the variance rate of its free Brownian
    component, rho the driving correlation.  The wedge series is read from
    the table of its order step, ``_wedge_sum``.
    """
    s = np.asarray(s, dtype=float)
    ell = np.asarray(ell, dtype=float)
    sin_a = math.sqrt(1.0 - rho * rho)
    alpha = math.atan2(sin_a, -rho)
    cos2a = 2.0 * rho * rho - 1.0
    A = ell - s
    B = ell - s * cos2a
    denom = A + B
    qq = kappa * kappa / (2.0 * st2 * s)
    wexp = qq * B / denom
    zarg = qq * A / denom
    pref = (np.sqrt(2.0 * math.pi * ell ** 3 * st2) * math.pi ** 2 * sin_a
            / (2.0 * kappa * alpha ** 3 * A * np.sqrt(s * (ell - s * rho * rho))))
    series, okc = _wedge_sum(zarg, wexp, math.pi / (2.0 * alpha))
    return np.maximum(pref * series, 0.0), okc


def _hit_sides(constants):
    """(kappa, free-variance, excursion-side weight) for the two brackets."""
    rho = constants.rho
    side_v = (constants.kappa_L,
              (1.0 - rho * rho) * constants.sigma_plus ** 2,
              1.0 / constants.sigma_minus)
    side_y = (-constants.kappa_R,
              (1.0 - rho * rho) * constants.sigma_minus ** 2,
              1.0 / constants.sigma_plus)
    return side_v, side_y


def p_vstar_density(s, ell, params, flags=None):
    """Density for the left bracketing process to first reach zero at time
    s within a negative excursion of length ell."""
    (kappa, st2, _), _ = _hit_sides(params)
    return _hit_density_point(s, ell, kappa, st2, params.rho, flags)


def p_ystar_density(s, ell, params, flags=None):
    """Density for the right bracketing process to first reach zero at time
    s within a positive excursion of length ell."""
    _, (kappa, st2, _) = _hit_sides(params)
    return _hit_density_point(s, ell, kappa, st2, params.rho, flags)


def _hit_density_point(s, ell, kappa, st2, rho, flags):
    s = float(s)
    ell = float(ell)
    if not 0.0 < s < ell < math.inf:
        raise ValueError("hit time must satisfy 0 < s < ell < inf")
    vals, okc = _hit_density_core(np.array([s]), ell, kappa, st2, rho)
    if not okc:
        _note(flags, FLAG_SERIES_CAP)
    return float(vals[0])


def _envelope_cut(kappa, st2):
    """Time below which the free component alone certifies the hit mass
    under exp(-_ENV_LOG)."""
    return kappa * kappa / (2.0 * st2 * _ENV_LOG)


def _envelope_mass(s, kappa, st2):
    """Reflection bound on the chance of a hit by time s."""
    if s <= 0:
        return 0.0
    return math.erfc(kappa / math.sqrt(2.0 * st2 * s))


def _hit_total(ell, kappa, st2, rho):
    """Probability of a hit within an excursion of length ell, with a
    refinement pass; returns (value, error_bound, converged)."""
    lo = min(_envelope_cut(kappa, st2), 0.25 * ell)
    ok = True
    vals = []
    for n_lead, n_tail in ((10, 4), (14, 6)):
        nodes, wts, _, _ = _panel_nodes(_inner_edges(lo, ell, n_lead, n_tail))
        dens, okc = _hit_density_core(nodes, ell, kappa, st2, rho)
        ok &= okc
        vals.append(float(dens @ wts))
    err = abs(vals[1] - vals[0]) + _envelope_mass(lo, kappa, st2)
    value = min(max(vals[1], 0.0), 1.0)
    return value, err, ok


def p_vstar_total(ell, params, flags=None):
    """Probability that the left bracketing process reaches zero within a
    negative excursion of length ell."""
    (kappa, st2, _), _ = _hit_sides(params)
    return _hit_total_checked(ell, kappa, st2, params.rho, flags)


def p_ystar_total(ell, params, flags=None):
    """Probability that the right bracketing process reaches zero within a
    positive excursion of length ell."""
    _, (kappa, st2, _) = _hit_sides(params)
    return _hit_total_checked(ell, kappa, st2, params.rho, flags)


def _hit_total_checked(ell, kappa, st2, rho, flags):
    ell = float(ell)
    if not 0 < ell < math.inf:
        raise ValueError("excursion length must be positive and finite")
    value, err, ok = _hit_total(ell, kappa, st2, rho)
    if not ok:
        _note(flags, FLAG_SERIES_CAP)
    if err > max(_ABS_TOL, _REL_TOL * max(value, 1e-12)) * 100.0:
        _note(flags, FLAG_QUAD)
    return value


# ---------------------------------------------------------------------------
# renewal intensities, direction probability, characteristic functions


class _CfSide:
    """Precomputed quadrature table for one bracketing side.

    The joint transform over hit time and excursion length integrates the
    length coordinate first (a positive, oscillation-free integrand), so the
    only complex exponential left lives on the hit-time axis where the panel
    moments treat it exactly.  At zero argument the same table gives the
    side's renewal intensity ``lam_tab``.  Beyond the upper length cutoff
    the hit density is frozen at its cutoff shape, and below the lower
    cutoff the hit mass is certified by the reflection envelope;
    ``tail_bias`` bounds the error of both, in the units of ``lam_tab``.
    """

    __slots__ = ("weight", "s_h", "s_m", "s_coefs", "l_h", "l_m", "l_coefs",
                 "ptot_far", "lam_tab", "tail_bias", "ok")

    def __init__(self, kappa, st2, weight, rho):
        from scipy import special

        lmin, lmax = _TAIL_CUT
        self.weight = weight
        ok = True
        tail_mass = math.sqrt(2.0 / math.pi) / math.sqrt(lmax)
        # hit probability on a length grid, for the transform against the
        # excursion-length measure
        n_l = max(8, int(round(6.0 * math.log10(lmax / lmin))))
        l_nodes, l_w, self.l_h, self.l_m = _panel_nodes(
            np.geomspace(lmin, lmax, n_l + 1))
        lo_env = _envelope_cut(kappa, st2)
        s_mat, w_mat, _, _ = _panel_nodes(_inner_edges(lo_env, l_nodes))
        dens, okc = _hit_density_core(s_mat, l_nodes[:, None], kappa, st2, rho)
        ok &= okc
        ptot = np.einsum("ij,ij->i", dens, w_mat)
        far_total, _, okf = _hit_total(lmax, kappa, st2, rho)
        ok &= okf
        self.ptot_far = far_total
        g_l = 1.0 / np.sqrt(2.0 * math.pi * l_nodes ** 3)
        self.l_coefs = _filon_coefs((ptot * g_l).reshape(-1, _GL_ORDER))
        # marginal hit-time weight m(s): length integrated out from s to the
        # cutoff plus the frozen far tail
        s_lo = min(lo_env, 1e-3 * lmax)
        n_s = max(8, int(round(6.0 * math.log10(lmax / s_lo))))
        s_nodes, s_w, self.s_h, self.s_m = _panel_nodes(
            np.geomspace(s_lo, lmax, n_s + 1))
        gap0 = (lmax - s_nodes) * 1e-9
        l_mat, lw_mat, _, _ = _panel_nodes(
            s_nodes[:, None] + np.geomspace(gap0, lmax - s_nodes, 17, axis=-1))
        dens_m, okm = _hit_density_core(s_nodes[:, None], l_mat, kappa, st2, rho)
        ok &= okm
        g_mat = 1.0 / np.sqrt(2.0 * math.pi * l_mat ** 3)
        m_vals = np.einsum("ij,ij,ij->i", dens_m, g_mat, lw_mat)
        far_dens, okd = _hit_density_core(s_nodes, lmax, kappa, st2, rho)
        ok &= okd
        m_vals = m_vals + far_dens * tail_mass
        self.s_coefs = _filon_coefs(m_vals.reshape(-1, _GL_ORDER))
        self.lam_tab = weight * float(np.sum(m_vals * s_w))
        # below lmin the length integrand sits under the reflection envelope;
        # above lmax freezing the hit probability misses O(1 - p(lmax))
        c_env = kappa * kappa / (2.0 * st2)
        below = (math.sqrt(st2) / (2.0 * math.pi * kappa)) * float(special.exp1(c_env / lmin))
        self.tail_bias = weight * (below + (1.0 - far_total) * tail_mass)
        self.ok = ok

    def numerator(self, alpha):
        """Transform of the joint hit-time and length law, hit-time axis
        carrying the oscillation."""
        kernel = _filon_kernel(self.s_h, self.s_m, alpha)
        return self.weight * _filon_integral(kernel, self.s_coefs)

    def denominator_part(self, alpha, kernel=None):
        """Transform of the hit probability against the length measure;
        ``kernel`` is the length grid's ``_filon_kernel`` at alpha, when the
        caller already has it."""
        if kernel is None:
            kernel = _filon_kernel(self.l_h, self.l_m, alpha)
        finite = _filon_integral(kernel, self.l_coefs)
        tail = self.ptot_far * _osc_power_tail(alpha, _TAIL_CUT[1])
        return self.weight * (finite + tail)


_cf_side = functools.lru_cache(maxsize=16)(_CfSide)


def _cf_table(params):
    """The two side tables (v side, y side); sides with equal inputs are
    one cached object."""
    side_v, side_y = _hit_sides(params)
    return _cf_side(*side_v, params.rho), _cf_side(*side_y, params.rho)


def renewal_intensities(params, flags=None):
    """Arrival intensities (lambda_minus, lambda_plus), per unit excursion
    local time, of excursions in which the corresponding bracketing process
    reaches zero."""
    tab_v, tab_y = _cf_table(params)
    if not (tab_v.ok and tab_y.ok):
        _note(flags, FLAG_SERIES_CAP)
    if any(t.tail_bias > _REL_TOL * t.lam_tab for t in (tab_v, tab_y)):
        _note(flags, FLAG_TAIL)
    return tab_v.lam_tab, tab_y.lam_tab


def renewal_down_prob(params, flags=None):
    """Probability that the first renewal shifts the price window down."""
    lam_minus, lam_plus = renewal_intensities(params, flags)
    return lam_minus / (lam_minus + lam_plus)


def renewal_cf(alpha_arg, params, flags=None):
    """Characteristic function of the renewal time, evaluated at alpha_arg.

    Returns three complex values: conditional on a down shift, conditional
    on an up shift, and unconditional.  At zero all three are one by
    normalization and are returned exactly.
    """
    alpha_arg = float(alpha_arg)
    if not math.isfinite(alpha_arg):
        raise ValueError("argument must be finite")
    if alpha_arg == 0.0:
        one = complex(1.0, 0.0)
        return one, one, one
    tab_v, tab_y = _cf_table(params)
    if not (tab_v.ok and tab_y.ok):
        _note(flags, FLAG_SERIES_CAP)
    # the length grid depends only on _TAIL_CUT, so both sides share its
    # kernel; a symmetric model's sides are one table
    l_kernel = _filon_kernel(tab_v.l_h, tab_v.l_m, alpha_arg)
    n_v = tab_v.numerator(alpha_arg)
    d_v = tab_v.denominator_part(alpha_arg, l_kernel)
    if tab_y is tab_v:
        n_y, d_y = n_v, d_v
    else:
        n_y = tab_y.numerator(alpha_arg)
        d_y = tab_y.denominator_part(alpha_arg, l_kernel)
    root = math.sqrt(abs(alpha_arg)) * complex(1.0, -math.copysign(1.0, alpha_arg))
    denom = d_v + d_y + (tab_v.weight + tab_y.weight) * root
    if tab_v.tail_bias + tab_y.tail_bias > _REL_TOL * abs(denom):
        _note(flags, FLAG_TAIL)
    lam_minus, lam_plus = tab_v.lam_tab, tab_y.lam_tab
    total = lam_minus + lam_plus
    cf_down = (total / lam_minus) * n_v / denom
    cf_up = (total / lam_plus) * n_y / denom
    cf_all = (n_v + n_y) / denom
    return cf_down, cf_up, cf_all


# ---------------------------------------------------------------------------
# subordinator Fourier identity


def identity_7_62(alpha_arg):
    """Both sides of the length-measure Fourier identity: the integral of
    (1 - e^{i alpha ell}) (2 pi ell^3)^{-1/2} over ell > 0 against the
    closed form sqrt(|alpha|) (1 - sign(alpha) i).

    Returns (numeric, closed).  The numeric side substitutes ell = u^2 and
    finishes the oscillatory tail in closed form.
    """
    from scipy import integrate

    alpha_arg = float(alpha_arg)
    if alpha_arg == 0.0 or not math.isfinite(alpha_arg):
        raise ValueError("argument must be finite and nonzero")
    a = abs(alpha_arg)
    closed = math.sqrt(a) * complex(1.0, -math.copysign(1.0, alpha_arg))
    scale = math.sqrt(2.0 / math.pi)
    cut = 8.0 / math.sqrt(min(a, 1.0))

    def re_part(u):
        return scale * (1.0 - math.cos(a * u * u)) / (u * u)

    def im_part(u):
        return -scale * math.sin(a * u * u) / (u * u)

    re_val, _ = integrate.quad(re_part, 0.0, cut, limit=500,
                               epsabs=1e-11, epsrel=1e-11)
    im_val, _ = integrate.quad(im_part, 0.0, cut, limit=500,
                               epsabs=1e-11, epsrel=1e-11)
    tail = scale / cut - _osc_power_tail(a, cut * cut)
    numeric = complex(re_val, im_val) + tail
    if alpha_arg < 0:
        numeric = numeric.conjugate()
    return numeric, closed
