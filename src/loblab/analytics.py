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
K_nu(z) / (z/2)^nu in u = log z: panels about 0.5 wide, a degree-20
Chebyshev interpolant on each, over z from 1e-17 to a cut z*(nu) =
max(40, 10 nu^2), filled by the exact series and cached per (nu, series
cap).  That is 86 panels (1,806 nodes) while nu <= 2, which covers the
benchmark's models, and more panels of the same width above.  Densities
read it by Clenshaw's recurrence.  Below z = 1e-17 they take the table's
end value, exact to rounding for every admissible model (rho < 0, so
nu > 1); above z*(nu) the series is taken as exactly 0 and never summed.
There the true |K_nu| is at most 8.5e-16 (at nu = 2; 1.3e-21 at nu =
1.632, by mpmath at 60 digits) and falls like exp(-z (1 - cos(pi/nu))), so
the cut moves a density by at most 2e-13 st2 / kappa^2.  Against the exact
series at 4,000 log-spaced z for nu in {0.55, 1, 1.545, 1.632, 3, 8}, the
table differs by at most 1e-14 (1 + |K|) plus the exact series' own
truncation error (up to 1e-11 at nu = 0.55, 6e-13 near nu = 1.6, 4e-15 at
nu >= 3), and by at most 7e-14 relative for z <= 1 when nu >= 1.  Density
grids are evaluated in blocks of about 16k points, whose temporaries stay
in cache; the values do not depend on the blocking.

The characteristic functions integrate Legendre fits on panels against
e^{i alpha s} by Filon's rule: one grid of panels over excursion length,
shared by both bracketing sides, and one over hit time per side.  A
``renewal_cf`` call evaluates the panel phases and moments once, over the
panels of every grid laid end to end, in one ``spherical_jn`` call; each
grid's integral is then summed on its own slice, in the order a kernel on
that grid alone would use.  Warm, on a 2-core shared x86-64 host, a call
costs about 0.25-0.4 ms on a symmetric model and 0.35-0.55 ms on an
asymmetric one, most of it in ``spherical_jn``.

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

from .model_params import ModelParams

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

# per-order-step table of the series: the z range it covers at least, its
# panel count in u = log z (each about 0.5 wide) and its Chebyshev degree.
# Below 1e-17 the table's end value is exact to rounding for order steps
# above one; points with s at or above the envelope cut have z <= 15.
_TABLE_Z = (1e-17, 40.0)
_TABLE_PANELS = 86
_TABLE_DEGREE = 20
_TABLE_U = (math.log(_TABLE_Z[0]), math.log(_TABLE_Z[1]))

# Above the cut z*(nu) = max(_TABLE_Z[1], _CUT_NU2 nu^2) the series is taken
# as exactly 0.  The alternating sum K(z) falls like exp(-z (1 - cos(pi/nu))),
# and with this cut that exponent is at least 40 for every order step (least
# at nu = 2).  By mpmath at 60 digits, |K(z*)| is 8.5e-16 at nu = 2, 3.9e-17
# at 2.5, 6.4e-18 at 3, 3.1e-19 at 5, 1.3e-21 at 1.632 and 2.6e-23 at 1.545,
# and |K| keeps falling above z*.  A hit density is its prefactor times
# exp(z - w) K(z), and over every (s, ell) with a given z that factor is at
# most sqrt(2 pi) pi^2 sin(alpha) / alpha^3 (st2 / kappa^2) sqrt(z), alpha =
# pi / (2 nu) the wedge opening; so the cut moves a density by at most
# 2e-13 st2 / kappa^2 (at nu = 2), and by under 4e-18 on the benchmark
# models' sides (nu near 1.6, st2 / kappa^2 <= 16.8).  Tables whose cut lies
# above _TABLE_Z[1] get more panels of the same width.
_CUT_NU2 = 10.0


def _wedge_cut(nu_step):
    """z*(nu_step), above which the series is taken as 0."""
    return max(_TABLE_Z[1], _CUT_NU2 * nu_step * nu_step)


def _wedge_series(z, w, nu_step, terms_max):
    """Pointwise sum over n of (-1)^(n-1) n^2 I_{n nu_step}(z) e^{-w}, the
    exact evaluator that fills the nodes of ``_wedge_table``.

    Each term is assembled from the scaled Bessel function times
    exp(z - w), a damping factor never above one here, so nothing can
    overflow.  Orders are taken in blocks of _SERIES_BLOCK and evaluated
    only at the points still summing; each point stops on its own test,
    after three consecutive orders whose term is at most
    _ABS_TOL (1 + |partial|) for that point, and terms_max caps each
    point's order count.  A point's value therefore does not depend on the
    points it is batched with.  Returns (values, capped), capped marking
    each point that reached the cap.
    """
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

    Panels split [log _TABLE_Z[0], log _TABLE_Z[1]] evenly, and panels of
    the same width continue above until they cover ``_wedge_cut``; each
    holds the Chebyshev coefficients of its degree-_TABLE_DEGREE
    interpolant at the Chebyshev points of the first kind, whose values
    come from ``_wedge_series``.  Returns (coefs, panel_ok): coefs[k, p]
    multiplies T_k on panel p, and panel_ok[p] is False when a node of
    panel p reached the order cap.  Keyed on the cap too, so a table never
    outlives a change of _SERIES_TERMS_MAX.
    """
    n = _TABLE_DEGREE + 1
    theta = math.pi * (np.arange(n) + 0.5) / n
    u_lo, u_hi = _TABLE_U
    width = (u_hi - u_lo) / _TABLE_PANELS
    panels = _TABLE_PANELS + math.ceil(
        max(math.log(_wedge_cut(nu_step)) - u_hi, 0.0) / width)
    frac = 0.5 * (1.0 + np.cos(theta))
    z = np.exp(u_lo + width * (np.arange(panels)[:, None] + frac))
    k, capped = _wedge_series(z, z, nu_step, terms_max)
    to_coef = (2.0 / n) * np.cos(np.outer(np.arange(n), theta))
    to_coef[0] *= 0.5
    coefs = (k / np.power(0.5 * z, nu_step)) @ to_coef.T
    return np.ascontiguousarray(coefs.T), ~capped.any(axis=1)


def _wedge_sum(z, w, nu_step):
    """The series of ``_wedge_series``, read from the per-order-step table;
    returns (values, converged).

    Since every term carries the same damping exp(z - w), the sum is
    exp(z - w) K(z), and K(z) = (z/2)^nu_step g(log z) with g tabulated by
    ``_wedge_table``.  Points above the cut ``_wedge_cut`` get exactly 0,
    which moves a hit density by at most 2e-13 st2 / kappa^2 (evidence at
    _CUT_NU2), and are never summed.  Below _TABLE_Z[0], g takes its value
    at the table's lower end: g tends to 1/Gamma(nu_step + 1) as z -> 0
    with corrections O(z) and O((z/2)^nu_step), both under 1e-16 relative
    there for every order step above one.  converged is False when a node
    of a point's own panel reached the order cap.
    """
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    shape = np.broadcast_shapes(z.shape, w.shape)
    zf = np.broadcast_to(z, shape).ravel()
    wf = np.broadcast_to(w, shape).ravel()
    out = np.zeros(zf.shape)
    far = zf > _wedge_cut(nu_step)
    if far.any():
        near = ~far
        zf, wf = zf[near], wf[near]
    else:
        near = slice(None)
    coefs, panel_ok = _wedge_table(nu_step, _SERIES_TERMS_MAX)
    u_lo, u_hi = _TABLE_U
    with np.errstate(divide="ignore"):
        t = (np.log(zf) - u_lo) * (_TABLE_PANELS / (u_hi - u_lo))
    t = np.maximum(t, 0.0)
    panel = np.minimum(t.astype(np.intp), coefs.shape[1] - 1)
    x = 2.0 * (t - panel) - 1.0
    # Clenshaw recurrence for sum_k coefs[k, panel] T_k(x)
    x2 = 2.0 * x
    b1 = coefs[_TABLE_DEGREE][panel]
    b2 = np.zeros(x.shape)
    for row in coefs[_TABLE_DEGREE - 1:0:-1]:
        b1, b2 = row[panel] + x2 * b1 - b2, b1
    g = coefs[0][panel] + x * b1 - b2
    out[near] = np.power(0.5 * zf, nu_step) * np.exp(zf - wf) * g
    return out.reshape(shape), bool(panel_ok[panel].all())


# ---------------------------------------------------------------------------
# excursion-conditioned hit densities for the bracketing processes


# points per block of _hit_density_core.  A block's temporaries, the
# Clenshaw recurrence's among them, then stay in cache.  On a 2-core shared
# x86-64 host, the benchmark's three cold parameter sets took 99-111 ms with
# blocks of 16k points, 106-114 ms with 4k, 112-122 ms with 32k, 130-137 ms
# with 64k and 157-174 ms unblocked
_DENSITY_BLOCK = 16384


def _hit_density_core(s, ell, kappa, st2, rho):
    """Density (broadcast over s and ell) that the bracketing process first
    hits zero at time s during an excursion of length ell; returns
    (values, converged).

    kappa is the starting gap, st2 the variance rate of its free Brownian
    component, rho the driving correlation.  The wedge series is read from
    the table of its order step, ``_wedge_sum``.  The broadcast grid, of at
    least one axis, is evaluated in blocks of whole rows (first-axis
    slices) of about _DENSITY_BLOCK points.  Every step is elementwise, so
    values do not depend on the blocking, and converged is False when any
    block's is.
    """
    s = np.asarray(s, dtype=float)
    ell = np.asarray(ell, dtype=float)
    shape = np.broadcast_shapes(s.shape, ell.shape)
    # give both the grid's axes, so that each can be cut into rows or, with
    # one row, kept whole
    s = s.reshape((1,) * (len(shape) - s.ndim) + s.shape)
    ell = ell.reshape((1,) * (len(shape) - ell.ndim) + ell.shape)
    rows = max(1, _DENSITY_BLOCK // math.prod(shape[1:]))
    sin_a = math.sqrt(1.0 - rho * rho)
    alpha = math.atan2(sin_a, -rho)
    cos2a = 2.0 * rho * rho - 1.0
    nu_step = math.pi / (2.0 * alpha)
    out = np.empty(shape)
    ok = True
    for start in range(0, shape[0], rows):
        cut = slice(start, start + rows)
        s_b = s[cut] if s.shape[0] > 1 else s
        ell_b = ell[cut] if ell.shape[0] > 1 else ell
        A = ell_b - s_b
        B = ell_b - s_b * cos2a
        denom = A + B
        qq = kappa * kappa / (2.0 * st2 * s_b)
        wexp = qq * B / denom
        zarg = qq * A / denom
        pref = (np.sqrt(2.0 * math.pi * ell_b ** 3 * st2) * math.pi ** 2 * sin_a
                / (2.0 * kappa * alpha ** 3 * A
                   * np.sqrt(s_b * (ell_b - s_b * rho * rho))))
        series, okc = _wedge_sum(zarg, wexp, nu_step)
        out[cut] = np.maximum(pref * series, 0.0)
        ok = ok and okc
    return out, ok


def _hit_sides(constants):
    """(kappa, free-variance, excursion-side weight) for the two brackets."""
    if isinstance(constants, ModelParams):
        raise TypeError("analytics functions take the DerivedConstants of a "
                        "model: pass derive_constants(params), not ModelParams")
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

    The Filon phases and moments of the length grid and of the hit-time
    grids are evaluated once per call (74 panels on a symmetric model,
    102-110 on the benchmark's asymmetric ones).  Warm, a call costs about
    0.25-0.55 ms on a 2-core shared x86-64 host.
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
    # one kernel serves every grid: the length grid, which depends only on
    # _TAIL_CUT and so is shared by both sides, then each side's hit-time
    # grid, laid end to end; a symmetric model's sides are one table.  Each
    # integral sums its own slice, in the order of a kernel on its grid alone
    sides = (tab_v,) if tab_y is tab_v else (tab_v, tab_y)
    h_phase, mom = _filon_kernel(
        np.concatenate([tab_v.l_h] + [t.s_h for t in sides]),
        np.concatenate([tab_v.l_m] + [t.s_m for t in sides]), alpha_arg)

    def integral(start, coefs):
        cut = slice(start, start + len(coefs))
        return _filon_integral((h_phase[cut], mom[cut]), coefs)

    tail = _osc_power_tail(alpha_arg, _TAIL_CUT[1])
    hit_v = tab_v.l_h.size
    n_v = tab_v.weight * integral(hit_v, tab_v.s_coefs)
    d_v = tab_v.weight * (integral(0, tab_v.l_coefs) + tab_v.ptot_far * tail)
    if tab_y is tab_v:
        n_y, d_y = n_v, d_v
    else:
        n_y = tab_y.weight * integral(hit_v + tab_v.s_h.size, tab_y.s_coefs)
        d_y = tab_y.weight * (integral(0, tab_y.l_coefs) + tab_y.ptot_far * tail)
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
