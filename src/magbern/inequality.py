"""Spectral-inequality constants, sharp empirical constants, and the
one-dimensional Remez/Kovrijkine estimate engine.

The traced constant follows the visible proof chain: per good rectangle the
base is 96*pi/rho with exponent 1 + 2*ln(M)/ln(2), the analytic-extension
bound is ln M <= ln 16 + 2*240^2*(|l|_1(sqrt(E)+sqrt(B)) + |l|_1^2 B), and a
prefactor 4 collects the good-mass and covering losses.  Exponents reach 1e6
for order-one windows, so the value overflows floats by design; the *_log
companions are the comparison surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .geometry import SetMask
from .landau import GridField, LadderField
from .lattice import SpectralSubspace

LN2 = math.log(2.0)


@dataclass(frozen=True)
class ThmConstants:
    """Constant mode for bound evaluation.

    traced: no free parameters, the proof-chain values above.  structural:
    (C1/rho)^(C2 + C3 |l|_1 sqrt(E) + C4 |l|_1^2 B) with configurable Ci,
    for sensitivity sweeps.
    """

    mode: str = "traced"
    C1: float = 96.0 * math.pi
    C2: float = 1.0
    C3: float = 1.0
    C4: float = 1.0

    def __post_init__(self):
        if self.mode not in ("traced", "structural"):
            raise ValidationError(f"unknown constant mode {self.mode!r}")
        if self.C1 <= 0:
            raise ValidationError("C1 must be positive")


def spectral_factors_log(B: float, ell: tuple, rho: float,
                         c: ThmConstants = ThmConstants()) -> tuple:
    """(log d0, d1) with log C(E) = log d0 + d1 sqrt(E) for the constant mode."""
    if not 0.0 < rho <= 1.0:
        raise ValidationError("rho must lie in (0, 1]")
    l1 = abs(ell[0]) + abs(ell[1])
    if c.mode == "structural":
        base = math.log(c.C1 / rho)
        return (c.C2 + c.C4 * l1 * l1 * B) * base, c.C3 * l1 * base
    k = 2.0 * 240.0**2
    base = math.log(96.0 * math.pi / rho)
    ln_m_rest = math.log(16.0) + k * (l1 * math.sqrt(B) + l1 * l1 * B)
    log_d0 = math.log(4.0) + (1.0 + 2.0 * ln_m_rest / LN2) * base
    d1 = 2.0 * k * l1 * base / LN2
    return log_d0, d1


def theoretical_constant_log(E: float, B: float, ell: tuple, rho: float,
                             c: ThmConstants = ThmConstants()) -> float:
    """Natural log of the spectral-inequality constant (rho is checked in
    spectral_factors_log)."""
    if B < 0 or E < 0 or (B > 0 and E < B):
        raise ValidationError("need E >= B > 0 or B = 0")
    log_d0, d1 = spectral_factors_log(B, ell, rho, c)
    return log_d0 + d1 * math.sqrt(E)


def theoretical_constant(E: float, B: float, ell: tuple, rho: float,
                         c: ThmConstants = ThmConstants()) -> float:
    """The constant itself; inf when it exceeds float range (exponents are
    ~1e6 in traced mode, so compare logs for anything quantitative)."""
    log = theoretical_constant_log(E, B, ell, rho, c)
    return math.exp(log) if log < 709.0 else math.inf


def _basis_matrix(basis, mask: SetMask):
    if isinstance(basis, SpectralSubspace):
        vecs = basis.vectors
        cell = basis.setup.spacing[0] * basis.setup.spacing[1]
        shape = basis.setup.N
    else:
        fields = np.asarray(basis)
        if fields.ndim != 3:
            raise ValidationError("basis must be (k, N1, N2) fields or a subspace")
        shape = fields.shape[1:]
        vecs = fields.reshape(fields.shape[0], -1).T
        cell = mask.cell_area
    if mask.cells.shape != tuple(shape):
        raise ValidationError("mask grid does not match the basis grid")
    return vecs, cell


def masked_form(basis, mask: SetMask) -> np.ndarray:
    """Hermitian k x k matrix of the L2(S) inner product on the basis."""
    vecs, cell = _basis_matrix(basis, mask)
    weights = mask.cells.ravel().astype(float)
    g = vecs.conj().T @ (vecs * weights[:, None]) * cell
    return 0.5 * (g + g.conj().T)


def empirical_constant(basis, mask: SetMask) -> float:
    """Sharp constant sup_f ||f||^2 / ||f||^2_{L2(S)} over the subspace.

    1/lambda_min of the masked Gram form, orthonormalized when the basis is
    not: X^H M X with X = G^(-1/2) from the k x k Gram matrix G.
    """
    vecs, cell = _basis_matrix(basis, mask)
    if vecs.shape[1] == 0:
        raise ValidationError("empty subspace")
    masked = masked_form(basis, mask)
    gram = vecs.conj().T @ vecs * cell
    if np.max(np.abs(gram - np.eye(gram.shape[0]))) > 1e-8:
        evals, evecs = np.linalg.eigh(gram)
        if evals[0] <= 1e-12:
            raise ValidationError("basis is numerically dependent")
        x = (evecs / np.sqrt(evals)) @ evecs.conj().T
        masked = x.conj().T @ masked @ x
    lam_min = float(np.linalg.eigvalsh(masked)[0])
    if lam_min <= 1e-14:
        raise NumericalError(
            "inequality numerically void: subspace concentrates off the set"
        )
    return 1.0 / lam_min


# -- 1-D estimates -------------------------------------------------------------


def remez_bound(n: int, measure: float) -> float:
    """(4/|E|)^n for degree-n polynomials on [0,1]."""
    if n < 0:
        raise ValidationError("degree must be non-negative")
    if not 0.0 < measure <= 1.0:
        raise ValidationError("measure must lie in (0, 1]")
    return (4.0 / measure) ** n


def _refine_max(f, lo: float, hi: float, iters: int = 60) -> float:
    """Golden-section maximization of f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return max(fc, fd, f(a), f(b))


def _sup_on_grid(f, points: np.ndarray, n_refine: int = 5) -> float:
    vals = f(points)
    best = float(np.max(vals))
    if points.size < 3:
        return best
    step = points[1] - points[0] if points.size > 1 else 0.0
    top = np.argsort(vals)[-n_refine:]
    for i in top:
        lo = max(points[0], points[i] - step)
        hi = min(points[-1], points[i] + step)
        best = max(best, _refine_max(lambda t: float(f(np.array([t]))[0]), lo, hi))
    return best


def sup_abs_on_interval(coeffs, lo: float, hi: float, n_grid: int = 10**4) -> float:
    """Sup of |P| on [lo, hi]: dense grid plus golden-section refinement."""
    pts = np.linspace(lo, hi, n_grid)
    return _sup_on_grid(lambda t: np.abs(np.polyval(coeffs, t)), pts)


def sup_abs_on_intervals(coeffs, intervals) -> float:
    total = 0.0
    for lo, hi in intervals:
        if hi <= lo:
            continue
        n = max(64, int(1e4 * (hi - lo)))
        total = max(total, sup_abs_on_interval(coeffs, lo, hi, n))
    return total


def _intervals_measure(intervals) -> float:
    return sum(max(0.0, hi - lo) for lo, hi in intervals)


def remez_check(coeffs: Sequence[complex], intervals) -> bool:
    """Grid-sup verification of the Remez inequality for one polynomial.

    `intervals` is a union of disjoint subintervals of [0,1] with positive
    total length.
    """
    measure = _intervals_measure(intervals)
    if measure <= 0:
        raise ValidationError("E must have positive measure")
    coeffs = np.asarray(coeffs, dtype=complex)
    n = len(coeffs) - 1
    sup01 = sup_abs_on_interval(coeffs, 0.0, 1.0)
    sup_e = sup_abs_on_intervals(coeffs, intervals)
    return sup01 <= remez_bound(n, measure) * sup_e * (1.0 + 1e-12)


@dataclass(frozen=True)
class AnalyticSample:
    """Polynomial stand-in for the analytic function in the 1-D lemma."""

    coeffs: tuple

    def __call__(self, z):
        return np.polyval(np.asarray(self.coeffs, dtype=complex), z)

    def at_zero(self) -> complex:
        return complex(self.coeffs[-1]) if self.coeffs else 0.0


def kovrijkine_check(phi: AnalyticSample, intervals, n_circle: int = 4096) -> bool:
    """sup_[0,1]|phi| <= (12/|E|)^(2 log2 M) sup_E|phi| with M from |z| = 4.

    The circle sup invokes the maximum principle; all sups are grid +
    golden-section refinements, so M is a slight underestimate, which only
    tightens the verified inequality.
    """
    if abs(phi.at_zero()) < 1.0 - 1e-12:
        raise ValidationError("need |phi(0)| >= 1")
    measure = _intervals_measure(intervals)
    if measure <= 0:
        raise ValidationError("E must have positive measure")
    theta = np.linspace(0.0, 2.0 * np.pi, n_circle, endpoint=False)
    m_phi = _sup_on_grid(lambda t: np.abs(phi(4.0 * np.exp(1j * t))), theta)
    m_phi = max(m_phi, abs(phi.at_zero()), 1.0)
    coeffs = np.asarray(phi.coeffs, dtype=complex)
    sup01 = sup_abs_on_interval(coeffs, 0.0, 1.0)
    sup_e = sup_abs_on_intervals(coeffs, intervals)
    bound = (12.0 / measure) ** (2.0 * math.log(m_phi) / LN2)
    return sup01 <= bound * sup_e * (1.0 + 1e-12)


# -- local estimate ------------------------------------------------------------


def _poly_disc_sup(lf: LadderField, anchors, ell: tuple, radii: tuple,
                   n_q: int = 6, n_theta: int = 24) -> float:
    """Sup of the |f|^2 extension over Q + polydisc(radii), by grid search
    over base points and both boundary circles."""
    q1 = np.linspace(anchors[0], anchors[0] + ell[0], n_q)
    q2 = np.linspace(anchors[1], anchors[1] + ell[1], n_q)
    th = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    e1 = radii[0] * np.exp(1j * th)
    e2 = radii[1] * np.exp(1j * th)
    z1 = (q1[:, None, None, None] + e1[None, None, :, None])
    z2 = (q2[None, :, None, None] + e2[None, None, None, :])
    phi = lf.eval(z1, z2) * lf.eval(z1, z2, conjugate_branch=True)
    return float(np.max(np.abs(phi)))


@dataclass(frozen=True)
class LocalEstimateResult:
    passed: bool
    lhs: float
    rhs: float
    m_value: float


def local_estimate_check(f: GridField, rect, u_cells: np.ndarray,
                         a_map: np.ndarray) -> LocalEstimateResult:
    """Both sides of the local lower bound for g = |f|^2 on a rectangle.

    rect = (anchor, ell); u_cells is a boolean array on f's grid selecting U;
    a_map is an invertible 2x2 matrix.  Requires a ladder tag (the analytic
    extension of |f|^2 is evaluated in closed form).
    """
    if f.ladder is None:
        raise ValidationError("needs a ladder-tagged field")
    anchor, ell = rect
    a_map = np.asarray(a_map, dtype=float)
    det = abs(float(np.linalg.det(a_map)))
    if det == 0.0:
        raise ValidationError("A must be invertible")
    g = np.abs(f.samples) ** 2
    area = f.cell_area
    i0, i1, j0, j1 = f.rect_indices(anchor, ell)
    box = np.zeros_like(g, dtype=bool)
    box[i0:i1, j0:j1] = True
    g_q = float(g[box].sum()) * area
    if g_q <= 0:
        raise ValidationError("f vanishes on the rectangle")
    inter = box & u_cells
    g_qu = float(g[inter].sum()) * area
    vol_q = ell[0] * ell[1]
    vol_qu = float(inter.sum()) * area
    corners = np.array([[ell[0], ell[1]], [ell[0], -ell[1]]], dtype=float)
    diam = max(float(np.linalg.norm(a_map @ c)) for c in corners)
    sup = _poly_disc_sup(f.ladder, anchor, ell, (4.0 * ell[0], 4.0 * ell[1]))
    m_value = max(1.0, vol_q * sup / g_q)
    base = det * vol_qu / (48.0 * math.pi * diam**2)
    exponent = 2.0 * math.log(m_value) / LN2
    rhs = 0.5 * base**exponent * (vol_qu / vol_q) * g_q
    return LocalEstimateResult(passed=g_qu >= rhs * (1.0 - 1e-9), lhs=g_qu,
                               rhs=rhs, m_value=m_value)


def taylor_extension_sup(f: GridField, x0, radii: tuple, degree: int = 24):
    """Majorant for the |f|^2 extension on x0 + polydisc(radii) from the
    truncated Taylor model, with a ratio-test divergence guard.

    Independent surrogate for the closed form.  Ordinary partials of |f|^2
    commute, so word sums collapse to multi-indices with binomial
    multiplicities; the multi-index derivatives come from the exact product
    identity over covariant-derivative values at x0.  The tail is bounded by
    geometric extrapolation of the last computed order.
    """
    if f.ladder is None:
        raise ValidationError("needs a ladder-tagged field")
    lf = f.ladder
    # V[a, b]: value at x0 of md2^b md1^a f (first index applied first)
    values = {}
    g1 = lf
    for a in range(degree + 1):
        g2 = g1
        for b in range(degree + 1 - a):
            values[(a, b)] = complex(g2.eval(x0[0], x0[1]))
            g2 = g2.magnetic_derivative(2)
        if a < degree:
            g1 = g1.magnetic_derivative(1)
    order_sums = []
    for m in range(degree + 1):
        tot = 0.0
        for j in range(m + 1):
            k = m - j
            val = 0j
            for a in range(j + 1):
                for b in range(k + 1):
                    val += (
                        math.comb(j, a)
                        * math.comb(k, b)
                        * (-1) ** (m - a - b)
                        * values[(a, b)]
                        * np.conj(values[(j - a, k - b)])
                    )
            deriv = ((-1j) ** m * val).real
            tot += (
                math.comb(m, j)
                * abs(deriv)
                * radii[0] ** j
                * radii[1] ** k
                / math.factorial(m)
            )
        order_sums.append(tot)
    partial = math.fsum(order_sums)
    nonzero = [(m, s) for m, s in enumerate(order_sums) if s > 0.0]
    if len(nonzero) < 2:
        return partial
    (m1, s1), (m2, s2) = nonzero[-2], nonzero[-1]
    ratio = (s2 / s1) ** (1.0 / (m2 - m1))  # per-order growth factor
    if ratio >= 1.0:
        raise NumericalError("M unbounded at truncation: Taylor majorant diverges")
    tail = s2 * ratio / (1.0 - ratio)
    return partial + tail


# -- series bound ---------------------------------------------------------------


def series_bound_check(s: float, m_terms: Optional[int] = None) -> bool:
    """Partial sum of (s sqrt(m))^m / m! plus a certified geometric tail is
    checked against exp(2 s^2 + s)."""
    if s < 0:
        raise ValidationError("s must be non-negative")
    if s == 0:
        return True
    if m_terms is None:
        m_terms = max(64, int(12 * math.e * s * s))
    terms = [1.0]
    for m in range(1, m_terms + 1):
        log_t = m * math.log(s) + 0.5 * m * math.log(m) - math.lgamma(m + 1)
        terms.append(math.exp(log_t))
    partial = math.fsum(terms)
    m = m_terms
    ratio = s * (1.0 + 1.0 / m) ** (m / 2.0) / math.sqrt(m + 1.0)
    if ratio >= 0.5:
        raise ValidationError(f"m_terms={m_terms} too small for s={s}")
    tail = terms[-1] * ratio / (1.0 - ratio)
    if tail > 1e-12 * partial:
        raise ValidationError("tail certificate exceeds 1e-12 of the partial sum")
    return partial + tail <= math.exp(2.0 * s * s + s)


# -- necessity of thickness -------------------------------------------------------


def necessity_decay(n: float, B: float, mask: SetMask, center=(0.0, 0.0)) -> float:
    """||f_center||^2 over the masked set, by cell-sum quadrature.

    For masks whose complement contains most of the radius-n ball around the
    centre, the value is bounded by vol(S cap ball) + (2 pi / B) exp(-B n^2/2)
    plus discretization tolerance: the Gaussian tail constant is the exact
    integral of exp(-B r^2 / 2) outside radius n.
    """
    if n <= 0 or B <= 0:
        raise ValidationError("need n, B > 0")
    lf = LadderField(B, {tuple(center): {0: 1.0}})
    n1, n2 = mask.cells.shape
    x1 = mask.origin[0] + mask.spacing[0] * (np.arange(n1) + 0.5)[:, None]
    x2 = mask.origin[1] + mask.spacing[1] * (np.arange(n2) + 0.5)[None, :]
    vals = np.abs(lf.eval(x1, x2)) ** 2
    return float(np.sum(vals, where=mask.cells)) * mask.cell_area


def gaussian_tail_bound(n: float, B: float) -> float:
    """Exact mass of exp(-B r^2 / 2) outside radius n: (2 pi / B) e^(-B n^2/2)."""
    return (2.0 * math.pi / B) * math.exp(-B * n * n / 2.0)
