"""Spectral-inequality constants, sharp empirical constants, and the
one-dimensional Remez/Kovrijkine estimate engine.

The traced constant follows the visible proof chain: per good rectangle the
base is 96*pi/rho with exponent 1 + 2*ln(M)/ln(2), the analytic-extension
bound is ln M <= ln 16 + 2*240^2*(|l|_1(sqrt(E)+sqrt(B)) + |l|_1^2 B), and a
prefactor 4 collects the good-mass and covering losses.  Exponents reach 1e6
for order-one windows, so the value overflows floats by design and only its
natural log is computed.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .geometry import SetMask

if TYPE_CHECKING:  # lattice loads scipy, which the continuum commands never import
    from .lattice import SpectralSubspace

LN2 = math.log(2.0)


def spectral_factors_log(B: float, ell: tuple, rho: float) -> tuple:
    """(log d0, d1) with log C(E) = log d0 + d1 sqrt(E) for the traced chain."""
    if not 0.0 < rho <= 1.0:
        raise ValidationError("rho must lie in (0, 1]")
    l1 = abs(ell[0]) + abs(ell[1])
    k = 2.0 * 240.0**2
    base = math.log(96.0 * math.pi / rho)
    ln_m_rest = math.log(16.0) + k * (l1 * math.sqrt(B) + l1 * l1 * B)
    log_d0 = math.log(4.0) + (1.0 + 2.0 * ln_m_rest / LN2) * base
    d1 = 2.0 * k * l1 * base / LN2
    return log_d0, d1


def theoretical_constant_log(E: float, B: float, ell: tuple, rho: float) -> float:
    """Natural log of the spectral-inequality constant (rho is checked in
    spectral_factors_log)."""
    if B < 0 or E < 0 or (B > 0 and E < B):
        raise ValidationError("need E >= B > 0 or B = 0")
    log_d0, d1 = spectral_factors_log(B, ell, rho)
    return log_d0 + d1 * math.sqrt(E)


def masked_form(sub: SpectralSubspace, mask: SetMask) -> np.ndarray:
    """Hermitian k x k matrix of the L2(S) inner product on the subspace basis."""
    if mask.cells.shape != tuple(sub.setup.N):
        raise ValidationError("mask grid does not match the basis grid")
    vecs = sub.vectors
    cell = sub.setup.spacing[0] * sub.setup.spacing[1]
    weights = mask.cells.ravel().astype(float)
    g = vecs.conj().T @ (vecs * weights[:, None]) * cell
    return 0.5 * (g + g.conj().T)


def empirical_constant(sub: SpectralSubspace, mask: SetMask) -> float:
    """Sharp constant sup_f ||f||^2 / ||f||^2_{L2(S)} over the subspace:
    1/lambda_min of the masked Gram form.

    The basis must be L2-orthonormal: a Gram matrix off the identity by more
    than 1e-8 raises NumericalError.
    """
    masked = masked_form(sub, mask)
    if sub.dim == 0:
        raise ValidationError("empty subspace")
    vecs = sub.vectors
    gram = vecs.conj().T @ vecs * (sub.setup.spacing[0] * sub.setup.spacing[1])
    deviation = float(np.max(np.abs(gram - np.eye(sub.dim))))
    if deviation > 1e-8:
        raise NumericalError(
            f"subspace basis is not orthonormal: Gram deviation {deviation:.2e}"
        )
    lam_min = float(np.linalg.eigvalsh(masked)[0])
    if lam_min <= 1e-14:
        raise NumericalError(
            "inequality numerically void: subspace concentrates off the set"
        )
    return 1.0 / lam_min


# -- 1-D estimates -------------------------------------------------------------


def remez_log_bound(n: int, measure: float) -> float:
    """n log(4/|E|), the natural log of the Remez bound (4/|E|)^n for
    degree-n polynomials on [0,1]: finite where the bound leaves the float
    range."""
    if n < 0:
        raise ValidationError("degree must be non-negative")
    if not 0.0 < measure <= 1.0:
        raise ValidationError("measure must lie in (0, 1]")
    return n * math.log(4.0 / measure)


def _abs_polyval(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """|P(x)| by Horner's rule in place: the products and sums of np.polyval."""
    y = np.full(x.shape, c[0], dtype=complex)
    for cv in c[1:]:
        y *= x
        y += cv
    return np.abs(y)


def _grid_sups(coeffs, intervals, n_grids) -> np.ndarray:
    """Sup of |P| on each [lo, hi] of `intervals`, over np.linspace(lo, hi,
    n_grid) (endpoints included) and the critical points of |P|^2 that fall
    in it; 0 where n_grid is 0, the mark of an empty interval.

    |P(t)|^2 is a real polynomial of degree 2n on the real line, so the sup is
    reached at an endpoint or at a real root of its derivative.  The roots are
    solved once for all intervals: their real parts, each also after one
    Newton step, are the critical points.  Every candidate lies in its
    interval, so no result exceeds the sup beyond rounding; the grid is a
    floor should a root be lost.  Each interval's grid and critical points
    then go through one evaluation of |P| (`_abs_polyval`).
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    dq = np.polyder(np.convolve(c, c.conj()).real)
    # terms below the rounding level of dq on [0, 1] are dropped: a tiny
    # leading one scales the companion matrix until the roots near [0, 1] are lost
    small = np.abs(dq) <= np.finfo(float).eps * np.max(np.abs(dq), initial=0.0)
    roots = np.roots(np.where(small, 0.0, dq)).real
    with np.errstate(all="ignore"):
        polished = roots - np.polyval(dq, roots) / np.polyval(np.polyder(dq), roots)
    crit = np.concatenate((roots, polished))
    bounds = np.asarray(intervals, dtype=float).reshape(-1, 2)
    sups = np.zeros(len(bounds))
    for i, ((lo, hi), n) in enumerate(zip(bounds, n_grids)):
        if n:
            t = np.concatenate((np.linspace(lo, hi, n), crit[(crit >= lo) & (crit <= hi)]))
            sups[i] = _abs_polyval(c, t).max()
    return sups


def sup_abs_on_interval(coeffs, lo: float, hi: float, n_grid: int = 10**4) -> float:
    """Sup of |P| on [lo, hi] for n_grid >= 2, over the grid and the critical
    points of |P|^2 (see _grid_sups)."""
    return float(_grid_sups(coeffs, [(lo, hi)], [n_grid])[0])


def sup_abs_on_intervals(coeffs, intervals) -> np.ndarray:
    """Sup of |P| on each interval, 0 on an empty one (hi <= lo), from one
    critical-point solve; [lo, hi] gets a grid of max(64, int(1e4 (hi - lo)))
    points, so [0, 1] gets 10^4."""
    return _grid_sups(coeffs, intervals, [max(64, int(1e4 * (hi - lo))) if hi > lo else 0
                                          for lo, hi in intervals])


def _intervals_measure(intervals) -> float:
    return sum(max(0.0, hi - lo) for lo, hi in intervals)


def _log_at_most(lhs: float, log_bound: float, rhs: float) -> bool:
    """lhs <= exp(log_bound) rhs (1 + 1e-12) for lhs, rhs >= 0, compared in
    logs so that no bound overflows: log lhs <= log_bound + log rhs + 1e-12
    (1e-12 is log(1 + 1e-12) to 5e-25)."""
    if lhs <= 0.0 or rhs <= 0.0:
        return lhs <= 0.0
    return math.log(lhs) <= log_bound + math.log(rhs) + 1e-12


def _certified(c: np.ndarray, intervals, log_bound: float) -> bool:
    """Whether sum |c_k| and |P| at the endpoints of E prove that the sup
    comparison of `_verdict` passes, for the complex coefficients c of P
    (highest degree first) and the log of the bound, log_bound:
    U <= exp(log_bound) L (1 + 1e-12) in logs with the slack eta below, for
    U and L as below.

    Soundness.  Let u = 2^-53, g_k = k u/(1 - k u), A = sum |c_k| and n the
    degree.  Horner's rule (Higham, Accuracy and Stability of Numerical
    Algorithms, 5.1) with complex products of relative error <= sqrt(2) g_2
    < 3u and sums of error <= u (Higham 3.6) gives, for |x| <= 1,
    |P^(x) - P(x)| <= g_4n A; the modulus adds 2u, so every computed |P(x)|
    there, whatever array or loop evaluates it, lies within g_(4n+2) A of
    |P(x)|.  The computed sum s of the n + 1 moduli lies within g_(n+2) of A.
    Hence, with the allowance gamma = (10n + 16) u:
      - U = s (1 + gamma) + tau bounds every computed |P| on [0, 1], at a
        grid or a critical point alike, from above: A (1 + g_(4n+2)) <=
        s (1 + (5n + 4) u + O(u^2));
      - L = max |P(e)| - gamma s - tau over the endpoints e of E's non-empty
        intervals in [-1, 1], which the grids of the full check hold, bounds
        its sup_E from below: the two evaluations of |P(e)| differ by at most
        2 g_(4n+2) A <= (8n + 4) u s + O(u^2);
    both with (2n + 12) u to spare for the roundings in forming U and L.
    The second allowance, tau = (n + 1) 2^-1072, covers gradual underflow,
    which adds at most 2^-1075 per real product and nothing to a sum (Higham,
    chapter 2): about 3n 2^-1075 over Horner's steps and (n + 1) 2^-1075 over
    the moduli, per evaluation.  No intermediate exceeds U, so a finite U excludes
    overflow.

    The comparison runs in logs, so that no bound overflows; the full
    check's is `_log_at_most`.  CPython's math.log is the C library's,
    within 1 ulp in glibc, so the computed log of x lies within
    2^-52 |ln x| of ln x.  Let m = max(|log U|, |log L|).  As sup_[0,1] <= U
    and L <= sup_E, and t + 2^-52 |t| and t - 2^-52 |t| increase with t, the
    full check's log sup_[0,1] is at most ln U + 2^-52 m and its log sup_E
    at least ln L - 2^-52 m; each of the five additions on the two sides
    errs by at most 2^-53 S, with S = |log_bound| + 2m + 1.  The
    certificate's log U + eta <= log_bound + log L + 1e-12 thus implies the
    full check's log sup_[0,1] <= log_bound + log sup_E + 1e-12 once
    eta >= 2^-53 (5 S + 8 m); eta = 2^-46 (|log_bound| + 3m + 1) is over 20
    times that, room for logs 20 ulps off.
    """
    n = c.size - 1
    ends = [float(e) for lo, hi in intervals if hi > lo for e in (lo, hi) if abs(e) <= 1.0]
    s = float(np.abs(c).sum())
    gamma = (10 * n + 16) * 2.0**-53
    tau = (n + 1) * 2.0**-1072
    upper = s * (1.0 + gamma) + tau
    lower = float(np.max(_abs_polyval(c, np.array(ends)), initial=0.0)) - gamma * s - tau
    if not (math.isfinite(upper) and lower > 0.0):
        return False
    log_u, log_l = math.log(upper), math.log(lower)
    eta = 2.0**-46 * (abs(log_bound) + 3.0 * max(abs(log_u), abs(log_l)) + 1.0)
    return log_u + eta <= log_bound + log_l + 1e-12


def _verdict(c: np.ndarray, intervals, log_bound: float) -> bool:
    """sup_[0,1]|P| <= exp(log_bound) sup_E|P| (1 + 1e-12), compared in logs,
    with both sups over the grid and the critical points of |P|^2
    (`sup_abs_on_intervals`), unless `_certified` proves it first: the
    certificate only accepts where the sups would, so the verdict is theirs."""
    if _certified(c, intervals, log_bound):
        return True
    sup01, *sup_e = sup_abs_on_intervals(c, [(0.0, 1.0), *intervals]).tolist()
    return _log_at_most(sup01, log_bound, max([0.0, *sup_e]))


def remez_check(coeffs: Sequence[complex], intervals) -> bool:
    """Verification of the Remez inequality for one polynomial.  The verdict
    is certified from sum |c_k| and |P| at the endpoints of E where that
    settles it, and is otherwise taken from the sups over the grid and the
    critical points of |P|^2 (see _certified).

    `intervals` is a union of disjoint subintervals of [0,1] with positive
    total length.
    """
    measure = _intervals_measure(intervals)
    if measure <= 0:
        raise ValidationError("E must have positive measure")
    coeffs = np.asarray(coeffs, dtype=complex)
    return _verdict(coeffs, intervals, remez_log_bound(len(coeffs) - 1, measure))


@lru_cache(maxsize=4)
def _circle_inverses(n_circle: int) -> np.ndarray:
    """1/z at n_circle equispaced points z of |z| = 4, as conj(z)/16 (exact)
    (read-only: the array is shared)."""
    theta = np.linspace(0.0, 2.0 * np.pi, n_circle, endpoint=False)
    u = np.conj(4.0 * np.exp(1j * theta)) / 16.0
    u.flags.writeable = False
    return u


def kovrijkine_check(coeffs: Sequence[complex], intervals, n_circle: int = 4096) -> bool:
    """sup_[0,1]|P| <= (12/|E|)^(2 log2 M) sup_E|P| with M from |z| = 4, for
    the polynomial P of `coeffs` (highest degree first), the stand-in for the
    analytic function of the 1-D lemma.

    The circle sup invokes the maximum principle.  M is the max of |P| over
    n_circle equispaced points of the circle, a slight underestimate, which
    only tightens the verified inequality.  Its log is taken without
    overflow, past degree ~500 too: P(z) = z^n Q(1/z) with Q the reversed
    polynomial, so log M = n log 4 + log max |Q(1/z)| over |1/z| = 1/4, and
    the bound is compared in logs.  As in remez_check, the verdict is
    certified from sum |c_k| and the endpoints of E where that settles it,
    and is otherwise taken from the grid-plus-critical-point sups on [0, 1]
    and E (see _certified).
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    at_zero = abs(coeffs[-1]) if coeffs.size else 0.0
    if at_zero < 1.0 - 1e-12:
        raise ValidationError("need |P(0)| >= 1")
    measure = _intervals_measure(intervals)
    if measure <= 0:
        raise ValidationError("E must have positive measure")
    reversed_sup = float(np.max(np.abs(np.polyval(coeffs[::-1], _circle_inverses(n_circle)))))
    log_m = max((coeffs.size - 1) * math.log(4.0) + math.log(reversed_sup),
                math.log(at_zero), 0.0)
    return _verdict(coeffs, intervals, 2.0 * log_m / LN2 * math.log(12.0 / measure))


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

