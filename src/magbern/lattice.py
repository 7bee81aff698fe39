"""Finite-volume Landau operator on a flux-quantized torus grid.

Peierls discretization in the torus Landau gauge: x1-links are phase-free
except for a twist column on the wrap-around seam, x2-links carry
exp(-i*B*h2*x1).  Every plaquette then encloses flux B*h1*h2 and the seam
twist closes consistently iff B*L1*L2 is an integer number of flux quanta,
which TorusSetup enforces.  Spectra cluster at the Landau levels
{B, 3B, 5B, ...} with the lowest cluster exactly N_phi-fold degenerate.

In this gauge the x2-links depend on x1 only, so a Fourier transform along
x2 turns H (with a potential that varies along x1 only) into
g = gcd(n_phi, N2) decoupled rings of length N1*N2/g: real symmetric
periodic tridiagonal Harper chains (Hofstadter, Phys. Rev. B 14, 1976), in
which the seam twist carries (N1-1, k) on to (0, k - n_phi).  `eigensolve`
solves the rings, never the 2-D operator, and checks every pair against
the assembled matrix.  A ring, held as its diagonal and one hop, is an
open tridiagonal chain less a rank-one term: its pairs are the chain's,
from LAPACK, moved by the secular equation (Golub, SIAM Rev. 15, 1973;
Bunch, Nielsen and Sorensen, Numer. Math. 31, 1978), one deterministic
solve, complete by construction.  With a constant potential and n_phi | N1,
ring r is ring 0 moved by r*N1/n_phi sites (a magnetic translation, Zak,
Phys. Rev. 134, 1964), so only ring 0 is solved.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgtsv, dstebz, dstein

from .errors import NumericalError, ResourceLimitError, ValidationError
from .landau import LadderField

TWO_PI = 2.0 * np.pi


def validate_flux(B: float, L: tuple) -> bool:
    """Integer flux through the box: B*L1*L2 in 2*pi*Z to within 1e-9, the
    condition under which the torus closure of this module is consistent."""
    q = B * L[0] * L[1] / TWO_PI
    return math.isfinite(q) and abs(q - round(q)) < 1e-9


def _box_area(L: tuple) -> float:
    """L1*L2, refused unless both sides are positive and the product is a
    finite positive float (it over- or underflows at the ends of the range)."""
    if L[0] <= 0 or L[1] <= 0:
        raise ValidationError("box sides must be positive")
    area = L[0] * L[1]
    if not 0.0 < area < math.inf:
        raise ValidationError(f"box area L1*L2 = {area!r} is not a finite positive float")
    return area


@dataclass(frozen=True)
class TorusSetup:
    """Box side lengths, field strength, and grid resolution."""

    L: tuple
    B: float
    N: tuple

    def __post_init__(self):
        if self.N[0] < 4 or self.N[1] < 4:
            raise ValidationError("need at least 4 grid points per direction")
        if max(self.N) > sys.float_info.max:  # L/N would raise
            raise ValidationError("grid size exceeds the float range")
        _box_area(self.L)
        if not 0.0 <= self.B < math.inf:
            raise ValidationError(f"B must be finite and non-negative, got {self.B!r}")
        for h in self.spacing:
            # the operator's hops are 1/h^2: it must neither overflow nor vanish
            if not (h > 0 and 0.0 < (1.0 / h) * (1.0 / h) < math.inf):
                raise ValidationError(
                    f"grid spacing {h!r}: 1/h^2 is not a finite positive float")
        if not validate_flux(self.B, self.L):
            raise ValidationError(
                f"flux quantization violated: B*L1*L2/(2*pi) = "
                f"{self.B * self.L[0] * self.L[1] / TWO_PI}"
            )

    @staticmethod
    def from_flux(n_phi: int, L: tuple, N: tuple) -> "TorusSetup":
        """Exactly quantized setup with n_phi flux quanta through the box."""
        if n_phi < 0:
            raise ValidationError("n_phi must be non-negative")
        if n_phi > sys.float_info.max:  # an int compares exactly; converting it would raise
            raise ValidationError("n_phi exceeds the float range")
        B = TWO_PI * n_phi / _box_area(L)
        return TorusSetup(L=tuple(L), B=B, N=tuple(N))

    @property
    def spacing(self) -> tuple:
        return (self.L[0] / self.N[0], self.L[1] / self.N[1])

    @property
    def n_phi(self) -> int:
        return int(round(self.B * self.L[0] * self.L[1] / TWO_PI))

    @property
    def dim(self) -> int:
        return self.N[0] * self.N[1]


@dataclass
class MagneticOperator:
    """Hermitian 5-point magnetic Laplacian with Peierls link phases.

    u1[i, j] multiplies the hop (i, j) -> (i+1, j) (wrapping), u2 the hop
    (i, j) -> (i, j+1); `diag` holds an optional real on-site potential.
    """

    setup: TorusSetup
    u1: np.ndarray
    u2: np.ndarray
    diag: Optional[np.ndarray] = None

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """CSR with 5 stored entries a row, columns sorted, the diagonal
        always stored."""
        n1, n2 = self.setup.N
        h1, h2 = self.setup.spacing
        dim = n1 * n2
        idx = np.arange(dim, dtype=np.int32 if 5 * dim < 2**31 else np.int64).reshape(n1, n2)
        hop1 = -self.u1 * (1.0 / h1**2)  # (i, j) -> (i+1, j)
        hop2 = -self.u2 * (1.0 / h2**2)  # (i, j) -> (i, j+1)
        d = np.full(dim, 2.0 / h1**2 + 2.0 / h2**2)
        if self.diag is not None:
            d = d + self.diag.ravel()
        # row (i, j): the hops in from (i-1, j) and (i, j-1), the diagonal,
        # the hops out to (i, j+1) and (i+1, j)
        cols = np.empty((n1, n2, 5), dtype=idx.dtype)
        vals = np.empty((n1, n2, 5), dtype=complex)
        for k, (col, val) in enumerate([
                (np.roll(idx, 1, axis=0), np.roll(hop1.conj(), 1, axis=0)),
                (np.roll(idx, 1, axis=1), np.roll(hop2.conj(), 1, axis=1)),
                (idx, d.reshape(n1, n2)),
                (np.roll(idx, -1, axis=1), hop2),
                (np.roll(idx, -1, axis=0), hop1)]):
            cols[..., k] = col
            vals[..., k] = val
        vals += 0.0  # -0.0 parts become +0.0, as in a sparse sum
        indptr = np.arange(0, 5 * dim + 1, 5, dtype=idx.dtype)
        h = sp.csr_matrix((vals.ravel(), cols.ravel(), indptr), shape=(dim, dim))
        h.sort_indices()
        return h


def assemble(setup: TorusSetup, potential: Optional[np.ndarray] = None) -> MagneticOperator:
    """Link phases for the torus Landau gauge with seam twist."""
    n1, n2 = setup.N
    h1, h2 = setup.spacing
    phi = setup.B * h1 * h2
    i = np.arange(n1)[:, None]
    j = np.arange(n2)[None, :]
    u2 = np.exp(-1j * phi * i) * np.ones((1, n2))
    u1 = np.ones((n1, n2), dtype=complex)
    u1[n1 - 1, :] = np.exp(1j * phi * n1 * j).ravel()
    if potential is not None:
        potential = np.asarray(potential, dtype=float)
        if potential.shape != (n1, n2):
            raise ValidationError("potential shape must match the grid")
    return MagneticOperator(setup=setup, u1=u1, u2=u2, diag=potential)


@dataclass
class SpectralSubspace:
    """Orthonormal eigenpairs below a cutoff, in L2(box) normalization."""

    setup: TorusSetup
    eigenvalues: np.ndarray
    vectors: np.ndarray  # (dim, k), columns L2-orthonormal
    cutoff: float

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


# Largest dimension densified: the complex matrix takes 16 dim^2 bytes, 1 GiB
# here.  A ring block (M x pairs) is held to as many entries.
DENSE_DIM_CAP = 8192


def _refuse_dense(rows: int, cols: int, itemsize: int) -> None:
    if rows * cols > DENSE_DIM_CAP**2:
        raise ResourceLimitError(
            f"a dense {rows} x {cols} array needs {itemsize * rows * cols / 2**30:.2f} GiB; "
            f"the cap is dim {DENSE_DIM_CAP}")


def dense_matrix(matrix: sp.spmatrix) -> np.ndarray:
    """A sparse complex matrix as a dense array, refused before any
    allocation when its dim exceeds DENSE_DIM_CAP."""
    _refuse_dense(*matrix.shape, 16)
    return matrix.toarray()


def _ring_diagonal(setup: TorusSetup, modes: np.ndarray, v1: np.ndarray) -> np.ndarray:
    """Diagonal of one ring, a real symmetric periodic tridiagonal Harper chain.

    Site p = t*N1 + i is (i, modes[t]); every hop, the ones across the seam
    and the one closing the ring included, is -1/h1^2, and the diagonal is
    2/h1^2 + 2/h2^2 - (2/h2^2) cos(2 pi k/N2 - phi i) + v1[i], phi = B h1 h2.
    """
    n1, n2 = setup.N
    h1, h2 = setup.spacing
    phi = setup.B * h1 * h2
    d = (2.0 / h1**2 + 2.0 / h2**2 + v1[None, :]
         - (2.0 / h2**2) * np.cos(TWO_PI * modes[:, None] / n2 - phi * np.arange(n1)[None, :]))
    return d.ravel()


def _open_chain(d: np.ndarray, hop: float) -> np.ndarray:
    """Diagonal of T: the ring A (diagonal d, hop `hop` < 0) cut at its
    closing hop, with |hop| added at both ends, so A = T - |hop| u u^T with
    u = e_0 + e_(M-1).  T's off-diagonal is `hop`."""
    t = d.copy()
    t[[0, -1]] -= hop
    return t


# Relative margin inside which two peak magnitudes tie for the sign choice:
# far above the solver's rounding, far below a smooth peak's curvature.
SIGN_TIE = 1e-6


def _solve_ring(d: np.ndarray, hop: float, energy: Optional[float] = None,
                count: Optional[int] = None) -> tuple:
    """Eigenpairs of the ring A = T - rho u u^T (`_open_chain`, rho = |hop|)
    at or below `energy`, or its lowest min(count, M).

    T's pairs (lam_j, q_j) in the window come from LAPACK's dstebz and
    dstein, the M x pairs block refused past DENSE_DIM_CAP^2 entries first.
    A pair with rho |u^T q_j| <= tol = 8 eps ||T||, or rotated to that with
    a close kept pair (as in dlaed2), is A's.  The others are the poles of
    f(mu) = 1 - rho u^T (T - mu)^-1 u, whose terms above the window come
    from one tridiagonal solve of w = u - Q Q^T u, off Q.  A root of f lies
    below the lowest kept pole and between each two, and one more above the
    last iff f(top) < 0 (top: the cutoff, or T's top pair by count).  Each
    is sought from its nearer pole by a fixed-weight rational step (Li,
    LAPACK Working Note 89) in a bisection bracket, to a residual at
    rounding level; its vector is (T - mu)^-1 u.  Roots a few ulps apart
    lose orthogonality, which a QR of the block in ascending order restores,
    moving each vector by about its residual (two overlap at most by their
    residuals over their gap).  Each vector is signed so that its
    largest-magnitude entry is positive: the first within SIGN_TIE of it, as
    a reflection-symmetric ring ties +x and -x at the peak.
    """
    m, rho = d.size, -hop
    t, e = _open_chain(d, hop), np.full(m - 1, hop)
    window = (1, -math.inf, energy, 0, 0) if count is None else (2, 0.0, 0.0, 1, min(count, m))
    k, lam, block, split, info = dstebz(t, e, *window, 0.0, b"B")
    _refuse_dense(m, k, 8)
    q, fail = dstein(t, e, lam[:k], block, split) if k else (np.zeros((m, 0)), 0)
    if info or fail:
        raise NumericalError(f"open-chain eigenpairs failed (dstebz {info}, dstein {fail})")
    order = np.argsort(lam[:k])
    lam, q = lam[order], q[:, order]
    z = q[0] + q[-1]  # Q^T u
    w = np.zeros(m) if k == m else -(q @ z)
    w[[0, -1]] += k < m  # u - Q Q^T u, u = e_0 + e_(M-1)
    tol = 8.0 * np.finfo(float).eps * (np.abs(t).max() + 2.0 * rho)  # 8 eps ||T||
    keep = rho * np.abs(z) > tol
    for i, j in zip(np.flatnonzero(keep), np.flatnonzero(keep)[1:]):
        pair = [i, j]  # rot = [[c, -s], [s, c]], s = -z_i / |(z_i, z_j)|
        rot = np.array([[z[j], z[i]], [-z[i], z[j]]]) / math.hypot(z[i], z[j])
        if abs((lam[j] - lam[i]) * rot[0, 0] * rot[1, 0]) <= tol:
            q[:, pair], lam[pair] = q[:, pair] @ rot, (rot**2).T @ lam[pair]
            z[pair], keep[i] = rot.T @ z[pair], False
    poles, zeta, n = lam[keep], rho * z[keep] ** 2, int(keep.sum())
    top = energy if count is None else lam.max()
    # root r lies in (ends[r], ends[r + 1]), above the Gershgorin floor of
    # both spectra; it starts at base + tau: the one above the last pole at
    # top, the lowest halfway to its pole - zeta (where f <= 0), the others
    # mid-interval
    ends = np.concatenate([[d.min() - 2.0 * rho - tol], poles, [top]])
    walls = np.concatenate([[-math.inf], poles, [math.inf]])
    base, tau = ends[:-1].copy(), 0.5 * np.diff(ends)
    tau[n] = top - ends[n]
    base[0], tau[0] = (poles[0], 0.5 * (ends[0] - poles[0] - zeta[0])) if n else (base[0], tau[0])
    f, slope, y = np.zeros(n + 1), np.zeros(n + 1), np.zeros((n + 1, m))

    def secular(r):  # f, its slope and y = (T - mu)^-1 w off Q at mu = base + tau
        for i in r if k < m else []:
            mu = base[i] + tau[i]
            *_, sol, bad = dgtsv(e, t - mu, e, w)
            if bad:  # mu is one of T's eigenvalues to the last bit: step off it
                *_, sol, bad = dgtsv(e, t - (mu + tol), e, w)
            y[i] = sol - q @ (q.T @ sol)
        gap = poles - base[r, None] - tau[r, None]
        f[r] = 1.0 - (zeta / gap).sum(axis=1) - rho * (y[r] @ w)
        slope[r] = (zeta / gap**2).sum(axis=1) + rho * (y[r] ** 2).sum(axis=1)

    roots = np.arange(n + 1 if n == 0 or top > poles[-1] else n)
    secular(roots)
    roots = roots[(roots < n) | (f[roots] < 0)]  # the one above the last pole iff f(top) < 0
    right = np.arange(n + 1) == 0  # the origin is the right wall
    # an interior root is sought from its nearer pole: the right one where f(mid) >= 0
    flip = roots[(roots > 0) & (roots < n) & (f[roots] >= 0)]
    right[flip], base[flip], tau[flip] = True, ends[flip + 1], -tau[flip]
    lo, hi = ends[:-1] - base, ends[1:] - base
    weight, active = np.append(zeta, 0.0)[np.arange(-1, n) + right], roots  # the origin's
    for _ in range(100):
        r, fr = active, f[active]
        lo[r], hi[r] = np.where(fr > 0, tau[r], lo[r]), np.where(fr < 0, tau[r], hi[r])
        # done at a residual |f| (2 rho / slope)^1/2 below tol, or a bracket of rounding size
        done = ((2.0 * rho * fr**2 <= tol**2 * slope[r])
                | (hi[r] - lo[r] <= 4.0 * np.spacing(np.maximum(np.abs(lo[r]), np.abs(hi[r])))))
        active = r[~done]
        if not active.size:
            break
        r, fr, s = active, f[active], slope[active]
        dl, dr = walls[r] - base[r] - tau[r], walls[r + 1] - base[r] - tau[r]
        with np.errstate(divide="ignore", invalid="ignore"):
            # fixed weight: the origin pole keeps its own, the other wall the rest
            # of the slope; of the roots of c eta^2 - a eta + f, the one between them
            left = np.where(right[r], s - weight[r] / tau[r] ** 2, weight[r] / tau[r] ** 2)
            a = fr * (1.0 / dl + 1.0 / dr) + s
            c = fr / (dl * dr) + left / dr + (s - left) / dl
            qq = 0.5 * (a + np.copysign(np.sqrt(np.maximum(a * a - 4.0 * c * fr, 0.0)), a))
            new = tau[r] + np.where((dl < fr / qq) & (fr / qq < dr), fr / qq, qq / c)
        tau[r] = np.where((lo[r] < new) & (new < hi[r]), new, 0.5 * (lo[r] + hi[r]))
        secular(r)
    else:
        raise NumericalError("the secular equation did not converge in 100 steps")
    x = (z[keep] / (poles - base[roots, None] - tau[roots, None])) @ q[:, keep].T + y[roots]
    evals = np.concatenate([lam[~keep], base[roots] + tau[roots]])
    order = np.argsort(evals, kind="stable")[:count]
    # the QR normalizes too; its transposed rows are in the order LAPACK takes
    vecs = np.linalg.qr(np.vstack([q[:, ~keep].T, x])[order].T)[0]
    mag = np.abs(vecs)
    peak = np.argmax(mag >= (1.0 - SIGN_TIE) * mag.max(axis=0, initial=0.0), axis=0)
    return evals[order], vecs * np.copysign(1.0, vecs[peak, np.arange(vecs.shape[1])])


def _translation_shifts(setup: TorusSetup, v1: np.ndarray, g: int) -> Optional[list]:
    """Sites s_r by which ring r is ring 0 moved, or None.

    The cosine term of ring r's diagonal at site p is ring 0's at
    p - r*N1/n_phi, while v1 stays at p mod N1; so with a constant potential
    and n_phi | N1 every ring is a magnetic translate of ring 0 (Zak,
    Phys. Rev. 134, 1964) and has its spectrum.
    """
    n1, n_phi = setup.N[0], setup.n_phi
    if g < 2 or n_phi == 0 or n1 % n_phi or np.any(v1 != v1[0]):
        return None
    return [r * n1 // n_phi for r in range(g)]


def eigensolve(op: MagneticOperator, energy: Optional[float] = None,
               count: Optional[int] = None, dense_threshold: int = 255) -> SpectralSubspace:
    """All eigenpairs with eigenvalue <= energy (or the lowest `count`).

    Solved on the g = gcd(n_phi, N2) Fourier rings (length M = N1*N2/g,
    `_ring_diagonal`, hop -1/h1^2) of `assemble`'s Landau gauge, so the
    potential may vary along x1 only (ValidationError otherwise).  Each ring
    class is solved once by `_solve_ring`, ring 0 alone when the rings are
    its translates (`_translation_shifts`): by energy, for its pairs at or
    below the cutoff; by count, for ceil(count/g) pairs of ring 0 for
    translates, else `count` per ring.  Exactly equal eigenvalues keep ring
    order, and the kept vectors go back to the grid by one inverse FFT along
    x2, so inside a degenerate level the basis is the ring basis.  Every
    returned pair has relative residual at most 1e-8 against `op.matrix`
    (NumericalError otherwise), so an operator whose link phases are not
    `assemble`'s is refused, not mis-solved.  `dense_threshold` has no
    effect; it stays because the benchmark's tracer reads it by name.
    """
    if (energy is None) == (count is None):
        raise ValidationError("give exactly one of energy= or count=")
    if count is not None and count < 1:
        raise ValidationError(f"count must be at least 1, got {count}")
    setup = op.setup
    n1, n2 = setup.N
    h1, h2 = setup.spacing
    trust = 0.1 / max(h1, h2) ** 2
    if energy is not None and energy > trust:
        warnings.warn(f"cutoff {energy:.3g} above the trustworthy band ~{trust:.3g}",
                      stacklevel=2)
    v1 = np.zeros(n1) if op.diag is None else op.diag[:, 0]
    if op.diag is not None and np.any(op.diag != v1[:, None]):
        raise ValidationError("eigensolve needs a potential that is constant along x2")
    n_phi = setup.n_phi
    g = math.gcd(n_phi, n2)
    # ring r visits the x2-Fourier modes k = r - t*n_phi mod N2, t = 0 .. N2/g - 1
    modes = (np.arange(g)[:, None] - n_phi * np.arange(n2 // g)[None, :]) % n2
    hop = -1.0 / h1**2
    shifts = _translation_shifts(setup, v1, g)
    rings = [_ring_diagonal(setup, modes[r], v1) for r in range(1 if shifts else g)]
    block = {"energy": energy} if count is None else {"count": -(-count // g) if shifts else count}
    solved = [_solve_ring(d, hop, **block) for d in rings]
    if shifts:
        solved = [(solved[0][0], np.roll(solved[0][1], s, axis=0)) for s in shifts]
    evals = np.concatenate([s[0] for s in solved])
    order = np.argsort(evals, kind="stable")[:count]  # by energy, every pair is kept
    evals = evals[order]
    ring_of = np.concatenate([np.full(s[0].size, r) for r, s in enumerate(solved)])[order]
    ring_vecs = np.concatenate([s[1] for s in solved], axis=1)[:, order]
    # ring site t*N1 + i holds mode modes[r, t] at row i: scatter, then invert along x2
    spectra = np.zeros((order.size, n2, n1))
    spectra[np.arange(order.size)[:, None], modes[ring_of]] = (
        ring_vecs.T.reshape(order.size, n2 // g, n1))
    grid = np.fft.ifft(spectra, axis=1, norm="ortho").transpose(0, 2, 1)
    vectors = grid.reshape(order.size, setup.dim).T / np.sqrt(h1 * h2)
    resid = np.max(np.linalg.norm(op.matrix @ vectors - vectors * evals, axis=0)
                   / (np.linalg.norm(vectors, axis=0) * np.maximum(np.abs(evals), 1.0)),
                   initial=0.0)
    if resid > 1e-8:
        raise NumericalError(f"eigenpair residual {resid:.2e} above 1e-08")
    return SpectralSubspace(setup, evals, vectors, float(evals[-1] if count else energy))


def coherent_vector(setup: TorusSetup, center: tuple) -> np.ndarray:
    """Lowest-level coherent state f_center sampled in the lattice gauge.

    The continuum modes are written in the symmetric gauge; the lattice links
    realize A = (0, B x1), so the transplant carries the gauge factor
    exp(i (B/2) x1 x2).  Returns raw (N1, N2) samples (not normalized).
    """
    lf = LadderField(setup.B, {tuple(center): {0: 1.0}})
    n1, n2 = setup.N
    x1 = setup.spacing[0] * np.arange(n1)[:, None]
    x2 = setup.spacing[1] * np.arange(n2)[None, :]
    return np.exp(1j * (setup.B / 2.0) * x1 * x2) * lf.eval(x1, x2)
