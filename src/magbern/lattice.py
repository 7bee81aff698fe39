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
the assembled matrix.  A ring is held as its diagonal and one hop.  Cut
at its closing hop, with |hop| added at both ends, it is an open chain T
that lies above it by a rank-one term.  The LDL^T factor of T - c gives
the O(M) shift-invert (plus a Sherman-Morrison term) and, by its pivot
signs, T's exact count of eigenvalues at or below c: the ring has at most
one more, so that count sizes the ring's one solve.  With a constant potential and
n_phi | N1, ring r is ring 0 moved by r*N1/n_phi sites (a magnetic
translation, Zak, Phys. Rev. 134, 1964), so only ring 0 is solved.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpttrf, dpttrs

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


# Largest dimension densified: the complex matrix takes 16 dim^2 bytes, 1 GiB here.
DENSE_DIM_CAP = 8192


def _refuse_dense(dim: int, itemsize: int) -> None:
    if dim > DENSE_DIM_CAP:
        raise ResourceLimitError(
            f"a dense {dim} x {dim} matrix needs {itemsize * dim * dim / 2**30:.2f} GiB; "
            f"the cap is dim {DENSE_DIM_CAP}")


def dense_matrix(matrix: sp.spmatrix) -> np.ndarray:
    """A sparse complex matrix as a dense array, refused before any
    allocation when its dim exceeds DENSE_DIM_CAP."""
    _refuse_dense(matrix.shape[0], 16)
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


def _ring_apply(d: np.ndarray, hop: float, x: np.ndarray) -> np.ndarray:
    """The ring with diagonal d and hop `hop` times the columns of x."""
    x = x.reshape(d.size, -1)
    return d[:, None] * x + hop * (np.roll(x, 1, axis=0) + np.roll(x, -1, axis=0))


def _open_chain(d: np.ndarray, hop: float, c: float) -> np.ndarray:
    """Diagonal of T - c: T is the ring A (diagonal d, hop `hop`) cut at its
    closing hop, with |hop| added at both ends, so A = T - |hop| u u^T with
    u = e_0 + e_(M-1).  T's off-diagonal is `hop`."""
    t = d - c
    t[[0, -1]] -= hop
    return t


def _chain_count_below(d: np.ndarray, hop: float, c: float) -> int:
    """Eigenvalues of the open chain T (`_open_chain`) at or below c, in O(M).

    By Sylvester's law of inertia they number the non-positive LDL^T pivots
    p_i = t_i - hop^2/p_(i-1) of T - c.  A pivot under pivmin counts and
    goes on as at most -pivmin, as in LAPACK's dstebz, so the count is exact
    for a matrix within a few ulps of T (Kahan; Demmel, Applied Numerical
    Linear Algebra, 5.3).  c = inf counts all M.
    """
    e2 = hop * hop
    pivmin = float(np.finfo(float).tiny) * max(1.0, e2)
    below, p = 0, math.inf
    for t in _open_chain(d, hop, c).tolist():
        p = t - e2 / p
        if p < pivmin:
            below += 1
            p = min(p, -pivmin)
    return below


# The Sherman-Morrison term divides by its denominator and so amplifies the
# rounding of the chain solve by its inverse.  The CLI's rings measure
# 0.03 - 0.13; a ring of length M at n_phi = 0 about 2/M.
SM_DENOMINATOR_MIN = 1e-8


def _ring_shift_invert(d: np.ndarray, hop: float, sigma: float) -> spla.LinearOperator:
    """(A - sigma)^-1 of the ring A with diagonal d and hop `hop`, in O(M).

    A - sigma = (T - sigma) - |hop| u u^T (`_open_chain`).  T >= A, so T - sigma
    is positive definite for sigma below the spectrum: LAPACK's dpttrf
    factors it once, and each apply is one dpttrs plus the Sherman-Morrison
    term along z = (T - sigma)^-1 u.  NumericalError when the factorization or the
    denominator 1 - |hop| u^T z says sigma is not safely below the spectrum.
    """
    m = d.size
    tf, ef, info = dpttrf(_open_chain(d, hop, sigma), np.full(m - 1, hop))
    if info:
        raise NumericalError(f"ring shift {sigma:.6g} is not below the spectrum "
                             f"(dpttrf info {info})")
    u = np.zeros(m)
    u[[0, -1]] = 1.0
    z, _ = dpttrs(tf, ef, u)
    denominator = 1.0 + hop * (z[0] + z[-1])
    if not denominator > SM_DENOMINATOR_MIN:
        raise NumericalError(f"ring shift {sigma:.6g}: Sherman-Morrison denominator "
                             f"{denominator:.2e} not above {SM_DENOMINATOR_MIN:.0e}")
    w = z * (-hop / denominator)

    def solve(x):
        y, _ = dpttrs(tf, ef, x.ravel())
        return y + (y[0] + y[-1]) * w

    return spla.LinearOperator((m, m), matvec=solve, dtype=float)


# Relative margin inside which two peak magnitudes tie for the sign choice:
# far above the solvers' disagreement, far below a smooth peak's curvature.
SIGN_TIE = 1e-6


def _solve_ring(d: np.ndarray, hop: float, k: int, dense_threshold: int, sigma: float,
                seed: int) -> tuple:
    """Lowest min(k, M) eigenpairs of one ring: shift-invert ARPACK, or a
    subset `eigh` when M <= dense_threshold or k passes ARPACK's cap.  Each
    vector is signed so that its largest-magnitude entry is positive; where
    magnitudes tie to within SIGN_TIE, the first of them."""
    m = d.size
    if m <= dense_threshold or k > m - 2:
        _refuse_dense(m, 8)
        a = np.diag(d)
        i = np.arange(m)
        a[i, i - 1] = a[i - 1, i] = hop
        evals, vecs = scipy.linalg.eigh(a, subset_by_index=(0, min(k, m) - 1))
    else:
        a = spla.LinearOperator((m, m), matvec=lambda x: _ring_apply(d, hop, x), dtype=float)
        try:
            _, vecs = spla.eigsh(a, k=k, sigma=sigma, which="LM", maxiter=10000,
                                 v0=np.random.default_rng(seed).standard_normal(m),
                                 OPinv=_ring_shift_invert(d, hop, sigma))
        except spla.ArpackNoConvergence as exc:
            raise NumericalError(f"eigensolver did not converge: {exc}") from exc
        # shift-invert ARPACK can lose orthogonality inside near-degenerate
        # clusters: re-orthonormalize and Rayleigh-Ritz on the block
        q, _ = np.linalg.qr(vecs)
        evals, rot = np.linalg.eigh(q.T @ _ring_apply(d, hop, q))
        vecs = q @ rot
    # a reflection-symmetric ring ties +x and -x at the peak, so the first
    # entry within SIGN_TIE of the largest magnitude carries the sign
    mag = np.abs(vecs)
    peak = np.argmax(mag >= (1.0 - SIGN_TIE) * mag.max(axis=0), axis=0)
    return evals, vecs * np.copysign(1.0, vecs[peak, np.arange(vecs.shape[1])])


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
               count: Optional[int] = None, dense_threshold: int = 255,
               seed: int = 0) -> SpectralSubspace:
    """All eigenpairs with eigenvalue <= energy (or the lowest `count`).

    Solved on the g = gcd(n_phi, N2) Fourier rings (length M = N1*N2/g,
    `_ring_diagonal`, hop -1/h1^2) of `assemble`'s Landau gauge, so the
    potential may vary along x1 only (ValidationError otherwise).  Each
    ring class is solved once, ring 0 alone when the rings are its
    translates (`_translation_shifts`), for a block that holds every pair
    it contributes: by energy, 1 + its open chain's count at the cutoff
    (`_chain_count_below`), since by interlacing the ring has at most one
    more there; by count, ceil(count/g) pairs of ring 0 for translates,
    else `count` per ring.  A ring is solved by shift-invert ARPACK at
    sigma = B/2 + (2 pi/max(L1, L2))^2/2 below the potential minimum
    (`_ring_shift_invert`, start vector from `seed`), or by a subset `eigh`
    when M <= `dense_threshold` or the block passes ARPACK's cap of M - 2
    pairs (above DENSE_DIM_CAP that raises ResourceLimitError).  Each ring
    vector is signed so that its largest-magnitude entry (the first, on a
    tie to SIGN_TIE) is positive, whichever solver found it; exactly equal
    eigenvalues keep ring order; and the kept vectors go back to the grid
    by one inverse FFT along x2, so inside a degenerate level the basis is
    the ring basis.  Every returned pair has relative residual at most 1e-8
    against `op.matrix` (NumericalError otherwise), so an operator whose
    link phases are not `assemble`'s is refused, not mis-solved.
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
    m = n1 * n2 // g
    # ring r visits the x2-Fourier modes k = r - t*n_phi mod N2, t = 0 .. N2/g - 1
    modes = (np.arange(g)[:, None] - n_phi * np.arange(n2 // g)[None, :]) % n2
    sigma = v1.min() - 0.5 * (setup.B + (TWO_PI / max(setup.L)) ** 2)
    hop = -1.0 / h1**2
    shifts = _translation_shifts(setup, v1, g)
    rings = [_ring_diagonal(setup, modes[r], v1) for r in range(1 if shifts else g)]
    if count is None:
        blocks = [min(m, 1 + _chain_count_below(d, hop, energy)) for d in rings]
    else:
        blocks = [min(m, -(-count // g) if shifts else count)] * len(rings)
    solved = [_solve_ring(d, hop, k, dense_threshold, sigma, seed)
              for d, k in zip(rings, blocks)]
    if shifts:
        solved = [(solved[0][0], np.roll(solved[0][1], s, axis=0)) for s in shifts]
    evals = np.concatenate([s[0] for s in solved])
    order = np.argsort(evals, kind="stable")
    order = order[evals[order] <= energy] if count is None else order[:count]
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
