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
the assembled matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError, ResourceLimitError, ValidationError
from .landau import LadderField

TWO_PI = 2.0 * np.pi


def validate_flux(B: float, L: tuple) -> bool:
    """Integer flux through the box: B*L1*L2 in 2*pi*Z to within 1e-9, the
    condition under which the torus closure of this module is consistent."""
    q = B * L[0] * L[1] / TWO_PI
    return abs(q - round(q)) < 1e-9


@dataclass(frozen=True)
class TorusSetup:
    """Box side lengths, field strength, and grid resolution."""

    L: tuple
    B: float
    N: tuple

    def __post_init__(self):
        if self.N[0] < 4 or self.N[1] < 4:
            raise ValidationError("need at least 4 grid points per direction")
        if self.L[0] <= 0 or self.L[1] <= 0:
            raise ValidationError("box sides must be positive")
        if self.B < 0:
            raise ValidationError("B must be non-negative")
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
        if L[0] <= 0 or L[1] <= 0:
            raise ValidationError("box sides must be positive")
        B = TWO_PI * n_phi / (L[0] * L[1])
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
        n1, n2 = self.setup.N
        h1, h2 = self.setup.spacing
        dim = n1 * n2
        idx = np.arange(dim).reshape(n1, n2)
        rows, cols, vals = [], [], []

        def add_hops(target, phases, weight):
            rows.append(idx.ravel())
            cols.append(target.ravel())
            vals.append(-phases.ravel() * weight)

        add_hops(np.roll(idx, -1, axis=0), self.u1, 1.0 / h1**2)
        add_hops(np.roll(idx, -1, axis=1), self.u2, 1.0 / h2**2)
        a = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(dim, dim),
        )
        d = np.full(dim, 2.0 / h1**2 + 2.0 / h2**2)
        if self.diag is not None:
            d = d + self.diag.ravel()
        h = a + a.conj().T + sp.diags(d)
        return h.tocsr()


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

    def field(self, i: int) -> np.ndarray:
        return self.vectors[:, i].reshape(self.setup.N)


# Largest dimension densified: the complex matrix takes 16 dim^2 bytes, 1 GiB here.
DENSE_DIM_CAP = 8192


def _refuse_dense(dim: int, itemsize: int) -> None:
    if dim > DENSE_DIM_CAP:
        raise ResourceLimitError(
            f"a dense {dim} x {dim} matrix needs {itemsize * dim * dim / 2**30:.2f} GiB; "
            f"the cap is dim {DENSE_DIM_CAP}")


def dense_matrix(op: MagneticOperator) -> np.ndarray:
    """The operator as a dense array, refused before any allocation when
    dim exceeds DENSE_DIM_CAP."""
    _refuse_dense(op.setup.dim, 16)
    return op.matrix.toarray()


def _ring_matrix(setup: TorusSetup, modes: np.ndarray, v1: np.ndarray) -> sp.csc_matrix:
    """Real symmetric periodic tridiagonal Harper chain of one ring.

    Site p = t*N1 + i is (i, modes[t]); every hop, the ones across the seam
    and the one closing the ring included, is -1/h1^2, and the diagonal is
    2/h1^2 + 2/h2^2 - (2/h2^2) cos(2 pi k/N2 - phi i) + v1[i], phi = B h1 h2.
    """
    n1, n2 = setup.N
    h1, h2 = setup.spacing
    phi = setup.B * h1 * h2
    d = (2.0 / h1**2 + 2.0 / h2**2 + v1[None, :]
         - (2.0 / h2**2) * np.cos(TWO_PI * modes[:, None] / n2 - phi * np.arange(n1)[None, :]))
    m = d.size
    hop = np.full(m - 1, -1.0 / h1**2)
    return sp.diags([d.ravel(), hop, hop, hop[:1], hop[:1]], [0, 1, -1, m - 1, 1 - m],
                    format="csc")


def _solve_ring(a: sp.csc_matrix, k: int, dense_threshold: int, sigma: float,
                seed: int) -> tuple:
    """Lowest min(k, M) eigenpairs of one ring: shift-invert ARPACK, or a
    subset `eigh` when M <= dense_threshold or k passes ARPACK's cap."""
    m = a.shape[0]
    if m <= dense_threshold or k > m - 2:
        _refuse_dense(m, 8)
        return scipy.linalg.eigh(a.toarray(), subset_by_index=(0, min(k, m) - 1))
    try:
        _, vecs = spla.eigsh(a, k=k, sigma=sigma, which="LM", maxiter=10000,
                             v0=np.random.default_rng(seed).standard_normal(m))
    except spla.ArpackNoConvergence as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc
    # shift-invert ARPACK can lose orthogonality inside near-degenerate
    # clusters: re-orthonormalize and Rayleigh-Ritz on the block
    q, _ = np.linalg.qr(vecs)
    evals, rot = np.linalg.eigh(q.T @ (a @ q))
    return evals, q @ rot


def eigensolve(op: MagneticOperator, energy: Optional[float] = None,
               count: Optional[int] = None, dense_threshold: int = 255,
               seed: int = 0) -> SpectralSubspace:
    """All eigenpairs with eigenvalue <= energy (or the lowest `count`).

    Solved on the Fourier rings of `assemble`'s Landau gauge, so the
    operator's potential may vary along x1 only (ValidationError otherwise).
    The x2-Fourier transform splits H into g = gcd(n_phi, N2) decoupled
    rings of length M = N1*N2/g (`_ring_matrix`); each ring is solved by
    real shift-invert ARPACK with a start vector drawn from `seed` and a
    shift B/2 + (2 pi/max(L1, L2))^2/2 below the potential minimum, or by
    LAPACK `eigh` of the requested subset when M <= `dense_threshold` or
    the request passes ARPACK's cap of M - 2 pairs (above DENSE_DIM_CAP
    that raises ResourceLimitError).  Each ring's first block holds
    (n_phi/g)*(levels + 1) pairs, at least 2, where `levels` counts the
    Landau levels (2n+1)B below the cutoff (or the levels `count` spans);
    a ring whose block ends at or below the cutoff doubles its block until
    it passes it or holds the whole ring.  The kept ring vectors go back to
    the grid by one inverse FFT along x2, so inside a degenerate level the
    basis is the ring basis.  Every returned pair has relative residual at
    most 1e-8 against `op.matrix` (NumericalError otherwise), so an operator
    whose link phases are not `assemble`'s is refused, not mis-solved.
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
        warnings.warn(
            f"cutoff {energy:.3g} above the trustworthy band ~{trust:.3g}",
            stacklevel=2,
        )
    v1 = np.zeros(n1)
    if op.diag is not None:
        if np.any(op.diag != op.diag[:, :1]):
            raise ValidationError(
                "eigensolve needs a potential that is constant along x2")
        v1 = op.diag[:, 0]
    n_phi = setup.n_phi
    g = math.gcd(n_phi, n2)
    m = n1 * n2 // g
    # ring r visits the x2-Fourier modes k = r - t*n_phi mod N2, t = 0 .. N2/g - 1
    modes = (np.arange(g)[:, None] - n_phi * np.arange(n2 // g)[None, :]) % n2
    if count is not None:
        levels = -(-count // n_phi) if n_phi else 0
    else:  # a float: inf for an infinite cutoff
        levels = ((energy - v1.min()) / setup.B + 1) // 2 if n_phi else 0
    blocks = [int(min(m, max(2, n_phi // g * (max(levels, 0) + 1))))] * g
    sigma = v1.min() - 0.5 * (setup.B + (TWO_PI / max(setup.L)) ** 2)
    rings = [_ring_matrix(setup, modes[r], v1) for r in range(g)]
    solved = [None] * g
    todo = range(g)
    while todo:
        for r in todo:
            solved[r] = _solve_ring(rings[r], blocks[r], dense_threshold, sigma, seed)
        evals = np.concatenate([s[0] for s in solved])
        cut = energy
        if count is not None:
            cut = np.sort(evals)[count - 1] if evals.size >= count else np.inf
        todo = [r for r in range(g) if solved[r][0].size < m and solved[r][0][-1] <= cut]
        for r in todo:
            blocks[r] *= 2
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
    resid = _max_residual(op, evals, vectors)
    if resid > 1e-8:
        raise NumericalError(f"eigenpair residual {resid:.2e} above 1e-08")
    cutoff = energy if energy is not None else evals[-1]
    return SpectralSubspace(setup=setup, eigenvalues=evals, vectors=vectors,
                            cutoff=float(cutoff))


def _max_residual(op: MagneticOperator, evals, vectors) -> float:
    if not len(evals):
        return 0.0
    hv = op.matrix @ vectors
    r = hv - vectors * evals[None, :]
    scale = np.maximum(np.abs(evals), 1.0)
    return float(np.max(np.linalg.norm(r, axis=0) / (np.linalg.norm(vectors, axis=0) * scale)))


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
