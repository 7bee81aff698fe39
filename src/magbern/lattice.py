"""Finite-volume Landau operator on a flux-quantized torus grid.

Peierls discretization in the torus Landau gauge: x1-links are phase-free
except for a twist column on the wrap-around seam, x2-links carry
exp(-i*B*h2*x1).  Every plaquette then encloses flux B*h1*h2 and the seam
twist closes consistently iff B*L1*L2 is an integer number of flux quanta,
which TorusSetup enforces.  Spectra cluster at the Landau levels
{B, 3B, 5B, ...} with the lowest cluster exactly N_phi-fold degenerate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError, ValidationError
from .landau import GridField, LadderField

TWO_PI = 2.0 * np.pi


def validate_flux(B: float, L: tuple, convention: str = "area",
                  tol: float = 1e-9) -> bool:
    """Integer flux condition under one of the stated conventions.

    "area": B*L1*L2 in 2*pi*Z (used by this module; required for the torus
    closure), "difference": B*(L2-L1) in 2*pi*Z, "square": B*L in 2*pi*N for
    a square box.
    """
    L1, L2 = L
    if convention == "area":
        q = B * L1 * L2 / TWO_PI
    elif convention == "difference":
        q = B * (L2 - L1) / TWO_PI
    elif convention == "square":
        if abs(L1 - L2) > tol:
            return False
        q = B * L1 / TWO_PI
        return abs(q - round(q)) < tol and round(q) >= 1
    else:
        raise ValidationError(f"unknown flux convention {convention!r}")
    return abs(q - round(q)) < tol


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

    def apply(self, f: np.ndarray) -> np.ndarray:
        """H acting on an (N1, N2) sample array."""
        return (self.matrix @ f.ravel()).reshape(self.setup.N)

    def plaquette_phases(self) -> np.ndarray:
        """Product of link phases around every plaquette (counterclockwise)."""
        u1, u2 = self.u1, self.u2
        return (
            u1
            * np.roll(u2, -1, axis=0)
            * np.conj(np.roll(u1, -1, axis=1))
            * np.conj(u2)
        )


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

    def grid_fields(self) -> np.ndarray:
        """(k, N1, N2) view of the basis."""
        return self.vectors.T.reshape(self.dim, *self.setup.N)


def eigensolve(op: MagneticOperator, energy: Optional[float] = None,
               count: Optional[int] = None, dense_threshold: int = 4096,
               seed: int = 0, residual_tol: float = 1e-8,
               max_iter: int = 10000) -> SpectralSubspace:
    """All eigenpairs with eigenvalue <= energy (or the lowest `count`).

    Dense LAPACK below `dense_threshold`, ARPACK Lanczos (shift-invert,
    deterministic start vector from `seed`) above it.
    """
    if (energy is None) == (count is None):
        raise ValidationError("give exactly one of energy= or count=")
    setup = op.setup
    h1, h2 = setup.spacing
    trust = 0.1 / max(h1, h2) ** 2
    if energy is not None and energy > trust:
        warnings.warn(
            f"cutoff {energy:.3g} above the trustworthy band ~{trust:.3g}",
            stacklevel=2,
        )
    dim = setup.dim
    cell = h1 * h2
    if dim <= dense_threshold:
        evals, evecs = scipy.linalg.eigh(op.matrix.toarray())
        if energy is not None:
            keep = evals <= energy
        else:
            keep = np.zeros(dim, dtype=bool)
            keep[: min(count, dim)] = True
        evals, evecs = evals[keep], evecs[:, keep]
    else:
        k = count if count is not None else 16
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(dim)
        while True:
            k_ask = min(k, dim - 2)
            try:
                evals, evecs = spla.eigsh(
                    op.matrix, k=k_ask, sigma=-0.05 * (1.0 / max(h1, h2) ** 2),
                    which="LM", v0=v0, maxiter=max_iter,
                )
            except spla.ArpackNoConvergence as exc:
                raise NumericalError(f"eigensolver did not converge: {exc}") from exc
            # shift-invert ARPACK can lose orthogonality inside degenerate
            # clusters: re-orthonormalize and Rayleigh-Ritz on the block
            q, _ = np.linalg.qr(evecs)
            small = q.conj().T @ (op.matrix @ q)
            small = 0.5 * (small + small.conj().T)
            evals, rot = np.linalg.eigh(small)
            evecs = q @ rot
            if count is not None:
                evals, evecs = evals[:count], evecs[:, :count]
                break
            if evals[-1] > energy or k_ask == dim - 2:
                keep = evals <= energy
                evals, evecs = evals[keep], evecs[:, keep]
                break
            k *= 2
    vectors = evecs / np.sqrt(cell)
    resid = _max_residual(op, evals, vectors)
    if resid > residual_tol:
        raise NumericalError(f"eigenpair residual {resid:.2e} above {residual_tol:.0e}")
    cutoff = energy if energy is not None else (evals[-1] if evals.size else -np.inf)
    return SpectralSubspace(setup=setup, eigenvalues=evals, vectors=vectors,
                            cutoff=float(cutoff))


def _max_residual(op: MagneticOperator, evals, vectors) -> float:
    if not len(evals):
        return 0.0
    hv = op.matrix @ vectors
    r = hv - vectors * evals[None, :]
    scale = np.maximum(np.abs(evals), 1.0)
    return float(np.max(np.linalg.norm(r, axis=0) / (np.linalg.norm(vectors, axis=0) * scale)))


def cluster_eigenvalues(evals: np.ndarray, gap: float) -> list:
    """Split an ascending eigenvalue list at gaps larger than `gap`."""
    clusters = []
    current = []
    for ev in evals:
        if current and ev - current[-1] > gap:
            clusters.append(current)
            current = []
        current.append(float(ev))
    if current:
        clusters.append(current)
    return clusters


# -- magnetic translations -----------------------------------------------------


def _site_shift(setup: TorusSetup, y: tuple) -> tuple:
    h1, h2 = setup.spacing
    s1 = y[0] / h1
    s2 = y[1] / h2
    if abs(s1 - round(s1)) > 1e-9 or abs(s2 - round(s2)) > 1e-9:
        raise ValidationError("translation vector must lie on the grid")
    return int(round(s1)) % setup.N[0], int(round(s2)) % setup.N[1]


def flux_condition(setup: TorusSetup, y: tuple, tol: float = 1e-9) -> bool:
    """Vector flux condition making Gamma_y well defined on the torus:
    B*y1*L2 and B*y2*L1 both in 2*pi*Z."""
    q1 = setup.B * y[0] * setup.L[1] / TWO_PI
    q2 = setup.B * y[1] * setup.L[0] / TWO_PI
    return abs(q1 - round(q1)) < tol and abs(q2 - round(q2)) < tol


def translations_commute(setup: TorusSetup, y: tuple, yp: tuple,
                         tol: float = 1e-9) -> bool:
    """Pairwise condition B*(y1*y2' - y2*y1') in 2*pi*Z."""
    q = setup.B * (y[0] * yp[1] - y[1] * yp[0]) / TWO_PI
    return abs(q - round(q)) < tol


def translate_array(setup: TorusSetup, values: np.ndarray, y: tuple) -> np.ndarray:
    """Magnetic translation by a grid vector y on raw samples.

    Composition T1(s1) T2(s2): T2 is a plain roll (x2-link phases do not
    depend on x2), T1 rolls and applies the gauge-compensating phase
    exp(i*phi*s1*n2) plus the seam unfolding factor on wrapped rows.
    """
    s1, s2 = _site_shift(setup, y)
    n1, n2 = setup.N
    phi = setup.B * setup.spacing[0] * setup.spacing[1]
    out = np.roll(values, s2, axis=1)
    out = np.roll(out, s1, axis=0)
    j = np.arange(n2)[None, :]
    if s1:
        out[:s1, :] = out[:s1, :] * np.exp(-1j * phi * n1 * j)
    out = out * np.exp(1j * phi * s1 * j)
    return out


def magnetic_translate(f: GridField, y: tuple, setup: TorusSetup) -> GridField:
    return f.with_samples(translate_array(setup, f.samples, y))


def commutation_check(op: MagneticOperator, y: tuple, n_probes: int = 4,
                      seed: int = 7) -> float:
    """Max relative norm of (H Gamma_y - Gamma_y H) v over random probes."""
    setup = op.setup
    if not flux_condition(setup, y):
        raise ValidationError("translation vector violates the flux condition")
    rng = np.random.default_rng(seed)
    n1, n2 = setup.N
    h1, h2 = setup.spacing
    scale = 4.0 / h1**2 + 4.0 / h2**2 + (
        float(np.max(np.abs(op.diag))) if op.diag is not None else 0.0
    )
    worst = 0.0
    for _ in range(n_probes):
        v = rng.standard_normal((n1, n2)) + 1j * rng.standard_normal((n1, n2))
        a = op.apply(translate_array(setup, v, y))
        b = translate_array(setup, op.apply(v), y)
        num = np.linalg.norm(a - b)
        worst = max(worst, num / (scale * np.linalg.norm(v)))
    return worst


def coherent_vector(setup: TorusSetup, center: tuple, level: int = 0) -> np.ndarray:
    """Chiral Landau mode w^level f_center sampled in the lattice gauge.

    The continuum modes are written in the symmetric gauge; the lattice links
    realize A = (0, B x1), so the transplant carries the gauge factor
    exp(i (B/2) x1 x2).  Returns raw (N1, N2) samples (not normalized).
    """
    lf = LadderField(setup.B, {tuple(center): {level: 1.0}})
    n1, n2 = setup.N
    x1 = setup.spacing[0] * np.arange(n1)[:, None]
    x2 = setup.spacing[1] * np.arange(n2)[None, :]
    return np.exp(1j * (setup.B / 2.0) * x1 * x2) * lf.eval(x1, x2)


def write_operator_triplets(op: MagneticOperator, path) -> None:
    """Coordinate text export: one `row col re im` line per stored entry."""
    coo = op.matrix.tocoo()
    with open(path, "w") as fh:
        fh.write(f"% {op.setup.dim} x {op.setup.dim} hermitian\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {float(v.real)!r} {float(v.imag)!r}\n")
