"""Random Landau Hamiltonian at desk scale: alloy-type disorder on the torus
and Monte Carlo Wegner-window statistics.

Couplings are uniform on [m0, M0] with one Philox counter-based stream per
trial (spawn key = trial index), so trials are reproducible and
order-independent across workers.  Window counts come from the Sylvester
inertia of sparse LDL^H factorizations of H - sigma (spectrum slicing), with
a dense eigensolve only as the fallback when a factorization is not
trustworthy; acceptance is statistical (bootstrap bands), never exact.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .errors import ValidationError
from .geometry import SetMask, thickness_scan
from .lattice import MagneticOperator, TorusSetup, assemble


def fat_cantor_indices(n: int, levels: int = 3) -> np.ndarray:
    """Boolean 1-D fat-Cantor-like set on n cells (removed middles shrink
    geometrically, so the kept measure stays positive)."""
    keep = np.ones(n, dtype=bool)
    segments = [(0, n)]
    for level in range(1, levels + 1):
        frac = 4.0 ** (-level)
        nxt = []
        for a, b in segments:
            width = b - a
            cut = max(1, int(round(width * frac)))
            mid = (a + b) // 2
            lo, hi = mid - cut // 2, mid - cut // 2 + cut
            if hi - lo >= width or width < 3:
                nxt.append((a, b))
                continue
            keep[lo:hi] = False
            nxt.extend([(a, lo), (hi, b)])
        segments = nxt
    return keep


def fat_cantor_disk_profile(cells: tuple) -> np.ndarray:
    """Single-site bump: indicator of a fat-Cantor product set clipped to a
    disk inside the unit cell.  Measurable, not open, values in {0, 1}."""
    c1, c2 = cells
    keep = np.outer(fat_cantor_indices(c1), fat_cantor_indices(c2))
    x1 = (np.arange(c1) + 0.5)[:, None] / c1 - 0.5
    x2 = (np.arange(c2) + 0.5)[None, :] / c2 - 0.5
    disk = x1**2 + x2**2 <= 0.45**2
    return (keep & disk).astype(float)


@dataclass(frozen=True)
class EnsembleConfig:
    """Alloy-type ensemble on a flux-quantized torus.

    `site_profile` is the single-site bump on the cells of one unit cell of
    the integer lattice; the random potential tiles it with one coupling per
    site.  Couplings are uniform on [m0, M0].
    """

    setup: TorusSetup
    site_profile: np.ndarray
    coupling: tuple = (0.0, 1.0)
    master_seed: int = 0

    def __post_init__(self):
        prof = np.asarray(self.site_profile, dtype=float)
        if prof.min() < 0 or prof.max() > 1:
            raise ValidationError("site profile values must lie in [0, 1]")
        if prof.max() == 0:
            raise ValidationError("site profile vanishes identically")
        m0, M0 = self.coupling
        if not m0 < M0:
            raise ValidationError("need m0 < M0")
        n1, n2 = self.setup.N
        L1, L2 = self.setup.L
        if abs(L1 - round(L1)) > 1e-12 or abs(L2 - round(L2)) > 1e-12:
            raise ValidationError("box sides must be integers (site lattice Z^2)")
        sites = (int(round(L1)), int(round(L2)))
        if n1 % sites[0] or n2 % sites[1]:
            raise ValidationError("grid must divide evenly into unit cells")
        if (n1 // sites[0], n2 // sites[1]) != prof.shape:
            raise ValidationError("profile shape must match cells per unit cell")
        object.__setattr__(self, "site_profile", prof)
        # sum_j u_j must exceed a positive level on a thick set
        support = np.tile(prof >= 0.5 * prof.max(), sites)
        mask = SetMask(support, self.setup.spacing, periodic=True)
        rep = thickness_scan(mask, (min(1.0, L1), min(1.0, L2)))
        if rep.rho_lower <= 0:
            raise ValidationError("single-site support is not thick at unit scale")

    @property
    def sites(self) -> tuple:
        return (int(round(self.setup.L[0])), int(round(self.setup.L[1])))


def modulus_of_continuity(coupling: tuple, eps: float) -> float:
    """Uniform law on [m0, M0]: s(eps) = min(eps / (M0 - m0), 1)."""
    if eps <= 0:
        raise ValidationError("eps must be positive")
    m0, M0 = coupling
    return min(eps / (M0 - m0), 1.0)


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Counter-based per-trial stream; order-independent across workers."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(trial,))
    return np.random.Generator(np.random.Philox(seq))


def sample_couplings(config: EnsembleConfig, trial: int) -> np.ndarray:
    rng = trial_rng(config.master_seed, trial)
    m0, M0 = config.coupling
    return rng.uniform(m0, M0, size=config.sites)


def potential_from_couplings(config: EnsembleConfig, omegas: np.ndarray) -> np.ndarray:
    """V = sum_j omega_j u(x - j): per-site scaled tiles of the profile."""
    omegas = np.asarray(omegas, dtype=float)
    if omegas.shape != config.sites:
        raise ValidationError("coupling array must match the site lattice")
    return np.kron(omegas, config.site_profile)


def sample_operator(config: EnsembleConfig, trial: int) -> MagneticOperator:
    """Deterministic disordered Hamiltonian for one trial."""
    v = potential_from_couplings(config, sample_couplings(config, trial))
    return assemble(config.setup, potential=v)


# A pivot is trusted only while the rounding scale n*u*growth stays below
# this fraction of the smallest pivot (both relative to ||H||_1).
_PIVOT_MARGIN_TOL = 1e-3


def _dense_window_counts(op: MagneticOperator, E: float,
                         eps_arr: np.ndarray) -> np.ndarray:
    """Counts in the closed windows [E - eps, E + eps] from one dense solve:
    the fallback of `eigen_window_counts` and the oracle of its tests."""
    evals = scipy.linalg.eigvalsh(op.matrix.toarray())
    return np.array(
        [np.count_nonzero((evals >= E - eps) & (evals <= E + eps)) for eps in eps_arr],
        dtype=int,
    )


def _inertia_below(a, diag0: np.ndarray, sigma: float,
                   norm1: float) -> int | None:
    """Eigenvalues of the Hermitian CSC matrix `a` below `sigma`: negative
    pivots of H - sigma = P L D L^H P^T (SuperLU with symmetric ordering and
    no pivoting, so D = diag(U)).  None when the factorization cannot be
    trusted: row pivoting happened, or a pivot sits within 1e3 roundings of
    zero."""
    a.setdiag(diag0 - sigma)
    try:
        lu = spla.splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:  # an exactly zero pivot
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    u = lu.U
    d = u.diagonal()
    growth = np.abs(u.data).max() / norm1
    margin = np.abs(d).min() / norm1
    rounding = a.shape[0] * np.finfo(float).eps * growth
    if not rounding < _PIVOT_MARGIN_TOL * margin:
        return None
    return int(np.count_nonzero(d.real < 0))


def eigen_window_counts(op: MagneticOperator, E: float,
                        eps_list: Sequence[float]) -> np.ndarray:
    """Exact counts of eigenvalues in [E - eps, E + eps], one per eps.

    Each distinct shift sigma in {E - eps, E + eps} is factored once and the
    count is nu(E + eps) - nu(E - eps), nu(sigma) being the number of
    eigenvalues below sigma (Sylvester's law of inertia).  If any shift
    fails the pivot guard of `_inertia_below`, the operator is counted by a
    dense eigensolve instead, with a RuntimeWarning naming the shift.
    """
    eps_arr = np.asarray(eps_list, dtype=float)
    if np.any(eps_arr < 0):
        raise ValidationError("eps must be non-negative")
    a = op.matrix.tocsc(copy=True)  # shifted in place below
    diag0 = a.diagonal()
    norm1 = spla.norm(a, 1)
    below = {}
    for sigma in sorted({E - e for e in eps_arr} | {E + e for e in eps_arr}):
        below[sigma] = _inertia_below(a, diag0, sigma, norm1)
        if below[sigma] is None:
            warnings.warn(
                f"inertia count at shift {float(sigma)!r} failed the pivot guard; "
                f"counting by a dense eigensolve", RuntimeWarning, stacklevel=2)
            return _dense_window_counts(op, E, eps_arr)
    return np.array([below[E + eps] - below[E - eps] for eps in eps_arr], dtype=int)


def window_counts_for_trials(config: EnsembleConfig, E: float,
                             eps_list: Sequence[float], trials: int) -> np.ndarray:
    """(trials, n_eps) integer counts, one `eigen_window_counts` per trial."""
    out = np.zeros((trials, len(eps_list)), dtype=int)
    for t in range(trials):
        out[t] = eigen_window_counts(sample_operator(config, t), E, eps_list)
    return out


@dataclass
class WegnerStats:
    energy: float
    eps: tuple
    box_sizes: tuple  # L values, ascending
    mean: np.ndarray  # (n_sizes, n_eps)
    stderr: np.ndarray
    trials: int
    coupling: tuple

    def s2eps(self) -> np.ndarray:
        return np.array([modulus_of_continuity(self.coupling, 2 * e) for e in self.eps])

    def ratios(self) -> np.ndarray:
        """mean / (s(2 eps) L^2) per size and window."""
        s = self.s2eps()[None, :]
        l2 = (np.asarray(self.box_sizes) ** 2)[:, None]
        return self.mean / (s * l2)

    def ratio_stderr(self) -> np.ndarray:
        s = self.s2eps()[None, :]
        l2 = (np.asarray(self.box_sizes) ** 2)[:, None]
        return self.stderr / (s * l2)

    def eps_slopes(self) -> np.ndarray:
        """Per size: least-squares slope of mean count vs s(2 eps)."""
        s = self.s2eps()
        return np.array(
            [float(np.dot(s, row) / np.dot(s, s)) for row in self.mean]
        )

    def l_exponents(self) -> np.ndarray:
        """Per window: fitted exponent of mean count vs L (NaN if one box)."""
        if len(self.box_sizes) < 2:
            return np.full(self.mean.shape[1], np.nan)
        ls = np.log(np.asarray(self.box_sizes, dtype=float))
        out = []
        for j in range(self.mean.shape[1]):
            m = np.log(np.maximum(self.mean[:, j], 1e-12))
            out.append(float(np.polyfit(ls, m, 1)[0]))
        return np.array(out)


def wegner_sweep(configs, E: float, eps_list: Sequence[float],
                 trials: int) -> WegnerStats:
    """Monte Carlo means with standard errors across one or more box sizes.

    `configs` is an EnsembleConfig or a sequence of them (same coupling law
    and profile, different boxes) for the cross-size volume fit.
    """
    if isinstance(configs, EnsembleConfig):
        configs = [configs]
    if trials < 2:
        raise ValidationError("need at least 2 trials")
    if not all(e > 0 for e in eps_list):
        raise ValidationError("eps must be positive")
    configs = sorted(configs, key=lambda c: c.setup.L[0] * c.setup.L[1])
    coupling = configs[0].coupling
    for c in configs:
        if c.coupling != coupling:
            raise ValidationError("all configs must share the coupling law")
    means, errs, sizes = [], [], []
    for cfg in configs:
        counts = window_counts_for_trials(cfg, E, eps_list, trials)
        means.append(counts.mean(axis=0))
        errs.append(counts.std(axis=0, ddof=1) / math.sqrt(trials))
        sizes.append(math.sqrt(cfg.setup.L[0] * cfg.setup.L[1]))
    return WegnerStats(
        energy=E,
        eps=tuple(float(e) for e in eps_list),
        box_sizes=tuple(sizes),
        mean=np.vstack(means),
        stderr=np.vstack(errs),
        trials=trials,
        coupling=coupling,
    )


def linear_in_eps(stats: WegnerStats, z: float = 3.0) -> bool:
    """Slope stability under window halving: per-size ratios mean/s(2 eps)
    must agree pairwise within z combined standard errors."""
    s = stats.s2eps()
    for i in range(stats.mean.shape[0]):
        r = stats.mean[i] / s
        se = stats.stderr[i] / s
        for a in range(len(r)):
            for b in range(a + 1, len(r)):
                if abs(r[a] - r[b]) > z * math.hypot(se[a], se[b]):
                    return False
    return True
