"""Random Landau Hamiltonian at desk scale: alloy-type disorder on the torus
and Monte Carlo Wegner-window statistics.

Couplings are uniform on [m0, M0] with one Philox counter-based stream per
trial (spawn key = trial index), so trials are reproducible and
order-independent across workers.  Window counts come from the Sylvester
inertia of sparse LDL^H factorizations of H - sigma (spectrum slicing).
The trials of one box share one sparsity pattern: its CSC is built once and
each trial and shift rewrites only the diagonal in place.  SuperLU eliminates
one column at a time (relax=1, panel_size=1): on the 5-point stencil its
supernodal panels cost more than they save.  A shift whose pivots fail the
guard is refactored under a second fill-reducing ordering, and only if that
fails too is the trial matrix counted by a dense eigensolve.  Acceptance is
statistical (bootstrap bands), never exact.

A sweep splits each box's trials into contiguous ranges, one per CPU of the
process's affinity set up to MAX_WORKERS: the parent counts the first range
and one forked worker pool, opened once per sweep, counts the others.
Counts are stacked in trial order, and each range's warnings and its error,
if any, are raised again in the parent in trial order, so results do not
depend on the number of CPUs.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .errors import ResourceLimitError, ValidationError
from .geometry import SetMask, thickness_scan
from .lattice import TorusSetup, assemble, dense_matrix


def fat_cantor_indices(n: int) -> np.ndarray:
    """Boolean 1-D fat-Cantor-like set on n cells, 3 levels deep (removed
    middles shrink geometrically, so the kept measure stays positive)."""
    keep = np.ones(n, dtype=bool)
    segments = [(0, n)]
    for level in range(1, 4):
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


# grid points of one Wegner box.  An LDL^H factor of H - sigma took 2.27 kB
# per point at L = 16 and 2.80 kB at L = 32 (5 cells per unit, growing with
# log dim), so about 450 MB at the cap, and a sweep factors one per worker at
# once: MAX_WORKERS of them stay under 4 GiB.  L = 72 at 5 cells per unit fits.
BOX_GRID_CAP = 1 << 17

# processes counting one sweep's trials at most, the parent included, however
# many CPUs the affinity set lists (in a container it may list the host's)
MAX_WORKERS = 8


def check_box_grid(sizes: tuple) -> None:
    """ResourceLimitError when a Wegner box grid of `sizes` points a side
    holds more than BOX_GRID_CAP points."""
    n1, n2 = sizes
    if n1 * n2 > BOX_GRID_CAP:
        raise ResourceLimitError(
            f"a {n1} x {n2} Wegner box grid exceeds the cap of {BOX_GRID_CAP} points")


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
        if L1 != round(L1) or L2 != round(L2):
            raise ValidationError("box sides must be integers (site lattice Z^2)")
        sites = (int(round(L1)), int(round(L2)))
        if n1 % sites[0] or n2 % sites[1]:
            raise ValidationError("grid must divide evenly into unit cells")
        if (n1 // sites[0], n2 // sites[1]) != prof.shape:
            raise ValidationError("profile shape must match cells per unit cell")
        object.__setattr__(self, "site_profile", prof)
        check_box_grid(self.setup.N)
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


# A pivot is trusted only while the rounding scale n*u*growth stays below
# this fraction of the smallest pivot (both relative to ||H||_1).
_PIVOT_MARGIN_TOL = 1e-3

# Fill-reducing orderings tried in turn before a shift is densified: the
# pivot guard can fail on the first ordering's pivot sequence at a shift
# well inside a spectral gap, and the second one often passes there.
_ORDERINGS = ("MMD_AT_PLUS_A", "MMD_ATA")


def _dense_window_counts(matrix, E: float, eps_arr: np.ndarray) -> np.ndarray:
    """Counts of the eigenvalues of the Hermitian sparse `matrix` in the
    closed windows [E - eps, E + eps] from one dense solve: the fallback of
    the inertia counts and the oracle of their tests."""
    evals = scipy.linalg.eigvalsh(dense_matrix(matrix))
    return np.array(
        [np.count_nonzero((evals >= E - eps) & (evals <= E + eps)) for eps in eps_arr],
        dtype=int,
    )


def _inertia_below(a, norm1: float, permc_spec: str) -> int | None:
    """Negative eigenvalues of the Hermitian CSC matrix `a` (H - sigma):
    negative pivots of a = P L D L^H P^T (SuperLU with the symmetric
    ordering `permc_spec`, no pivoting, so D = diag(U), and one column per
    elimination step: relax=1, panel_size=1).  None when the factorization
    cannot be trusted: row pivoting happened, or a pivot sits within 1e3
    roundings of zero."""
    try:
        lu = spla.splu(a, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                       relax=1, panel_size=1, options={"SymmetricMode": True})
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


def _diagonal_positions(a) -> np.ndarray:
    """Positions in `a.data` of the diagonal of the CSC matrix `a`, column
    by column, among the entries it stores."""
    cols = np.repeat(np.arange(a.shape[1]), np.diff(a.indptr))
    return np.flatnonzero(a.indices == cols)


def _window_counts(a, pos: np.ndarray, diag: np.ndarray, E: float,
                   eps_arr: np.ndarray) -> np.ndarray:
    """Exact counts of eigenvalues in [E - eps, E + eps] of the Hermitian
    CSC matrix `a` with diagonal `diag`, which is written into a.data[pos].

    Each distinct shift sigma in {E - eps, E + eps} is factored once and the
    count is nu(E + eps) - nu(E - eps), nu(sigma) being the number of
    eigenvalues below sigma (Sylvester's law of inertia).  A shift that
    fails the pivot guard under every ordering in `_ORDERINGS` sends `a`,
    its diagonal `diag` restored, to a dense eigensolve, with a
    RuntimeWarning naming the shift.
    """
    a.data[pos] = diag
    norm1 = spla.norm(a, 1)
    below = {}
    for sigma in sorted({E - e for e in eps_arr} | {E + e for e in eps_arr}):
        a.data[pos] = diag - sigma
        for spec in _ORDERINGS:
            below[sigma] = _inertia_below(a, norm1, spec)
            if below[sigma] is not None:
                break
        else:
            warnings.warn(
                f"inertia count at shift {float(sigma)!r} failed the pivot guard; "
                f"counting by a dense eigensolve", RuntimeWarning, stacklevel=3)
            a.data[pos] = diag
            return _dense_window_counts(a, E, eps_arr)
    return np.array([below[E + eps] - below[E - eps] for eps in eps_arr], dtype=int)


def _trial_matrices(config: EnsembleConfig, t0: int, t1: int):
    """Yield (a, pos, diag) for trials t0, ..., t1 - 1: the trials of one box
    differ only on the diagonal, so `a` is one CSC of the clean operator,
    built once, `pos` the positions of its diagonal in `a.data`, and `diag`
    the trial's diagonal 2/h1^2 + 2/h2^2 + V.  Writing `diag` into
    a.data[pos] gives the matrix of `assemble(config.setup, potential=V)`
    bit for bit."""
    a = assemble(config.setup).matrix.tocsc()
    pos = _diagonal_positions(a)  # all stored: the clean diagonal is positive
    clean = a.data[pos].real
    for t in range(t0, t1):
        v = potential_from_couplings(config, sample_couplings(config, t))
        yield a, pos, clean + v.ravel()


def _count_trials(config: EnsembleConfig, E: float, eps_arr: np.ndarray,
                  t0: int, t1: int):
    """(counts, warned, fault) for trials t0, ..., t1 - 1: their
    (t1 - t0, n_eps) window counts, the (text, category) of every warning
    they raised, and the exception that ended the range (None if none).
    A worker process runs this on its range and writes or prints nothing:
    the parent raises the warnings and the fault again, in trial order, so
    the warnings that explain an unexpected error, such as a LinAlgError of
    the dense fallback, still come before it."""
    out = np.zeros((t1 - t0, eps_arr.size), dtype=int)
    fault = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            for t, (a, pos, diag) in enumerate(_trial_matrices(config, t0, t1)):
                out[t] = _window_counts(a, pos, diag, E, eps_arr)
        except Exception as exc:  # pickled back from a worker, without its traceback
            fault = exc
    return out, [(str(w.message), w.category) for w in caught], fault


def _reraise(part) -> np.ndarray:
    """The counts of one `_count_trials` range, after warning its warnings
    again from the caller of `window_counts_for_trials` and raising its
    fault."""
    counts, warned, fault = part
    for text, category in warned:
        warnings.warn(text, category, stacklevel=3)
    if fault is not None:
        raise fault
    return counts


def _default_workers() -> int:
    """CPUs in the process's affinity set, at most MAX_WORKERS; 1 where there
    is no affinity call or no fork start method."""
    if (not hasattr(os, "sched_getaffinity")
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return min(len(os.sched_getaffinity(0)), MAX_WORKERS)


def window_counts_for_trials(config: EnsembleConfig, E: float,
                             eps_list: Sequence[float], trials: int,
                             executor: ProcessPoolExecutor | None = None) -> np.ndarray:
    """(trials, n_eps) integer counts of the eigenvalues of each trial's
    operator in the windows, by `_window_counts` on one sparsity pattern per
    box.  With `executor`, the trials are split into one contiguous range
    per pool process plus one: the caller counts the first and the pool the
    others.  A fault in any range cancels the ranges not yet started."""
    eps_arr = np.asarray(eps_list, dtype=float)
    if np.any(eps_arr < 0):
        raise ValidationError("eps must be non-negative")
    # ProcessPoolExecutor keeps its size in _max_workers only
    parts = 1 if executor is None else executor._max_workers + 1
    bounds = [trials * k // parts for k in range(parts + 1)]
    futures = [executor.submit(_count_trials, config, E, eps_arr, t0, t1)
               for t0, t1 in zip(bounds[1:-1], bounds[2:])]
    try:
        counts = [_reraise(_count_trials(config, E, eps_arr, bounds[0], bounds[1]))]
        for f in futures:
            counts.append(_reraise(f.result()))
    finally:
        for f in futures:
            f.cancel()
    return np.vstack(counts)


@dataclass
class WegnerStats:
    energy: float
    eps: tuple
    box_sizes: tuple  # L values, ascending
    mean: np.ndarray  # (n_sizes, n_eps)
    stderr: np.ndarray
    coupling: tuple

    def s2eps(self) -> np.ndarray:
        return np.array([modulus_of_continuity(self.coupling, 2 * e) for e in self.eps])

    def ratios(self) -> np.ndarray:
        """mean / (s(2 eps) L^2) per size and window."""
        s = self.s2eps()[None, :]
        l2 = (np.asarray(self.box_sizes) ** 2)[:, None]
        return self.mean / (s * l2)

    def l_exponents(self) -> np.ndarray:
        """Per window: fitted exponent of mean count vs L (NaN with fewer
        than two distinct box sizes)."""
        if len(set(self.box_sizes)) < 2:
            return np.full(self.mean.shape[1], np.nan)
        ls = np.log(np.asarray(self.box_sizes, dtype=float))
        out = []
        for j in range(self.mean.shape[1]):
            m = np.log(np.maximum(self.mean[:, j], 1e-12))
            out.append(float(np.polyfit(ls, m, 1)[0]))
        return np.array(out)


def wegner_sweep(configs, E: float, eps_list: Sequence[float], trials: int) -> WegnerStats:
    """Monte Carlo means with standard errors across one or more box sizes.

    `configs` is an EnsembleConfig or a sequence of them (same coupling law
    and profile, different boxes) for the cross-size volume fit.  Each box's
    trials are counted over `_default_workers()` processes, capped at
    `trials`, through one forked pool for the whole sweep; the results do
    not depend on the number of processes.
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
    workers = min(_default_workers(), trials)
    means, errs, sizes = [], [], []
    with (ProcessPoolExecutor(workers - 1, multiprocessing.get_context("fork"))
          if workers > 1 else contextlib.nullcontext()) as pool:
        for cfg in configs:
            counts = window_counts_for_trials(cfg, E, eps_list, trials, pool)
            means.append(counts.mean(axis=0))
            errs.append(counts.std(axis=0, ddof=1) / math.sqrt(trials))
            sizes.append(math.sqrt(cfg.setup.L[0] * cfg.setup.L[1]))
    return WegnerStats(
        energy=E,
        eps=tuple(float(e) for e in eps_list),
        box_sizes=tuple(sizes),
        mean=np.vstack(means),
        stderr=np.vstack(errs),
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
