"""Alloy-type random Landau Hamiltonian and Wegner-window statistics."""

import os
import re
import warnings
from concurrent.futures import Future
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from magbern import disorder, lattice
from magbern.disorder import (
    EnsembleConfig,
    _dense_window_counts,
    _diagonal_positions,
    _inertia_below,
    _trial_matrices,
    _window_counts,
    fat_cantor_disk_profile,
    fat_cantor_indices,
    linear_in_eps,
    modulus_of_continuity,
    potential_from_couplings,
    sample_couplings,
    trial_rng,
    wegner_sweep,
    window_counts_for_trials,
)
from magbern.errors import ResourceLimitError, ValidationError
from magbern.lattice import TorusSetup, assemble, eigensolve


def box_config(length, coupling=(0.0, 1.0), master_seed=7):
    setup = TorusSetup.from_flux(length**2, (float(length),) * 2,
                                 (5 * length, 5 * length))
    return EnsembleConfig(setup, fat_cantor_disk_profile((5, 5)),
                          coupling=coupling, master_seed=master_seed)


def small_config(master_seed=7):
    return box_config(4, master_seed=master_seed)


def sample_operator(config, trial):
    """The disordered Hamiltonian of one trial, assembled on its own: the
    reference the shared-pattern trial matrices are checked against."""
    v = potential_from_couplings(config, sample_couplings(config, trial))
    return assemble(config.setup, potential=v)


def eigen_window_counts(op, E, eps_list):
    """Counts of one operator's eigenvalues in [E - eps, E + eps] by the
    inertia kernel that `window_counts_for_trials` runs on every trial."""
    a = op.matrix.tocsc(copy=True)
    pos = _diagonal_positions(a)
    assert pos.size == a.shape[0]
    return _window_counts(a, pos, a.data[pos].real, E, np.asarray(eps_list, dtype=float))


# -- modulus of continuity -------------------------------------------------------


def test_modulus_saturates_at_one():
    assert modulus_of_continuity((0.0, 1.0), 2.0) == 1.0


def test_modulus_linear_regime():
    assert modulus_of_continuity((0.0, 1.0), 0.1) == pytest.approx(0.1)
    s1 = modulus_of_continuity((0.0, 1.0), 0.2)
    s2 = modulus_of_continuity((0.0, 1.0), 0.4)
    assert s2 == pytest.approx(2 * s1)
    with pytest.raises(ValidationError):
        modulus_of_continuity((0.0, 1.0), 0.0)


# -- single-site profile -----------------------------------------------------------


def test_fat_cantor_profile_is_measurable_not_open_like():
    prof = fat_cantor_disk_profile((16, 16))
    assert set(np.unique(prof)) <= {0.0, 1.0}
    assert 0.1 < prof.mean() < 0.9
    keep = fat_cantor_indices(16)
    # removed cells strictly inside the kept hull: punched-out interior
    inside = np.where(~keep)[0]
    assert inside.size > 0
    assert keep[: inside[0]].any() and keep[inside[-1] + 1 :].any()


def test_config_validation():
    setup = TorusSetup.from_flux(16, (4.0, 4.0), (20, 20))
    with pytest.raises(ValidationError):
        EnsembleConfig(setup, 2.0 * np.ones((5, 5)))
    with pytest.raises(ValidationError):
        EnsembleConfig(setup, np.ones((5, 5)), coupling=(1.0, 1.0))
    with pytest.raises(ValidationError):
        EnsembleConfig(setup, np.ones((6, 6)))  # 20 not divisible by 4*6


# -- sampling ---------------------------------------------------------------------


def test_trials_deterministic_and_distinct():
    cfg = small_config()
    a = sample_couplings(cfg, 3)
    b = sample_couplings(cfg, 3)
    c = sample_couplings(cfg, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    m1 = sample_operator(cfg, 3).matrix
    m2 = sample_operator(cfg, 3).matrix
    assert (m1 != m2).nnz == 0


def test_streams_independent_of_worker_order():
    cfg = small_config()
    forward = [sample_couplings(cfg, t).sum() for t in range(4)]
    backward = [sample_couplings(cfg, t).sum() for t in reversed(range(4))]
    assert forward == backward[::-1]
    assert trial_rng(1, 0).uniform() != trial_rng(2, 0).uniform()


def test_uniform_profile_constant_coupling_shifts_spectrum():
    setup = TorusSetup.from_flux(16, (4.0, 4.0), (20, 20))
    cfg = EnsembleConfig(setup, np.ones((5, 5)), coupling=(0.0, 1.0))
    omegas = np.full(cfg.sites, 0.8)
    v = potential_from_couplings(cfg, omegas)
    assert np.allclose(v, 0.8)
    base = scipy.linalg.eigvalsh(assemble(setup).matrix.toarray())
    shifted = scipy.linalg.eigvalsh(assemble(setup, potential=v).matrix.toarray())
    assert np.allclose(shifted, base + 0.8, atol=1e-10)


def test_zero_coupling_recovers_clean_spectrum():
    cfg = small_config()
    v = potential_from_couplings(cfg, np.zeros(cfg.sites))
    clean = assemble(cfg.setup)
    dirty = assemble(cfg.setup, potential=v)
    assert np.allclose(
        scipy.linalg.eigvalsh(dirty.matrix.toarray()),
        scipy.linalg.eigvalsh(clean.matrix.toarray()),
    )


# -- window counts -------------------------------------------------------------------


def test_count_full_lowest_cluster_equals_flux_quanta():
    setup = TorusSetup.from_flux(16, (4.0, 4.0), (20, 20))
    op = assemble(setup)
    sub = eigensolve(op, count=17, dense_threshold=128, seed=0)
    center = float(np.mean(sub.eigenvalues[:16]))
    gap_width = float(sub.eigenvalues[16] - center)
    assert eigen_window_counts(op, center, [0.5 * gap_width]).tolist() == [16]


def test_zero_width_window_is_empty_with_disorder():
    cfg = small_config()
    op = sample_operator(cfg, 0)
    assert eigen_window_counts(op, 6.3, [0.0]).tolist() == [0]


def test_gap_window_stays_empty_at_small_disorder():
    setup = TorusSetup.from_flux(16, (4.0, 4.0), (20, 20))
    cfg = EnsembleConfig(setup, fat_cantor_disk_profile((5, 5)),
                         coupling=(0.0, 0.2), master_seed=3)
    op = sample_operator(cfg, 1)
    # clean clusters at ~6.09 and ~17.9: probe the middle of the gap
    assert eigen_window_counts(op, 12.0, [1.0]).tolist() == [0]


def test_window_counts_match_per_eps_dense_counts():
    # oracle: the per-eps path the shared counts replaced, one dense solve
    # per window on an operator assembled from the sampled couplings
    cfg = small_config(master_seed=11)
    rng = np.random.default_rng(5)
    energy = float(rng.uniform(5.0, 8.0))
    eps = sorted(rng.uniform(0.01, 2.0, size=4).tolist())
    counts = window_counts_for_trials(cfg, energy, eps, trials=5)
    assert counts.shape == (5, 4)
    for t in range(5):
        v = potential_from_couplings(cfg, sample_couplings(cfg, t))
        op = assemble(cfg.setup, potential=v)
        for j, e in enumerate(eps):
            evals = scipy.linalg.eigvalsh(op.matrix.toarray())
            assert counts[t, j] == np.count_nonzero(
                (evals >= energy - e) & (evals <= energy + e))
    with pytest.raises(ValidationError):
        window_counts_for_trials(cfg, energy, [0.1, -0.1], trials=1)


def counts_and_fallbacks(op, energy, eps):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        counts = eigen_window_counts(op, energy, eps)
    fallbacks = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    return counts, fallbacks


@pytest.mark.parametrize("length", [4, 8])
def test_inertia_counts_match_dense_on_random_trials(length):
    cfg = box_config(length, master_seed=23)
    rng = np.random.default_rng(length)
    trials, fallbacks = 10, 0
    for t in range(trials):
        energy = float(rng.uniform(5.0, 8.0))
        eps = np.sort(rng.uniform(0.005, 0.5, size=3))
        op = sample_operator(cfg, t)
        counts, fell_back = counts_and_fallbacks(op, energy, eps)
        fallbacks += fell_back
        assert counts.tolist() == _dense_window_counts(op.matrix, energy, eps).tolist()
    # the guard may send a few shifts to the dense path, not most of them
    assert fallbacks < trials // 2


@settings(max_examples=40, deadline=None)
@given(
    length=st.sampled_from([2, 4]),
    m0=st.floats(-1.0, 1.0),
    width=st.floats(0.05, 3.0),
    trial=st.integers(0, 1000),
    energy=st.floats(2.0, 20.0),
    eps=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4),
)
def test_inertia_counts_match_dense_property(length, m0, width, trial, energy, eps):
    cfg = box_config(length, coupling=(m0, m0 + width), master_seed=trial)
    op = sample_operator(cfg, trial)
    counts, _ = counts_and_fallbacks(op, energy, eps)
    assert counts.tolist() == _dense_window_counts(op.matrix, energy, np.array(eps)).tolist()


def test_shift_on_an_eigenvalue_falls_back_to_dense():
    op = assemble(TorusSetup.from_flux(16, (4.0, 4.0), (20, 20)))
    energy = float(scipy.linalg.eigvalsh(op.matrix.toarray())[16])
    with pytest.warns(RuntimeWarning, match=re.escape(f"shift {energy!r}")):
        counts = eigen_window_counts(op, energy, [0.0])
    assert counts.tolist() == _dense_window_counts(op.matrix, energy, [0.0]).tolist()
    assert counts[0] >= 1


@pytest.mark.parametrize("length", [4, 8])
def test_refilled_pattern_is_the_trial_operator(length):
    # box_config is the box `wegner --L <length>` builds at its default keys
    cfg = box_config(length, master_seed=0)
    for t, (a, pos, diag) in enumerate(_trial_matrices(cfg, 0, 4)):
        a = a.copy()
        a.data[pos] = diag
        got, want = a.tocsr(), sample_operator(cfg, t).matrix
        assert got.dtype == want.dtype
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
        assert spla.norm(a, 1) == spla.norm(want, 1)


@settings(max_examples=25, deadline=None)
@given(
    length=st.sampled_from([2, 4]),
    m0=st.floats(-1.0, 1.0),
    width=st.floats(0.05, 3.0),
    seed=st.integers(0, 1000),
    trials=st.integers(1, 3),
    energy=st.floats(2.0, 20.0),
    eps=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4),
)
def test_trial_counts_match_dense_property(length, m0, width, seed, trials, energy, eps):
    cfg = box_config(length, coupling=(m0, m0 + width), master_seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a dense fallback is fine
        counts = window_counts_for_trials(cfg, energy, eps, trials)
    want = [_dense_window_counts(sample_operator(cfg, t).matrix, energy,
                                 np.array(eps)).tolist() for t in range(trials)]
    assert counts.tolist() == want


def test_second_ordering_passes_where_the_first_fails_the_guard():
    # wegner --L 4,8 --trials 6 --E 6.30 --seed 1537630780, L = 8, trial 4:
    # at shift 6.38 the first ordering's pivots fail the guard although the
    # nearest eigenvalue is 3.7e-3 away; the second ordering passes
    cfg = box_config(8, master_seed=1537630780)
    op = sample_operator(cfg, 4)
    a = op.matrix.tocsc(copy=True)
    norm1 = spla.norm(a, 1)
    a.setdiag(a.diagonal() - 6.38)
    assert _inertia_below(a, norm1, "MMD_AT_PLUS_A") is None
    assert _inertia_below(a, norm1, "MMD_ATA") == 44
    eps = [0.02, 0.04, 0.08]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = eigen_window_counts(op, 6.30, eps)
        trial_counts = window_counts_for_trials(cfg, 6.30, eps, 5)[4]
    assert counts.tolist() == _dense_window_counts(op.matrix, 6.30, eps).tolist()
    assert trial_counts.tolist() == counts.tolist()


def test_every_shift_refactored_when_the_first_ordering_fails(monkeypatch):
    calls = []

    def first_ordering_fails(a, norm1, permc_spec):
        calls.append(permc_spec)
        if permc_spec == "MMD_AT_PLUS_A":
            return None
        return _inertia_below(a, norm1, permc_spec)

    monkeypatch.setattr(disorder, "_inertia_below", first_ordering_fails)
    cfg = small_config(master_seed=5)
    eps = [0.05, 0.3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = window_counts_for_trials(cfg, 6.3, eps, 3)
    for t in range(3):
        assert counts[t].tolist() == _dense_window_counts(
            sample_operator(cfg, t).matrix, 6.3, eps).tolist()
    # 4 shifts per trial, each factored under both orderings
    assert calls == ["MMD_AT_PLUS_A", "MMD_ATA"] * 12


def test_dense_fallback_counts_the_trial_operator(monkeypatch):
    # every shift fails the guard, so each trial is counted by densifying the
    # shared pattern, which must hold the trial's own diagonal again by then
    monkeypatch.setattr(disorder, "_inertia_below", lambda a, norm1, permc_spec: None)
    cfg = small_config(master_seed=5)
    eps = [0.05, 0.3]
    with pytest.warns(RuntimeWarning, match="dense eigensolve"):
        counts = window_counts_for_trials(cfg, 6.3, eps, 3)
    for t in range(3):
        assert counts[t].tolist() == _dense_window_counts(
            sample_operator(cfg, t).matrix, 6.3, eps).tolist()


def test_fallback_above_the_dense_cap_is_refused(monkeypatch):
    # the same forced fallback, with the dense cap below the operator's dim
    op = assemble(TorusSetup.from_flux(16, (4.0, 4.0), (20, 20)))
    energy = float(scipy.linalg.eigvalsh(op.matrix.toarray())[16])
    monkeypatch.setattr(lattice, "DENSE_DIM_CAP", op.setup.dim - 1)
    with pytest.warns(RuntimeWarning), pytest.raises(ResourceLimitError) as exc:
        eigen_window_counts(op, energy, [0.0])
    assert exc.value.exit_code == 4


# -- worker processes ----------------------------------------------------------------


def fail_the_guard_in_workers(monkeypatch):
    """Every shift fails the pivot guard in the forked workers alone (fork
    inherits the patch), so only the trials of the pool's ranges fall back."""
    parent = os.getpid()
    real = disorder._inertia_below
    monkeypatch.setattr(
        disorder, "_inertia_below",
        lambda a, norm1, permc_spec: None if os.getpid() != parent
        else real(a, norm1, permc_spec))


def sweep_on(workers, *args):
    """`wegner_sweep(*args)` on `workers` processes (fork inherits the patch
    too, so a worker sees the same count)."""
    with mock.patch.object(disorder, "_default_workers", lambda: workers):
        return wegner_sweep(*args)


def recorded_sweep(cfg, eps, trials, workers):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stats = sweep_on(workers, cfg, 6.3, eps, trials)
    return stats, [(str(w.message), w.category) for w in caught]


def test_worker_dense_fallback_warns_in_the_parent_in_trial_order(monkeypatch):
    # mirrors test_dense_fallback_counts_the_trial_operator through the pool
    monkeypatch.setattr(disorder, "_inertia_below", lambda a, norm1, permc_spec: None)
    cfg = small_config(master_seed=5)
    eps = [0.05, 0.3]
    serial, serial_warned = recorded_sweep(cfg, eps, 4, workers=1)
    pooled, pooled_warned = recorded_sweep(cfg, eps, 4, workers=2)
    assert len(serial_warned) == 4
    assert all("dense eigensolve" in text for text, _ in serial_warned)
    assert pooled_warned == serial_warned
    assert np.array_equal(pooled.mean, serial.mean)
    dense = np.array([_dense_window_counts(sample_operator(cfg, t).matrix, 6.3, eps)
                      for t in range(4)])
    assert np.array_equal(pooled.mean[0], dense.mean(axis=0))


def test_worker_fault_is_raised_in_the_parent(monkeypatch):
    # mirrors test_fallback_above_the_dense_cap_is_refused: only the workers'
    # trials fall back, past the dense cap, and the parent raises their fault
    # after the warning that preceded it
    cfg = small_config(master_seed=5)
    monkeypatch.setattr(lattice, "DENSE_DIM_CAP", cfg.setup.dim - 1)
    with pytest.raises(ResourceLimitError) as serial:
        lattice.dense_matrix(sample_operator(cfg, 0).matrix)
    fail_the_guard_in_workers(monkeypatch)
    with pytest.warns(RuntimeWarning, match="dense eigensolve"), \
            pytest.raises(ResourceLimitError) as exc:
        sweep_on(2, cfg, 6.3, [0.05, 0.3], 4)
    assert str(exc.value) == str(serial.value)
    assert exc.value.exit_code == 4


def unconverged_eigensolve(matrix, E, eps_arr):
    raise np.linalg.LinAlgError("eigenvalues did not converge")


def test_error_after_a_dense_fallback_follows_its_warning(monkeypatch):
    # an error outside MagbernError, serial and from a worker alike, is raised
    # after the warning of the fallback that led to it
    cfg = small_config(master_seed=5)
    monkeypatch.setattr(disorder, "_dense_window_counts", unconverged_eigensolve)
    monkeypatch.setattr(disorder, "_inertia_below", lambda a, norm1, permc_spec: None)
    with pytest.warns(RuntimeWarning, match="dense eigensolve"), \
            pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        window_counts_for_trials(cfg, 6.3, [0.05], 2)
    monkeypatch.setattr(disorder, "_inertia_below", _inertia_below)
    fail_the_guard_in_workers(monkeypatch)
    with pytest.warns(RuntimeWarning, match="dense eigensolve"), \
            pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        sweep_on(2, cfg, 6.3, [0.05], 4)


def test_workers_stop_at_the_cap_whatever_the_affinity_set(monkeypatch):
    # a container's affinity set may list every CPU of its host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    assert disorder._default_workers() == disorder.MAX_WORKERS


class StalledPool:
    """An executor stand-in whose ranges never start."""

    _max_workers = 2

    def __init__(self):
        self.futures = []

    def submit(self, fn, *args):
        self.futures.append(Future())
        return self.futures[-1]


def test_fault_in_the_parents_range_cancels_the_pending_ranges(monkeypatch):
    monkeypatch.setattr(disorder, "_inertia_below", lambda a, norm1, permc_spec: None)
    cfg = small_config(master_seed=5)
    monkeypatch.setattr(lattice, "DENSE_DIM_CAP", cfg.setup.dim - 1)
    pool = StalledPool()
    with pytest.warns(RuntimeWarning), pytest.raises(ResourceLimitError):
        window_counts_for_trials(cfg, 6.3, [0.05], 6, pool)
    assert len(pool.futures) == 2
    assert all(f.cancelled() for f in pool.futures)


@settings(max_examples=25, deadline=None)
@given(
    length=st.sampled_from([2, 4]),
    m0=st.floats(-1.0, 1.0),
    width=st.floats(0.05, 3.0),
    seed=st.integers(0, 1000),
    trials=st.integers(2, 5),
    energy=st.floats(2.0, 20.0),
    eps=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=4),
)
def test_sweep_statistics_do_not_depend_on_the_workers(length, m0, width, seed, trials,
                                                      energy, eps):
    cfg = box_config(length, coupling=(m0, m0 + width), master_seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a dense fallback is fine
        stats = [sweep_on(w, cfg, energy, eps, trials) for w in (1, 2, 3)]
    for s in stats[1:]:
        assert np.array_equal(s.mean, stats[0].mean)
        assert np.array_equal(s.stderr, stats[0].stderr)


def test_box_grid_above_the_cap_is_refused(monkeypatch):
    cfg = small_config()
    monkeypatch.setattr(disorder, "BOX_GRID_CAP", cfg.setup.dim - 1)
    with pytest.raises(ResourceLimitError) as exc:
        EnsembleConfig(cfg.setup, cfg.site_profile)
    assert exc.value.exit_code == 4
    assert "20 x 20 Wegner box grid exceeds the cap of 399 points" in str(exc.value)


# -- sweeps ------------------------------------------------------------------------


def test_wegner_sweep_statistics():
    cfgs = [
        small_config(),
        EnsembleConfig(TorusSetup.from_flux(64, (8.0, 8.0), (40, 40)),
                       fat_cantor_disk_profile((5, 5)), coupling=(0.0, 1.0),
                       master_seed=7),
    ]
    stats = wegner_sweep(cfgs, E=6.30, eps_list=[0.02, 0.04, 0.08], trials=20)
    assert stats.mean.shape == (2, 3)
    # window nesting: means nondecreasing in eps
    assert np.all(np.diff(stats.mean, axis=1) >= 0)
    # volume law at desk scale
    exps = stats.l_exponents()
    assert np.all(np.abs(exps - 2.0) < 0.4)
    # bounded Wegner ratio across the sweep
    r = stats.ratios()
    assert r.max() <= 2.0 * r.min()
    assert linear_in_eps(stats, z=4.0)


def test_wegner_sweep_validation():
    cfg = small_config()
    with pytest.raises(ValidationError):
        wegner_sweep(cfg, 6.3, [0.1], trials=1)
    with pytest.raises(ValidationError):
        wegner_sweep(cfg, 6.3, [0.1, 0.0], trials=4)
    other = EnsembleConfig(cfg.setup, cfg.site_profile, coupling=(0.0, 2.0))
    with pytest.raises(ValidationError):
        wegner_sweep([cfg, other], 6.3, [0.1], trials=4)
