"""Alloy-type random Landau Hamiltonian and Wegner-window statistics."""

import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from magbern.disorder import (
    EnsembleConfig,
    _dense_window_counts,
    eigen_window_counts,
    fat_cantor_disk_profile,
    fat_cantor_indices,
    linear_in_eps,
    modulus_of_continuity,
    potential_from_couplings,
    sample_couplings,
    sample_operator,
    trial_rng,
    wegner_sweep,
    window_counts_for_trials,
)
from magbern.errors import ValidationError
from magbern.lattice import TorusSetup, assemble, eigensolve


def box_config(length, coupling=(0.0, 1.0), master_seed=7):
    setup = TorusSetup.from_flux(length**2, (float(length),) * 2,
                                 (5 * length, 5 * length))
    return EnsembleConfig(setup, fat_cantor_disk_profile((5, 5)),
                          coupling=coupling, master_seed=master_seed)


def small_config(master_seed=7):
    return box_config(4, master_seed=master_seed)


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
        eigen_window_counts(op, energy, [0.1, -0.1])


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
        assert counts.tolist() == _dense_window_counts(op, energy, eps).tolist()
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
    assert counts.tolist() == _dense_window_counts(op, energy, np.array(eps)).tolist()


def test_shift_on_an_eigenvalue_falls_back_to_dense():
    op = assemble(TorusSetup.from_flux(16, (4.0, 4.0), (20, 20)))
    energy = float(scipy.linalg.eigvalsh(op.matrix.toarray())[16])
    with pytest.warns(RuntimeWarning, match=re.escape(f"shift {energy!r}")):
        counts = eigen_window_counts(op, energy, [0.0])
    assert counts.tolist() == _dense_window_counts(op, energy, [0.0]).tolist()
    assert counts[0] >= 1


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
