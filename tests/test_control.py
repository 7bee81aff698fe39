"""Heat semigroup control: observability, HUM, cost bounds."""

import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from magbern.cli import _torus_prelude, parse_config
from magbern.control import (
    abstract_cost_log,
    cost_bound_log,
    gramian,
    hum_control,
    observability_quotient,
    propagate,
    spectral_factors_log,
    state_trajectory,
    worst_observability_quotient,
)
from magbern.errors import NumericalError, ValidationError
from magbern.geometry import SetMask, disk_complement_mask, read_pbm, strip_mask
from magbern.inequality import empirical_constant, masked_form, theoretical_constant_log
from magbern.lattice import (
    SpectralSubspace,
    TorusSetup,
    assemble,
    coherent_vector,
    eigensolve,
)
from util_fields import rng_stream

STRIPS = Path(__file__).parent / "data" / "strips.pbm"


def make_subspace(n_phi=2, L=8.0, N=32, count=4):
    setup = TorusSetup.from_flux(n_phi, (L, L), (N, N))
    sub = eigensolve(assemble(setup), count=count)
    return setup, sub


def full_mask(setup):
    return SetMask(np.ones(setup.N, dtype=bool), setup.spacing, periodic=True)


def coherent_coefficients(setup, sub, center=None):
    """Project the gauge-matched coherent state onto the subspace."""
    if center is None:
        center = (setup.L[0] / 2, setup.L[1] / 2)
    vals = coherent_vector(setup, center).ravel()
    cell = setup.spacing[0] * setup.spacing[1]
    return sub.vectors.conj().T @ vals * cell


# -- semigroup -----------------------------------------------------------------


def test_propagate_identity_and_diagonal_action():
    setup, sub = make_subspace()
    rng = rng_stream(51)
    u0 = rng.standard_normal(sub.dim) + 1j * rng.standard_normal(sub.dim)
    assert np.allclose(propagate(sub.eigenvalues, u0, 0.0), u0)
    e1 = np.zeros(sub.dim)
    e1[1] = 1.0
    t = 0.7
    got = propagate(sub.eigenvalues, e1, t)
    assert got[1] == pytest.approx(math.exp(-sub.eigenvalues[1] * t))
    assert np.all(got[[0, 2, 3]] == 0)


def test_propagate_decay_bound():
    setup, sub = make_subspace()
    b = setup.B
    assert np.all(sub.eigenvalues >= 0.9 * b)
    rng = rng_stream(52)
    u0 = rng.standard_normal(sub.dim)
    t = 2.0
    assert np.linalg.norm(propagate(sub.eigenvalues, u0, t)) <= math.exp(
        -0.9 * b * t
    ) * np.linalg.norm(u0)


def test_gramian_single_mode_closed_form():
    setup, sub = make_subspace(count=1)
    g = gramian(masked_form(sub, full_mask(setup)), sub.eigenvalues, T=1.5)
    lam = sub.eigenvalues[0]
    want = (1 - math.exp(-2 * lam * 1.5)) / (2 * lam)
    assert g[0, 0] == pytest.approx(want, rel=1e-12)


def quadrature_gramian(subspace, mask, T):
    """G_T by composite 64-point Gauss-Legendre panels in time (test oracle)."""
    lam = subspace.eigenvalues
    panels = int(min(64, max(1, math.ceil(np.max(np.abs(lam)) * T / 20.0))))
    base_x, base_w = np.polynomial.legendre.leggauss(64)
    edges = np.linspace(0.0, T, panels + 1)
    ts = np.concatenate([0.5 * (b - a) * (base_x + 1.0) + a
                         for a, b in zip(edges[:-1], edges[1:])])
    ws = np.concatenate([0.5 * (b - a) * base_w for a, b in zip(edges[:-1], edges[1:])])
    decay = np.exp(-np.outer(T - ts, lam))  # (n, k)
    g = masked_form(subspace, mask) * (decay.T @ (ws[:, None] * decay))
    return 0.5 * (g + g.conj().T)


@settings(max_examples=100, deadline=None)
@given(
    lam=st.lists(st.one_of(st.just(0.0), st.floats(-5.0, 50.0)), min_size=1, max_size=6),
    T=st.floats(1e-4, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_gramian_matches_quadrature_oracle(lam, T, seed):
    # unnormalised random vectors V on a 4 x 4 torus make V^H M_S V cell an
    # arbitrary Hermitian PSD masked form
    setup = TorusSetup.from_flux(1, (4.0, 4.0), (4, 4))
    rng = np.random.default_rng(seed)
    k = len(lam)
    vecs = rng.standard_normal((setup.dim, k)) + 1j * rng.standard_normal((setup.dim, k))
    sub = SpectralSubspace(setup, np.array(lam), vecs, max(lam))
    mask = SetMask(rng.random(setup.N) < 0.5, setup.spacing, periodic=True)
    got = gramian(masked_form(sub, mask), sub.eigenvalues, T)
    want = quadrature_gramian(sub, mask, T)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_gramian_at_zero_eigenvalue_is_horizon_times_masked_form():
    # the constant mode of the field-free torus Laplacian has eigenvalue 0
    setup = TorusSetup.from_flux(0, (8.0, 8.0), (16, 16))
    const = np.full((setup.dim, 1), 1.0 / math.sqrt(setup.L[0] * setup.L[1]), dtype=complex)
    sub = SpectralSubspace(setup, np.array([0.0]), const, 0.0)
    mask = strip_mask(setup.N, setup.spacing, 8, 4, periodic=True)
    T = 0.75
    g = gramian(masked_form(sub, mask), sub.eigenvalues, T)
    assert np.array_equal(g, T * masked_form(sub, mask))
    assert g[0, 0] == pytest.approx(T * 0.5, rel=1e-12)


# -- observability ----------------------------------------------------------------


def test_quotient_single_mode_closed_form():
    setup, sub = make_subspace(count=1)
    T = 1.2
    lam = sub.eigenvalues[0]
    form = masked_form(sub, full_mask(setup))
    got = observability_quotient(form, sub.eigenvalues, np.array([1.0 + 0j]), T)
    want = math.exp(-2 * lam * T) / ((1 - math.exp(-2 * lam * T)) / (2 * lam))
    assert got == pytest.approx(want, rel=1e-10)


def test_quotient_diverges_with_growing_hole():
    # needs B r^2 >> 1 so the coherent tail outside the hole collapses
    setup = TorusSetup.from_flux(20, (8.0, 8.0), (64, 64))
    sub = eigensolve(assemble(setup), count=20)
    center = (setup.L[0] / 2, setup.L[1] / 2)
    u0 = coherent_coefficients(setup, sub, center)
    T = 1.0
    vals = []
    for hole in (1.0, 2.0):
        mask = disk_complement_mask(setup.N, setup.spacing, center, hole,
                                    periodic=True)
        vals.append(observability_quotient(masked_form(sub, mask), sub.eigenvalues, u0, T))
    assert vals[1] > 10 * vals[0]


def test_duality_random_quotients_below_worst_case():
    setup, sub = make_subspace()
    mask = strip_mask(setup.N, setup.spacing, 8, 4, periodic=True)
    T = 0.8
    form = masked_form(sub, mask)
    worst = worst_observability_quotient(form, sub.eigenvalues, T)
    rng = rng_stream(53)
    for _ in range(200):
        u0 = rng.standard_normal(sub.dim) + 1j * rng.standard_normal(sub.dim)
        q = observability_quotient(form, sub.eigenvalues, u0, T)
        assert q <= worst * (1 + 1e-10)


# -- HUM -----------------------------------------------------------------------


def test_hum_zero_initial_state():
    setup, sub = make_subspace()
    res = hum_control(masked_form(sub, full_mask(setup)), sub.eigenvalues,
                      np.zeros(sub.dim), 1.0)
    assert res.cost == 0.0
    assert res.terminal_residual == 0.0


def test_hum_single_mode_matches_scalar_solution():
    setup, sub = make_subspace(count=1)
    T = 1.0
    lam = sub.eigenvalues[0]
    res = hum_control(masked_form(sub, full_mask(setup)), sub.eigenvalues,
                      np.array([2.0 + 0j]), T)
    g = (1 - math.exp(-2 * lam * T)) / (2 * lam)
    want_cost = math.exp(-lam * T) * 2.0 / math.sqrt(g)
    assert res.cost == pytest.approx(want_cost, rel=1e-8)
    assert res.terminal_residual <= 1e-8


def test_hum_strip_mask_reaches_target():
    setup, sub = make_subspace()  # two clusters: E_max = second cluster
    mask = strip_mask(setup.N, setup.spacing, 8, 4, periodic=True)
    u0 = coherent_coefficients(setup, sub)
    form = masked_form(sub, mask)
    res = hum_control(form, sub.eigenvalues, u0, 1.0)
    assert res.terminal_residual <= 1e-8
    assert res.cost > 0
    _, fine = state_trajectory(form, sub.eigenvalues, u0, 1.0, res.dual_state, n_steps=128)
    assert np.linalg.norm(fine[-1]) / np.linalg.norm(u0) <= 1e-7
    times, states = state_trajectory(form, sub.eigenvalues, u0, 1.0, res.dual_state,
                                     n_steps=16)
    assert np.allclose(states[0], u0)
    assert times[0] == 0.0 and times[-1] == pytest.approx(1.0)
    # the controlled flow ends near zero and decays monotonically-ish overall
    assert np.linalg.norm(states[-1]) <= 1e-7 * np.linalg.norm(u0)


def loop_trajectory(g_s, lam, u0, T, dual_state, n_steps):
    """`state_trajectory` one Gauss-Legendre node at a time (test oracle)."""
    dt = T / n_steps
    x, w = np.polynomial.legendre.leggauss(8)
    u = u0.astype(complex)
    times, states = [0.0], [u.copy()]
    for n in range(n_steps):
        t0 = n * dt
        u = np.exp(-lam * dt) * u
        for sq, wq in zip(0.5 * dt * (x + 1.0), 0.5 * dt * w):
            f_t = g_s @ (np.exp(-lam * (T - (t0 + sq))) * dual_state)
            u = u + wq * np.exp(-lam * (dt - sq)) * f_t
        times.append(t0 + dt)
        states.append(u.copy())
    return np.array(times), np.array(states)


@settings(max_examples=50, deadline=None)
@given(
    lam=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=6),
    T=st.floats(1e-3, 5.0),
    n_steps=st.integers(1, 70),
    seed=st.integers(0, 2**32 - 1),
)
def test_trajectory_matches_per_node_oracle(lam, T, n_steps, seed):
    # random subspace, mask, start and dual state on a 4 x 4 torus, as in
    # test_gramian_matches_quadrature_oracle
    setup = TorusSetup.from_flux(1, (4.0, 4.0), (4, 4))
    rng = np.random.default_rng(seed)
    k = len(lam)
    vecs = rng.standard_normal((setup.dim, k)) + 1j * rng.standard_normal((setup.dim, k))
    sub = SpectralSubspace(setup, np.array(lam), vecs, max(lam))
    mask = SetMask(rng.random(setup.N) < 0.5, setup.spacing, periodic=True)
    u0 = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    p = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    form = masked_form(sub, mask)
    times, states = state_trajectory(form, sub.eigenvalues, u0, T, p, n_steps)
    want_times, want_states = loop_trajectory(form, sub.eigenvalues, u0, T, p, n_steps)
    assert np.array_equal(times, want_times)
    assert np.max(np.abs(states - want_states)) <= 1e-12 * np.max(np.abs(want_states))


@pytest.fixture(scope="module")
def cli_torus_oracle():
    """The specineq/control prelude's subspace (n-phi 2, L 8,8, N 32,32, cut
    at 1.001*3B) from a full-spectrum dense `eigh`."""
    setup = TorusSetup.from_flux(2, (8.0, 8.0), (32, 32))
    op = assemble(setup)
    energy = 1.001 * 3 * setup.B
    evals, evecs = scipy.linalg.eigh(op.matrix.toarray())
    keep = evals <= energy
    cell = setup.spacing[0] * setup.spacing[1]
    return op, SpectralSubspace(setup, evals[keep], evecs[:, keep] / math.sqrt(cell),
                                energy)


def cli_subspace(seed):
    """The specineq prelude's subspace at --E 3B and --seed `seed`."""
    cfg = parse_config(["specineq", "--mask", str(STRIPS), "--E", "3B", "--seed", str(seed)])
    return _torus_prelude(cfg)[1]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_default_solver_matches_full_dense_oracle_on_cli_torus(cli_torus_oracle, seed):
    # --seed reaches no solver: every seed gives the seed-0 subspace bit for bit
    op, oracle = cli_torus_oracle
    setup = op.setup
    cell = setup.spacing[0] * setup.spacing[1]
    fast = cli_subspace(seed)
    assert fast.cutoff == oracle.cutoff
    assert np.array_equal(fast.vectors, cli_subspace(0).vectors)
    assert fast.dim == oracle.dim == 4
    assert np.max(np.abs(fast.eigenvalues - oracle.eigenvalues)) <= 1e-9
    projectors = [s.vectors @ s.vectors.conj().T * cell for s in (fast, oracle)]
    assert np.max(np.abs(projectors[0] - projectors[1])) < 1e-8
    mask = read_pbm(STRIPS, spacing=setup.spacing, periodic=True)
    assert empirical_constant(fast, mask) == pytest.approx(
        empirical_constant(oracle, mask), rel=1e-9)
    for t in (0.5, 1.0, 2.0):
        costs = [hum_control(masked_form(s, mask), s.eigenvalues,
                             coherent_coefficients(setup, s), t).cost
                 for s in (fast, oracle)]
        assert costs[0] == pytest.approx(costs[1], rel=1e-9)


def test_hum_cost_monotone_in_mask():
    setup, sub = make_subspace()
    u0 = coherent_coefficients(setup, sub)
    small = strip_mask(setup.N, setup.spacing, 8, 3, periodic=True)
    large = SetMask(small.cells | strip_mask(setup.N, setup.spacing, 8, 5,
                                             periodic=True).cells,
                    setup.spacing, periodic=True)
    c_small = hum_control(masked_form(sub, small), sub.eigenvalues, u0, 1.0).cost
    c_large = hum_control(masked_form(sub, large), sub.eigenvalues, u0, 1.0).cost
    assert c_large <= c_small * (1 + 1e-9)


def test_hum_reports_singular_gramian():
    setup, sub = make_subspace()
    # empty mask: Gramian identically zero
    mask = SetMask(np.zeros(setup.N, dtype=bool), setup.spacing, periodic=True)
    u0 = coherent_coefficients(setup, sub)
    with pytest.raises(NumericalError):
        hum_control(masked_form(sub, mask), sub.eigenvalues, u0, 1.0)


def test_worst_case_equals_best_single_cost():
    setup, sub = make_subspace()
    mask = strip_mask(setup.N, setup.spacing, 8, 4, periodic=True)
    T = 0.9
    form = masked_form(sub, mask)
    worst = worst_observability_quotient(form, sub.eigenvalues, T)
    # cost(u0)^2 = u0^H E G^-1 E u0; its sup over unit u0 equals the worst quotient
    g = gramian(form, sub.eigenvalues, T)
    e = np.diag(np.exp(-sub.eigenvalues * T))
    m = e @ np.linalg.solve(g, e)
    lam_max = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[-1])
    assert worst == pytest.approx(lam_max, rel=1e-8)


# -- cost bounds -------------------------------------------------------------------


def test_abstract_cost_examples():
    cost_1 = abstract_cost_log(math.log(2.0), 0.0, 1.0)
    assert cost_1 - abstract_cost_log(math.log(2.0), 0.0, 2.0) == pytest.approx(math.log(2.0))
    base = abstract_cost_log(0.0, 1.0, 1.0)
    doubled = abstract_cost_log(0.0, 2.0, 1.0)
    assert doubled - base == pytest.approx(3.0)  # C7 (4 d1^2 - d1^2) / T


def test_spectral_factorization_matches_constant():
    b, ell, rho = 1.0, (0.7, 0.4), 0.35
    log_d0, d1 = spectral_factors_log(b, ell, rho)
    for e in (1.0, 4.0, 9.0):
        assert log_d0 + d1 * math.sqrt(e) == pytest.approx(
            theoretical_constant_log(e, b, ell, rho), rel=1e-12
        )


def test_cost_bound_limits():
    rho, ell, b = 0.5, (1.0, 1.0), 1.0
    # large-T slope -B: the traced d1^2 ~ 1e13 pushes the regime where the
    # exp(2 d1^2 / T) term is negligible out to horizons ~ 1e15
    t1, t2 = 1e15, 2e15
    slope = (cost_bound_log(rho, ell, b, t2) - cost_bound_log(rho, ell, b, t1)) / (t2 - t1)
    assert slope == pytest.approx(-b, rel=1e-2)
    # small-T blow-up like exp(c/T) in traced mode
    s1 = cost_bound_log(rho, ell, b, 0.01)
    s2 = cost_bound_log(rho, ell, b, 0.005)
    _, d1 = spectral_factors_log(b, ell, rho)
    assert s2 - s1 == pytest.approx(d1 * d1 * 2.0 * (1 / 0.005 - 1 / 0.01),
                                    rel=1e-3)
    # window shrinks: B-dependence of the factors vanishes
    l0 = spectral_factors_log(5.0, (1e-12, 1e-12), rho)
    l1 = spectral_factors_log(0.0, (1e-12, 1e-12), rho)
    assert l0[0] == pytest.approx(l1[0], abs=1e-3)
    assert l0[1] == pytest.approx(l1[1], abs=1e-3)


def test_cost_bound_validation():
    with pytest.raises(ValidationError):
        cost_bound_log(0.5, (1.0, 1.0), 1.0, 0.0)
    with pytest.raises(ValidationError):
        cost_bound_log(1.5, (1.0, 1.0), 1.0, 1.0)
    setup, sub = make_subspace(count=1)
    form = masked_form(sub, full_mask(setup))
    with pytest.raises(ValidationError):
        hum_control(form, sub.eigenvalues, np.array([1.0]), -1.0)
    with pytest.raises(ValidationError):
        hum_control(form, sub.eigenvalues, np.array([1.0, 0.0]), 1.0)