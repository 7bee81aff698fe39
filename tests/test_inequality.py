"""Constants, sharp masked-Gram constants, and 1-D estimate checks."""

import math

import numpy as np
import pytest

from magbern.errors import NumericalError, ValidationError
from magbern.geometry import SetMask, disk_complement_mask, strip_mask, thickness_scan
from magbern.inequality import (
    AnalyticSample,
    ThmConstants,
    empirical_constant,
    gaussian_tail_bound,
    kovrijkine_check,
    local_estimate_check,
    necessity_decay,
    remez_bound,
    remez_check,
    series_bound_check,
    sup_abs_on_interval,
    taylor_extension_sup,
    theoretical_constant,
    theoretical_constant_log,
)
from magbern.landau import CoherentState, QuadratureSpec, coherent_field, norm2
from magbern.lattice import TorusSetup, assemble, eigensolve
from util_fields import rng_stream


# -- theoretical constant -------------------------------------------------------


def test_structural_homogenization_limit_is_one():
    c = ThmConstants(mode="structural", C1=7.0, C2=0.0)
    assert theoretical_constant(3.0, 1.0, (0.0, 0.0), 1.0, c) == 1.0


def test_constant_monotonicities():
    c = ThmConstants()
    base = theoretical_constant_log(4.0, 1.0, (1.0, 1.0), 0.5, c)
    assert theoretical_constant_log(4.0, 1.0, (1.0, 1.0), 0.25, c) > base
    assert theoretical_constant_log(9.0, 1.0, (1.0, 1.0), 0.5, c) > base
    assert theoretical_constant_log(4.0, 2.0, (1.0, 1.0), 0.5, c) > base
    assert theoretical_constant_log(4.0, 1.0, (2.0, 1.0), 0.5, c) > base


def test_traced_constant_is_scale_invariant():
    c = ThmConstants()
    a = theoretical_constant_log(3.0, 1.0, (1.0, 0.5), 0.3, c)
    b = theoretical_constant_log(12.0, 4.0, (0.5, 0.25), 0.3, c)
    assert a == pytest.approx(b, rel=1e-14)


def test_traced_b_to_zero_recovers_energy_only_exponent():
    c = ThmConstants()
    got = theoretical_constant_log(4.0, 0.0, (1.0, 1.0), 0.5, c)
    ln_m = math.log(16.0) + 2 * 240**2 * 2.0 * 2.0
    want = math.log(4.0) + (1 + 2 * ln_m / math.log(2)) * math.log(96 * math.pi / 0.5)
    assert got == pytest.approx(want, rel=1e-14)


def test_constant_input_validation():
    with pytest.raises(ValidationError):
        theoretical_constant_log(1.0, 1.0, (1.0, 1.0), 1.5)
    with pytest.raises(ValidationError):
        theoretical_constant_log(1.0, 1.0, (1.0, 1.0), 0.0)
    with pytest.raises(ValidationError):
        theoretical_constant_log(0.5, 1.0, (1.0, 1.0), 0.5)  # E < B
    with pytest.raises(ValidationError):
        ThmConstants(mode="weird")


def _inline_chain_log(E, B, ell, rho, c):
    """The constant as first written, one formula per mode (test oracle)."""
    l1 = abs(ell[0]) + abs(ell[1])
    if c.mode == "structural":
        return (c.C2 + c.C3 * l1 * math.sqrt(E) + c.C4 * l1 * l1 * B) * math.log(
            c.C1 / rho
        )
    ln_m = math.log(16.0) + 2.0 * 240.0**2 * (
        l1 * (math.sqrt(E) + math.sqrt(B)) + l1 * l1 * B
    )
    return math.log(4.0) + (1.0 + 2.0 * ln_m / math.log(2.0)) * math.log(
        96.0 * math.pi / rho
    )


@pytest.mark.parametrize("mode", ["traced", "structural"])
def test_constant_matches_inline_chain(mode):
    rng = rng_stream(17)
    for _ in range(200):
        b = float(rng.choice([0.0, rng.uniform(0.01, 5.0)]))
        e = b * float(rng.uniform(1.0, 20.0)) if b else float(rng.uniform(0.0, 50.0))
        ell = (float(rng.uniform(0.0, 4.0)), float(rng.uniform(0.0, 4.0)))
        rho = float(rng.uniform(1e-3, 1.0))
        c = ThmConstants() if mode == "traced" else ThmConstants(
            mode, *rng.uniform(0.1, 5.0, size=4).tolist())
        assert theoretical_constant_log(e, b, ell, rho, c) == pytest.approx(
            _inline_chain_log(e, b, ell, rho, c), rel=1e-13, abs=1e-13)


def test_traced_value_overflows_to_inf_by_design():
    assert theoretical_constant(4.0, 1.0, (1.0, 1.0), 0.5) == math.inf


# -- empirical constant -----------------------------------------------------------


def lattice_subspace(n_phi=2, L=8.0, N=32, n_levels=1):
    setup = TorusSetup.from_flux(n_phi, (L, L), (N, N))
    op = assemble(setup)
    return setup, eigensolve(op, count=n_phi * n_levels, dense_threshold=256, seed=5)


def test_full_mask_gives_constant_one():
    setup, sub = lattice_subspace()
    mask = SetMask(np.ones(setup.N, dtype=bool), setup.spacing, periodic=True)
    assert empirical_constant(sub, mask) == pytest.approx(1.0, abs=1e-10)


def test_single_coherent_state_against_annulus():
    B = 1.0
    r = 1.2
    spec = QuadratureSpec(tail_sigmas=9.0, points_per_length=32)
    f = coherent_field(CoherentState((0.0, 0.0), B), spec)
    n1, n2 = f.samples.shape
    mask_cells = np.zeros((n1, n2), dtype=bool)
    x1, x2 = f.axes()
    mask_cells |= (x1**2 + x2**2) >= r**2
    mask = SetMask(mask_cells, f.spacing, origin=f.origin)
    basis = (f.samples / math.sqrt(norm2(f)))[None, :, :]
    got = empirical_constant(basis, mask)
    assert got == pytest.approx(math.exp(B * r * r / 2), rel=0.03)


def test_empirical_below_traced_for_strip_mask():
    setup, sub = lattice_subspace(n_phi=2, L=8.0, N=32)
    mask = strip_mask(setup.N, setup.spacing, period_cells=8, width_cells=4,
                      periodic=True)
    rep = thickness_scan(mask, (2.0, 2.0))
    c_emp = empirical_constant(sub, mask)
    log_traced = theoretical_constant_log(setup.B, setup.B, rep.ell, rep.rho_lower)
    assert math.log(c_emp) <= log_traced


def test_non_orthonormal_basis_matches_orthonormalized_vectors():
    # oracle: 1/lambda_min of the masked form on a QR-orthonormalized copy of
    # the vectors; lambda_min does not depend on the orthonormal basis chosen
    rng = rng_stream(23)
    for _ in range(10):
        k, n1, n2 = (int(v) for v in rng.integers((1, 6, 6), (5, 14, 14)))
        spacing = tuple(rng.uniform(0.2, 1.0, size=2).tolist())
        basis = rng.normal(size=(k, n1, n2)) + 1j * rng.normal(size=(k, n1, n2))
        mask = SetMask(rng.random((n1, n2)) < 0.6, spacing)
        q = np.linalg.qr(basis.reshape(k, -1).T)[0] / math.sqrt(mask.cell_area)
        w = mask.cells.ravel()
        masked = q.conj().T @ (q * w[:, None]) * mask.cell_area
        want = 1.0 / np.linalg.eigvalsh(masked)[0]
        assert empirical_constant(basis, mask) == pytest.approx(want, rel=1e-9)


def test_void_inequality_reported():
    setup, sub = lattice_subspace()
    mask = SetMask(np.zeros(setup.N, dtype=bool), setup.spacing, periodic=True)
    with pytest.raises(NumericalError):
        empirical_constant(sub, mask)


# -- Remez / Kovrijkine -----------------------------------------------------------


def test_remez_bound_values():
    assert remez_bound(0, 0.7) == 1.0
    assert remez_bound(1, 0.5) == 8.0
    assert remez_bound(3, 0.1) == pytest.approx(64000.0)
    with pytest.raises(ValidationError):
        remez_bound(1, 0.0)
    with pytest.raises(ValidationError):
        remez_bound(1, 1.5)


def test_remez_constant_polynomial():
    assert remez_check([3.0], [(0.2, 0.5)])


def test_remez_chebyshev_like_extremal():
    # P(t) = T4(2t - 1) on [0,1]; E the middle half
    t4 = np.polynomial.chebyshev.cheb2poly([0, 0, 0, 0, 1.0])
    p = np.polynomial.polynomial.Polynomial(t4)(np.polynomial.polynomial.Polynomial([-1.0, 2.0]))
    coeffs = p.coef[::-1]
    assert remez_check(coeffs, [(0.25, 0.75)])
    sup01 = sup_abs_on_interval(coeffs, 0.0, 1.0)
    sup_e = sup_abs_on_interval(coeffs, 0.25, 0.75)
    assert sup01 / sup_e <= remez_bound(4, 0.5)


def test_remez_random_sweep():
    rng = rng_stream(71)
    for _ in range(30):
        deg = int(rng.integers(0, 11))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        cuts = np.sort(rng.uniform(0.0, 1.0, size=6))
        intervals = [(cuts[0], cuts[1]), (cuts[2], cuts[3]), (cuts[4], cuts[5])]
        if sum(b - a for a, b in intervals) < 1e-3:
            continue
        assert remez_check(coeffs, intervals)


def test_kovrijkine_constant_function():
    assert kovrijkine_check(AnalyticSample((1.0,)), [(0.1, 0.6)])


def test_kovrijkine_one_plus_z():
    assert kovrijkine_check(AnalyticSample((1.0, 1.0)), [(0.0, 0.5)])


def test_kovrijkine_requires_unit_value_at_zero():
    with pytest.raises(ValidationError):
        kovrijkine_check(AnalyticSample((1.0, 0.5)), [(0.0, 0.5)])


def test_kovrijkine_random_sweep():
    rng = rng_stream(72)
    for _ in range(30):
        deg = int(rng.integers(0, 9))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        if abs(coeffs[-1]) < 1e-9:
            coeffs[-1] = 1.0
        coeffs = coeffs / coeffs[-1]  # phi(0) = 1
        cuts = np.sort(rng.uniform(0.0, 1.0, size=4))
        intervals = [(cuts[0], cuts[1]), (cuts[2], cuts[3])]
        if sum(b - a for a, b in intervals) < 1e-3:
            continue
        assert kovrijkine_check(AnalyticSample(tuple(coeffs)), intervals)


# -- local estimate ---------------------------------------------------------------


def _coherent_grid(B=1.0, pp=8):
    return coherent_field(CoherentState((0.0, 0.0), B),
                          QuadratureSpec(tail_sigmas=9.0, points_per_length=pp))


def test_local_estimate_u_equals_q():
    f = _coherent_grid()
    rect = ((-0.5, -0.5), (1.0, 1.0))
    u = np.ones_like(f.samples, dtype=bool)
    res = local_estimate_check(f, rect, u, np.eye(2))
    assert res.passed
    assert res.lhs >= res.rhs


def test_local_estimate_half_rectangle():
    f = _coherent_grid()
    rect = ((-0.5, -0.5), (1.0, 1.0))
    x1, _ = f.axes()
    u = np.broadcast_to(x1 >= 0.0, f.samples.shape)
    res = local_estimate_check(f, rect, u, np.eye(2))
    assert res.passed


def test_local_estimate_small_density_and_rescaling_map():
    f = _coherent_grid()
    rect = ((-1.0, -0.5), (2.0, 1.0))
    x1, x2 = f.axes()
    u = np.broadcast_to((x1 >= 0.8) & (x2 >= 0.0), f.samples.shape)
    a_map = np.diag([0.5, 1.0])  # maps the 2x1 rectangle to a unit square
    res = local_estimate_check(f, rect, u, a_map)
    assert res.passed
    assert res.m_value >= 1.0


def test_taylor_model_agrees_with_closed_form_extension():
    # two independent routes to sup |Phi| on the polydisc: truncated Taylor
    # majorant vs direct evaluation of the entire closed form
    from magbern.inequality import _poly_disc_sup

    f = _coherent_grid()
    radii = (0.8, 0.8)
    taylor = taylor_extension_sup(f, (0.0, 0.0), radii, degree=24)
    closed = _poly_disc_sup(f.ladder, (0.0, 0.0), (0.0, 0.0), radii, n_q=1)
    assert taylor == pytest.approx(closed, rel=1e-6)


def test_taylor_divergence_guard():
    f = _coherent_grid()
    with pytest.raises(NumericalError):
        taylor_extension_sup(f, (0.0, 0.0), (40.0, 40.0), degree=10)


# -- series bound -----------------------------------------------------------------


@pytest.mark.parametrize("s", [0.0, 1.0, 5.0])
def test_series_bound_examples(s):
    assert series_bound_check(s)


def test_series_bound_rejects_insufficient_terms():
    with pytest.raises(ValidationError):
        series_bound_check(5.0, m_terms=10)


# -- necessity of thickness --------------------------------------------------------


def test_necessity_decay_with_growing_hole():
    B = 1.0
    h = 1 / 16
    n_cells = 512
    origin = (-16.0, -16.0)
    vals = []
    for n in (2.0, 3.0):
        mask = disk_complement_mask((n_cells, n_cells), (h, h), center=(0.0, 0.0),
                                    radius=n, origin=origin)
        v = necessity_decay(n, B, mask)
        edge = 2 * math.pi * n * 2 * h * math.exp(-B * n * n / 2)
        assert v <= 1.0 / n + gaussian_tail_bound(n, B) + edge
        vals.append(v)
    assert vals[1] < vals[0]


def test_necessity_full_plane_recovers_total_mass():
    B = 1.0
    h = 1 / 16
    mask = SetMask(np.ones((512, 512), dtype=bool), (h, h), origin=(-16.0, -16.0))
    assert necessity_decay(2.0, B, mask) == pytest.approx(2 * math.pi / B, rel=1e-9)
