"""Continuum Landau fields: coherent states, kernels, Bernstein sums."""

import math

import numpy as np
import pytest
from scipy.special import eval_laguerre

from magbern.algebra import bernstein_constant
from magbern.errors import ValidationError
from magbern.landau import (
    CoherentState,
    GridField,
    LadderField,
    QuadratureSpec,
    apply_h,
    bernstein_sum,
    boundary_mass_fraction,
    coherent_field,
    eval_kernel,
    f_m_quadratic_form,
    inner,
    kernel_column,
    l1_bernstein_sum,
    landau_levels_below,
    magnetic_derivative,
    norm2,
    ordinary_derivative,
    radial_mass_outside,
    read_grid_binary,
    sample_ladder,
    write_grid_binary,
)
from util_fields import random_ladder, rng_stream

FAST = QuadratureSpec(tail_sigmas=9.0, points_per_length=8)


# -- coherent states ----------------------------------------------------------


def test_coherent_value_at_center_is_one():
    st = CoherentState((0.7, -0.3), 2.0)
    assert complex(LadderField.coherent(st).eval(0.7, -0.3)) == pytest.approx(1.0)


def test_coherent_centered_at_origin_is_real_gaussian():
    st = CoherentState((0.0, 0.0), 1.5)
    v = complex(LadderField.coherent(st).eval(0.4, -0.9))
    assert v.imag == 0.0
    assert v.real == pytest.approx(math.exp(-1.5 / 4 * (0.4**2 + 0.9**2)))


@pytest.mark.parametrize("B,y", [(1.0, (0.0, 0.0)), (2.5, (1.0, -0.5))])
def test_coherent_norm_is_2pi_over_b(B, y):
    f = coherent_field(CoherentState(y, B), FAST)
    assert norm2(f) == pytest.approx(2 * math.pi / B, rel=1e-9)


def test_modulus_depends_only_on_distance_from_center():
    st = CoherentState((0.5, 1.0), 1.0)
    pts = [(0.5 + 0.8, 1.0), (0.5, 1.0 + 0.8), (0.5 - 0.8, 1.0)]
    mods = [abs(LadderField.coherent(st).eval(*p)) for p in pts]
    assert max(mods) - min(mods) < 1e-14


def test_tail_mass_matches_gaussian_closed_form():
    # || f_0 ||^2 over {|x| >= r} = (2 pi / B) exp(-B r^2 / 2)
    B = 1.0
    lf = LadderField.coherent(CoherentState((0.0, 0.0), B))
    for r in (1.0, 2.0, 4.0):
        got = radial_mass_outside(lf, (0.0, 0.0), r)
        want = (2 * math.pi / B) * math.exp(-B * r * r / 2)
        assert got == pytest.approx(want, rel=1e-9)


def test_disk_mass_independent_of_center():
    B = 1.3
    vals = []
    for y in [(0.0, 0.0), (2.0, -1.0)]:
        lf = LadderField.coherent(CoherentState(y, B))
        vals.append(radial_mass_outside(lf, y, 1.1))
    assert vals[0] == pytest.approx(vals[1], rel=1e-10)


def test_rect_indices_match_brute_force_membership():
    g = GridField(np.zeros((40, 30)), (-1.3, 0.7), (0.25, 0.1))
    x1, x2 = (x.ravel() for x in g.axes())
    rng = rng_stream(31)
    for trial in range(200):
        aligned = trial % 2 == 1
        if aligned:  # anchor on a grid point, sides whole multiples of h
            i, j = int(rng.integers(0, 40)), int(rng.integers(0, 30))
            ki, kj = int(rng.integers(1, 20)), int(rng.integers(1, 20))
            anchor, ell = (x1[i], x2[j]), (0.25 * ki, 0.1 * kj)
        else:
            anchor = (rng.uniform(-3.0, 10.0), rng.uniform(0.0, 4.5))
            ell = (rng.uniform(0.05, 6.0), rng.uniform(0.05, 2.0))
        i0, i1, j0, j1 = g.rect_indices(anchor, ell)
        in1 = (x1 >= anchor[0] - 1e-12) & (x1 < anchor[0] + ell[0] - 1e-12)
        in2 = (x2 >= anchor[1] - 1e-12) & (x2 < anchor[1] + ell[1] - 1e-12)
        assert np.flatnonzero(in1).tolist() == list(range(i0, i1))
        assert np.flatnonzero(in2).tolist() == list(range(j0, j1))
        if aligned:  # half-open: the near edge is in, the far edge out
            assert (i0, i1) == (i, min(i + ki, 40))
            assert (j0, j1) == (j, min(j + kj, 30))


# -- projector kernel ---------------------------------------------------------


def test_kernel_below_first_level_vanishes():
    assert eval_kernel(0.5, 1.0, (0.3, 0.4), (0.0, 0.0)) == 0
    assert landau_levels_below(0.5, 1.0) == 0


def test_kernel_diagonal_lowest_level():
    B = 2.0
    v = eval_kernel(B, B, (1.2, -0.7), (1.2, -0.7))
    assert v == pytest.approx(B / (2 * math.pi))


def test_laguerre_recurrence_matches_scipy():
    from magbern.landau import _laguerre_stack

    u = np.linspace(0.0, 12.0, 50)
    stack = _laguerre_stack(6, u)
    for k in range(7):
        assert np.allclose(stack[k], eval_laguerre(k, u), atol=1e-10)


def test_kernel_reproduces_itself_under_integration():
    B, E = 1.0, 3.5
    rng = rng_stream(11)
    xs = rng.uniform(-0.8, 0.8, size=(3, 2))
    y = (0.25, -0.4)
    origin, spacing, shape = (-9.5, -9.5), (1 / 8, 1 / 8), (153, 153)
    z1 = origin[0] + spacing[0] * np.arange(shape[0])[:, None]
    z2 = origin[1] + spacing[1] * np.arange(shape[1])[None, :]
    k_zy = eval_kernel(E, B, (z1, z2), y)
    for x in xs:
        k_xz = eval_kernel(E, B, (z1, z2), tuple(x))
        # K(x,z) = conj(K(z,x)); integrate K(x,z) K(z,y) dz
        val = np.sum(np.conj(k_xz) * k_zy) * spacing[0] * spacing[1]
        want = eval_kernel(E, B, tuple(x), y)
        assert val == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_kernel_column_projects_ladder_fields():
    # picking off the level-0 component of f_y: integral of K(x,.) f equals f
    B, E = 1.0, 1.5
    lf = LadderField.coherent(CoherentState((0.3, 0.1), B))
    f = sample_ladder(lf, FAST)
    col = kernel_column(E, B, (0.6, -0.2), f)
    got = inner(col, f)
    want = lf.eval(0.6, -0.2)
    assert complex(got) == pytest.approx(complex(want), rel=1e-8)


# -- ladder structure ---------------------------------------------------------


def test_ladder_terms_are_exact_eigenfunctions():
    B = 1.0
    for k in (0, 1, 2):
        lf = LadderField(B, {(0.4, -0.7): {k: 1.0}})
        f = sample_ladder(lf, FAST)
        hf = apply_h(f, B, method="closed_form")
        lam = (2 * k + 1) * B
        resid = norm2(f.with_samples(hf.samples - lam * f.samples))
        assert resid / norm2(f) < 1e-24


def test_finite_difference_h_residual_is_second_order():
    B = 1.0
    st = CoherentState((0.0, 0.0), B)
    errs = []
    for pp in (8, 16):
        f = coherent_field(st, QuadratureSpec(tail_sigmas=9.0, points_per_length=pp))
        hf = apply_h(f, B)
        resid = norm2(f.with_samples(hf.samples - B * f.samples))
        errs.append(math.sqrt(resid / norm2(f)))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.5


def test_closed_form_and_fd_derivative_agree_at_second_order():
    B = 1.0
    st = CoherentState((0.5, -0.25), B)
    errs = []
    for pp in (8, 16):
        f = coherent_field(st, QuadratureSpec(tail_sigmas=9.0, points_per_length=pp))
        d_cf = magnetic_derivative(f, 1, B, "closed_form")
        d_fd = magnetic_derivative(f, 1, B, "finite_difference")
        errs.append(math.sqrt(norm2(f.with_samples(d_cf.samples - d_fd.samples))))
    assert 3.0 < errs[0] / errs[1] < 5.5


def test_derivative_of_zero_field_is_zero():
    z = GridField(np.zeros((8, 8), dtype=complex), (0.0, 0.0), (0.1, 0.1))
    assert norm2(magnetic_derivative(z, 2, 1.0)) == 0.0


def test_derivative_rejects_bad_axis():
    z = GridField(np.zeros((8, 8), dtype=complex), (0.0, 0.0), (0.1, 0.1))
    with pytest.raises(ValidationError):
        magnetic_derivative(z, 3, 1.0)


def test_ordinary_derivative_blows_up_while_magnetic_does_not():
    B = 1.0
    for y2 in (4.0, 8.0):
        f = coherent_field(CoherentState((0.0, y2), B), FAST)
        od = norm2(ordinary_derivative(f, 1))
        assert od >= math.pi * y2**2 / 2 - 4 * math.pi / B
        ms = bernstein_sum(f, 1, B)
        assert ms == pytest.approx(2 * math.pi, rel=1e-6)


# -- Bernstein sums -----------------------------------------------------------


def test_bernstein_sum_coherent_m1_m2():
    B = 1.0
    f = coherent_field(CoherentState((0.2, 0.6), B), FAST)
    assert bernstein_sum(f, 1, B) == pytest.approx(2 * math.pi, rel=1e-9)
    assert bernstein_sum(f, 2, B) == pytest.approx(6 * math.pi * B, rel=1e-9)


def test_bernstein_sum_equals_quadratic_form_of_f_m():
    rng = rng_stream(5)
    for _ in range(4):
        lf = random_ladder(rng, n_terms=3, max_level=2)
        f = sample_ladder(lf, FAST)
        for m in (1, 2, 3):
            s = bernstein_sum(f, m, lf.B)
            q = f_m_quadratic_form(f, m)
            assert s == pytest.approx(q, rel=1e-9)


def test_bernstein_sum_respects_spectral_bound():
    rng = rng_stream(6)
    for _ in range(4):
        lf = random_ladder(rng, n_terms=3, max_level=2)
        f = sample_ladder(lf, FAST)
        e = lf.energy_ceiling()
        n2 = norm2(f)
        for m in (1, 2, 3):
            assert bernstein_sum(f, m, lf.B) <= bernstein_constant(m, e, lf.B) * n2 * (
                1 + 1e-9
            )


def test_fd_bernstein_sum_converges_to_exact():
    B = 1.0
    st = CoherentState((0.0, 0.0), B)
    f = coherent_field(st, QuadratureSpec(tail_sigmas=9.0, points_per_length=24))
    fd = bernstein_sum(f, 1, B, method="finite_difference")
    assert fd == pytest.approx(2 * math.pi, rel=2e-3)


def test_l1_sum_m0_is_squared_norm():
    f = coherent_field(CoherentState((0.1, 0.2), 1.0), FAST)
    assert l1_bernstein_sum(f, 0, 1.0) == pytest.approx(norm2(f), rel=1e-12)


def test_l1_sum_coherent_exact_value_and_bound():
    # |d|f|^2| has a crease where a factor vanishes, so the cell-sum L1 norm
    # carries an O(h^2) kink error; 16 points per length puts it below 1e-3.
    B = 1.0
    f = coherent_field(CoherentState((0.0, 0.0), B),
                       QuadratureSpec(tail_sigmas=9.0, points_per_length=16))
    got = l1_bernstein_sum(f, 1, B)
    assert got == pytest.approx(4 * math.sqrt(2 * math.pi / B), rel=2e-3)
    e = 1.0
    assert got <= bernstein_constant(1, e, B, "L1") * norm2(f) * (1 + 1e-6)


def test_l1_identity_route_matches_fd_route():
    B = 1.0
    lf = random_ladder(rng_stream(9), n_terms=2, max_level=1)
    f = sample_ladder(lf, QuadratureSpec(tail_sigmas=9.0, points_per_length=24))
    a = l1_bernstein_sum(f, 2, B, method="closed_form")
    b = l1_bernstein_sum(f, 2, B, method="finite_difference")
    assert a == pytest.approx(b, rel=5e-3)


def test_l1_bound_on_random_level_combinations():
    rng = rng_stream(10)
    for _ in range(3):
        lf = random_ladder(rng, n_terms=3, max_level=2)
        f = sample_ladder(lf, FAST)
        e = lf.energy_ceiling()
        n2 = norm2(f)
        for m in (1, 2, 3):
            bound = bernstein_constant(m, e, lf.B, "L1") * n2
            assert l1_bernstein_sum(f, m, lf.B) <= bound * (1 + 1e-3)


def test_boundary_mass_warning_for_non_decaying_field():
    ones = GridField(np.ones((16, 16), dtype=complex), (0.0, 0.0), (0.1, 0.1))
    assert boundary_mass_fraction(ones) > 1e-6
    with pytest.warns(UserWarning):
        bernstein_sum(ones, 1, 1.0)


# -- serialization ------------------------------------------------------------


def test_grid_binary_round_trip(tmp_path):
    lf = random_ladder(rng_stream(3), n_terms=2, max_level=1)
    f = sample_ladder(lf, QuadratureSpec(tail_sigmas=6.0, points_per_length=4))
    p = tmp_path / "field.bin"
    write_grid_binary(f, p)
    g = read_grid_binary(p)
    assert g.samples.shape == f.samples.shape
    assert np.array_equal(g.samples, f.samples)
    assert g.origin == f.origin and g.spacing == f.spacing


def test_grid_csv_header(tmp_path):
    from magbern.landau import write_grid_csv

    f = GridField(np.zeros((2, 3), dtype=complex), (0.0, 1.0), (0.5, 0.5))
    p = tmp_path / "field.csv"
    write_grid_csv(f, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "x1,x2,re,im"
    assert len(lines) == 1 + 6
