"""Continuum Landau fields: coherent states, kernels, Bernstein sums."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_laguerre

from magbern import landau
from magbern.algebra import bernstein_constant
from magbern.errors import NumericalError, ResourceLimitError, ValidationError
from magbern.landau import (
    CoherentState,
    GridField,
    LadderField,
    QuadratureSpec,
    bernstein_sum,
    boundary_mass_fraction,
    checked_norm2,
    coherent_field,
    grid_for_centers,
    l1_bernstein_sum,
    l1_bernstein_sums,
    l1_norm,
    magnetic_derivative,
    mod2_derivative_word,
    norm2,
    radial_mass_outside,
    sample_ladder,
    word_fields,
)
from util_fields import (
    eval_on_grid,
    full_mod2_derivative_word,
    oracle_bernstein_sum,
    oracle_word_fields,
    random_ladder,
    rng_stream,
)

FAST = QuadratureSpec(tail_sigmas=9.0, points_per_length=8)


# -- finite-difference oracle for the closed-form derivatives ------------------


def _centered_diff(a: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Second-order centered difference with zero extension outside the box."""
    out = np.zeros_like(a)
    if axis == 1:
        out[1:-1, :] = (a[2:, :] - a[:-2, :]) / (2.0 * h)
        out[0, :] = a[1, :] / (2.0 * h)
        out[-1, :] = -a[-2, :] / (2.0 * h)
    else:
        out[:, 1:-1] = (a[:, 2:] - a[:, :-2]) / (2.0 * h)
        out[:, 0] = a[:, 1] / (2.0 * h)
        out[:, -1] = -a[:, -2] / (2.0 * h)
    return out


def _fd_ordinary_derivative(f: GridField, axis: int) -> GridField:
    return f.with_samples(_centered_diff(f.samples, axis, f.spacing[axis - 1]))


def _fd_magnetic_derivative(f: GridField, axis: int, B: float) -> GridField:
    """i * centered difference plus the exact multiplication term."""
    x1, x2 = f.axes()
    if axis == 1:
        vals = 1j * _centered_diff(f.samples, 1, f.spacing[0]) - (B / 2.0) * x2 * f.samples
    else:
        vals = 1j * _centered_diff(f.samples, 2, f.spacing[1]) + (B / 2.0) * x1 * f.samples
    return f.with_samples(vals)


def _apply_h(f: GridField, md) -> GridField:
    """H f = md1^2 f + md2^2 f with the derivative md(f, axis)."""
    return f.with_samples(md(md(f, 1), 1).samples + md(md(f, 2), 2).samples)


def _fd_l1_bernstein_sum(f: GridField, m: int) -> float:
    """Sum over ordinary-derivative words of ||d^alpha |f|^2||_L1 by centered
    differences on |f|^2."""
    total = 0.0
    mod2 = np.abs(f.samples) ** 2
    for alpha in product((1, 2), repeat=m):
        g = mod2
        for axis in alpha:
            g = _centered_diff(g, axis, f.spacing[axis - 1])
        total += l1_norm(g, f.cell_area)
    return total


def landau_levels_below(E: float, B: float) -> int:
    """Number of Landau levels (2k+1)B <= E."""
    return int(np.floor((E / B - 1.0) / 2.0)) + 1 if E >= B else 0


def eval_kernel(E: float, B: float, x, y):
    """Spectral projector kernel K_{E,B}(x, y), vectorized over x:

    (B/2pi) sum_{(2k+1)B <= E} exp(-(B/4)|x-y|^2 - i(B/2)(x1 y2 - x2 y1))
    L_k((B/2)|x-y|^2) with Laguerre polynomials L_k.
    """
    x1 = np.asarray(x[0], dtype=float)
    x2 = np.asarray(x[1], dtype=float)
    r2 = (x1 - y[0]) ** 2 + (x2 - y[1]) ** 2
    lag = sum(eval_laguerre(k, (B / 2.0) * r2) for k in range(landau_levels_below(E, B)))
    phase = np.exp(-(B / 4.0) * r2 - 1j * (B / 2.0) * (x1 * y[1] - x2 * y[0]))
    return (B / (2.0 * np.pi)) * phase * lag


def kernel_column(E: float, B: float, y, grid: GridField) -> GridField:
    """The projector kernel K_{E,B}(., y) sampled on a grid."""
    x1, x2 = grid.axes()
    return grid.with_samples(eval_kernel(E, B, (x1, x2), y))


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
    # Python floats, as annotated, though the cell area is a np.float64 product
    assert type(f.cell_area) is np.float64
    assert type(norm2(f)) is float and type(l1_norm(f.samples, f.cell_area)) is float


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
    got = np.vdot(col.samples, f.samples) * f.cell_area
    want = lf.eval(0.6, -0.2)
    assert complex(got) == pytest.approx(complex(want), rel=1e-8)


# -- ladder structure ---------------------------------------------------------


def test_ladder_terms_are_exact_eigenfunctions():
    B = 1.0
    for k in (0, 1, 2):
        lf = LadderField(B, {(0.4, -0.7): {k: 1.0}})
        f = sample_ladder(lf, FAST)
        hf = _apply_h(f, magnetic_derivative)  # closed form
        lam = (2 * k + 1) * B
        resid = norm2(f.with_samples(hf.samples - lam * f.samples))
        assert resid / norm2(f) < 1e-24


def test_finite_difference_h_residual_is_second_order():
    B = 1.0
    st = CoherentState((0.0, 0.0), B)
    errs = []
    for pp in (8, 16):
        f = coherent_field(st, QuadratureSpec(tail_sigmas=9.0, points_per_length=pp))
        hf = _apply_h(f, lambda g, axis: _fd_magnetic_derivative(g, axis, B))
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
        d_cf = magnetic_derivative(f, 1)
        d_fd = _fd_magnetic_derivative(f, 1, B)
        errs.append(math.sqrt(norm2(f.with_samples(d_cf.samples - d_fd.samples))))
    assert 3.0 < errs[0] / errs[1] < 5.5


def test_derivative_of_zero_field_is_zero():
    z = sample_ladder(LadderField(1.0, {}),
                      grid=GridField(np.zeros((8, 8), dtype=complex), (0.0, 0.0), (0.1, 0.1)))
    assert norm2(magnetic_derivative(z, 2)) == 0.0


def test_derivative_rejects_bad_axis():
    z = sample_ladder(LadderField(1.0, {}),
                      grid=GridField(np.zeros((8, 8), dtype=complex), (0.0, 0.0), (0.1, 0.1)))
    with pytest.raises(ValidationError):
        magnetic_derivative(z, 3)


def test_derivative_words_reject_untagged_field():
    f = coherent_field(CoherentState((0.0, 0.0), 1.0), FAST)
    plain = f.with_samples(f.samples)
    with pytest.raises(ValidationError, match="ladder-tagged"):
        magnetic_derivative(plain, 1)
    with pytest.raises(ValidationError, match="ladder-tagged"):
        word_fields(plain, 1)


def test_ordinary_derivative_blows_up_while_magnetic_does_not():
    B = 1.0
    for y2 in (4.0, 8.0):
        f = coherent_field(CoherentState((0.0, y2), B), FAST)
        od = norm2(_fd_ordinary_derivative(f, 1))
        assert od >= math.pi * y2**2 / 2 - 4 * math.pi / B
        ms = sum(norm2(magnetic_derivative(f, axis)) for axis in (1, 2))
        assert ms == pytest.approx(2 * math.pi, rel=1e-6)
        assert bernstein_sum(f.ladder, 1) == pytest.approx(2 * math.pi, rel=1e-15)


# -- word tables against the per-word oracle ----------------------------------


def _assert_matches_oracle(words: dict, f: GridField, m_max: int):
    """The table holds f and the sorted words 1^i 2^j up to length m_max
    (tags as in the full oracle table), every entry within 1e-13 of max|g|
    of its tag sampled by `LadderField.eval`."""
    full = oracle_word_fields(f, m_max)
    assert set(words) == {w for w in full if list(w) == sorted(w)}
    for key, g in words.items():
        assert g.ladder.terms == full[key].ladder.terms
        assert g.ladder.B == f.ladder.B
        want = g.ladder.eval(*f.axes())
        assert np.abs(g.samples - want).max() <= 1e-13 * np.abs(want).max()


@st.composite
def sparse_ladders(draw):
    """1-4 distinct centres, each with a sparse set of levels in 0..4 and
    coefficients of modulus in [0.1, 1]."""
    B = draw(st.floats(0.25, 4.0))
    centres = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                            min_size=1, max_size=4, unique=True))
    terms = {}
    for c1, c2 in centres:
        levels = draw(st.sets(st.integers(0, 4), min_size=1))
        terms[(0.5 * c1, 0.5 * c2)] = {
            k: draw(st.floats(0.1, 1.0)) * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
            for k in levels}
    return LadderField(B, terms)


@settings(max_examples=25, deadline=None)
@given(lf=sparse_ladders(), m_max=st.integers(0, 4), ppl=st.sampled_from([8, 16]))
def test_word_table_matches_per_word_sampling(lf, m_max, ppl):
    f = sample_ladder(lf, QuadratureSpec(tail_sigmas=9.0, points_per_length=ppl))
    words = word_fields(f, m_max)
    assert words[()] is f
    _assert_matches_oracle(words, f, m_max)


def test_word_table_holds_the_sorted_words_only(monkeypatch):
    # 1 + (2 + 3 + 4 + 5) sorted words, where all words were 31, sampled as
    # one table of the 14 words beside f (no F_m(H) f grid: the L2 sums are
    # closed-form)
    f = sample_ladder(random_ladder(rng_stream(13)), FAST)
    sampled, real_rows = [], landau._FactoredFields.rows

    def counted_rows(self, r0=0, r1=None):
        out = real_rows(self, r0, r1)
        sampled.append(out.shape[0])
        return out

    monkeypatch.setattr(landau._FactoredFields, "rows", counted_rows)
    words = word_fields(f, 4)
    assert sampled == [14]
    assert len(words) == 1 + 14
    assert [w for w in words if len(w) == 3] == [(2, 2, 2), (1, 2, 2), (1, 1, 2), (1, 1, 1)]


def test_factored_rows_match_on_any_row_range():
    # a slab r0:r1 of the factored table is those rows of the whole table: the
    # same products over the same factors, up to the order of the sums
    lf = random_ladder(rng_stream(12), n_terms=3, max_level=2)
    f = sample_ladder(lf, FAST)
    fields = [lf, lf.magnetic_derivative(1), lf.magnetic_derivative(2)]
    table = landau._FactoredFields(fields, *f.axes())
    whole = table.rows()
    n1 = f.samples.shape[0]
    scale = np.abs(whole).max()
    assert whole.shape == (3,) + f.samples.shape
    assert np.abs(whole[0] - f.samples).max() <= 1e-14 * scale
    for r0, r1 in ((0, 2), (5, 17), (n1 - 3, n1), (0, n1)):
        assert np.abs(table.rows(r0, r1) - whole[:, r0:r1]).max() <= 1e-14 * scale
    _assert_matches_oracle(word_fields(f, 2), f, 2)


@settings(max_examples=20, deadline=None)
@given(lf=sparse_ladders(), m_max=st.integers(1, 4))
def test_half_sum_derivative_word_matches_the_full_sum(lf, m_max):
    # mod2_derivative_word sorts alpha to 1^a 2^b and sums half the pairs of
    # sorted words 1^i 2^j; the oracle sums all 2^m subsequences of alpha as
    # given, for every permutation.  l1_bernstein_sum weights the m+1 sorted
    # words by C(m, a) where the oracle sums all 2^m words
    f = sample_ladder(lf, QuadratureSpec(tail_sigmas=9.0, points_per_length=8))
    words = word_fields(f, m_max)
    full = oracle_word_fields(f, m_max)
    for m in range(m_max + 1):
        l1_all_words = 0.0
        for alpha in product((1, 2), repeat=m):
            got = mod2_derivative_word(words, alpha)
            want = full_mod2_derivative_word(full, alpha)
            scale = 2**m * max(np.abs(g.samples).max() for g in full.values()) ** 2
            assert got.dtype == np.float64 and got.shape == want.shape
            assert np.abs(want.imag).max() <= 1e-12 * scale
            assert np.abs(got - want.real).max() <= 1e-12 * np.abs(want.real).max()
            l1_all_words += l1_norm(want.real, f.cell_area)
        assert l1_bernstein_sum(words, m) == pytest.approx(l1_all_words, rel=1e-12)


def test_l1_sum_reads_one_word_per_multi_index(monkeypatch):
    words = word_fields(sample_ladder(random_ladder(rng_stream(14)), FAST), 4)
    calls = []
    real = landau.mod2_derivative_word

    def counted(words, alpha):
        calls.append(alpha)
        return real(words, alpha)

    monkeypatch.setattr(landau, "mod2_derivative_word", counted)
    for m in range(1, 5):
        calls.clear()
        l1_bernstein_sum(words, m)
        assert calls == [(1,) * a + (2,) * (m - a) for a in range(m + 1)]


def joint_exp_eval(lf: LadderField, x1, x2, conjugate_branch=False) -> np.ndarray:
    """LadderField.eval with each centre's envelope from one joint complex
    exp over the broadcast coordinates and its polynomial summed term by
    term."""
    cast = complex if np.iscomplexobj(x1) or np.iscomplexobj(x2) else float
    x1 = np.asarray(x1, dtype=cast)
    x2 = np.asarray(x2, dtype=cast)
    total = np.zeros(np.broadcast(x1, x2).shape, dtype=complex)
    sgn = -1.0 if conjugate_branch else 1.0
    for (y1, y2), raw in lf.terms.items():
        ks = {k: np.conj(c) for k, c in raw.items()} if conjugate_branch else raw
        u1, u2 = x1 - y1, x2 - y2
        w = u1 - sgn * 1j * u2
        envelope = np.exp(-(lf.B / 4.0) * (u1 * u1 + u2 * u2)
                          - sgn * 1j * (lf.B / 2.0) * (x1 * y2 - x2 * y1))
        poly = sum(c * w**k for k, c in ks.items())
        total += envelope * poly
    return total


@pytest.mark.parametrize("conjugate_branch", [False, True])
def test_separable_envelope_matches_the_joint_exp(conjugate_branch):
    # sparse levels, so Horner skips powers; grid axes as sample_ladder
    # passes them, and 2-D complex points of the analytic extension
    lf = LadderField(1.7, {(0.3, -0.2): {0: 1 + 1j, 2: 0.5, 3: -0.25j},
                           (-1.0, 0.7): {1: 0.8},
                           (0.5, 1.1): {4: 0.1 - 0.3j}})
    rng = rng_stream(15)
    x1, x2 = sample_ladder(lf, FAST).axes()
    z1, z2 = (rng.uniform(-4.0, 4.0, (30, 20)) + 1j * rng.uniform(-1.0, 1.0, (30, 20))
              for _ in range(2))
    for a, b in ((x1, x2), (z1, z2)):
        got = lf.eval(a, b, conjugate_branch=conjugate_branch)
        want = joint_exp_eval(lf, a, b, conjugate_branch)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    on_grid = lf.eval(x1, x2)
    conj = lf.eval(x1, x2, conjugate_branch=True)
    assert np.abs(conj - np.conj(on_grid)).max() <= 1e-13 * np.abs(on_grid).max()


# -- Bernstein sums -----------------------------------------------------------


@pytest.mark.parametrize("slabs", ["one", "many", "one-row-remainder"])
@pytest.mark.parametrize("seed", [21, 22])
def test_streamed_sums_match_the_full_word_table(monkeypatch, seed, slabs):
    f = sample_ladder(random_ladder(rng_stream(seed), n_terms=3, max_level=2), FAST)
    n1, n2 = f.samples.shape
    words = word_fields(f, 3)
    rows = {"one": n1, "many": 3,
            "one-row-remainder": next(r for r in range(4, n1) if n1 % r == 1)}[slabs]
    monkeypatch.setattr(landau, "SLAB_SAMPLES", rows * (len(words) - 1) * n2)
    spans, real_rows = [], landau._FactoredFields.rows

    def spied_rows(self, r0=0, r1=None):
        out = real_rows(self, r0, r1)
        spans.append((r0, r1))
        assert out.size <= landau.SLAB_SAMPLES
        return out

    monkeypatch.setattr(landau._FactoredFields, "rows", spied_rows)
    l1 = l1_bernstein_sums(f, 3)
    # slabs of at most `rows` rows and at least 2, covering the grid in order
    assert [r0 for r0, _ in spans] == [0] + [r1 for _, r1 in spans[:-1]]
    assert spans[-1][1] == n1
    assert all(2 <= r1 - r0 <= rows for r0, r1 in spans)
    if slabs == "one":
        assert spans == [(0, n1)]
    elif slabs == "one-row-remainder":  # the slab before it gives it a row
        assert [r1 - r0 for r0, r1 in spans[-2:]] == [rows - 1, 2]
    else:
        assert len(spans) >= n1 // 3
    assert len(l1) == 3
    for m in (1, 2, 3):
        assert l1[m - 1] == pytest.approx(l1_bernstein_sum(words, m), rel=1e-12)


def test_streamed_sums_run_the_word_table_checks_first(monkeypatch):
    box = GridField(np.ones((16, 16), dtype=complex), (0.0, 0.0), (0.1, 0.1))
    f = sample_ladder(LadderField.coherent(CoherentState((0.75, 0.75), 1.0)), grid=box)
    for build in (word_fields, l1_bernstein_sums):
        with pytest.warns(UserWarning) as record:
            build(f, 1)
        assert record[0].filename == __file__  # the warning names the caller's line
    monkeypatch.setattr(landau, "GRID_SAMPLE_CAP", 3 * f.samples.size - 1)

    def no_words(*args):
        raise AssertionError("a derivative word was built before the cap check")

    monkeypatch.setattr(landau._FactoredFields, "__init__", no_words)
    monkeypatch.setattr(LadderField, "magnetic_derivative", no_words)
    with pytest.raises(ResourceLimitError):
        l1_bernstein_sums(f, 1)


def test_bernstein_sum_coherent_m1_m2():
    for B in (1.0, 2.5):
        lf = LadderField.coherent(CoherentState((0.2, 0.6), B))
        assert bernstein_sum(lf, 0) == pytest.approx(2 * math.pi / B, rel=1e-15)
        assert bernstein_sum(lf, 1) == pytest.approx(2 * math.pi, rel=1e-15)
        assert bernstein_sum(lf, 2) == pytest.approx(6 * math.pi * B, rel=1e-15)


def test_bernstein_sum_equals_quadratic_form_of_f_m():
    # <f, F_m(H) f> in closed form against the 2^m squared word norms of the
    # full table, each word sampled by LadderField.eval
    rng = rng_stream(5)
    for _ in range(4):
        lf = random_ladder(rng, n_terms=3, max_level=2)
        full = oracle_word_fields(eval_on_grid(lf, sample_ladder(lf, FAST)), 3)
        for m in (0, 1, 2, 3):
            assert bernstein_sum(lf, m) == pytest.approx(oracle_bernstein_sum(full, m),
                                                         rel=1e-12)


def test_bernstein_sum_respects_spectral_bound():
    rng = rng_stream(6)
    for _ in range(4):
        lf = random_ladder(rng, n_terms=3, max_level=2)
        e = lf.energy_ceiling()
        n2 = bernstein_sum(lf, 0)
        for m in (1, 2, 3):
            assert bernstein_sum(lf, m) <= bernstein_constant(m, e, lf.B) * n2 * (1 + 1e-12)


# -- closed-form Gram and factored samples ------------------------------------


@st.composite
def three_centre_ladders(draw):
    """3 distinct centres, each with 1-3 levels in 0..5 and coefficients of
    modulus in [0.1, 1], at B in {0.5, 1, 2, 4}."""
    B = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    centres = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                            min_size=3, max_size=3, unique=True))
    terms = {}
    for c1, c2 in centres:
        levels = draw(st.sets(st.integers(0, 5), min_size=1, max_size=3))
        terms[(0.5 * c1, 0.5 * c2)] = {
            k: draw(st.floats(0.1, 1.0)) * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
            for k in levels}
    return LadderField(B, terms)


@settings(max_examples=20, deadline=None)
@given(lf=three_centre_ladders())
def test_closed_form_gram_matches_dense_quadrature(lf):
    # each level's mass ||P_k f||^2 from the closed-form Gram of its centres,
    # and ||f||^2 as their sum (levels are orthogonal), against the trapezoid
    # rule at 16 points per magnetic length on fields sampled by eval
    spec = QuadratureSpec(tail_sigmas=12.0, points_per_length=16)
    grid = sample_ladder(lf, spec)
    total = norm2(eval_on_grid(lf, grid))
    assert bernstein_sum(lf, 0) == pytest.approx(total, rel=1e-12)
    for k in range(lf.max_level() + 1):
        level = LadderField(lf.B, {y: {k: ks[k]} for y, ks in lf.terms.items() if k in ks})
        want = norm2(eval_on_grid(level, grid))
        assert abs(bernstein_sum(level, 0) - want) <= 1e-12 * total


@pytest.mark.parametrize("k", [0, 1, 2])
def test_two_centre_gram_phase(k):
    # <w^k f_y, w^k f_y'> = pi k! (2/B)^(k+1) exp(-(B/4)|y-y'|^2)
    # exp(-i(B/2)(y1 y'2 - y2 y'1)): with coefficients (1, 1) and (1, i),
    # ||f||^2 reads its real and its imaginary part, and the flipped phase
    # misses the quadrature by percents
    B, y, yp = 1.7, (1.0, -0.5), (-0.5, 1.0)
    scale = math.pi * math.factorial(k) * (2 / B) ** (k + 1)
    overlap = math.exp(-(B / 4) * ((y[0] - yp[0]) ** 2 + (y[1] - yp[1]) ** 2))
    phase = (B / 2) * (y[0] * yp[1] - y[1] * yp[0])
    for c in (1.0, 1j):
        lf = LadderField(B, {y: {k: 1.0}, yp: {k: c}})
        quad = norm2(eval_on_grid(lf, sample_ladder(lf, QuadratureSpec(points_per_length=16))))
        right, flipped = (scale * (2 + 2 * (c * overlap * np.exp(sgn * 1j * phase)).real)
                          for sgn in (-1, 1))
        assert bernstein_sum(lf, 0) == pytest.approx(quad, rel=1e-12)
        assert right == pytest.approx(quad, rel=1e-12)
        if c == 1j:
            assert abs(flipped - quad) > 0.05 * quad


def test_factored_samples_match_eval_up_to_the_margin_level():
    # the binomial split loses up to 2^(K/2) at top level K: held to
    # 1e-15 2^(K/2) of max|f| on the CLI's covering grid, from level 0 to
    # 36, near the last level whose grid the boundary-margin check accepts
    rng = rng_stream(41)
    spec = QuadratureSpec(points_per_length=8)
    for K in (0, 5, 10, 20, 30, 36, 42):
        for B in (0.5, 1.0, 4.0):
            terms = {(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)):
                     {K: complex(rng.normal(), rng.normal()),
                      int(rng.integers(0, K + 1)): complex(rng.normal(), rng.normal())}
                     for _ in range(3)}
            lf = LadderField(B, terms)
            f = sample_ladder(lf, spec)
            if K == 42:  # past the margin: the check warns
                assert boundary_mass_fraction(f) > 1e-6
                continue
            assert boundary_mass_fraction(f) <= 1e-6
            want = lf.eval(*f.axes())
            assert np.abs(f.samples - want).max() <= 1e-15 * 2 ** (K / 2) * np.abs(want).max()


def test_checked_norm2_is_the_closed_form_on_a_resolving_grid():
    lf = random_ladder(rng_stream(43), B=2.0, n_terms=3, max_level=2)
    f = sample_ladder(lf, QuadratureSpec(points_per_length=8))
    assert checked_norm2(f) == bernstein_sum(lf, 0)
    assert norm2(f) == pytest.approx(bernstein_sum(lf, 0), rel=1e-13)


@pytest.mark.parametrize("coarse", ["spacing", "tail"])
def test_checked_norm2_draws_no_verdict_on_a_coarsened_grid(coarse):
    # 1.2 magnetic lengths between points, or a grid cut 3 magnetic lengths
    # from the centres: the trapezoid sum misses ||f||^2 past NORM_RTOL
    lf = random_ladder(rng_stream(43), B=2.0, n_terms=3, max_level=2)
    if coarse == "spacing":
        origin, spacing, shape = grid_for_centers(lf.terms, lf.B, QuadratureSpec())
        h = 1.2 / math.sqrt(lf.B)
        n = [int((s - 1) * spacing[0] / h) + 1 for s in shape]
        f = sample_ladder(lf, grid=GridField(np.zeros(n, dtype=complex), origin, (h, h)))
    else:
        f = sample_ladder(lf, QuadratureSpec(tail_sigmas=3.0, points_per_length=8))
    gap = abs(norm2(f) - bernstein_sum(lf, 0)) / bernstein_sum(lf, 0)
    assert gap > landau.NORM_RTOL
    with pytest.raises(NumericalError, match="no verdict drawn"):
        checked_norm2(f)


def test_fd_bernstein_sum_converges_to_exact():
    B = 1.0
    st = CoherentState((0.0, 0.0), B)
    f = coherent_field(st, QuadratureSpec(tail_sigmas=9.0, points_per_length=24))
    fd = sum(norm2(_fd_magnetic_derivative(f, axis, B)) for axis in (1, 2))
    assert fd == pytest.approx(2 * math.pi, rel=2e-3)


def test_l1_sum_m0_is_squared_norm():
    f = coherent_field(CoherentState((0.1, 0.2), 1.0), FAST)
    assert l1_bernstein_sum(word_fields(f, 0), 0) == pytest.approx(norm2(f), rel=1e-12)


def test_l1_sum_coherent_exact_value_and_bound():
    # |d|f|^2| has a crease where a factor vanishes, so the cell-sum L1 norm
    # carries an O(h^2) kink error; 16 points per length puts it below 1e-3.
    B = 1.0
    f = coherent_field(CoherentState((0.0, 0.0), B),
                       QuadratureSpec(tail_sigmas=9.0, points_per_length=16))
    got = l1_bernstein_sum(word_fields(f, 1), 1)
    assert got == pytest.approx(4 * math.sqrt(2 * math.pi / B), rel=2e-3)
    e = 1.0
    assert got <= bernstein_constant(1, e, B, "L1") * norm2(f) * (1 + 1e-6)


def test_l1_identity_route_matches_fd_route():
    lf = random_ladder(rng_stream(9), n_terms=2, max_level=1)
    f = sample_ladder(lf, QuadratureSpec(tail_sigmas=9.0, points_per_length=24))
    a = l1_bernstein_sum(word_fields(f, 2), 2)
    b = _fd_l1_bernstein_sum(f, 2)
    assert a == pytest.approx(b, rel=5e-3)


def test_l1_bound_on_random_level_combinations():
    rng = rng_stream(10)
    for _ in range(3):
        lf = random_ladder(rng, n_terms=3, max_level=2)
        f = sample_ladder(lf, FAST)
        words = word_fields(f, 3)
        e = lf.energy_ceiling()
        n2 = norm2(f)
        for m in (1, 2, 3):
            bound = bernstein_constant(m, e, lf.B, "L1") * n2
            assert l1_bernstein_sum(words, m) <= bound * (1 + 1e-3)


@pytest.mark.parametrize("m", [-1, 3])
def test_sums_reject_depth_outside_the_table(m):
    f = coherent_field(CoherentState((0.0, 0.0), 1.0), FAST)
    with pytest.raises(ValidationError, match="word table"):
        l1_bernstein_sum(word_fields(f, 2), m)
    if m < 0:  # the closed form takes any m >= 0
        with pytest.raises(ValidationError, match="non-negative"):
            bernstein_sum(f.ladder, m)


def test_boundary_mass_warning_for_non_decaying_field():
    # a coherent state on a box of 1.5 magnetic lengths has not decayed at the edge
    box = GridField(np.ones((16, 16), dtype=complex), (0.0, 0.0), (0.1, 0.1))
    f = sample_ladder(LadderField.coherent(CoherentState((0.75, 0.75), 1.0)), grid=box)
    assert boundary_mass_fraction(f) > 1e-6
    with pytest.warns(UserWarning):
        word_fields(f, 1)


# -- sample caps --------------------------------------------------------------


def test_grid_above_sample_cap_raises_before_allocating():
    # B = 1e6 at 16 points per magnetic length: about 48k x 48k samples
    with pytest.raises(ResourceLimitError):
        grid_for_centers([(0.0, 0.0), (1.5, 1.5)], 1e6)


def test_word_table_above_sample_cap_raises(monkeypatch):
    f = coherent_field(CoherentState((0.0, 0.0), 1.0), FAST)
    n = f.samples.size
    monkeypatch.setattr(landau, "GRID_SAMPLE_CAP", 3 * n - 1)

    def no_words(*args):
        raise AssertionError("a derivative word was built before the cap check")

    assert len(word_fields(f, 0)) == 1
    monkeypatch.setattr(landau._FactoredFields, "__init__", no_words)
    monkeypatch.setattr(LadderField, "magnetic_derivative", no_words)
    with pytest.raises(ResourceLimitError):
        word_fields(f, 1)  # f, its two first derivatives and their factors: > 3 n
    with pytest.raises(ResourceLimitError):
        word_fields(f, 10**6)
