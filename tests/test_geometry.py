"""Thick-set scans, coverings, and good/bad rectangle classification."""

import math
import re
import warnings
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magbern import geometry
from magbern.algebra import bernstein_constant
from magbern.errors import ResourceLimitError, ValidationError
from magbern.geometry import (
    Covering,
    SetMask,
    ThicknessReport,
    build_covering,
    checkerboard_mask,
    classify_good_bad,
    disk_complement_mask,
    good_mass_fraction,
    read_pbm,
    strip_mask,
    thickness_scan,
    window_counts,
)
from magbern.landau import (
    CoherentState,
    GridField,
    LadderField,
    QuadratureSpec,
    coherent_field,
    norm2,
    sample_ladder,
)
from util_fields import (
    full_mod2_derivative_word,
    oracle_word_fields,
    random_ladder,
    rng_stream,
    write_pbm,
)


def brute_min_window(cells, w1, w2, periodic=False):
    """Direct enumeration of all grid-anchored window occupancies."""
    a = np.asarray(cells, dtype=int)
    n1, n2 = a.shape
    if periodic:
        a = np.pad(a, ((0, w1 - 1), (0, w2 - 1)), mode="wrap")
        r1, r2 = n1, n2
    else:
        r1, r2 = n1 - w1 + 1, n2 - w2 + 1
    return min(
        int(a[i : i + w1, j : j + w2].sum()) for i in range(r1) for j in range(r2)
    )


def int64_window_counts(cells, w1, w2, periodic):
    """The scan's former kernel: int64 counts of every w1 x w2 window from a
    prefix sum of its own, built by two plain cumsums."""
    if periodic:
        cells = np.pad(cells, ((0, w1 - 1), (0, w2 - 1)), mode="wrap")
    p = np.zeros((cells.shape[0] + 1, cells.shape[1] + 1), dtype=np.int64)
    np.cumsum(cells.astype(np.int64), axis=0, out=p[1:, 1:])
    np.cumsum(p[1:, 1:], axis=1, out=p[1:, 1:])
    counts = p[w1:, w2:] - p[:-w1, w2:]
    counts -= p[w1:, :-w2]
    counts += p[:-w1, :-w2]
    return counts


def two_call_scan(mask, ell):
    """The former `thickness_scan`: one int64 kernel call for the ell-window
    and, off the cell multiples, a second one for the inner window."""
    h1, h2 = mask.spacing
    l1, l2 = float(ell[0]), float(ell[1])
    (w1, w2), exact = geometry.snap_window((l1, l2), mask.spacing)
    counts = int64_window_counts(mask.cells, w1, w2, mask.periodic)
    idx = np.unravel_index(np.argmin(counts), counts.shape)
    min_count = int(counts[idx])
    if exact:
        rho_lower = min_count * mask.cell_area / (l1 * l2)
    else:
        inner = int64_window_counts(mask.cells, w1 - 1, w2 - 1, mask.periodic)
        rho_lower = max(0.0, float(inner.min()) * mask.cell_area / (l1 * l2))
    return ThicknessReport(
        ell=(l1, l2),
        rho_lower=float(rho_lower),
        anchor=(mask.origin[0] + idx[0] * h1, mask.origin[1] + idx[1] * h2),
        rho_grid=float(min_count * mask.cell_area / (w1 * h1 * w2 * h2)),
        min_count=min_count,
        window_cells=(w1, w2),
    )


# -- thickness ----------------------------------------------------------------


def test_full_mask_has_rho_one():
    m = SetMask(np.ones((16, 16), dtype=bool), (0.5, 0.5))
    rep = thickness_scan(m, (2.0, 2.0))
    assert rep.rho_lower == 1.0
    assert rep.rho_grid == 1.0


def test_strip_mask_density_is_width_over_period():
    m = strip_mask((32, 32), (1.0, 1.0), period_cells=8, width_cells=2, periodic=True)
    rep = thickness_scan(m, (8.0, 8.0))
    assert rep.rho_lower == pytest.approx(2 / 8)
    assert m.measure() == pytest.approx(32 * 32 / 4)


def test_disk_complement_density_bound():
    # continuum bound 1 - pi/16, minus one layer of boundary cells that the
    # centre-sampled disk may additionally remove
    r = 4.0
    h = 0.5
    m = disk_complement_mask((64, 64), (h, h), center=(16.0, 16.0), radius=r)
    rep = thickness_scan(m, (4 * r, 4 * r))
    layer = 2 * math.pi * r * (2 * h) / (16 * r**2)
    assert rep.rho_lower >= 1 - math.pi * r**2 / (16 * r**2) - layer
    assert rep.rho_lower <= 1 - math.pi * r**2 / (16 * r**2) + layer


def test_scan_matches_brute_force_on_random_masks():
    rng = rng_stream(31)
    for _ in range(8):
        cells = rng.random((24, 24)) < rng.uniform(0.2, 0.8)
        periodic = bool(rng.integers(2))
        m = SetMask(cells, (1.0, 1.0), periodic=periodic)
        w = int(rng.integers(2, 9))
        rep = thickness_scan(m, (float(w), float(w)))
        assert rep.min_count == brute_min_window(cells, w, w, periodic)


def test_monotone_in_mask_and_window():
    rng = rng_stream(32)
    cells = rng.random((32, 32)) < 0.4
    bigger = cells | (rng.random((32, 32)) < 0.2)
    m1 = SetMask(cells, (1.0, 1.0), periodic=True)
    m2 = SetMask(bigger, (1.0, 1.0), periodic=True)
    assert (
        thickness_scan(m2, (8.0, 8.0)).rho_lower
        >= thickness_scan(m1, (8.0, 8.0)).rho_lower
    )
    strips = strip_mask((32, 32), (1.0, 1.0), 8, 2, periodic=True)
    small = thickness_scan(strips, (8.0, 8.0)).rho_lower
    large = thickness_scan(strips, (16.0, 16.0)).rho_lower
    assert large >= small


def test_scan_rejects_tiny_and_oversized_windows():
    m = SetMask(np.ones((8, 8), dtype=bool), (1.0, 1.0))
    with pytest.raises(ValidationError):
        thickness_scan(m, (1.0, 1.0))
    with pytest.raises(ValidationError):
        thickness_scan(m, (9.0, 2.0))


def test_non_multiple_window_is_conservative():
    m = strip_mask((32, 32), (1.0, 1.0), 8, 2, periodic=True)
    rep = thickness_scan(m, (8.5, 8.5))
    # certified bound can only be below the grid-anchored density
    assert rep.rho_lower <= rep.rho_grid
    assert rep.rho_lower >= 0.0


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    shape=st.tuples(st.integers(4, 40), st.integers(4, 40)),
    density=st.floats(0.0, 1.0),
    spacing=st.tuples(st.floats(0.05, 4.0), st.floats(0.05, 4.0)),
    periodic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_prefix_scan_matches_the_two_call_int64_scan(data, shape, density, spacing,
                                                         periodic, seed):
    cells = np.random.default_rng(seed).random(shape) < density
    mask = SetMask(cells, spacing, periodic=periodic)
    ell = _draw_window(data, shape, spacing, periodic)
    rep = thickness_scan(mask, ell)
    assert rep == two_call_scan(mask, ell)
    assert rep.min_count == brute_min_window(cells, *rep.window_cells, periodic)


def _draw_window(data, shape, spacing, periodic) -> tuple:
    """Window sides that are an exact cell multiple, or off one by a sub-cell
    fraction; a periodic window may wrap past the whole torus."""
    ell = []
    for n, h in zip(shape, spacing):
        frac = data.draw(st.one_of(st.just(0.0), st.floats(0.05, 0.95)))
        top = n + 3 if periodic else (n if frac == 0.0 else n - 1)
        ell.append((data.draw(st.integers(2, top)) + frac) * h)
    return tuple(ell)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    shape=st.tuples(st.integers(4, 40), st.integers(4, 40)),
    density=st.floats(0.0, 1.0),
    added=st.floats(0.0, 1.0),
    spacing=st.tuples(st.floats(0.05, 4.0), st.floats(0.05, 4.0)),
    periodic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_adding_cells_never_lowers_rho(data, shape, density, added, spacing, periodic,
                                       seed):
    # the certified density is a minimum of window counts over a fixed set of
    # windows, and each count can only grow when cells join the set
    rng = np.random.default_rng(seed)
    cells = rng.random(shape) < density
    bigger = cells | (rng.random(shape) < added)
    ell = _draw_window(data, shape, spacing, periodic)
    small = thickness_scan(SetMask(cells, spacing, periodic=periodic), ell)
    large = thickness_scan(SetMask(bigger, spacing, periodic=periodic), ell)
    assert large.window_cells == small.window_cells
    assert large.rho_lower >= small.rho_lower


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from([(1, 1), (7, 5), (40, 33), (3000, 2), (2, 3000), (900, 1)]),
    block=st.sampled_from([8, 100, 1 << 12, 1 << 20]),
    scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_prefix_is_bit_identical_to_two_cumsums(shape, block, scale, seed):
    # blocks down to one row, so the carried row crosses every block boundary
    a = np.random.default_rng(seed).standard_normal(shape) * scale
    with mock.patch.object(geometry, "_PREFIX_BLOCK_BYTES", block):
        p = geometry._prefix(a)
    want = np.cumsum(np.cumsum(a, axis=0), axis=1)
    assert p.dtype == a.dtype and p.shape == (shape[0] + 1, shape[1] + 1)
    assert not p[0].any() and not p[:, 0].any()
    assert p[1:, 1:].tobytes() == want.tobytes()


# -- coverings -----------------------------------------------------------------


def covering_overlap_counts(cov, points):
    """How many covering rectangles contain each point (closure counted)."""
    pts = np.asarray(points, dtype=float)
    counts = np.zeros(len(pts), dtype=int)
    for a1, a2 in cov.anchors:
        counts += ((pts[:, 0] >= a1 - 1e-12) & (pts[:, 0] <= a1 + cov.ell[0] + 1e-12)
                   & (pts[:, 1] >= a2 - 1e-12) & (pts[:, 1] <= a2 + cov.ell[1] + 1e-12))
    return counts


def test_even_covering_is_disjoint_partition():
    cov = build_covering((4.0, 4.0), (2.0, 2.0))
    assert len(cov.anchors) == 4
    pts = np.array([[1.0, 1.0], [3.0, 3.0], [1.0, 3.0]])
    assert covering_overlap_counts(cov, pts).max() == 1


def test_uneven_covering_overlap_at_most_four():
    cov = build_covering((5.0, 5.0), (2.0, 2.0))
    rng = rng_stream(33)
    pts = rng.uniform(0.0, 5.0, size=(500, 2))
    counts = covering_overlap_counts(cov, pts)
    assert counts.min() >= 1  # union covers the domain
    assert counts.max() <= 4


def test_covering_rejects_oversized_window():
    with pytest.raises(ValidationError):
        build_covering((1.0, 1.0), (2.0, 1.0))


# -- good/bad rectangles ---------------------------------------------------------


def test_coherent_state_rectangle_is_good():
    B = 1.0
    f = coherent_field(CoherentState((0.0, 0.0), B),
                       QuadratureSpec(tail_sigmas=9.0, points_per_length=8))
    side = 18.0
    cov = build_covering((side, side), (3.0, 3.0), origin=(-9.0, -9.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        labels = classify_good_bad(f, cov, E=B, m_max=3)
    center = [l for l in labels if l.anchor == (0.0, 0.0)]
    assert center and center[0].good


def all_words_labels(f, covering, E, m_max) -> list:
    """Good/bad labels testing every one of the 2^m ordinary-derivative
    words, each from the full subsequence sum, by direct slice sums."""
    words = oracle_word_fields(f, m_max)
    area = f.cell_area
    derivs = [(m, np.abs(full_mod2_derivative_word(words, alpha).real))
              for m in range(1, m_max + 1) for alpha in product((1, 2), repeat=m)]
    labels = []
    for anchor in covering.anchors:
        i0, i1, j0, j1 = f.rect_indices(anchor, covering.ell)
        mass = float(np.sum(np.abs(f.samples[i0:i1, j0:j1]) ** 2)) * area
        labels.append(all(
            float(np.sum(d[i0:i1, j0:j1])) * area
            <= 4 ** (m + 1) * float(bernstein_constant(m, E, f.ladder.B, "L1")) * mass
            for m, d in derivs))
    return labels


def test_labels_test_one_sorted_word_per_multi_index(monkeypatch):
    # d^alpha |f|^2 depends only on the multi-index of alpha: one prefix sum
    # per (a, m-a), 14 at m_max = 4, gives the labels of testing all 30 words.
    # The 64^2 box of side 0.5 holds the zero of the level-1 term, so some
    # rectangles are bad
    lf = LadderField(1.0, {(0.0, 0.0): {1: 1.0, 2: 0.3 - 0.2j}, (0.8, -0.5): {0: 0.05j}})
    h = 1 / 128
    box = GridField(np.zeros((64, 64), dtype=complex), (-0.25, -0.25), (h, h))
    f = sample_ladder(lf, grid=box)
    cov = build_covering((63 * h, 63 * h), (2 * h, 2 * h), origin=box.origin)
    calls = []
    real = geometry.mod2_derivative_word

    def counted(words, alpha):
        calls.append(alpha)
        return real(words, alpha)

    monkeypatch.setattr(geometry, "mod2_derivative_word", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        labels = classify_good_bad(f, cov, E=lf.energy_ceiling(), m_max=4)
        want = all_words_labels(f, cov, lf.energy_ceiling(), 4)
    assert calls == [(1,) * a + (2,) * (m - a) for m in range(1, 5) for a in range(m + 1)]
    good = [lbl.good for lbl in labels]
    assert good == want
    assert 0 < sum(good) < len(good)


def test_far_tail_labels_match_direct_slice_sums():
    # on a 9-sigma grid the outer rectangles hold |f|^2 below the rounding
    # level of its prefix sums, whose differences read 0 or below there
    lf = random_ladder(rng_stream(60))
    f = sample_ladder(lf, QuadratureSpec(tail_sigmas=9.0, points_per_length=8))
    span = tuple(h * (n - 1) for h, n in zip(f.spacing, f.samples.shape))
    cov = build_covering(span, (1.0, 1.0), origin=f.origin)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        labels = classify_good_bad(f, cov, E=lf.energy_ceiling(), m_max=4)
        want = all_words_labels(f, cov, lf.energy_ceiling(), 4)
    assert [lbl.good for lbl in labels] == want
    total = norm2(f)
    for lbl in labels:
        i0, i1, j0, j1 = f.rect_indices(lbl.anchor, cov.ell)
        mass = float(np.sum(np.abs(f.samples[i0:i1, j0:j1]) ** 2)) * f.cell_area
        assert 0.0 <= lbl.mass and abs(lbl.mass - mass) <= 4 * np.finfo(float).eps * total


def test_bad_rectangle_detected_at_field_zero():
    # w f_y vanishes linearly at its centre: a small rectangle there has
    # derivative L1 mass ~ eps^3 against squared mass ~ eps^4, beating the
    # 4^(m+1) C'_B(m) threshold once eps < 3 / (16 C'_B(1)).
    B = 1.0
    lf = LadderField(B, {(0.0, 0.0): {1: 1.0}})
    f = sample_ladder(lf, QuadratureSpec(tail_sigmas=4.0, points_per_length=128))
    eps = 2 / 128
    cov = Covering(anchors=((-eps / 2, -eps / 2),), ell=(eps, eps))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        labels = classify_good_bad(f, cov, E=3 * B, m_max=1)
    assert not labels[0].good
    # independent check of both sides from the closed form of d1 |f|^2
    n = 400
    u = np.linspace(-eps / 2, eps / 2, n)
    u1, u2 = np.meshgrid(u, u, indexing="ij")
    r2 = u1**2 + u2**2
    mass = float(np.mean(r2 * np.exp(-B * r2 / 2))) * eps**2
    d1 = np.abs((2 * u1 - B * u1 * r2) * np.exp(-B * r2 / 2))
    l1 = float(np.mean(d1)) * eps**2
    assert l1 > 16 * float(bernstein_constant(1, 3 * B, B, "L1")) * mass


def test_good_mass_at_least_half_on_random_subspace_fields():
    rng = rng_stream(34)
    for _ in range(3):
        lf = random_ladder(rng, n_terms=3, max_level=2)
        f = sample_ladder(lf, QuadratureSpec(tail_sigmas=9.0, points_per_length=8))
        e = lf.energy_ceiling()
        lo1 = f.origin[0]
        lo2 = f.origin[1]
        L1 = f.spacing[0] * (f.samples.shape[0] - 1)
        L2 = f.spacing[1] * (f.samples.shape[1] - 1)
        cov = build_covering((L1, L2), (2.0, 2.0), origin=(lo1, lo2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            labels = classify_good_bad(f, cov, E=e, m_max=4)
        assert good_mass_fraction(labels, norm2(f)) >= 0.5


# -- PBM I/O -----------------------------------------------------------------------


def test_pbm_round_trip(tmp_path):
    rng = rng_stream(35)
    cells = rng.random((12, 20)) < 0.5
    m = SetMask(cells, (0.25, 0.25))
    p = tmp_path / "mask.pbm"
    write_pbm(m, p)
    back = read_pbm(p, spacing=(0.25, 0.25))
    assert np.array_equal(back.cells, cells)


def test_pbm_comments_and_unspaced_raster(tmp_path):
    # plain PBM ignores whitespace between raster bits and `#` to the line end
    p = tmp_path / "mask.pbm"
    p.write_text("P1 # magic\n# size next\n3 2\n101 # row 0\n0\t1\n1\n")
    assert read_pbm(p).cells.tolist() == [[True, False, True], [False, True, True]]


def test_pbm_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.pbm"
    p.write_text("P4\n2 2\n")
    with pytest.raises(ValidationError):
        read_pbm(p)


PBM_WHITESPACE = b" \t\n\r\v\f"
# a run of plain-PBM whitespace; CRLF line ends and comments to the line end
# count as whitespace too
pbm_gap = st.lists(
    st.one_of(st.sampled_from([bytes([c]) for c in PBM_WHITESPACE]), st.just(b"\r\n"),
              st.binary(max_size=8).map(lambda t: b"#" + t.replace(b"\n", b"") + b"\r\n")),
    max_size=3,
).map(b"".join)


@st.composite
def pbm_files(draw, comments=True):
    """(cells, header, raster): a random raster written with random
    separators, none at all between some bits."""
    n1, n2 = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cells = np.array(draw(st.lists(st.booleans(), min_size=n1 * n2, max_size=n1 * n2)),
                     dtype=bool).reshape(n1, n2)
    gap = pbm_gap if comments else pbm_gap.map(lambda g: g.split(b"#")[0])
    sep = gap.map(lambda g: g or b"\n")  # header tokens need one at least
    header = b"".join([draw(gap), b"P1", draw(sep), b"%d" % n2, draw(sep), b"%d" % n1,
                       draw(sep)])
    raster = b"".join((b"1" if bit else b"0") + draw(gap) for bit in cells.ravel())
    return cells, header, raster


@settings(max_examples=100, deadline=None)
@given(pbm=pbm_files())
def test_pbm_reads_back_whatever_the_separators(tmp_path_factory, pbm):
    cells, header, raster = pbm
    p = tmp_path_factory.mktemp("pbm") / "mask.pbm"
    p.write_bytes(header + raster)
    assert np.array_equal(read_pbm(p).cells, cells)


@settings(max_examples=100, deadline=None)
@given(pbm=pbm_files(comments=False), data=st.data())
def test_pbm_names_a_stray_raster_byte(tmp_path_factory, pbm, data):
    _cells, header, raster = pbm
    stray = bytes([data.draw(st.integers(0, 255).filter(
        lambda c: c not in b"01#" + PBM_WHITESPACE))])
    at = data.draw(st.integers(0, len(raster)))
    p = tmp_path_factory.mktemp("pbm") / "mask.pbm"
    p.write_bytes(header + raster[:at] + stray + raster[at:])
    with pytest.raises(ValidationError, match=re.escape(f"byte {stray!r} is not")):
        read_pbm(p)


def test_checkerboard_measure():
    m = checkerboard_mask((16, 16), (1.0, 1.0), 4, periodic=True)
    assert m.measure() == pytest.approx(128.0)


def test_window_counts_against_slices():
    rng = rng_stream(36)
    cells = rng.random((10, 14)) < 0.5
    counts, inner = window_counts(cells, [(3, 4), (2, 3)], periodic=False)
    assert counts.shape == (8, 11) and inner.shape == (9, 12)
    assert counts[2, 5] == cells[2:5, 5:9].sum()
    assert inner[2, 5] == cells[2:4, 5:8].sum()
    counts, inner = window_counts(cells, [(3, 4), (2, 3)], periodic=True)
    assert counts.shape == inner.shape == (10, 14)
    wrapped = np.pad(cells, ((0, 2), (0, 3)), mode="wrap")
    assert counts[9, 12] == wrapped[9:12, 12:16].sum()
    assert inner[9, 12] == wrapped[9:11, 12:15].sum()


def test_padded_window_grid_past_the_cap_is_refused_before_padding(monkeypatch):
    # the window alone fits the cap; the periodic grid padded to hold it does not
    def no_pad(*args, **kwargs):
        raise AssertionError("the grid was padded before the cap check")

    monkeypatch.setattr(geometry.np, "pad", no_pad)
    window = (2, geometry.WINDOW_GRID_CAP // 2)
    cells = np.ones((32, 32), dtype=bool)
    assert geometry.snap_window((2.0, float(window[1])), (1.0, 1.0)) == (window, True)
    with pytest.raises(ResourceLimitError, match="window-count grid exceeds the cap"):
        window_counts(cells, [window], periodic=True)
