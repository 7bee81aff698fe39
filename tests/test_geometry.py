"""Thick-set scans, coverings, and good/bad rectangle classification."""

import math
import warnings

import numpy as np
import pytest

from magbern.errors import ValidationError
from magbern.geometry import (
    Covering,
    SetMask,
    build_covering,
    checkerboard_mask,
    classify_good_bad,
    covering_overlap_counts,
    disk_complement_mask,
    good_mass_fraction,
    read_pbm,
    strip_mask,
    thickness_scan,
    window_counts,
    write_pbm,
)
from magbern.landau import (
    CoherentState,
    LadderField,
    QuadratureSpec,
    coherent_field,
    norm2,
    sample_ladder,
)
from util_fields import random_ladder, rng_stream


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


# -- coverings -----------------------------------------------------------------


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
        labels = classify_good_bad(f, cov, E=B, B=B, m_max=3)
    center = [l for l in labels if l.anchor == (0.0, 0.0)]
    assert center and center[0].good


def test_bad_rectangle_detected_at_field_zero():
    # w f_y vanishes linearly at its centre: a small rectangle there has
    # derivative L1 mass ~ eps^3 against squared mass ~ eps^4, beating the
    # 4^(m+1) C'_B(m) threshold once eps < 3 / (16 C'_B(1)).
    B = 1.0
    lf = LadderField(B, {(0.0, 0.0): {1: 1.0}})
    f = sample_ladder(lf, QuadratureSpec(tail_sigmas=4.0, points_per_length=128))
    eps = 2 / 128
    cov = Covering(anchors=((-eps / 2, -eps / 2),), ell=(eps, eps),
                   domain=(eps, eps), origin=(-eps / 2, -eps / 2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        labels = classify_good_bad(f, cov, E=3 * B, B=B, m_max=1)
    assert not labels[0].good
    # independent check of both sides from the closed form of d1 |f|^2
    n = 400
    u = np.linspace(-eps / 2, eps / 2, n)
    u1, u2 = np.meshgrid(u, u, indexing="ij")
    r2 = u1**2 + u2**2
    mass = float(np.mean(r2 * np.exp(-B * r2 / 2))) * eps**2
    d1 = np.abs((2 * u1 - B * u1 * r2) * np.exp(-B * r2 / 2))
    l1 = float(np.mean(d1)) * eps**2
    from magbern.algebra import bernstein_constant

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
            labels = classify_good_bad(f, cov, E=e, B=lf.B, m_max=4)
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


def test_pbm_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.pbm"
    p.write_text("P4\n2 2\n")
    with pytest.raises(ValidationError):
        read_pbm(p)


def test_checkerboard_measure():
    m = checkerboard_mask((16, 16), (1.0, 1.0), 4, periodic=True)
    assert m.measure() == pytest.approx(128.0)


def test_window_counts_against_slices():
    rng = rng_stream(36)
    cells = rng.random((10, 14)) < 0.5
    counts = window_counts(cells, 3, 4, periodic=False)
    assert counts.shape == (8, 11)
    assert counts[2, 5] == cells[2:5, 5:9].sum()
