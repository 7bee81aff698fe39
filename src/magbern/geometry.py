"""Thick sets on grids: density scans, coverings, good/bad rectangles.

A SetMask represents a measurable set as a union of grid cells, so window
occupancies are exact integers over anchor choices.  For windows that are
exact multiples of the cell size the occupancy is bilinear in a sub-cell
anchor shift, hence minimized at a grid anchor, and the grid scan is exact
over ALL axis-parallel windows; otherwise one boundary layer of cells is
subtracted to stay a certified lower bound.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from itertools import product
import numpy as np

from .algebra import bernstein_constant
from .errors import ResourceLimitError, ValidationError
from .landau import GridField, mod2_derivative_word, word_fields


@dataclass(frozen=True)
class SetMask:
    """Boolean cells over a rectangle, cell (i, j) spanning
    [i*h1, (i+1)*h1) x [j*h2, (j+1)*h2) relative to the origin."""

    cells: np.ndarray
    spacing: tuple
    origin: tuple = (0.0, 0.0)
    periodic: bool = False

    def __post_init__(self):
        if self.cells.ndim != 2 or self.cells.size == 0:
            raise ValidationError("mask must be a nonempty 2-D grid")
        if self.spacing[0] <= 0 or self.spacing[1] <= 0:
            raise ValidationError("spacing must be positive")
        object.__setattr__(self, "cells", self.cells.astype(bool))

    @property
    def cell_area(self) -> float:
        return self.spacing[0] * self.spacing[1]

    @property
    def extent(self) -> tuple:
        return (
            self.cells.shape[0] * self.spacing[0],
            self.cells.shape[1] * self.spacing[1],
        )

    def measure(self) -> float:
        return float(np.count_nonzero(self.cells)) * self.cell_area


@dataclass(frozen=True)
class ThicknessReport:
    ell: tuple
    rho_lower: float
    anchor: tuple
    rho_grid: float
    min_count: int
    window_cells: tuple


@dataclass(frozen=True)
class Covering:
    """Axis-parallel ell-rectangles covering a domain, overlap <= 4."""

    anchors: tuple
    ell: tuple


# cells a window-count grid may hold once padded: its int32 prefix sum takes 1 GiB
WINDOW_GRID_CAP = 1 << 28


def snap_window(ell: tuple, spacing: tuple) -> tuple:
    """((w1, w2), exact): the cells each side of an ell-window spans on a grid
    of `spacing` (a side within 1e-9 of a cell multiple snaps to it), and
    whether both sides did.  ValidationError when a side spans fewer than 2
    cells, the smallest window `thickness_scan` certifies, or a number of
    cells that is not finite; ResourceLimitError when the window spans more
    than WINDOW_GRID_CAP cells, since any count grid that holds it does too."""
    cells, exact = [], True
    for l, h in zip(ell, spacing):
        w = float(l) / h if h > 0 else np.inf  # a cell side L/N can underflow to 0
        if not np.isfinite(w):
            raise ValidationError(f"window side {l!r} spans {w} cells of side {h!r}")
        snapped = abs(w - round(w)) < 1e-9 * max(1.0, w)
        cells.append(int(round(w)) if snapped else int(np.floor(w)))
        exact &= snapped
    if min(cells) < 2:
        raise ValidationError("window smaller than 2 cells")
    if cells[0] * cells[1] > WINDOW_GRID_CAP:
        raise ResourceLimitError(
            f"a {cells[0]:.3g} x {cells[1]:.3g}-cell window: any window-count grid "
            f"that holds it exceeds the cap of {WINDOW_GRID_CAP} cells")
    return tuple(cells), exact


def mask_window(mask: SetMask, ell: tuple) -> tuple:
    """snap_window on the mask's grid; ValidationError besides when the
    window exceeds a non-periodic mask's domain, where no anchor holds it."""
    found = snap_window(ell, mask.spacing)
    if not mask.periodic and any(l > e * (1 + 1e-12) for l, e in zip(ell, mask.extent)):
        raise ValidationError("window exceeds the mask domain")
    return found


_PREFIX_BLOCK_BYTES = 1 << 20  # one axis-0 row block stays inside a core's L2 cache


def _prefix(a: np.ndarray, dtype=None) -> np.ndarray:
    """2-D prefix sums with a zero first row and column, in `dtype` (a's by default).

    Axis 0 is summed in place in cache-sized row blocks, each block's first
    row carrying the prefix row before it: every element is added in the
    order of one cumsum along axis 0, so float tables are bit-identical to it.
    """
    n1, n2 = a.shape
    p = np.zeros((n1 + 1, n2 + 1), dtype=dtype or a.dtype)
    body = p[1:, 1:]
    step = max(1, _PREFIX_BLOCK_BYTES // body[0].nbytes)
    for i in range(0, n1, step):
        block = body[i:i + step]
        if i:
            block[...] = a[i:i + step]
            block[0] += body[i - 1]
            np.cumsum(block, axis=0, out=block)
        else:  # nothing to carry: sum straight from `a`, with no copy first
            np.cumsum(a[:step], axis=0, dtype=p.dtype, out=block)
    np.cumsum(body, axis=1, out=body)
    return p


def window_counts(cells: np.ndarray, windows, periodic: bool) -> list:
    """Occupancy counts of all windows of each size (w1, w2) in `windows`,
    from one 2-D prefix sum of the cells.

    A periodic grid is padded by the largest window and every result holds
    its N1 x N2 anchors; otherwise each holds the anchors of windows inside.
    A padded grid above WINDOW_GRID_CAP cells raises ResourceLimitError
    before it is built; below it the sum is int32, and no prefix value or
    box difference can overflow.
    """
    n1, n2 = cells.shape
    pad = [max(w[axis] for w in windows) - 1 if periodic else 0 for axis in (0, 1)]
    if (n1 + pad[0]) * (n2 + pad[1]) > WINDOW_GRID_CAP:
        raise ResourceLimitError(
            f"a {n1 + pad[0]:.3g} x {n2 + pad[1]:.3g} window-count grid exceeds the cap "
            f"of {WINDOW_GRID_CAP} cells")
    if periodic:
        cells = np.pad(cells, [(0, pad[0]), (0, pad[1])], mode="wrap")
    p = _prefix(cells, np.int32)
    found = []
    for w1, w2 in windows:
        r1 = n1 if periodic else n1 - w1 + 1
        r2 = n2 if periodic else n2 - w2 + 1
        counts = p[w1:w1 + r1, w2:w2 + r2] - p[:r1, w2:w2 + r2]
        counts -= p[w1:w1 + r1, :r2]
        counts += p[:r1, :r2]
        found.append(counts)
    return found


def thickness_scan(mask: SetMask, ell: tuple) -> ThicknessReport:
    """Certified (ell, rho) scan: exact over grid anchors, conservative for
    sub-cell anchors when ell is not a multiple of the cell size."""
    h1, h2 = mask.spacing
    l1, l2 = float(ell[0]), float(ell[1])
    (w1, w2), exact = mask_window(mask, (l1, l2))
    # off the cell multiples, the one-cell-smaller inner window certifies
    # every sub-cell anchor
    found = window_counts(mask.cells, [(w1, w2)] if exact else [(w1, w2), (w1 - 1, w2 - 1)],
                          mask.periodic)
    counts = found[0]
    idx = np.unravel_index(np.argmin(counts), counts.shape)
    min_count = int(counts[idx])
    anchor = (
        mask.origin[0] + idx[0] * h1,
        mask.origin[1] + idx[1] * h2,
    )
    rho_grid = min_count * mask.cell_area / (w1 * h1 * w2 * h2)
    if exact:
        rho_lower = min_count * mask.cell_area / (l1 * l2)
    else:
        rho_lower = max(0.0, float(found[1].min()) * mask.cell_area / (l1 * l2))
    return ThicknessReport(
        ell=(l1, l2),
        rho_lower=float(rho_lower),
        anchor=anchor,
        rho_grid=float(rho_grid),
        min_count=min_count,
        window_cells=(w1, w2),
    )


def build_covering(domain: tuple, ell: tuple, origin: tuple = (0.0, 0.0)) -> Covering:
    """Cover an (L1 x L2)-rectangle by ell-rectangles; a shifted final
    row/column keeps every rectangle inside, so points lie in at most 4."""
    L1, L2 = float(domain[0]), float(domain[1])
    l1, l2 = float(ell[0]), float(ell[1])
    if l1 > L1 * (1 + 1e-12) or l2 > L2 * (1 + 1e-12):
        raise ValidationError("window exceeds the domain")

    def starts(o, L, l):
        n = int(np.floor(L / l + 1e-12))
        s = [o + i * l for i in range(n)]
        if n * l < L * (1 - 1e-12):
            s.append(o + L - l)
        return s

    anchors = tuple(product(starts(origin[0], L1, l1), starts(origin[1], L2, l2)))
    return Covering(anchors=anchors, ell=(l1, l2))


@dataclass(frozen=True)
class RectangleLabel:
    anchor: tuple
    good: bool
    mass: float  # squared L2 norm of f on the rectangle


def _box_sum(p: np.ndarray, i0: int, i1: int, j0: int, j1: int) -> float:
    """Box sum of non-negative data from its prefix table `p`, 0 below the
    table's rounding level eps * p[-1, -1], where far-tail boxes read
    rounding noise of either sign."""
    s = float(p[i1, j1] - p[i0, j1] - p[i1, j0] + p[i0, j0])
    return s if s > np.finfo(float).eps * p[-1, -1] else 0.0


def classify_good_bad(f: GridField, covering: Covering, E: float,
                      m_max: int = 4) -> list:
    """Label covering rectangles of a ladder-tagged field: good iff every
    ordinary-derivative word of |f|^2 up to length m_max has L1 mass on the
    rectangle bounded by 4^(m+1) C'_B(m) times the local squared L2 mass,
    with B the field's own strength.

    Truncation at m_max can only enlarge the good family, so downstream
    good-mass lower bounds remain valid; a warning records the caveat.
    Rectangle sums are O(1) via 2-D prefix sums over grid cells.  A sum
    below its table's rounding level reads 0, and a rectangle of mass 0 is
    good: it adds nothing to the good mass.
    """
    if m_max < 1:
        raise ValidationError("m_max must be >= 1")
    warnings.warn(
        f"good/bad verdicts truncated at m_max={m_max}: 'good' is necessary-condition only",
        stacklevel=2,
    )
    words = word_fields(f, m_max)
    # d^alpha |f|^2 depends only on the multi-index (a, m-a) of alpha, so one
    # sorted word 1^a 2^(m-a) stands for all C(m, a) words of that index
    deriv_prefix = [
        (m, _prefix(np.abs(mod2_derivative_word(words, (1,) * a + (2,) * (m - a)))))
        for m in range(1, m_max + 1) for a in range(m + 1)
    ]
    mass_prefix = _prefix(np.abs(f.samples) ** 2)
    area = f.cell_area
    thresholds = {
        m: 4 ** (m + 1) * float(bernstein_constant(m, E, f.ladder.B, "L1"))
        for m in range(1, m_max + 1)
    }
    labels = []
    for a1, a2 in covering.anchors:
        i0, i1, j0, j1 = f.rect_indices((a1, a2), covering.ell)
        mass = _box_sum(mass_prefix, i0, i1, j0, j1) * area
        good = mass == 0.0 or not any(
            _box_sum(p, i0, i1, j0, j1) * area > thresholds[m] * mass
            for m, p in deriv_prefix)
        labels.append(RectangleLabel(anchor=(a1, a2), good=good, mass=mass))
    return labels


def good_mass_fraction(labels, total_mass: float) -> float:
    return sum(lbl.mass for lbl in labels if lbl.good) / total_mass


# -- mask constructors ---------------------------------------------------------


def strip_mask(shape: tuple, spacing: tuple, period_cells: int, width_cells: int,
               periodic: bool = False) -> SetMask:
    """Stripes along the second axis: cell (i, j) kept iff (i % period) < width."""
    if not 0 < width_cells <= period_cells:
        raise ValidationError("need 0 < width <= period")
    n1, n2 = shape
    idx = np.arange(n1)[:, None]
    cells = np.broadcast_to(idx % period_cells < width_cells, (n1, n2))
    return SetMask(cells.copy(), spacing, periodic=periodic)


def checkerboard_mask(shape: tuple, spacing: tuple, block_cells: int,
                      periodic: bool = False) -> SetMask:
    n1, n2 = shape
    i = np.arange(n1)[:, None] // block_cells
    j = np.arange(n2)[None, :] // block_cells
    return SetMask(((i + j) % 2 == 0), spacing, periodic=periodic)


def disk_complement_mask(shape: tuple, spacing: tuple, center: tuple, radius: float,
                         origin: tuple = (0.0, 0.0), periodic: bool = False) -> SetMask:
    """Cells whose centres lie outside the disk."""
    n1, n2 = shape
    x1 = origin[0] + spacing[0] * (np.arange(n1) + 0.5)[:, None]
    x2 = origin[1] + spacing[1] * (np.arange(n2) + 0.5)[None, :]
    r2 = (x1 - center[0]) ** 2 + (x2 - center[1]) ** 2
    return SetMask(r2 >= radius**2, spacing, origin=origin, periodic=periodic)


# -- PBM (P1) input -------------------------------------------------------------


_PBM_HEADER = re.compile(rb"\s*(\S*)\s*(\S*)\s*(\S*)")


def read_pbm(path, spacing=(1.0, 1.0), periodic: bool = False) -> SetMask:
    """Plain PBM (P1) mask; `#` starts a comment to the end of its line, and
    the raster may hold only 0, 1 and whitespace (ValidationError otherwise)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ValidationError(f"{path}: cannot read mask: {exc}") from exc
    if b"#" in data:
        data = b"\n".join(line.split(b"#", 1)[0] for line in data.split(b"\n"))
    header = _PBM_HEADER.match(data)
    if header[1] != b"P1":
        raise ValidationError(f"{path}: not a plain PBM (P1) file")
    try:
        n2, n1 = int(header[2]), int(header[3])
    except ValueError:
        raise ValidationError(
            f"{path}: malformed PBM header, expected 'P1 <width> <height>'"
        ) from None
    if n1 <= 0 or n2 <= 0:
        raise ValidationError(f"{path}: PBM dimensions must be positive")
    raster = data[header.end():].translate(None, b" \t\n\r\v\f")
    bits = np.frombuffer(raster, dtype=np.uint8) - ord("0")  # others wrap above 1
    if bits.size and bits.max() > 1:
        char = raster[np.argmax(bits > 1)]
        raise ValidationError(
            f"{path}: PBM raster byte {bytes([char])!r} is not 0, 1 or whitespace")
    if bits.size != n1 * n2:
        raise ValidationError(f"{path}: expected {n1 * n2} bits, found {bits.size}")
    return SetMask(bits.reshape(n1, n2), spacing, periodic=periodic)
