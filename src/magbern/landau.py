"""Continuum Landau-level fields on R^2 and the magnetic Bernstein sums.

Conventions: symmetric gauge, hbar = 2m = 1, field strength B > 0.  The
covariant derivatives are md1 = i d/dx1 - (B/2) x2 and md2 = i d/dx2 + (B/2) x1,
the lowest-level coherent state centred at y is

    f_y(x) = exp(-(B/4)|x-y|^2 - i(B/2)(x1 y2 - x2 y1)),

and higher levels along the chiral tower are w^k f_y with
w = (x1-y1) - i(x2-y2): applying the raising combination md1 - i*md2 sends
w^k f_y to -iB w^(k+1) f_y, so w^k f_y is an exact eigenfunction of
H = md1^2 + md2^2 with eigenvalue (2k+1)B.  Finite linear combinations of
such terms ("ladder fields") are closed under md1, md2, which gives every
derivative word in closed form; grids only enter through quadrature.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field
from itertools import product
from typing import Optional

import numpy as np

from .algebra import f_poly
from .errors import ValidationError


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid construction parameters.

    `tail_sigmas` is the truncation radius around each centre in units of the
    magnetic length 1/sqrt(B) (12 leaves a Gaussian tail below 1e-30
    relative), `points_per_length` the sampling density per magnetic length,
    `tol` the relative tolerance quadrature results are trusted to.
    """

    tail_sigmas: float = 12.0
    points_per_length: int = 16
    tol: float = 1e-6

    def __post_init__(self):
        if self.tail_sigmas <= 0 or self.points_per_length < 2 or self.tol <= 0:
            raise ValidationError("invalid quadrature spec")


@dataclass(frozen=True)
class CoherentState:
    """Lowest-Landau-level Gaussian centred at y."""

    y: tuple
    B: float

    def __post_init__(self):
        if self.B <= 0:
            raise ValidationError("B must be positive")


class LadderField:
    """Exact finite combination of chiral Landau modes w^k f_y.

    terms: {(y1, y2): {k: complex coefficient}}.  Immutable by convention.
    """

    __slots__ = ("B", "terms")

    def __init__(self, B: float, terms: dict):
        if B <= 0:
            raise ValidationError("B must be positive")
        self.B = float(B)
        clean = {}
        for y, ks in terms.items():
            kd = {int(k): complex(c) for k, c in ks.items() if c != 0}
            if kd:
                clean[(float(y[0]), float(y[1]))] = kd
        self.terms = clean

    @staticmethod
    def coherent(state: CoherentState) -> "LadderField":
        return LadderField(state.B, {tuple(state.y): {0: 1.0}})

    def max_level(self) -> int:
        return max((k for ks in self.terms.values() for k in ks), default=0)

    def energy_ceiling(self) -> float:
        """Smallest Landau level bound E with all terms below it."""
        return (2 * self.max_level() + 1) * self.B

    def centers(self):
        return list(self.terms)

    def scale(self, c: complex) -> "LadderField":
        return LadderField(
            self.B,
            {y: {k: c * v for k, v in ks.items()} for y, ks in self.terms.items()},
        )

    def __add__(self, other: "LadderField") -> "LadderField":
        if other.B != self.B:
            raise ValidationError("field strengths differ")
        out = {y: dict(ks) for y, ks in self.terms.items()}
        for y, ks in other.terms.items():
            dst = out.setdefault(y, {})
            for k, v in ks.items():
                dst[k] = dst.get(k, 0.0) + v
        return LadderField(self.B, out)

    def magnetic_derivative(self, axis: int) -> "LadderField":
        """Exact action of md1 or md2 on the chiral tower.

        md1: w^k -> i(k w^(k-1) - (B/2) w^(k+1));
        md2: w^k -> k w^(k-1) + (B/2) w^(k+1).
        """
        if axis not in (1, 2):
            raise ValidationError("axis must be 1 or 2")
        b2 = self.B / 2.0
        out = {}
        for y, ks in self.terms.items():
            dst: dict = {}
            for k, c in ks.items():
                if axis == 1:
                    if k:
                        dst[k - 1] = dst.get(k - 1, 0.0) + 1j * k * c
                    dst[k + 1] = dst.get(k + 1, 0.0) - 1j * b2 * c
                else:
                    if k:
                        dst[k - 1] = dst.get(k - 1, 0.0) + k * c
                    dst[k + 1] = dst.get(k + 1, 0.0) + b2 * c
            out[y] = dst
        return LadderField(self.B, out)

    def apply_level_function(self, values) -> "LadderField":
        """Scale each level-k component by values[k] (spectral calculus)."""
        out = {}
        for y, ks in self.terms.items():
            out[y] = {k: c * values[k] for k, c in ks.items()}
        return LadderField(self.B, out)

    def eval(self, x1, x2, conjugate_branch: bool = False):
        """Pointwise values on broadcastable coordinate arrays.

        Accepts complex coordinates: the formula is entire, so this IS the
        analytic extension.  With `conjugate_branch` the function returned is
        the entire extension of conj(f) (coefficients conjugated, w replaced
        by u1 + i*u2, phase sign flipped); on real points it equals conj(f),
        and f.eval(z) * f.eval(z, conjugate_branch=True) extends |f|^2.
        """
        cast = float if not (np.iscomplexobj(x1) or np.iscomplexobj(x2)) else complex
        x1 = np.asarray(x1, dtype=cast)
        x2 = np.asarray(x2, dtype=cast)
        total = np.zeros(np.broadcast(x1, x2).shape, dtype=complex)
        sgn = 1.0 if not conjugate_branch else -1.0
        for (y1, y2), raw in self.terms.items():
            ks = raw if not conjugate_branch else {k: np.conj(c) for k, c in raw.items()}
            u1 = x1 - y1
            u2 = x2 - y2
            w = u1 - sgn * 1j * u2
            envelope = np.exp(
                -(self.B / 4.0) * (u1 * u1 + u2 * u2)
                - sgn * 1j * (self.B / 2.0) * (x1 * y2 - x2 * y1)
            )
            # Horner over possibly sparse exponents
            poly = None
            last = None
            for k in sorted(ks, reverse=True):
                if poly is None:
                    poly = np.full(total.shape, ks[k], dtype=complex)
                else:
                    poly = poly * w ** (last - k) + ks[k]
                last = k
            if last:
                poly = poly * w**last
            total += envelope * poly
        return total


@dataclass(frozen=True)
class GridField:
    """Complex samples on a uniform rectangle grid.

    samples[i, j] = f(origin1 + i*h1, origin2 + j*h2).  An optional `ladder`
    tag carries the closed-form generator of the samples.
    """

    samples: np.ndarray
    origin: tuple
    spacing: tuple
    ladder: Optional[LadderField] = field(default=None, compare=False)

    def __post_init__(self):
        if self.samples.ndim != 2 or min(self.samples.shape) < 2:
            raise ValidationError("need an N1 x N2 grid with N1, N2 >= 2")
        if self.spacing[0] <= 0 or self.spacing[1] <= 0:
            raise ValidationError("spacing must be positive")

    @property
    def cell_area(self) -> float:
        return self.spacing[0] * self.spacing[1]

    def axes(self):
        n1, n2 = self.samples.shape
        x1 = self.origin[0] + self.spacing[0] * np.arange(n1)
        x2 = self.origin[1] + self.spacing[1] * np.arange(n2)
        return x1[:, None], x2[None, :]

    def rect_indices(self, anchor, ell):
        """Index ranges (i0, i1, j0, j1) of the grid points in the half-open
        rectangle [anchor, anchor + ell), with a 1e-12 tolerance on each edge."""
        (i0, i1), (j0, j1) = (
            np.searchsorted(x.ravel(), np.array([a, a + w]) - 1e-12)
            for x, a, w in zip(self.axes(), anchor, ell)
        )
        return int(i0), int(i1), int(j0), int(j1)

    def with_samples(self, samples, ladder=None) -> "GridField":
        return GridField(samples, self.origin, self.spacing, ladder)


def grid_for_centers(centers, B: float, spec: QuadratureSpec = QuadratureSpec()):
    """Uniform grid covering all centres plus the truncation margin."""
    centers = list(centers) or [(0.0, 0.0)]
    r = spec.tail_sigmas / np.sqrt(B)
    h = 1.0 / (spec.points_per_length * np.sqrt(B))
    lo1 = min(c[0] for c in centers) - r
    hi1 = max(c[0] for c in centers) + r
    lo2 = min(c[1] for c in centers) - r
    hi2 = max(c[1] for c in centers) + r
    n1 = int(np.ceil((hi1 - lo1) / h)) + 1
    n2 = int(np.ceil((hi2 - lo2) / h)) + 1
    return (lo1, lo2), (h, h), (n1, n2)


def sample_ladder(lf: LadderField, spec: QuadratureSpec = QuadratureSpec(),
                  grid: Optional[GridField] = None) -> GridField:
    """Sample a ladder field on its covering grid (or a given grid)."""
    if grid is None:
        origin, spacing, shape = grid_for_centers(lf.centers(), lf.B, spec)
        x1 = origin[0] + spacing[0] * np.arange(shape[0])
        x2 = origin[1] + spacing[1] * np.arange(shape[1])
        vals = lf.eval(x1[:, None], x2[None, :])
        return GridField(vals, origin, spacing, ladder=lf)
    x1, x2 = grid.axes()
    return GridField(lf.eval(x1, x2), grid.origin, grid.spacing, ladder=lf)


def coherent_field(state: CoherentState,
                   spec: QuadratureSpec = QuadratureSpec()) -> GridField:
    return sample_ladder(LadderField.coherent(state), spec)


# -- projector kernel --------------------------------------------------------


def _laguerre_stack(n: int, u):
    """L_0(u) .. L_n(u) by the three-term recurrence."""
    u = np.asarray(u, dtype=float)
    out = [np.ones_like(u)]
    if n >= 1:
        out.append(1.0 - u)
    for k in range(1, n):
        out.append(((2 * k + 1 - u) * out[k] - k * out[k - 1]) / (k + 1))
    return out


def landau_levels_below(E: float, B: float) -> int:
    """Number of Landau levels (2k+1)B <= E."""
    if B <= 0:
        raise ValidationError("B must be positive")
    if E < B:
        return 0
    return int(np.floor((E / B - 1.0) / 2.0)) + 1


def eval_kernel(E: float, B: float, x, y):
    """Spectral projector kernel K_{E,B}(x, y), vectorized over x.

    (B/2pi) sum_{(2k+1)B <= E} exp(-(B/4)|x-y|^2 - i(B/2)(x1 y2 - x2 y1))
    L_k((B/2)|x-y|^2) with Laguerre polynomials L_k.
    """
    n = landau_levels_below(E, B)
    x1 = np.asarray(x[0], dtype=float)
    x2 = np.asarray(x[1], dtype=float)
    shape = np.broadcast(x1, x2).shape
    if n == 0:
        return np.zeros(shape, dtype=complex)
    y1, y2 = float(y[0]), float(y[1])
    r2 = (x1 - y1) ** 2 + (x2 - y2) ** 2
    u = (B / 2.0) * r2
    lag = _laguerre_stack(n - 1, u)
    phase = np.exp(-(B / 4.0) * r2 - 1j * (B / 2.0) * (x1 * y2 - x2 * y1))
    total = np.zeros(shape, dtype=complex)
    for k in range(n):
        total += lag[k]
    return (B / (2.0 * np.pi)) * phase * total


def kernel_column(E: float, B: float, y, grid: GridField) -> GridField:
    x1, x2 = grid.axes()
    return grid.with_samples(eval_kernel(E, B, (x1, x2), y))


# -- quadrature --------------------------------------------------------------


def norm2(f: GridField) -> float:
    """Squared L2 norm by the trapezoid rule (= cell sums for decaying f)."""
    return float(np.sum(np.abs(f.samples) ** 2)) * f.cell_area


def inner(f: GridField, g: GridField) -> complex:
    return complex(np.sum(np.conj(f.samples) * g.samples)) * f.cell_area


def l1_norm(values: np.ndarray, cell_area: float) -> float:
    return float(np.sum(np.abs(values))) * cell_area


def boundary_mass_fraction(f: GridField) -> float:
    """Relative squared mass on the outermost grid ring (truncation gauge)."""
    a = np.abs(f.samples) ** 2
    total = float(a.sum())
    if total == 0:
        return 0.0
    ring = float(a[0, :].sum() + a[-1, :].sum() + a[1:-1, 0].sum() + a[1:-1, -1].sum())
    return ring / total


def radial_mass_outside(lf: LadderField, center, r: float,
                        r_max: Optional[float] = None,
                        n_radial: int = 400, n_theta: int = 256) -> float:
    """Quadrature of |f|^2 over {|x - center| >= r} in polar coordinates.

    Gauss-Legendre radially, trapezoid (periodic, spectrally accurate) in the
    angle; resolves indicator sets with circular boundary exactly.
    """
    if r_max is None:
        r_max = r + (14.0 / np.sqrt(lf.B))
    nodes, weights = np.polynomial.legendre.leggauss(n_radial)
    s = 0.5 * (r_max - r) * (nodes + 1.0) + r
    ws = 0.5 * (r_max - r) * weights
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    x1 = center[0] + s[:, None] * np.cos(theta)[None, :]
    x2 = center[1] + s[:, None] * np.sin(theta)[None, :]
    vals = np.abs(lf.eval(x1, x2)) ** 2
    return float(np.sum(vals * (s * ws)[:, None]) * (2.0 * np.pi / n_theta))


# -- derivatives -------------------------------------------------------------


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


def ordinary_derivative(f: GridField, axis: int) -> GridField:
    if axis not in (1, 2):
        raise ValidationError("axis must be 1 or 2")
    h = f.spacing[axis - 1]
    return f.with_samples(_centered_diff(f.samples, axis, h))


def magnetic_derivative(f: GridField, axis: int, B: float,
                        method: str = "finite_difference") -> GridField:
    """Sampled covariant derivative md_axis f.

    finite_difference: i * centered difference + exact multiplication term;
    closed_form: requires the ladder tag and is exact up to sampling.
    """
    if axis not in (1, 2):
        raise ValidationError("axis must be 1 or 2")
    if method == "closed_form":
        if f.ladder is None:
            raise ValidationError("closed_form needs a ladder-tagged field")
        return sample_ladder(f.ladder.magnetic_derivative(axis), grid=f)
    if method != "finite_difference":
        raise ValidationError(f"unknown method {method!r}")
    x1, x2 = f.axes()
    if axis == 1:
        vals = 1j * _centered_diff(f.samples, 1, f.spacing[0]) - (B / 2.0) * x2 * f.samples
    else:
        vals = 1j * _centered_diff(f.samples, 2, f.spacing[1]) + (B / 2.0) * x1 * f.samples
    return f.with_samples(vals)


def apply_h(f: GridField, B: float, method: str = "finite_difference") -> GridField:
    """H f = md1^2 f + md2^2 f."""
    d1 = magnetic_derivative(magnetic_derivative(f, 1, B, method), 1, B, method)
    d2 = magnetic_derivative(magnetic_derivative(f, 2, B, method), 2, B, method)
    return f.with_samples(d1.samples + d2.samples)


def _word_fields(f: GridField, max_m: int, B: float, method: str):
    """Sampled md-word fields for every word of length <= max_m.

    Keys are tuples over {1,2}; the empty tuple is f itself.
    """
    out = {(): f}
    exact = method == "closed_form" or (method == "auto" and f.ladder is not None)
    frontier = {(): f}
    for _ in range(max_m):
        nxt = {}
        for word, g in frontier.items():
            for axis in (1, 2):
                nxt[word + (axis,)] = magnetic_derivative(
                    g, axis, B, "closed_form" if exact else "finite_difference"
                )
        out.update(nxt)
        frontier = nxt
    return out


def _check_margin(f: GridField, tol: float):
    frac = boundary_mass_fraction(f)
    if frac > tol:
        warnings.warn(
            f"boundary truncation mass fraction {frac:.2e} exceeds tolerance {tol:.2e}",
            stacklevel=3,
        )


def bernstein_sum(f: GridField, m: int, B: float, method: str = "auto",
                  tol: float = 1e-6) -> float:
    """Sum over all 2^m covariant-derivative words of the squared L2 norm."""
    if m < 0:
        raise ValidationError("m must be non-negative")
    _check_margin(f, tol)
    words = _word_fields(f, m, B, method)
    return sum(norm2(words[w]) for w in words if len(w) == m)


def mod2_derivative_word(word_fields: dict, alpha: tuple):
    """Pointwise values of the ordinary derivative word applied to |f|^2.

    Uses the exact product identity
    d^alpha |f|^2 = (-i)^m sum_{beta <= alpha} (-1)^(m-|beta|)
                    (md^beta f) conj(md^(alpha\\beta) f),
    where beta runs over subsequences of alpha.
    """
    m = len(alpha)
    total = None
    for mask in range(1 << m):
        sel = tuple(alpha[i] for i in range(m) if mask >> i & 1)
        com = tuple(alpha[i] for i in range(m) if not mask >> i & 1)
        sign = (-1) ** (m - len(sel))
        term = sign * word_fields[sel].samples * np.conj(word_fields[com].samples)
        total = term if total is None else total + term
    vals = ((-1j) ** m) * total
    return vals


def l1_bernstein_sum(f: GridField, m: int, B: float, method: str = "auto",
                     tol: float = 1e-6) -> float:
    """Sum over all 2^m ordinary-derivative words of ||d^alpha |f|^2||_L1.

    Tagged fields use the exact product identity over covariant-derivative
    words; plain grids fall back to centered differences on |f|^2.
    """
    if m < 0:
        raise ValidationError("m must be non-negative")
    _check_margin(f, tol)
    exact = method == "closed_form" or (method == "auto" and f.ladder is not None)
    if m == 0:
        return norm2(f)
    total = 0.0
    if exact:
        words = _word_fields(f, m, B, "closed_form")
        for alpha in product((1, 2), repeat=m):
            vals = mod2_derivative_word(words, alpha)
            total += l1_norm(vals.real, f.cell_area)
        return total
    mod2 = np.abs(f.samples) ** 2
    for alpha in product((1, 2), repeat=m):
        g = mod2
        for axis in alpha:
            g = _centered_diff(g, axis, f.spacing[axis - 1])
        total += l1_norm(g, f.cell_area)
    return total


def f_m_quadratic_form(f: GridField, m: int) -> float:
    """<f, F_m(H) f> for a ladder-tagged field, via exact spectral calculus."""
    if f.ladder is None:
        raise ValidationError("needs a ladder-tagged field")
    lf = f.ladder
    fm = f_poly(m)
    kmax = lf.max_level() + 1
    values = [fm.eval_float((2 * k + 1) * lf.B, lf.B).real for k in range(kmax + 1)]
    g = sample_ladder(lf.apply_level_function(values), grid=f)
    val = inner(f, g)
    return float(val.real)


# -- serialization ------------------------------------------------------------

_HEADER = struct.Struct("<6d")


def write_grid_binary(f: GridField, path) -> None:
    """Self-describing little-endian layout: dims, origin, spacing, samples."""
    n1, n2 = f.samples.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(float(n1), float(n2), f.origin[0], f.origin[1],
                              f.spacing[0], f.spacing[1]))
        inter = np.empty((n1, n2, 2), dtype="<f8")
        inter[..., 0] = f.samples.real
        inter[..., 1] = f.samples.imag
        fh.write(inter.tobytes())


def read_grid_binary(path) -> GridField:
    with open(path, "rb") as fh:
        n1, n2, o1, o2, h1, h2 = _HEADER.unpack(fh.read(_HEADER.size))
        n1, n2 = int(n1), int(n2)
        raw = np.frombuffer(fh.read(), dtype="<f8").reshape(n1, n2, 2)
    return GridField(raw[..., 0] + 1j * raw[..., 1], (o1, o2), (h1, h2))


def write_grid_csv(f: GridField, path) -> None:
    """CSV rows (x1, x2, re, im) for plotting."""
    x1, x2 = f.axes()
    x1b, x2b = np.broadcast_arrays(x1, x2)
    with open(path, "w") as fh:
        fh.write("x1,x2,re,im\n")
        for a, b, v in zip(x1b.ravel(), x2b.ravel(), f.samples.ravel()):
            fh.write(f"{a!r},{b!r},{v.real!r},{v.imag!r}\n")
