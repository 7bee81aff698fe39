"""Exact operator algebra for magnetic covariant derivatives.

Everything here is symbolic: a polynomial maps each monomial (iB)^b d1^a1
... dg^ag, keyed (a1, ..., ag, b), to a rational coefficient, and all
identities are checked by exact arithmetic.  Floating point enters only
through the scalar helper :func:`bernstein_constant`.

The two-generator algebra has [d1, d2] = i*B.  The three-generator variant
takes an exact rational field direction (r1, r2, r3) and uses
[d1, d2] = i*r3*B, [d2, d3] = i*r1*B, [d3, d1] = i*r2*B.  Every commutator
is a rational multiple of the central element iB, so powers of iB absorb the
imaginary unit and no coefficient ever leaves Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import ResourceLimitError, ValidationError

RationalLike = Union[int, Fraction]


def _rat(x) -> RationalLike:
    """Exact rational with integral values kept as plain ints."""
    if type(x) is int:
        return x
    x = x if isinstance(x, Fraction) else Fraction(x)
    return x.numerator if x.denominator == 1 else x


def i_power_text(c, b: int) -> str:
    """c * i^b as text for a rational c, as in -3/2*i: the coefficient of B^b
    in the term c (iB)^b."""
    c = -c if b % 4 >= 2 else c
    if b % 2 == 0:
        return str(c)
    return {1: "i", -1: "-i"}.get(c, f"{c}*i")


def _term_text(v, powers) -> str:
    """`v` times the named powers, as in 2*B^2*t; a unit coefficient is dropped."""
    factors = "*".join(x if p == 1 else f"{x}^{p}" for x, p in powers if p)
    s = str(v)
    if not factors:
        return s
    if s == "1":
        return factors
    if s == "-1":
        return "-" + factors
    return f"{s}*{factors}"


def _join_signed(parts: Sequence[str]) -> str:
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


class WeylPoly:
    """Normal-ordered polynomial in the covariant-derivative generators.

    Terms map keys (a1, ..., ag, b), meaning (iB)^b d1^a1 ... dg^ag, to
    rational coefficients, ints or Fractions.  Zero coefficients are never
    stored, so equality of term maps is equality in the algebra.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "WeylAlgebra", terms=None):
        self.algebra = algebra
        self.terms = {}
        if terms:
            for e, v in terms.items():
                v = _rat(v)
                if v:
                    self.terms[tuple(e)] = v

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeylPoly)
            and self.algebra.signature == other.algebra.signature
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.algebra.signature, frozenset(self.terms)))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "WeylPoly") -> "WeylPoly":
        out = dict(self.terms)
        for e, v in other.terms.items():
            _acc(out, e, v)
        r = WeylPoly(self.algebra)
        r.terms = out
        return r

    def __sub__(self, other: "WeylPoly") -> "WeylPoly":
        return self + other.scale(-1)

    def scale(self, v, b: int = 0) -> "WeylPoly":
        """Multiply by v * (iB)^b."""
        v = _rat(v)
        r = WeylPoly(self.algebra)
        if v:
            r.terms = {e[:-1] + (e[-1] + b,): c * v for e, c in self.terms.items()}
        return r

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        lines = []
        for e in sorted(self.terms):
            mono = (
                "*".join(
                    f"d{k + 1}" if a == 1 else f"d{k + 1}^{a}"
                    for k, a in enumerate(e[:-1])
                    if a
                )
                or "1"
            )
            text = i_power_text(self.terms[e], e[-1])
            lines.append(f"{mono} : {_term_text(text, [('B', e[-1])])}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"WeylPoly<{self.to_text()}>"


class WeylAlgebra:
    """Rewriting engine for the 2- or 3-generator covariant-derivative algebra.

    Monomials are kept normal-ordered (d1 before d2 before d3).  Moving dk
    across a block dj^a, from either side, into normal order adds the term
    -a [d_lo, d_hi] dj^(a-1) with (lo, hi) = (j, k) sorted; this closed form
    holds because all commutators are central scalars.
    """

    def __init__(self, gens: int = 2, field: Optional[Sequence] = None, max_terms: int = 10**6):
        if gens not in (2, 3):
            raise ValidationError("generator count must be 2 or 3")
        if gens == 3:
            if field is None:
                field = (0, 0, 1)
            r1, r2, r3 = (_rat(x) for x in field)
            # [d_lo, d_hi] = r*(iB) for (lo, hi) -> r
            comm = {(0, 1): r3, (1, 2): r1, (0, 2): -r2}
            self.field = (r1, r2, r3)
        else:
            if field is not None:
                raise ValidationError("field components only apply to 3 generators")
            comm = {(0, 1): 1}
            self.field = None
        self.gens = gens
        self._comm = comm
        self.max_terms = max_terms
        self.signature = (gens, self.field)

    # -- constructors ------------------------------------------------------

    def zero(self) -> WeylPoly:
        return WeylPoly(self)

    def one(self) -> WeylPoly:
        return WeylPoly(self, {(0,) * (self.gens + 1): 1})

    def gen(self, k: int) -> WeylPoly:
        e = [0] * (self.gens + 1)
        e[k] = 1
        return WeylPoly(self, {tuple(e): 1})

    def h_poly(self) -> WeylPoly:
        """H = d1^2 + ... + dg^2."""
        terms = {}
        for k in range(self.gens):
            e = [0] * (self.gens + 1)
            e[k] = 2
            terms[tuple(e)] = 1
        return WeylPoly(self, terms)

    # -- core rewriting ----------------------------------------------------

    def _check_size(self, terms: dict) -> None:
        if len(terms) > self.max_terms:
            raise ResourceLimitError(
                f"term map exceeds configured cap of {self.max_terms} monomials"
            )

    def mul_gen(self, p: WeylPoly, k: int, left: bool = False) -> WeylPoly:
        """Multiply by the generator dk on the right (on the left with `left`),
        renormal-ordering: dk crosses the dj with j > k (j < k on the left)."""
        crossed = range(k) if left else range(k + 1, self.gens)
        out: dict = {}
        for e, v in p.terms.items():
            up = list(e)
            up[k] += 1
            _acc(out, tuple(up), v)
            for j in crossed:
                if e[j]:
                    down = list(e)
                    down[j] -= 1
                    down[-1] += 1
                    # -e_j [d_lo, d_hi] v = -e_j r v (iB)
                    _acc(out, tuple(down), -e[j] * self._comm[min(j, k), max(j, k)] * v)
        self._check_size(out)
        r = WeylPoly(self)
        r.terms = out
        return r

    def mul(self, p: WeylPoly, q: WeylPoly) -> WeylPoly:
        """Product of two normal-ordered polynomials."""
        result = self.zero()
        for e, v in q.terms.items():
            part = p.scale(v, e[-1])
            for k in range(self.gens):
                for _ in range(e[k]):
                    part = self.mul_gen(part, k)
            result = result + part
        self._check_size(result.terms)
        return result

    def apply_r(self, p: WeylPoly) -> WeylPoly:
        """R(P) = sum_k dk P dk."""
        result = self.zero()
        for k in range(self.gens):
            result = result + self.mul_gen(self.mul_gen(p, k), k, left=True)
        return result

    def normal_order(self, word_terms: Iterable[tuple]) -> WeylPoly:
        """Normal-order a linear combination of generator words.

        `word_terms` yields (coefficient, word) pairs where a word is a tuple
        of 0-based generator indices applied left to right; e.g. (1, 0) is
        d2*d1.  Total and linear; the empty word is the identity.
        """
        result = self.zero()
        for coef, word in word_terms:
            part = self.one()
            for k in word:
                if not 0 <= k < self.gens:
                    raise ValidationError(f"generator index {k} out of range")
                part = self.mul_gen(part, k)
            result = result + part.scale(coef)
        return result


def _acc(out: dict, key: tuple, val: RationalLike) -> None:
    s = out[key] + val if key in out else val
    if s:
        out[key] = s
    else:
        out.pop(key, None)


# -- named operations ------------------------------------------------------


def _taylor_shift(a: list, c: int) -> list:
    """Coefficients (lowest degree first) of p(t + c) from those of p(t)."""
    a = list(a)
    n = len(a)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            a[j] += c * a[j + 1]
    return a


def _f_step(f: list) -> list:
    """Integer coefficients of F_{m+1} at B = 1 from those of F_m.

    (t-1) F_m(t-2) + (t+1) F_m(t+2) = t (lo + hi) + (hi - lo) is even
    coefficientwise; an odd coefficient means the recursion is broken.
    """
    lo, hi = _taylor_shift(f, -2), _taylor_shift(f, 2)
    twice = [0] + [x + y for x, y in zip(lo, hi)]
    for j, (x, y) in enumerate(zip(lo, hi)):
        twice[j] += y - x
    if any(c & 1 for c in twice):
        raise ArithmeticError(f"F_{len(f)} half-sum is not integral: {twice}")
    return [c >> 1 for c in twice]


def f_poly(m: int) -> tuple:
    """The m-th Bernstein polynomial from the half-sum recursion.

    F0 = 1 and F_{m+1}(t) = ((t-B) F_m(t-2B) + (t+B) F_m(t+2B)) / 2.  F_m is
    homogeneous of degree m in (t, B), so the recursion runs on the integer
    coefficients at B = 1: the result (c_0, ..., c_m) means
    F_m = sum_j c_j B^(m-j) t^j.
    """
    if m < 0:
        raise ValidationError("m must be non-negative")
    f = [1]
    for _ in range(m):
        f = _f_step(f)
    return tuple(f)


def f_text(f: Sequence[int]) -> str:
    """F_m as text, highest power of t first, from f = f_poly(m)."""
    m = len(f) - 1
    return _join_signed([_term_text(c, (("B", m - j), ("t", j)))
                         for j, c in reversed(list(enumerate(f))) if c])


def f_at_level(f: Sequence[int], k: int) -> int:
    """F_m((2k+1)B) / B^m, exactly, from f = f_poly(m)."""
    acc = 0
    for c in reversed(f):
        acc = acc * (2 * k + 1) + c
    return acc


class _RecursionSweep:
    """R^m(Id) and the powers H^0..H^m in the 2-gen algebra, carried from m
    to m + 1 instead of rebuilt for each m."""

    def __init__(self, max_terms: int):
        self.alg = WeylAlgebra(2, max_terms=max_terms)
        self.h = self.alg.h_poly()
        self.lhs = self.alg.one()
        self.h_powers = [self.alg.one()]

    def advance_to(self, m: int) -> None:
        if len(self.h_powers) - 1 > m:
            raise ValueError(f"sweep is already past m = {m}")
        while len(self.h_powers) - 1 < m:
            self.lhs = self.alg.apply_r(self.lhs)
            self.h_powers.append(self.alg.mul(self.h_powers[-1], self.h))


def verify_recursion(m: int, max_terms: int = 10**6,
                     sweep: Optional[_RecursionSweep] = None) -> bool:
    """Exact check that R^m(Id) equals F_m(d1^2 + d2^2) in the 2-gen algebra.

    R^m(Id) is compared with sum_j c_j B^(m-j) H^j, the coefficients of
    `f_poly(m)` applied to the powers of H, where B^(m-j) is
    (-1)^((m-j)/2) (iB)^(m-j).  R^m(Id) has rational coefficients on powers
    of iB, so a nonzero c_j at an odd power of B, an imaginary term, cannot
    match it.  `recursion_checks` passes its sweep, advanced here to m; on
    its own a call starts a fresh one.
    """
    if m < 0:
        raise ValidationError("m must be non-negative")
    if sweep is None:
        sweep = _RecursionSweep(max_terms)
    sweep.advance_to(m)
    rhs = sweep.alg.zero()
    for j, (h_j, c) in enumerate(zip(sweep.h_powers, f_poly(m))):
        if c:
            if (m - j) % 2:
                return False
            rhs = rhs + h_j.scale((-1) ** ((m - j) // 2) * c, m - j)
    return sweep.lhs == rhs


def recursion_checks(m_max: int, max_terms: int = 10**6) -> list:
    """`verify_recursion(m)` for m = 1..m_max in one sweep: R^m(Id) and the
    powers of H are built once for the whole range."""
    if m_max < 0:
        raise ValidationError("m must be non-negative")
    sweep = _RecursionSweep(max_terms)
    return [verify_recursion(m, sweep=sweep) for m in range(1, m_max + 1)]


def check_f_bounds(m: int, k: int) -> bool:
    """Exact two-sided product bound on F_m at the Landau level t = (2k+1)B."""
    if m < 1 or k < 0:
        raise ValidationError("need m >= 1 and k >= 0")
    val = f_at_level(f_poly(m), k)
    prod = Fraction(1)
    for i in range(1, m + 1):
        prod *= 2 * k + 2 * i
    return prod / 2**m <= val <= prod


def bernstein_constant(m: int, E, B, variant: str = "L2"):
    """(E+Bm)^m for the L2 inequality, 2^(3m/2) (E+Bm)^(m/2) for the L1 one.

    Exact when the inputs are exact and the exponents are integral.
    """
    if m < 0:
        raise ValidationError("m must be non-negative")
    if E < 0 or B < 0:
        raise ValidationError("E and B must be non-negative")
    base = E + B * m
    if variant == "L2":
        return base**m
    if variant == "L1":
        if m % 2 == 0:
            return 2 ** (3 * m // 2) * base ** (m // 2)
        return 2.0 ** (1.5 * m) * float(base) ** (m / 2)
    raise ValidationError(f"unknown variant {variant!r}")


@dataclass
class Weyl3dReduction:
    """Outcome of the exact polynomial-in-H solve for R_(3)^2(Id)."""

    consistent: bool
    witness: Optional[tuple] = None  # (monomial, iB-power) of the failing row
    solution: Optional[dict] = None  # {(h_power, iB_power): rational}


def weyl3d_reduction(B1, B2, B3, power: int = 2) -> Weyl3dReduction:
    """Attempt to write R_(3)^power(Id) as a polynomial in H = d1^2+d2^2+d3^2.

    Sets up the exact linear system over Q for unknown coefficients c_{k,j}
    of H^k (iB)^j and reports consistency, a witness row (monomial, power of
    iB) on failure, or one solution on success.
    """
    field = tuple(_rat(x) for x in (B1, B2, B3))
    if not any(field):
        raise ValidationError("field components must not all vanish")
    alg = WeylAlgebra(3, field=field)
    target = alg.one()
    for _ in range(power):
        target = alg.apply_r(target)
    h = alg.h_poly()
    h_powers = [alg.one()]
    for _ in range(power):
        h_powers.append(alg.mul(h_powers[-1], h))
    max_b = 2 * power
    unknowns = [(k, j) for k in range(power + 1) for j in range(max_b + 1)]

    # one row per (monomial, iB-power) that a term of H^k (iB)^j or the target hits
    labels = sorted({(e[:-1], e[-1] + j) for p in h_powers + [target]
                     for e in p.terms for j in range(max_b + 1)})
    matrix = []
    for mono, bp in labels:
        row = [h_powers[k].terms.get(mono + (bp - j,), 0) for k, j in unknowns]
        matrix.append((row, target.terms.get(mono + (bp,), 0)))

    solution, witness_idx = _solve_exact(matrix, len(unknowns))
    if solution is None:
        return Weyl3dReduction(False, witness=labels[witness_idx])
    return Weyl3dReduction(
        True,
        solution={unknowns[i]: _rat(v) for i, v in enumerate(solution) if v},
    )


def weyl3d_counterexample(B1, B2, B3) -> bool:
    """True iff R_(3)^2(Id) is NOT a polynomial in H for this field."""
    return not weyl3d_reduction(B1, B2, B3).consistent


def _solve_exact(matrix, n_unknowns):
    """Gaussian elimination over Q.

    Returns (solution, None) with free unknowns set to zero when consistent,
    else (None, index) of an original row witnessing inconsistency.
    """
    rows = [(list(r), rhs, idx) for idx, (r, rhs) in enumerate(matrix)]
    pivots = []
    col = 0
    r = 0
    while r < len(rows) and col < n_unknowns:
        piv = next((i for i in range(r, len(rows)) if rows[i][0][col]), None)
        if piv is None:
            col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow, prhs, pidx = rows[r]
        inv = 1 / Fraction(prow[col])
        prow = [c * inv for c in prow]
        prhs = prhs * inv
        rows[r] = (prow, prhs, pidx)
        for i in range(len(rows)):
            if i != r and rows[i][0][col]:
                f = rows[i][0][col]
                nrow = [a - f * b for a, b in zip(rows[i][0], prow)]
                rows[i] = (nrow, rows[i][1] - f * prhs, rows[i][2])
        pivots.append((r, col))
        r += 1
        col += 1
    for row, rhs, idx in rows:
        if rhs and not any(row):
            return None, idx
    solution = [0] * n_unknowns
    for r, col in pivots:
        solution[col] = rows[r][1]
    return solution, None
