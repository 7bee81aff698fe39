"""Exact checks of the covariant-derivative algebra and Bernstein polynomials."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magbern.algebra import (
    WeylAlgebra,
    WeylPoly,
    _RecursionSweep,
    bernstein_constant,
    check_f_bounds,
    f_at_level,
    f_poly,
    f_text,
    i_power_text,
    recursion_checks,
    verify_recursion,
    weyl3d_counterexample,
    weyl3d_reduction,
)
from magbern.errors import ResourceLimitError, ValidationError


# -- independent oracle: brute-force string rewriter ------------------------


def _commutator(alg, k, j):
    """r with [dk, dj] = r*(iB) for k < j, read off the module docstring."""
    if alg.gens == 2:
        return 1
    r1, r2, r3 = alg.field
    return {(0, 1): r3, (1, 2): r1, (0, 2): -r2}[(k, j)]


def brute_normal_order(alg, word_terms):
    """Rewrite words by eliminating the leftmost inversion, one pair at a time.

    Uses only dj*dk = dk*dj - [dk,dj] for k < j, so it shares no code with the
    closed-form block moves in WeylAlgebra.  Terms are (coefficient, iB-power,
    word) on plain dicts keyed (a1, ..., ag, b).
    """
    pending = [(coef, 0, tuple(word)) for coef, word in word_terms]
    done = {}
    while pending:
        coef, bpow, word = pending.pop()
        inv = next(
            (i for i in range(len(word) - 1) if word[i] > word[i + 1]), None
        )
        if inv is None:
            exps = [0] * alg.gens + [bpow]
            for k in word:
                exps[k] += 1
            key = tuple(exps)
            s = done.get(key, 0) + coef
            if s:
                done[key] = s
            else:
                done.pop(key, None)
            continue
        j, k = word[inv], word[inv + 1]
        swapped = word[:inv] + (k, j) + word[inv + 2 :]
        dropped = word[:inv] + word[inv + 2 :]
        pending.append((coef, bpow, swapped))
        pending.append((-_commutator(alg, k, j) * coef, bpow + 1, dropped))
    return WeylPoly(alg, done)


def random_word_terms(rng, gens, n_terms=4, max_len=5):
    terms = []
    for _ in range(n_terms):
        word = tuple(rng.randrange(gens) for _ in range(rng.randrange(max_len + 1)))
        coef = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        terms.append((coef, word))
    return terms


# -- normal ordering ---------------------------------------------------------


def test_normal_order_single_generator_unchanged():
    alg = WeylAlgebra(2)
    assert alg.normal_order([(1, (0,))]) == alg.gen(0)


def test_normal_order_swaps_one_inversion():
    alg = WeylAlgebra(2)
    got = alg.normal_order([(1, (1, 0))])
    want = WeylPoly(alg, {(1, 1, 0): 1, (0, 0, 1): -1})  # d1*d2 - iB
    assert got == want


def test_normal_order_double_inversion():
    alg = WeylAlgebra(2)
    got = alg.normal_order([(1, (1, 1, 0))])
    want = WeylPoly(alg, {(1, 2, 0): 1, (0, 1, 1): -2})  # d1*d2^2 - 2iB*d2
    assert got == want


@pytest.mark.parametrize("gens,field", [(2, None), (3, (1, 1, 1)), (3, (0, 2, 3))])
def test_normal_order_matches_brute_force_rewriter(gens, field):
    rng = random.Random(20240 + gens)
    alg = WeylAlgebra(gens, field=field)
    for _ in range(25):
        terms = random_word_terms(rng, gens)
        assert alg.normal_order(terms) == brute_normal_order(alg, terms)


def test_normal_order_idempotent_and_linear():
    rng = random.Random(7)
    alg = WeylAlgebra(2)
    for _ in range(20):
        terms_p = random_word_terms(rng, 2)
        terms_q = random_word_terms(rng, 2)
        p = alg.normal_order(terms_p)
        q = alg.normal_order(terms_q)
        # idempotent: re-feeding the ordered monomials changes nothing
        refed = alg.zero()
        for e, v in p.terms.items():
            refed = refed + alg.normal_order([(v, _expand(e[:-1]))]).scale(1, e[-1])
        assert refed == p
        a = Fraction(3, 2)
        b = Fraction(-2, 5)
        combo = [(a * c, w) for c, w in terms_p] + [(b * c, w) for c, w in terms_q]
        assert alg.normal_order(combo) == p.scale(a) + q.scale(b)


def _expand(exps):
    word = []
    for k, a in enumerate(exps):
        word.extend([k] * a)
    return tuple(word)


def test_term_cap_raises_resource_error():
    alg = WeylAlgebra(2, max_terms=3)
    p = alg.one()
    with pytest.raises(ResourceLimitError):
        for _ in range(4):
            p = alg.apply_r(p)


# -- the operator R and the recursion ---------------------------------------


def test_apply_r_on_identity_gives_h():
    alg = WeylAlgebra(2)
    assert alg.apply_r(alg.one()) == alg.h_poly()


def test_apply_r_on_h_gives_h_squared_plus_2b2():
    alg = WeylAlgebra(2)
    h = alg.h_poly()
    want = alg.mul(h, h) + alg.one().scale(-2, 2)  # 2B^2 = -2(iB)^2
    assert alg.apply_r(h) == want


def test_apply_r_3d_field_aligned_reduces_to_2d():
    alg = WeylAlgebra(3, field=(0, 0, 1))
    h = alg.h_poly()
    want = alg.mul(h, h) + alg.one().scale(-2, 2)
    assert alg.apply_r(h) == want


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_verify_recursion_small(m):
    assert verify_recursion(m) is True


# -- independent oracles: the rational half-sum recursion and per-m Horner ----


def _add_to(out, key, value):
    s = out.get(key, 0) + value
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _shift_t(f, c):
    """Substitute t -> t + c*B in {(t-power, B-power): Fraction}."""
    out = {}
    for (j, b), a in f.items():
        for i in range(j + 1):
            _add_to(out, (i, b + j - i), a * math.comb(j, i) * Fraction(c) ** (j - i))
    return out


def _mul_linear(f, c):
    """Multiply by (t + c*B)."""
    out = {}
    for (j, b), a in f.items():
        _add_to(out, (j + 1, b), a)
        _add_to(out, (j, b + 1), a * c)
    return out


def oracle_f_poly(m):
    """F_m by the half-sum recursion with B symbolic: {(t-power, B-power):
    Fraction}, one Fraction at a time, homogeneity not assumed."""
    f = {(0, 0): Fraction(1)}
    for _ in range(m):
        out = {}
        for part in (_mul_linear(_shift_t(f, -2), -1), _mul_linear(_shift_t(f, 2), 1)):
            for key, a in part.items():
                _add_to(out, key, a / 2)
        f = out
    return f


def _as_tb(f):
    """f_poly(m) on the oracle's keys: c_j B^(m-j) t^j -> {(j, m-j): c_j}."""
    m = len(f) - 1
    return {(j, m - j): c for j, c in enumerate(f) if c}


def oracle_verify_recursion(m):
    """R^m(Id) from scratch against F_m(H) by Horner's rule with `alg.mul`.

    B^b enters as (-1)^(b/2) (iB)^b; at odd b the term is imaginary, which
    the rational R^m(Id) cannot match."""
    alg = WeylAlgebra(2)
    lhs = alg.one()
    for _ in range(m):
        lhs = alg.apply_r(lhs)
    h = alg.h_poly()
    fm = oracle_f_poly(m)
    rhs = alg.zero()
    for j in range(m, -1, -1):
        rhs = alg.mul(rhs, h)
        for (tj, b), a in fm.items():
            if tj == j:
                if b % 2:
                    return False
                rhs = rhs + alg.one().scale((-1) ** (b // 2) * a, b)
    return lhs == rhs


def test_integer_f_poly_matches_the_half_sum_oracle():
    for m in range(31):
        assert _as_tb(f_poly(m)) == oracle_f_poly(m), m


def test_recursion_sweep_matches_the_per_m_oracle():
    assert recursion_checks(8) == [oracle_verify_recursion(m) for m in range(1, 9)]
    assert recursion_checks(8) == [True] * 8
    assert recursion_checks(0) == []


# -- properties of the exact identities ---------------------------------------

RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def algebra_and_word_terms(draw):
    """The 2-generator algebra or a 3-generator one with a random rational
    field, and two linear combinations of words in its generators."""
    field = draw(st.none() | st.tuples(RATIONALS, RATIONALS, RATIONALS).filter(any))
    alg = WeylAlgebra(2) if field is None else WeylAlgebra(3, field=field)
    word = st.lists(st.integers(0, alg.gens - 1), max_size=4).map(tuple)
    terms = st.lists(st.tuples(RATIONALS, word), max_size=3)
    return alg, draw(terms), draw(terms)


@settings(max_examples=60, deadline=None)
@given(algebra_and_word_terms(), RATIONALS, RATIONALS, st.integers(0, 2))
def test_apply_r_is_rational_linear(case, a, b, k):
    # linear over Q, and iB is central, so R commutes with multiplying by it
    alg, terms_p, terms_q = case
    p, q = alg.normal_order(terms_p), alg.normal_order(terms_q)
    got = alg.apply_r(p.scale(a, k) + q.scale(b))
    assert got == alg.apply_r(p).scale(a, k) + alg.apply_r(q).scale(b)


@settings(max_examples=60, deadline=None)
@given(algebra_and_word_terms())
def test_mul_matches_brute_force_on_concatenated_words(case):
    alg, terms_p, terms_q = case
    product = [(c * d, w + v) for c, w in terms_p for d, v in terms_q]
    got = alg.mul(alg.normal_order(terms_p), alg.normal_order(terms_q))
    assert got == brute_normal_order(alg, product)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=1, max_size=4).map(sorted))
def test_recursion_checks_match_the_symbolic_b_oracle(ms):
    # one sweep carried across gaps and repeats agrees with each m rebuilt
    # from scratch against F_m with B symbolic
    sweep = _RecursionSweep(10**6)
    assert [verify_recursion(m, sweep=sweep) for m in ms] == [
        oracle_verify_recursion(m) for m in ms]
    assert recursion_checks(ms[-1]) == [
        oracle_verify_recursion(m) for m in range(1, ms[-1] + 1)]


def test_recursion_sweep_rejects_negative():
    with pytest.raises(ValidationError):
        recursion_checks(-1)
    with pytest.raises(ValidationError):
        verify_recursion(-1)


# -- F_m ---------------------------------------------------------------------


def test_f_poly_base_cases():
    assert f_poly(0) == (1,)  # F0 = 1
    assert f_poly(1) == (0, 1)  # F1 = t
    assert f_poly(2) == (2, 0, 1)  # F2 = t^2 + 2B^2


def test_f_poly_text_forms():
    assert f_text(f_poly(0)) == "1"
    assert f_text(f_poly(2)) == "t^2 + 2*B^2"
    assert f_text(f_poly(3)) == "t^3 + 10*B^2*t"


def parse_f_text(text):
    """{(t-power, B-power): Fraction} from the text of F_m."""
    pieces = re.split(r" ([+-]) ", text)
    signs = [1] + [1 if s == "+" else -1 for s in pieces[1::2]]
    out = {}
    for sign, term in zip(signs, pieces[0::2]):
        if term.startswith("-"):
            sign, term = -sign, term[1:]
        coef, powers = Fraction(sign), {"t": 0, "B": 0}
        for factor in term.split("*"):
            name, _, p = factor.partition("^")
            if name in powers:
                powers[name] += int(p or 1)
            else:
                coef *= Fraction(factor)
        key = (powers["t"], powers["B"])
        assert key not in out and coef
        out[key] = coef
    return out


def test_f_text_parses_back_to_the_oracle():
    for m in range(25):
        assert parse_f_text(f_text(f_poly(m))) == oracle_f_poly(m), m


def test_f_poly_rejects_negative():
    with pytest.raises(ValidationError):
        f_poly(-1)


def test_f_values_at_levels_nonnegative():
    # F_m((2k+1)B) by the oracle with B symbolic is one positive multiple of
    # B^m, the integer that f_at_level returns
    for m in range(1, 9):
        fm, oracle = f_poly(m), oracle_f_poly(m)
        for k in range(9):
            val = {}
            for (j, b), a in oracle.items():
                _add_to(val, j + b, a * (2 * k + 1) ** j)
            assert val == {m: f_at_level(fm, k)} and f_at_level(fm, k) > 0


@pytest.mark.parametrize("m,k", [(2, 0), (1, 3), (10, 10)])
def test_check_f_bounds_examples(m, k):
    assert check_f_bounds(m, k)


def test_f2_at_lowest_level_value():
    assert f_at_level(f_poly(2), 0) == 3  # F2(B) = 3 B^2, inside [2 B^2, 8 B^2]


def test_bernstein_constant_examples():
    assert bernstein_constant(0, 5, 2, "L2") == 1
    assert bernstein_constant(0, 5, 2, "L1") == 1
    assert bernstein_constant(1, 1, 1, "L2") == 2
    assert bernstein_constant(2, 1, 1, "L1") == 24
    with pytest.raises(ValidationError):
        bernstein_constant(1, -1, 1)
    with pytest.raises(ValidationError):
        bernstein_constant(1, 1, 1, "L3")


def test_l2_constant_dominates_f_values_exactly():
    # max_k F_m((2k+1)B) <= (E+mB)^m, exact rationals at B = 1
    for m in range(1, 11):
        fm = f_poly(m)
        for q in range(1, 22, 4):
            e = Fraction(q)
            best = max(f_at_level(fm, k) for k in range((q - 1) // 2 + 1))
            assert best <= bernstein_constant(m, e, Fraction(1), "L2")


# -- 3-D breakdown ------------------------------------------------------------


def test_weyl3d_field_aligned_is_polynomial():
    red = weyl3d_reduction(0, 0, 1)
    assert red.consistent
    assert red.solution == {(2, 0): 1, (0, 2): -2}  # H^2 - 2(iB)^2
    assert weyl3d_counterexample(0, 0, 1) is False


def test_weyl3d_power2_is_polynomial_for_every_field():
    # R(H) = H^2 + 2|B|^2 B^2 holds for any constant field: the cross terms
    # d_k d_j^2 d_k collapse to central scalars.  (The claimed breakdown at
    # the second power does not exist; see power-3 test below.)
    for field in [(1, 1, 1), (1, 2, 3), (0, 1, 1)]:
        red = weyl3d_reduction(*field)
        s = sum(Fraction(x) ** 2 for x in field)
        assert red.consistent
        assert red.solution == {(2, 0): 1, (0, 2): -2 * s}
        assert weyl3d_counterexample(*field) is False


def test_weyl3d_power3_fails_for_every_field_with_witness():
    # The reduction genuinely breaks at the third power, aligned fields
    # included: R^3(Id) needs d1^2+d2^2 separately from H.
    for field in [(0, 0, 1), (1, 1, 1), (1, 2, 3)]:
        red = weyl3d_reduction(*field, power=3)
        assert not red.consistent
        mono, bpow = red.witness
        assert len(mono) == 3 and bpow >= 0


def test_weyl3d_rejects_zero_field():
    with pytest.raises(ValidationError):
        weyl3d_counterexample(0, 0, 0)


def test_weyl3d_scaled_axis_still_polynomial():
    assert weyl3d_counterexample(0, 0, Fraction(3, 7)) is False


# -- serialization ------------------------------------------------------------


def test_weyl_poly_canonical_text():
    alg = WeylAlgebra(2)
    p = alg.normal_order([(1, (1, 0))])
    assert p.to_text() == "1 : -i*B\nd1*d2 : 1"
    # (iB)^2 = -B^2 and (iB)^3 = -i*B^3: the text carries the powers of i
    q = p + alg.gen(0).scale(1, 2) + alg.gen(1).scale(Fraction(3, 2), 3)
    assert q.to_text() == "1 : -i*B\nd2 : -3/2*i*B^3\nd1 : -B^2\nd1*d2 : 1"
    assert [i_power_text(-2, b) for b in range(4)] == ["-2", "-2*i", "2", "2*i"]

