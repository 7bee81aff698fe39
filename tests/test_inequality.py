"""Constants, sharp masked-Gram constants, and 1-D estimate checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magbern import inequality
from magbern.cli import main
from magbern.errors import NumericalError, ValidationError
from magbern.geometry import SetMask, disk_complement_mask, strip_mask, thickness_scan
from magbern.inequality import (
    empirical_constant,
    kovrijkine_check,
    masked_form,
    remez_log_bound,
    remez_check,
    series_bound_check,
    sup_abs_on_interval,
    sup_abs_on_intervals,
    theoretical_constant_log,
)
from magbern.landau import CoherentState, LadderField, QuadratureSpec, coherent_field, norm2
from magbern.lattice import SpectralSubspace, TorusSetup, assemble, eigensolve
from util_fields import rng_stream


# -- theoretical constant -------------------------------------------------------


def test_constant_monotonicities():
    base = theoretical_constant_log(4.0, 1.0, (1.0, 1.0), 0.5)
    assert theoretical_constant_log(4.0, 1.0, (1.0, 1.0), 0.25) > base
    assert theoretical_constant_log(9.0, 1.0, (1.0, 1.0), 0.5) > base
    assert theoretical_constant_log(4.0, 2.0, (1.0, 1.0), 0.5) > base
    assert theoretical_constant_log(4.0, 1.0, (2.0, 1.0), 0.5) > base


def test_traced_constant_is_scale_invariant():
    a = theoretical_constant_log(3.0, 1.0, (1.0, 0.5), 0.3)
    b = theoretical_constant_log(12.0, 4.0, (0.5, 0.25), 0.3)
    assert a == pytest.approx(b, rel=1e-14)


def test_traced_b_to_zero_recovers_energy_only_exponent():
    got = theoretical_constant_log(4.0, 0.0, (1.0, 1.0), 0.5)
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


def _inline_chain_log(E, B, ell, rho):
    """The traced constant as first written, in one formula (test oracle)."""
    l1 = abs(ell[0]) + abs(ell[1])
    ln_m = math.log(16.0) + 2.0 * 240.0**2 * (
        l1 * (math.sqrt(E) + math.sqrt(B)) + l1 * l1 * B
    )
    return math.log(4.0) + (1.0 + 2.0 * ln_m / math.log(2.0)) * math.log(
        96.0 * math.pi / rho
    )


def test_constant_matches_inline_chain():
    rng = rng_stream(17)
    for _ in range(200):
        b = float(rng.choice([0.0, rng.uniform(0.01, 5.0)]))
        e = b * float(rng.uniform(1.0, 20.0)) if b else float(rng.uniform(0.0, 50.0))
        ell = (float(rng.uniform(0.0, 4.0)), float(rng.uniform(0.0, 4.0)))
        rho = float(rng.uniform(1e-3, 1.0))
        assert theoretical_constant_log(e, b, ell, rho) == pytest.approx(
            _inline_chain_log(e, b, ell, rho), rel=1e-13, abs=1e-13)


def test_traced_value_overflows_to_inf_by_design():
    # exp() of the log overflows floats (above ln(max float) ~ 709.78)
    assert theoretical_constant_log(4.0, 1.0, (1.0, 1.0), 0.5) > 709


# -- empirical constant -----------------------------------------------------------


def lattice_subspace(n_phi=2, L=8.0, N=32, n_levels=1):
    setup = TorusSetup.from_flux(n_phi, (L, L), (N, N))
    op = assemble(setup)
    return setup, eigensolve(op, count=n_phi * n_levels)


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
    # one state: the sharp constant is ||f||^2 over its mass on the set
    mass = float(np.sum(np.abs(f.samples) ** 2 * mask.cells)) * mask.cell_area
    got = norm2(f) / mass
    assert got == pytest.approx(math.exp(B * r * r / 2), rel=0.03)


def test_empirical_below_traced_for_strip_mask():
    setup, sub = lattice_subspace(n_phi=2, L=8.0, N=32)
    mask = strip_mask(setup.N, setup.spacing, period_cells=8, width_cells=4,
                      periodic=True)
    rep = thickness_scan(mask, (2.0, 2.0))
    c_emp = empirical_constant(sub, mask)
    log_traced = theoretical_constant_log(setup.B, setup.B, rep.ell, rep.rho_lower)
    assert math.log(c_emp) <= log_traced


def test_non_orthonormal_basis_is_refused():
    # the constant is read off an orthonormal basis only: one column scaled
    # by 1.01 puts the Gram matrix 0.02 off the identity
    setup, sub = lattice_subspace()
    vecs = sub.vectors.copy()
    vecs[:, 0] *= 1.01
    skewed = SpectralSubspace(setup, sub.eigenvalues, vecs, sub.cutoff)
    mask = strip_mask(setup.N, setup.spacing, period_cells=8, width_cells=4,
                      periodic=True)
    with pytest.raises(NumericalError, match="not orthonormal"):
        empirical_constant(skewed, mask)


def test_mask_on_another_grid_is_refused():
    setup, sub = lattice_subspace()
    mask = SetMask(np.ones((16, 16), dtype=bool), setup.spacing, periodic=True)
    with pytest.raises(ValidationError, match="mask grid"):
        masked_form(sub, mask)


def test_void_inequality_reported():
    setup, sub = lattice_subspace()
    mask = SetMask(np.zeros(setup.N, dtype=bool), setup.spacing, periodic=True)
    with pytest.raises(NumericalError):
        empirical_constant(sub, mask)


# -- Remez / Kovrijkine -----------------------------------------------------------


def test_remez_bound_values():
    assert remez_log_bound(0, 0.7) == 0.0
    assert remez_log_bound(1, 0.5) == math.log(8.0)
    assert math.exp(remez_log_bound(3, 0.1)) == pytest.approx(64000.0)
    # (4e12)^40 ~ 1e505 is past the float range; its log is not
    assert remez_log_bound(40, 1e-12) == pytest.approx(40 * math.log(4e12), rel=1e-15)
    with pytest.raises(ValidationError):
        remez_log_bound(1, 0.0)
    with pytest.raises(ValidationError):
        remez_log_bound(1, 1.5)


def _refine_max(f, lo: float, hi: float) -> float:
    """Golden-section maximization of f on [lo, hi], 60 iterations."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(60):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return max(fc, fd, f(a), f(b))


def _sup_on_grid(f, points: np.ndarray) -> float:
    """Grid max of f, refined around the 5 best points."""
    vals = f(points)
    best = float(np.max(vals))
    if points.size < 3:
        return best
    step = points[1] - points[0] if points.size > 1 else 0.0
    top = np.argsort(vals)[-5:]
    for i in top:
        lo = max(points[0], points[i] - step)
        hi = min(points[-1], points[i] + step)
        best = max(best, _refine_max(lambda t: float(f(np.array([t]))[0]), lo, hi))
    return best


_COEF = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    parts=st.lists(st.tuples(_COEF, _COEF), min_size=1, max_size=15),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    n_grid=st.integers(2, 2000),
)
def test_sup_between_golden_oracle_and_lipschitz_bound(parts, ends, n_grid):
    # oracle: the grid-plus-golden-section sup, which can only under-estimate;
    # bound: every t in [lo, hi] lies within h/2 of a grid point, and
    # sum |k c_k| bounds |P'| on [0, 1].  slack covers the rounding of
    # Horner's rule, |error| <= 2 (n + 1) u sum |c_k| at |t| <= 1, on both sides.
    c = np.array([complex(re, im) for re, im in parts])
    lo, hi = sorted(ends)
    sup = sup_abs_on_interval(c, lo, hi, n_grid)
    oracle = _sup_on_grid(lambda t: np.abs(np.polyval(c, t)), np.linspace(lo, hi, n_grid))
    grid_max = float(np.max(np.abs(np.polyval(c, np.linspace(lo, hi, n_grid)))))
    k = np.arange(c.size)[::-1]
    lip = float(np.sum(k * np.abs(c)))
    slack = 4.0 * c.size * np.finfo(float).eps * float(np.sum(np.abs(c)))
    h = (hi - lo) / (n_grid - 1)
    assert sup >= oracle * (1.0 - 1e-14) - slack
    assert sup <= grid_max + 0.5 * h * lip + slack


_INTERVAL = st.one_of(st.just((0.0, 1.0)),
                     st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))


@settings(max_examples=200, deadline=None)
@given(
    parts=st.lists(st.tuples(_COEF, _COEF), min_size=1, max_size=11),
    intervals=st.lists(_INTERVAL, min_size=1, max_size=3),
)
def test_batched_sups_match_one_call_per_interval(parts, intervals):
    # one shared critical-point solve and one evaluation for all intervals
    # give, bit for bit, the sup of one call per interval; an unordered pair
    # (hi <= lo) is an empty interval and contributes 0
    c = np.array([complex(re, im) for re, im in parts])
    sups = sup_abs_on_intervals(c, intervals)
    assert sups.shape == (len(intervals),)
    for (lo, hi), sup in zip(intervals, sups):
        want = (sup_abs_on_interval(c, lo, hi, max(64, int(1e4 * (hi - lo))))
                if hi > lo else 0.0)
        assert sup == want


def per_interval_sups(coeffs, intervals) -> np.ndarray:
    """`sup_abs_on_intervals` one interval at a time: a np.linspace grid of
    max(64, int(1e4 (hi - lo))) points plus the critical points of |P|^2 in
    it, through np.polyval; 0 on an empty interval."""
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    dq = np.polyder(np.convolve(c, c.conj()).real)
    small = np.abs(dq) <= np.finfo(float).eps * np.max(np.abs(dq), initial=0.0)
    roots = np.roots(np.where(small, 0.0, dq)).real
    with np.errstate(all="ignore"):
        polished = roots - np.polyval(dq, roots) / np.polyval(np.polyder(dq), roots)
    crit = np.concatenate((roots, polished))
    out = []
    for lo, hi in intervals:
        if hi <= lo:
            out.append(0.0)
            continue
        t = np.concatenate((np.linspace(lo, hi, max(64, int(1e4 * (hi - lo)))),
                            crit[(crit >= lo) & (crit <= hi)]))
        out.append(np.max(np.abs(np.polyval(c, t))))
    return np.array(out)


@settings(max_examples=200, deadline=None)
@given(
    parts=st.lists(st.tuples(_COEF, _COEF), min_size=1, max_size=11),
    intervals=st.lists(_INTERVAL, min_size=1, max_size=3),
    at=st.floats(0.0, 1.0 - 1e-6),
)
def test_batched_sups_are_the_per_interval_linspace_sups(parts, intervals, at):
    # one vectorized grid, one in-place Horner pass and the critical points
    # merged afterwards give, bit for bit, one linspace and polyval per
    # interval; with an empty interval and one 1e-6 wide (64 grid points)
    c = np.array([complex(re, im) for re, im in parts])
    intervals = intervals + [(at, at), (at + 1e-6, at), (at, at + 1e-6)]
    got = sup_abs_on_intervals(c, intervals)
    assert got.tobytes() == per_interval_sups(c, intervals).tobytes()


@pytest.mark.parametrize("lo, hi, n", [
    ([0.0, 0.25, -3.0], [1.0, 0.5, 7.5], [10**4, 64, 2]),
    ([0.5, 0.0, 1e-300], [0.5, 5e-324, 2e-300], [64, 64, 1000]),  # zero, subnormal widths
    ([0.123456789, 0.3], [0.123457789, 0.9], [64, 3]),  # lo + 2 step rounds past 0.9
])
def test_one_pass_grids_are_linspace_bit_for_bit(lo, hi, n):
    got = inequality._linspaces(np.array(lo), np.array(hi), np.array(n))
    want = np.concatenate([np.linspace(a, b, k) for a, b, k in zip(lo, hi, n)])
    assert got.tobytes() == want.tobytes()


def test_horner_in_place_is_polyval_bit_for_bit():
    rng = rng_stream(23)
    for deg in range(12):
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        t = rng.uniform(-2.0, 2.0, 997)
        assert (inequality._abs_polyval(c, t).tobytes()
                == np.abs(np.polyval(c, t)).tobytes())


def test_circle_points_are_made_once_per_size():
    # the Kovrijkine circle |z| = 4, kept as the inverses 1/z = conj(z)/16
    u = inequality._circle_inverses(4096)
    assert u is inequality._circle_inverses(4096) and not u.flags.writeable
    theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    z = 4.0 * np.exp(1j * theta)
    assert u.tobytes() == (np.conj(z) / 16.0).tobytes()
    assert np.abs(u * z - 1.0).max() <= 1e-15


def test_sup_finds_interior_max_between_grid_points():
    # P(t) = 1 - (t - 1/pi)^2 peaks at 1/pi; a two-point grid sees only
    # P(0) = 1 - 1/pi^2 and P(1)
    coeffs = [-1.0, 2.0 / math.pi, 1.0 - 1.0 / math.pi**2]
    assert sup_abs_on_interval(coeffs, 0.0, 1.0, n_grid=2) == pytest.approx(1.0, abs=1e-15)


def test_remez_constant_polynomial():
    assert remez_check([3.0], [(0.2, 0.5)])


def shifted_chebyshev(n: int) -> np.ndarray:
    """Coefficients of T_n(2t - 1), highest degree first: |P| <= 1 on [0, 1]
    while sum |c_k| grows like 5.8^n."""
    tn = np.polynomial.chebyshev.cheb2poly([0.0] * n + [1.0])
    p = np.polynomial.polynomial.Polynomial(tn)(np.polynomial.polynomial.Polynomial([-1.0, 2.0]))
    return p.coef[::-1]


def test_remez_chebyshev_like_extremal():
    # P(t) = T4(2t - 1) on [0,1]; E the middle half
    coeffs = shifted_chebyshev(4)
    assert remez_check(coeffs, [(0.25, 0.75)])
    sup01 = sup_abs_on_interval(coeffs, 0.0, 1.0)
    sup_e = sup_abs_on_interval(coeffs, 0.25, 0.75)
    assert sup01 / sup_e <= math.exp(remez_log_bound(4, 0.5))


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


@pytest.mark.parametrize("scalar", [float, np.float64])
def test_remez_check_past_the_float_range_of_the_bound(scalar):
    # (4/|E|)^40 at |E| = 1e-12 overflows a float: the check compares it in
    # logs, with no OverflowError (Python floats) and no overflow warning
    # (numpy floats); sup_[0,1] = 41 against sup_E ~ P(1/2) ~ 2 passes
    lo = scalar(0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert remez_check([1.0] * 41, [(lo, lo + scalar(1e-12))])


def test_kovrijkine_degree_600_draw():
    # 4^600 > 1e308: the circle sup of P overflows, and before its log was
    # taken as n log 4 + log max |Q(1/z)| it read nan and the check
    # "falsified"; P and E drawn as the CLI's remez command draws them
    rng = rng_stream(73)
    coeffs = rng.normal(size=601) + 1j * rng.normal(size=601)
    coeffs = coeffs / coeffs[-1]
    cuts = np.sort(rng.uniform(0.0, 1.0, size=4))
    intervals = [(cuts[0], cuts[1]), (cuts[2], cuts[3])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kovrijkine_check(coeffs, intervals)
    # the log of the circle sup is the direct one where that does not overflow
    low = coeffs[-101:]
    z = 4.0 * np.exp(2j * np.pi * np.arange(4096) / 4096)
    direct = math.log(np.max(np.abs(np.polyval(low, z))))
    via_q = 100 * math.log(4.0) + math.log(
        np.max(np.abs(np.polyval(low[::-1], inequality._circle_inverses(4096)))))
    assert via_q == pytest.approx(direct, rel=1e-14)


def test_remez_command_past_degree_500(tmp_path):
    # degrees up to 1000 made the Kovrijkine checks read "falsified" (exit 3)
    argv = ["remez", "--degree-max", "1000", "--count", "20", "--out", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    rows = (tmp_path / "remez.csv").read_text().splitlines()
    assert len(rows) == 1 + 40 and all(r.endswith("true") for r in rows[1:])


def test_kovrijkine_constant_function():
    assert kovrijkine_check([1.0], [(0.1, 0.6)])


def test_kovrijkine_one_plus_z():
    assert kovrijkine_check([1.0, 1.0], [(0.0, 0.5)])


def test_kovrijkine_requires_unit_value_at_zero():
    with pytest.raises(ValidationError):
        kovrijkine_check([1.0, 0.5], [(0.0, 0.5)])


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
        assert kovrijkine_check(coeffs, intervals)


# -- the coefficient certificate -------------------------------------------------


def full_comparison(c, intervals, log_bound) -> bool:
    """The sup comparison the certificate stands in for."""
    sup01, *sup_e = sup_abs_on_intervals(c, [(0.0, 1.0), *intervals]).tolist()
    return inequality._log_at_most(sup01, log_bound, max([0.0, *sup_e]))


def certificate_edge(c, intervals):
    """The least float log-bound the certificate accepts (None if none does),
    by bisection on the integers that order the finite floats: the bit
    pattern of x >= 0, minus that of -x for x < 0."""
    def at(key):
        x = float(np.int64(abs(key)).view(np.float64))
        return x if key >= 0 else -x

    top = int(np.float64(np.finfo(float).max).view(np.int64))
    if not inequality._certified(c, intervals, at(top)):
        return None
    lo, hi = -top, top
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if inequality._certified(c, intervals, at(mid)):
            hi = mid
        else:
            lo = mid
    return at(hi)


_CERT_INTERVAL = st.one_of(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(lambda ab: tuple(sorted(ab))),
    st.floats(0.0, 1.0).map(lambda a: (a, a)),  # degenerate
    st.floats(0.0, 1.0 - 1e-12).map(lambda a: (a, a + 1e-12)),
)


@st.composite
def certificate_instances(draw):
    n = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["random", "aligned", "cancelling"]))
    unit = st.floats(-1.0, 1.0)
    if kind == "random":
        c = np.array([complex(*draw(st.tuples(unit, unit))) for _ in range(n + 1)])
    elif kind == "aligned":  # |P(1)| = sum |c_k|: the upper bound is tight
        c = np.array([abs(draw(unit)) for _ in range(n + 1)], dtype=complex)
    else:  # near-cancelling: |P| <= 1 on [0, 1] against sum |c_k| up to 1e30
        c = shifted_chebyshev(n).astype(complex)
        c[-1] += draw(st.sampled_from([0.0, 1e-12, 1e-6]))
        c /= np.max(np.abs(c))
    c *= 10.0 ** draw(st.floats(-150.0, 150.0))
    intervals = draw(st.lists(_CERT_INTERVAL, min_size=1, max_size=3))
    return c, intervals


@settings(max_examples=300, deadline=None)
@given(instance=certificate_instances(), kind=st.sampled_from(["remez", "drawn", "edge"]),
       drawn=st.floats(0.0, 300.0))
def test_a_certified_verdict_is_the_sup_verdict(instance, kind, drawn):
    # whenever sum |c_k| and the endpoints of E certify an instance, the
    # grid-plus-critical-point sups pass it too, also at the least bound the
    # certificate accepts (bounds as their logs)
    c, intervals = instance
    measure = sum(hi - lo for lo, hi in intervals)
    if kind == "remez" and measure > 0:
        bound = remez_log_bound(c.size - 1, min(measure, 1.0))
    elif kind == "edge":
        bound = certificate_edge(c, intervals)
        if bound is None:
            return
        assert not inequality._certified(c, intervals, float(np.nextafter(bound, -np.inf)))
    else:
        bound = drawn * math.log(10.0)
    if inequality._certified(c, intervals, bound):
        assert full_comparison(c, intervals, bound)


def _count_sups(monkeypatch) -> list:
    calls, real = [], inequality.sup_abs_on_intervals

    def counted(coeffs, intervals):
        calls.append(len(intervals))
        return real(coeffs, intervals)

    monkeypatch.setattr(inequality, "sup_abs_on_intervals", counted)
    return calls


@pytest.mark.parametrize("bound_factor, verdict", [(1.0 + 1e-9, True), (1e-3, False)])
def test_sups_decide_what_the_certificate_cannot(monkeypatch, bound_factor, verdict):
    # T_10(2t - 1): sum |c_k| ~ 1e7 against sups of 1, so at a bound near
    # sup_[0,1] / sup_E no certificate exists and the sups give the verdict:
    # true just above the ratio, false (a falsified instance) far below it
    c, intervals = shifted_chebyshev(10), [(0.3, 0.35)]
    sup01, sup_e = sup_abs_on_intervals(c, [(0.0, 1.0), *intervals])
    bound = math.log(sup01 / sup_e * bound_factor)
    monkeypatch.setattr(inequality, "remez_log_bound", lambda n, measure: bound)
    assert not inequality._certified(c.astype(complex), intervals, bound)
    calls = _count_sups(monkeypatch)
    assert remez_check(c, intervals) is verdict
    assert calls == [2]


def test_checks_give_the_sup_verdicts_on_the_cli_draws(tmp_path, monkeypatch):
    # the CLI's own draws at seeds 0-19, once as shipped and once with the
    # certificate switched off: the same remez.csv, byte for byte
    def csvs(tag):
        out = []
        for seed in range(20):
            d = tmp_path / f"{tag}{seed}"
            assert main(["remez", "--count", "100", "--seed", str(seed), "--out", str(d)]) == 0
            out.append((d / "remez.csv").read_bytes())
        return out

    certified = csvs("certified")
    monkeypatch.setattr(inequality, "_certified", lambda c, intervals, bound: False)
    assert certified == csvs("sups")


def test_certificate_decides_most_of_the_default_remez_draw(tmp_path, monkeypatch):
    # 200 Remez and 200 Kovrijkine checks at seed 0: the sups run for at most
    # 10% of them, so the speed-up of the certificate cannot vanish unnoticed
    calls = _count_sups(monkeypatch)
    assert main(["remez", "--out", str(tmp_path)]) == 0
    assert len(calls) <= 40


# -- series bound -----------------------------------------------------------------


@pytest.mark.parametrize("s", [0.0, 1.0, 5.0])
def test_series_bound_examples(s):
    assert series_bound_check(s)


def test_series_bound_rejects_insufficient_terms():
    with pytest.raises(ValidationError):
        series_bound_check(5.0, m_terms=10)


# -- necessity of thickness --------------------------------------------------------


def f0_mass_on(mask, B):
    """||f_0||^2 over the set by cell-centre quadrature, f_0 the lowest-level
    state centred at the origin."""
    n1, n2 = mask.cells.shape
    x1 = mask.origin[0] + mask.spacing[0] * (np.arange(n1) + 0.5)[:, None]
    x2 = mask.origin[1] + mask.spacing[1] * (np.arange(n2) + 0.5)[None, :]
    f0 = LadderField(B, {(0.0, 0.0): {0: 1.0}}).eval(x1, x2)
    return float(np.sum(np.abs(f0) ** 2 * mask.cells)) * mask.cell_area


def test_necessity_decay_with_growing_hole():
    # off a disk of radius n the mass is below vol(S cap ball) + the exact
    # Gaussian tail (2 pi / B) e^(-B n^2 / 2) + a discretization edge
    B = 1.0
    h = 1 / 16
    n_cells = 512
    origin = (-16.0, -16.0)
    vals = []
    for n in (2.0, 3.0):
        mask = disk_complement_mask((n_cells, n_cells), (h, h), center=(0.0, 0.0),
                                    radius=n, origin=origin)
        v = f0_mass_on(mask, B)
        tail = (2 * math.pi / B) * math.exp(-B * n * n / 2)
        edge = 2 * math.pi * n * 2 * h * math.exp(-B * n * n / 2)
        assert v <= 1.0 / n + tail + edge
        vals.append(v)
    assert vals[1] < vals[0]


def test_necessity_full_plane_recovers_total_mass():
    B = 1.0
    h = 1 / 16
    mask = SetMask(np.ones((512, 512), dtype=bool), (h, h), origin=(-16.0, -16.0))
    assert f0_mass_on(mask, B) == pytest.approx(2 * math.pi / B, rel=1e-9)
