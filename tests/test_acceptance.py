"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 3 asserts the stated 3-D dichotomy verbatim and is EXPECTED TO
FAIL: the power-2 reduction R_(3)^2(Id) = H^2 + 2(B1^2+B2^2+B3^2) B^2 holds
for every constant field (three independent exact routes agree, and R and H
are rotation invariant, so no formalization can distinguish (1,1,1) from
(0,0,1)).  The genuine breakdown sits at power 3, for every field; its
witnesses are printed by the test.  See the reviewer notes for the analysis.
"""

import math
import warnings

import numpy as np
import pytest

from magbern import algebra, control, disorder, geometry, inequality, landau, lattice
from util_fields import oracle_bernstein_sum, oracle_word_fields, rng_stream


def report(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}{tail}")
    return ok


# -- 1, 2, 3: exact algebra -------------------------------------------------------


def test_criterion_1_exact_recursion():
    ok = all(algebra.verify_recursion(m) for m in range(1, 7))
    assert report(1, "R^m(Id) = F_m(H) exactly for m=1..6", ok)


def test_criterion_2_exact_bounds():
    ok = all(
        algebra.check_f_bounds(m, k) for m in range(1, 11) for k in range(0, 11)
    )
    assert report(2, "product bounds on F_m at Landau levels, m<=10, k<=10", ok)


def test_criterion_3_weyl3d_dichotomy():
    generic = algebra.weyl3d_reduction(1, 1, 1)
    aligned = algebra.weyl3d_reduction(0, 0, 1)
    for name, red in (("(1,1,1)", generic), ("(0,0,1)", aligned)):
        if red.consistent:
            sol = {k: algebra.i_power_text(v, k[1]) for k, v in sorted(red.solution.items())}
            print(f"    power-2 solve {name}: consistent, solution {sol}")
        else:
            print(f"    power-2 solve {name}: witness {red.witness}")
    for name, field in (("(1,1,1)", (1, 1, 1)), ("(0,0,1)", (0, 0, 1))):
        red3 = algebra.weyl3d_reduction(*field, power=3)
        print(f"    power-3 solve {name}: consistent={red3.consistent}, "
              f"witness={red3.witness}")
    got_generic = algebra.weyl3d_counterexample(1, 1, 1)
    got_aligned = algebra.weyl3d_counterexample(0, 0, 1)
    ok = got_generic is True and got_aligned is False
    report(3, "3-D breakdown dichotomy at power 2 (spec defect: see notes)", ok,
           f"counterexample(1,1,1)={got_generic}, (0,0,1)={got_aligned}")
    assert got_generic is True, (
        "R_(3)^2(Id) IS a polynomial in H for (1,1,1): H^2 + 6 B^2 "
        "(exact solve, brute-force rewriter, and hand proof agree; "
        "rotation invariance forbids any field-direction dichotomy at this power)"
    )
    assert got_aligned is False


# -- 4, 5: continuum Bernstein ------------------------------------------------------


@pytest.fixture(scope="module")
def bernstein_sample_results():
    rng = rng_stream(2024)
    b = 1.0
    spec = landau.QuadratureSpec(tail_sigmas=10.0, points_per_length=16)
    results = []
    for _ in range(50):
        terms = {}
        for _ in range(3):
            y = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            k = int(rng.integers(0, 3))
            dst = terms.setdefault(y, {})
            dst[k] = dst.get(k, 0.0) + complex(rng.normal(), rng.normal())
        lf = landau.LadderField(b, terms)
        f = landau.sample_ladder(lf, spec)
        words, full = landau.word_fields(f, 3), oracle_word_fields(f, 3)
        n2 = landau.norm2(f)
        entry = {"norm2": n2, "E": lf.energy_ceiling()}
        for m in (1, 2, 3):
            entry[("l2", m)] = landau.bernstein_sum(lf, m)
            entry[("words", m)] = oracle_bernstein_sum(full, m)
            entry[("l1", m)] = landau.l1_bernstein_sum(words, m)
        results.append(entry)
    return b, results


def test_criterion_4_continuum_bernstein(bernstein_sample_results):
    b, results = bernstein_sample_results
    bound_ok = True
    agree_ok = True
    worst_rel = 0.0
    for entry in results:
        e, n2 = entry["E"], entry["norm2"]
        for m in (1, 2, 3):
            s = entry[("l2", m)]
            bound_ok &= s <= float(algebra.bernstein_constant(m, e, b)) * n2 * (
                1 + 1e-4
            )
            rel = abs(s - entry[("words", m)]) / s
            worst_rel = max(worst_rel, rel)
            agree_ok &= rel <= 1e-4
    ok = bound_ok and agree_ok
    assert report(
        4, "L2 magnetic Bernstein on 50 level<=2 samples, m<=3", ok,
        f"worst agreement with the 2^m word norms {worst_rel:.2e}",
    )


def test_criterion_5_l1_bernstein(bernstein_sample_results):
    b, results = bernstein_sample_results
    ok = True
    worst = 0.0
    for entry in results:
        e, n2 = entry["E"], entry["norm2"]
        for m in (1, 2, 3):
            bound = float(algebra.bernstein_constant(m, e, b, "L1")) * n2
            worst = max(worst, entry[("l1", m)] / bound)
            ok &= entry[("l1", m)] <= bound * (1 + 1e-3)
    assert report(5, "L1 Bernstein on the same samples, m<=3", ok,
                  f"worst ratio to bound {worst:.3f}")


# -- 6: coherent-state exact values ---------------------------------------------------


def test_criterion_6_coherent_values():
    b = 1.0
    f = landau.coherent_field(landau.CoherentState((0.3, -0.7), b))
    norm_rel = abs(landau.norm2(f) - 2 * math.pi / b) / (2 * math.pi / b)
    lf = landau.LadderField.coherent(landau.CoherentState((0.0, 0.0), b))
    tail_rel = 0.0
    for r in (1.0, 2.0, 4.0):
        got = landau.radial_mass_outside(lf, (0.0, 0.0), r)
        want = (2 * math.pi / b) * math.exp(-b * r * r / 2)
        tail_rel = max(tail_rel, abs(got - want) / want)
    ok = norm_rel <= 1e-6 and tail_rel <= 1e-6
    assert report(6, "coherent norm 2pi/B and Gaussian tail masses", ok,
                  f"norm rel {norm_rel:.1e}, tail rel {tail_rel:.1e}")


# -- 7: thickness oracle ---------------------------------------------------------------


def test_criterion_7_thickness_oracle():
    rng = rng_stream(77)
    ok = True
    for i in range(20):
        cells = rng.random((64, 64)) < rng.uniform(0.15, 0.85)
        periodic = bool(i % 2)
        mask = geometry.SetMask(cells, (1.0, 1.0), periodic=periodic)
        w = int(rng.integers(2, 17))
        rep = geometry.thickness_scan(mask, (float(w), float(w)))
        a = np.asarray(cells, dtype=int)
        if periodic:
            a = np.pad(a, ((0, w - 1), (0, w - 1)), mode="wrap")
            r1 = r2 = 64
        else:
            r1 = r2 = 64 - w + 1
        brute = min(
            int(a[i0 : i0 + w, j0 : j0 + w].sum())
            for i0 in range(r1)
            for j0 in range(r2)
        )
        ok &= rep.min_count == brute
    assert report(7, "window scan equals brute force on 20 random 64x64 masks", ok)


# -- 8: good/bad mass --------------------------------------------------------------------


def test_criterion_8_good_mass():
    rng = rng_stream(88)
    ok = True
    worst = 1.0
    spec = landau.QuadratureSpec(tail_sigmas=9.0, points_per_length=8)
    for _ in range(20):
        terms = {}
        for _ in range(3):
            y = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            k = int(rng.integers(0, 3))
            dst = terms.setdefault(y, {})
            dst[k] = dst.get(k, 0.0) + complex(rng.normal(), rng.normal())
        lf = landau.LadderField(1.0, terms)
        f = landau.sample_ladder(lf, spec)
        span1 = f.spacing[0] * (f.samples.shape[0] - 1)
        span2 = f.spacing[1] * (f.samples.shape[1] - 1)
        cov = geometry.build_covering((span1, span2), (2.0, 2.0), origin=f.origin)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            labels = geometry.classify_good_bad(f, cov, E=lf.energy_ceiling(),
                                                m_max=4)
        frac = geometry.good_mass_fraction(labels, landau.norm2(f))
        worst = min(worst, frac)
        ok &= frac >= 0.5
    assert report(8, "good-rectangle mass >= half on 20 subspace samples", ok,
                  f"worst good fraction {worst:.3f}")


# -- 9: spectral inequality -----------------------------------------------------------


def test_criterion_9_spectral_inequality():
    n_grid = 64
    bound_ok = True
    scale_ok = True
    worst_scale = 0.0
    for n_phi in (2, 4, 6):
        emps = {}
        for scale in (1, 2):
            length = 8.0 / scale
            setup = lattice.TorusSetup.from_flux(n_phi, (length, length),
                                                 (n_grid, n_grid))
            sub = lattice.eigensolve(lattice.assemble(setup), count=2 * n_phi,
                                     dense_threshold=1024, seed=1)
            masks = {
                "strip": geometry.strip_mask((n_grid, n_grid), setup.spacing, 16, 8,
                                             periodic=True),
                "check": geometry.checkerboard_mask((n_grid, n_grid), setup.spacing,
                                                    8, periodic=True),
            }
            ell = (2.0 / scale, 2.0 / scale)
            for name, mask in masks.items():
                rep = geometry.thickness_scan(mask, ell)
                for levels in (1, 2):
                    k = n_phi * levels
                    s = lattice.SpectralSubspace(
                        setup, sub.eigenvalues[:k], sub.vectors[:, :k],
                        float(sub.eigenvalues[k - 1]),
                    )
                    c_emp = inequality.empirical_constant(s, mask)
                    e_nominal = (2 * levels - 1) * setup.B
                    log_traced = inequality.theoretical_constant_log(
                        e_nominal, setup.B, ell, rep.rho_lower
                    )
                    bound_ok &= math.log(c_emp) <= log_traced
                    emps[(name, levels, scale)] = c_emp
        for name in ("strip", "check"):
            for levels in (1, 2):
                a = emps[(name, levels, 1)]
                c = emps[(name, levels, 2)]
                rel = abs(a - c) / a
                worst_scale = max(worst_scale, rel)
                scale_ok &= rel <= 0.05
    ok = bound_ok and scale_ok
    assert report(
        9, "empirical <= traced and (4E,4B,l/2) scale invariance", ok,
        f"worst scale deviation {worst_scale:.2%}",
    )


# -- 10: 1-D estimates ------------------------------------------------------------------


def test_criterion_10_one_dimensional_estimates():
    rng = rng_stream(1010)
    n_fail = 0
    for _ in range(200):
        deg = int(rng.integers(0, 11))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        cuts = np.sort(rng.uniform(0.0, 1.0, size=6))
        intervals = [(cuts[0], cuts[1]), (cuts[2], cuts[3]), (cuts[4], cuts[5])]
        if sum(b - a for a, b in intervals) < 1e-3:
            intervals = [(0.0, 0.5)]
        n_fail += not inequality.remez_check(coeffs, intervals)
    for _ in range(200):
        deg = int(rng.integers(0, 9))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        if abs(coeffs[-1]) < 1e-9:
            coeffs[-1] = 1.0
        coeffs = coeffs / coeffs[-1]
        cuts = np.sort(rng.uniform(0.0, 1.0, size=4))
        intervals = [(cuts[0], cuts[1]), (cuts[2], cuts[3])]
        if sum(b - a for a, b in intervals) < 1e-3:
            intervals = [(0.0, 0.5)]
        n_fail += not inequality.kovrijkine_check(coeffs, intervals)
    assert report(10, "200 Remez + 200 Kovrijkine randomized instances", n_fail == 0,
                  f"{n_fail} failures")


# -- 11: series bound -------------------------------------------------------------------


def test_criterion_11_series_bound():
    values = [0.0] + list(np.logspace(-2, 1, 19))
    ok = all(inequality.series_bound_check(s) for s in values)
    assert report(11, "sum (s sqrt(m))^m/m! <= exp(2s^2+s) on 20 log-spaced s", ok)


# -- 12: control -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def control_setup():
    setup = lattice.TorusSetup.from_flux(2, (8.0, 8.0), (32, 32))
    sub = lattice.eigensolve(lattice.assemble(setup), count=4, seed=2)
    mask = geometry.strip_mask(setup.N, setup.spacing, 8, 4, periodic=True)
    cell = setup.spacing[0] * setup.spacing[1]
    u0 = sub.vectors.conj().T @ lattice.coherent_vector(
        setup, (4.0, 4.0)
    ).ravel() * cell
    return setup, sub, mask, u0


def test_criterion_12a_hum_residual(control_setup):
    setup, sub, mask, u0 = control_setup
    res = control.hum_control(control.masked_form(sub, mask), sub.eigenvalues, u0, 1.0)
    ok = res.terminal_residual <= 1e-8
    assert report(12, "HUM terminal residual <= 1e-8 on thick strips (12a)", ok,
                  f"residual {res.terminal_residual:.2e}")


def test_criterion_12b_small_time_scaling():
    # Lebeau-Robbiano active band: modes up to E(T) = 1/T^2 within the
    # trusted band; the measured worst-case cost must fit exp(c/T) better
    # than a pure power law on this sweep.
    setup = lattice.TorusSetup.from_flux(4, (8.0, 8.0), (48, 48))
    trust = 0.1 / setup.spacing[0] ** 2
    full = lattice.eigensolve(lattice.assemble(setup), energy=trust, seed=0)
    mask = geometry.strip_mask(setup.N, setup.spacing, 48, 4, periodic=True)
    ts = np.array([0.55, 0.65, 0.8, 1.0, 1.25, 1.55])
    costs = []
    for t in ts:
        keep = full.eigenvalues <= min(1.0 / t**2, trust)
        sub = lattice.SpectralSubspace(setup, full.eigenvalues[keep],
                                       full.vectors[:, keep], float(trust))
        form = control.masked_form(sub, mask)
        costs.append(
            math.sqrt(control.worst_observability_quotient(form, sub.eigenvalues, float(t)))
        )
    ln = np.log(costs)
    x = 1.0 / ts
    a_exp = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(a_exp, ln, rcond=None)
    r2_exp = 1 - np.sum((ln - a_exp @ coef) ** 2) / np.sum((ln - ln.mean()) ** 2)
    a_pow = np.vstack([np.ones_like(x), np.log(ts)]).T
    coef_p, *_ = np.linalg.lstsq(a_pow, ln, rcond=None)
    r2_pow = 1 - np.sum((ln - a_pow @ coef_p) ** 2) / np.sum((ln - ln.mean()) ** 2)
    ok = coef[1] > 0 and r2_exp >= 0.9 and r2_exp > r2_pow
    assert report(
        12, "small-T worst cost fits exp(c/T) on the adaptive band (12b)", ok,
        f"c={coef[1]:.2f}, R2 exp {r2_exp:.3f} vs power {r2_pow:.3f}",
    )


def test_criterion_12c_large_time_envelope(control_setup):
    setup, sub, mask, u0 = control_setup
    b = setup.B
    ts = np.linspace(3.0 / b, 10.0 / b, 6)
    form = control.masked_form(sub, mask)
    costs = [control.hum_control(form, sub.eigenvalues, u0, float(t)).cost for t in ts]
    slope = np.polyfit(ts, np.log(costs), 1)[0]
    ok = abs(-slope - b) <= 0.15 * b
    assert report(12, "large-T cost envelope exp(-BT) within 15% (12c)", ok,
                  f"fitted exponent {-slope:.4f} vs B {b:.4f}")


def test_criterion_12d_hole_divergence():
    setup = lattice.TorusSetup.from_flux(20, (8.0, 8.0), (64, 64))
    sub = lattice.eigensolve(lattice.assemble(setup), count=20,
                             dense_threshold=512, seed=2)
    center = (4.0, 4.0)
    cell = setup.spacing[0] * setup.spacing[1]
    u0 = sub.vectors.conj().T @ lattice.coherent_vector(setup, center).ravel() * cell
    quots = []
    for hole in (1.0, 2.0):
        mask = geometry.disk_complement_mask(setup.N, setup.spacing, center, hole,
                                             periodic=True)
        quots.append(control.observability_quotient(control.masked_form(sub, mask),
                                                    sub.eigenvalues, u0, 1.0))
    ok = quots[1] > 10 * quots[0]
    assert report(12, "ground-state quotient >10x as the hole doubles (12d)", ok,
                  f"growth factor {quots[1] / quots[0]:.1f}")


# -- 13: Wegner ---------------------------------------------------------------------------


def test_criterion_13_wegner():
    prof = disorder.fat_cantor_disk_profile((5, 5))
    configs = []
    for length, n in ((4.0, 20), (8.0, 40)):
        setup = lattice.TorusSetup.from_flux(int(length) ** 2, (length, length),
                                             (n, n))
        configs.append(
            disorder.EnsembleConfig(setup, prof, coupling=(0.0, 1.0), master_seed=7)
        )
    stats = disorder.wegner_sweep(configs, E=6.30, eps_list=[0.02, 0.04, 0.08],
                                  trials=200)
    linear = disorder.linear_in_eps(stats, z=3.0)
    exps = stats.l_exponents()
    volume = bool(np.all(np.abs(exps - 2.0) <= 0.3))
    r = stats.ratios()
    bounded = r.max() <= 2.0 * r.min()
    ok = linear and volume and bounded
    assert report(
        13, "Wegner: linear in eps, L-exponent 2 +/- 0.3, bounded ratio", ok,
        f"exponents {np.round(exps, 2).tolist()}, ratio spread "
        f"{r.max() / r.min():.2f}, linear={linear}",
    )
