"""Batch command-line surface: `magbern <command> [--key value]... [--config file]`.

Config files and manifests share the same plain-text `key = value` format
with `#` comments; command-line flags override file values; unknown commands
or keys exit with code 2, falsified checks with 3, resource caps with 4.
Every run writes a manifest echoing the resolved configuration, and the
manifest alone re-runs the experiment via `--config`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

# the torus modules load scipy: only the commands that solve on the lattice
# (specineq, control, wegner) import them, inside their runners
from . import algebra, geometry, inequality, landau
from .errors import MagbernError, NumericalError, ValidationError


def _parse_pair(text: str, kind=float):
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 2:
        raise ValidationError(f"expected 'a,b' pair, got {text!r}")
    return kind(parts[0]), kind(parts[1])


def _positive_pair(text: str):
    """Parser for a window (l1, l2): both sides must be positive."""
    a, b = _parse_pair(text)
    if not (a > 0 and b > 0):
        raise ValueError("window sides must be positive")
    return a, b


def _parse_int_pair(text: str):
    """Parser for a grid size 'n1,n2': two exact integers, so 32.7 is
    refused, each at least 4 (the torus grid's minimum)."""
    n = _parse_pair(text, int)
    if min(n) < 4:
        raise ValueError("need at least 4 grid points per direction")
    return n


def _parse_floats(text: str):
    values = tuple(float(p) for p in str(text).split(",") if p.strip())
    if not values:
        raise ValueError("expected one or more comma-separated numbers")
    return values


def _parse_box_sides(text: str):
    """Parser for wegner's box sides: positive integers (one site of Z^2 per
    unit cell), kept as floats."""
    sides = _parse_floats(text)
    if not all(v > 0 for v in sides):
        raise ValueError("box sides must be positive")
    if not all(v.is_integer() for v in sides):
        raise ValueError("box sides must be integers (site lattice Z^2)")
    return sides


def _parse_coupling(text: str):
    """Parser for the coupling law's support 'm0,M0' with m0 < M0."""
    m0, M0 = _parse_pair(text)
    if not m0 < M0:
        raise ValueError("need m0 < M0")
    return m0, M0


def _parse_field(text: str):
    """Parser for a constant 3-D field: three exact fractions 'b1,b2,b3'."""
    parts = tuple(Fraction(p) for p in str(text).split(","))
    if len(parts) != 3:
        raise ValueError(f"expected three components, got {len(parts)}")
    if not any(parts):
        raise ValueError("field components must not all vanish")
    return parts


def _parse_bool(text: str):
    s = str(text).lower()
    if s in ("1", "true", "yes"):
        return True
    if s in ("0", "false", "no"):
        return False
    raise ValidationError(f"expected a boolean, got {text!r}")


def parse_energy(text: str, b_value: float) -> float:
    """Energy values accept a 'B' multiplier suffix: '3B' means 3*B."""
    s = str(text).strip()
    if s.lower().endswith("b"):
        head = s[:-1].strip()
        return (float(head) if head else 1.0) * b_value
    return float(s)


def _energy_text(text: str) -> str:
    """Keep the text (a 'B' suffix needs the field), but reject it now if it
    does not parse to a finite energy."""
    _check_finite("E", parse_energy(text, 1.0))
    return text


def _parse_rho(text: str) -> float:
    v = float(text)
    if not 0.0 < v <= 1.0:
        raise ValidationError(f"rho must lie in (0, 1], got {text!r}")
    return v


def _int_at_least(low: int):
    """Parser for an integer key with a lower bound (a count or a degree)."""
    def parse(text: str) -> int:
        v = int(text)
        if v < low:
            raise ValueError(f"must be at least {low}")
        return v
    return parse


def _positive(text: str) -> float:
    """Parser for a float key that must be > 0 (a field strength)."""
    v = float(text)
    if not v > 0.0:
        raise ValueError("must be positive")
    return v


def _non_negative(key: str):
    """Parser for a float key that must be >= 0 (a tolerance or a target)."""
    def parse(text: str) -> float:
        v = float(text)
        if not v >= 0.0:
            raise ValidationError(f"--{key} must be non-negative, got {text!r}")
        return v
    return parse


# command -> {key: (parser, default)}; None default means required
SCHEMAS = {
    "fm": {"m": (_int_at_least(0), 2)},
    "weyl-verify": {
        "m-max": (_int_at_least(1), 6),
        "field": (_parse_field, (1, 1, 1)),
        "max-terms": (_int_at_least(1), 10**6),
    },
    "bernstein": {
        "B": (_positive, 1.0),
        "m-max": (_int_at_least(1), 3),
        "samples": (_int_at_least(1), 5),
        "levels": (_int_at_least(0), 2),
        "seed": (_int_at_least(0), 0),
        "tol": (_non_negative("tol"), 1e-4),
    },
    "thickness": {
        "mask": (str, None),
        "l": (_positive_pair, None),
        "spacing": (_parse_pair, (1.0, 1.0)),
        "periodic": (_parse_bool, False),
    },
    "specineq": {
        "mask": (str, None),
        "E": (_energy_text, "B"),
        "n-phi": (_int_at_least(0), 2),
        "L": (_parse_pair, (8.0, 8.0)),
        "N": (_parse_int_pair, (32, 32)),
        "l": (_positive_pair, (2.0, 2.0)),
        "seed": (_int_at_least(0), 0),
    },
    "remez": {
        "count": (_int_at_least(1), 200),
        "degree-max": (_int_at_least(0), 10),
        "seed": (_int_at_least(0), 0),
    },
    "control": {
        "mask": (str, None),
        "n-phi": (_int_at_least(1), 2),
        "L": (_parse_pair, (8.0, 8.0)),
        "N": (_parse_int_pair, (32, 32)),
        "T": (_parse_floats, (0.5, 1.0, 2.0)),
        "l": (_positive_pair, (2.0, 2.0)),
        "eps-target": (_non_negative("eps-target"), 1e-8),
        "clusters": (_int_at_least(1), 2),
        "seed": (_int_at_least(0), 0),
    },
    "wegner": {
        "L": (_parse_box_sides, (4.0, 8.0)),
        "cells-per-unit": (_int_at_least(1), 5),
        "flux-per-unit": (_int_at_least(0), 1),
        "E": (float, 6.30),
        "eps": (_parse_floats, (0.02, 0.04, 0.08)),
        "trials": (_int_at_least(2), 200),
        "coupling": (_parse_coupling, (0.0, 1.0)),
        "seed": (_int_at_least(0), 0),
    },
}

GLOBAL_KEYS = {"out": (str, "."), "rho": (_parse_rho, None)}


@dataclass
class RunConfig:
    command: str
    params: dict
    out_dir: Path

    def manifest_text(self) -> str:
        lines = [f"command = {self.command}"]
        for key in sorted(self.params):
            lines.append(f"{key} = {_format_value(self.params[key])}")
        return "\n".join(lines) + "\n"


@dataclass
class ReportBundle:
    files: list = field(default_factory=list)
    messages: list = field(default_factory=list)


def _format_value(v) -> str:
    if isinstance(v, tuple):
        return ",".join(_format_value(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _check_finite(key: str, value) -> None:
    """Every float a key parses to, tuple items included, must be finite."""
    items = value if isinstance(value, tuple) else (value,)
    if any(isinstance(x, float) and not math.isfinite(x) for x in items):
        raise ValidationError(f"--{key} must be finite, got {_format_value(value)}")


def read_keyvalue_file(path) -> dict:
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def parse_config(argv) -> RunConfig:
    """Resolve command, config file, and flag overrides into a RunConfig."""
    argv = list(argv)
    if not argv:
        raise ValidationError(
            f"usage: magbern <command> [--key value]...; commands: "
            f"{', '.join(sorted(SCHEMAS))}"
        )
    command = None
    if not argv[0].startswith("--"):
        command = argv.pop(0)
    raw: dict = {}
    config_path = None
    it = iter(argv)
    for tok in it:
        if not tok.startswith("--"):
            raise ValidationError(f"expected '--key value', got {tok!r}")
        key = tok[2:]
        try:
            val = next(it)
        except StopIteration:
            raise ValidationError(f"flag --{key} is missing a value") from None
        if key == "config":
            config_path = val
        else:
            raw[key] = val
    file_vals: dict = {}
    if config_path is not None:
        file_vals = read_keyvalue_file(config_path)
        file_cmd = file_vals.pop("command", None)
        if command is None:
            command = file_cmd
        elif file_cmd is not None and file_cmd != command:
            raise ValidationError(
                f"command {command!r} conflicts with config file {file_cmd!r}"
            )
    if command is None:
        raise ValidationError("no command given (directly or via --config)")
    if command not in SCHEMAS:
        raise ValidationError(
            f"unknown command {command!r}; commands: {', '.join(sorted(SCHEMAS))}"
        )
    schema = dict(SCHEMAS[command])
    schema.update(GLOBAL_KEYS)
    merged = dict(file_vals)
    merged.update(raw)  # flags override file values
    params = {}
    for key, value in merged.items():
        if key not in schema:
            raise ValidationError(f"unknown key --{key} for command {command!r}")
        parser, _default = schema[key]
        try:
            params[key] = parser(value)
        except MagbernError:
            raise
        except (ValueError, ArithmeticError) as exc:
            raise ValidationError(f"cannot parse --{key} {value!r}: {exc}") from exc
        _check_finite(key, params[key])
    for key, (parser, default) in schema.items():
        if key not in params:
            if default is None and key not in ("rho",):
                raise ValidationError(f"command {command!r} requires --{key}")
            if default is not None:
                params[key] = default
    out_dir = Path(params.pop("out", "."))
    return RunConfig(command=command, params=params, out_dir=out_dir)


# -- command runners --------------------------------------------------------------


def _row(*cells, sep: str = ",") -> str:
    """One CSV (or whitespace .dat) row: floats as repr(float), ints as
    decimal, bools as true/false, whatever their numpy or Python type."""
    out = []
    for c in cells:
        if isinstance(c, (bool, np.bool_)):
            out.append("true" if c else "false")
        elif isinstance(c, (int, np.integer)):
            out.append(str(int(c)))
        elif isinstance(c, (float, np.floating)):
            out.append(repr(float(c)))
        else:
            out.append(str(c))
    return sep.join(out)


def _write(bundle: ReportBundle, path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    bundle.files.append(str(path))


def _load_mask(params, spacing=None, periodic=True) -> geometry.SetMask:
    return geometry.read_pbm(
        params["mask"], spacing=spacing or params.get("spacing", (1.0, 1.0)),
        periodic=periodic,
    )


def run_fm(cfg: RunConfig, bundle: ReportBundle) -> None:
    text = algebra.f_text(algebra.f_poly(cfg.params["m"]))
    bundle.messages.append(text)
    _write(bundle, cfg.out_dir / "fm.txt", text + "\n")


def run_weyl_verify(cfg: RunConfig, bundle: ReportBundle) -> None:
    checks = algebra.recursion_checks(cfg.params["m-max"], max_terms=cfg.params["max-terms"])
    rows = ["m,recursion_ok"] + [_row(m, ok) for m, ok in enumerate(checks, 1)]
    all_ok = all(checks)
    red = algebra.weyl3d_reduction(*cfg.params["field"])
    rows.append(_row("weyl3d_counterexample", not red.consistent))
    if red.consistent:
        sol = "; ".join(f"H^{k}*B^{j}:{v}" for (k, j), v in sorted(red.solution.items()))
        bundle.messages.append(f"reduction exists: {sol}")
    else:
        bundle.messages.append(f"inconsistent at monomial/B-power {red.witness}")
    _write(bundle, cfg.out_dir / "weyl.csv", "\n".join(rows) + "\n")
    if not all_ok:
        raise NumericalError("recursion identity falsified")


def run_bernstein(cfg: RunConfig, bundle: ReportBundle) -> None:
    b = cfg.params["B"]
    tol = cfg.params["tol"]
    rng = np.random.default_rng(np.random.SeedSequence(cfg.params["seed"]))
    rows = ["sample,m,l2_sum,l2_bound,l1_sum,l1_bound,pass"]
    all_ok = True
    for s in range(cfg.params["samples"]):
        terms = {}
        for _ in range(3):
            y = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            k = int(rng.integers(0, cfg.params["levels"] + 1))
            dst = terms.setdefault(y, {})
            dst[k] = dst.get(k, 0.0) + complex(rng.normal(), rng.normal())
        lf = landau.LadderField(b, terms)
        f = landau.sample_ladder(lf, landau.QuadratureSpec(points_per_length=8))
        e = lf.energy_ceiling()
        n2 = landau.norm2(f)
        words = landau.word_fields(f, cfg.params["m-max"])
        for m in range(1, cfg.params["m-max"] + 1):
            l2 = landau.bernstein_sum(words, m)
            l2_bound = float(algebra.bernstein_constant(m, e, b, "L2")) * n2
            l1 = landau.l1_bernstein_sum(words, m)
            l1_bound = float(algebra.bernstein_constant(m, e, b, "L1")) * n2
            ok = l2 <= l2_bound * (1 + tol) and l1 <= l1_bound * (1 + 10 * tol)
            all_ok &= ok
            rows.append(_row(s, m, l2, l2_bound, l1, l1_bound, ok))
        del words  # one table alive at a time: free it before the next is built
    _write(bundle, cfg.out_dir / "bernstein.csv", "\n".join(rows) + "\n")
    if not all_ok:
        raise NumericalError("magnetic Bernstein bound falsified")


def run_thickness(cfg: RunConfig, bundle: ReportBundle) -> None:
    mask = _load_mask(cfg.params, periodic=cfg.params["periodic"])
    rep = geometry.thickness_scan(mask, cfg.params["l"])
    rows = ["l1,l2,rho_lower,anchor_x,anchor_y",
            _row(*rep.ell, rep.rho_lower, *rep.anchor)]
    bundle.messages.append(f"rho_lower = {rep.rho_lower!r}")
    _write(bundle, cfg.out_dir / "thickness.csv", "\n".join(rows) + "\n")


def _torus_prelude(params):
    """Torus, spectral subspace, mask and rho shared by specineq and control:
    the subspace is cut at 1.001 E when E is given, else the lowest
    n-phi * clusters pairs."""
    from . import lattice

    setup = lattice.TorusSetup.from_flux(params["n-phi"], params["L"], params["N"])
    if "E" in params:
        solve = {"energy": 1.001 * parse_energy(params["E"], setup.B)}
    else:
        solve = {"count": params["n-phi"] * params["clusters"]}
    sub = lattice.eigensolve(lattice.assemble(setup), seed=params["seed"], **solve)
    mask = _load_mask(params, spacing=setup.spacing)
    if mask.cells.shape != tuple(setup.N):
        raise ValidationError("mask grid does not match --N")
    rho = params.get("rho") or geometry.thickness_scan(mask, params["l"]).rho_lower
    if rho <= 0:
        raise NumericalError("mask is not thick at the requested window")
    return setup, sub, mask, rho


def run_specineq(cfg: RunConfig, bundle: ReportBundle) -> None:
    p = cfg.params
    setup, sub, mask, rho = _torus_prelude(p)
    e = parse_energy(p["E"], setup.B)
    c_emp = inequality.empirical_constant(sub, mask)
    log_traced = inequality.theoretical_constant_log(max(e, setup.B), setup.B,
                                                     p["l"], rho)
    ok = math.log(c_emp) <= log_traced
    rows = [
        "E,B,l1,l2,rho,C_emp,log_C_emp,log_C_traced,pass",
        _row(e, setup.B, *p["l"], rho, c_emp, math.log(c_emp), log_traced, ok),
    ]
    _write(bundle, cfg.out_dir / "specineq.csv", "\n".join(rows) + "\n")
    bundle.messages.append(f"C_emp = {c_emp!r}; pass = {str(ok).lower()}")
    if not ok:
        raise NumericalError("spectral inequality bound falsified")


def run_remez(cfg: RunConfig, bundle: ReportBundle) -> None:
    p = cfg.params
    rng = np.random.default_rng(np.random.SeedSequence(p["seed"]))
    n_fail = 0
    rows = ["kind,index,pass"]
    for i in range(p["count"]):
        deg = int(rng.integers(0, p["degree-max"] + 1))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        cuts = np.sort(rng.uniform(0.0, 1.0, size=6))
        intervals = [(cuts[0], cuts[1]), (cuts[2], cuts[3]), (cuts[4], cuts[5])]
        if sum(b - a for a, b in intervals) < 1e-3:
            intervals = [(0.0, 0.5)]
        ok = inequality.remez_check(coeffs, intervals)
        n_fail += not ok
        rows.append(_row("remez", i, ok))
    for i in range(p["count"]):
        deg = int(rng.integers(0, p["degree-max"] + 1))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        if abs(coeffs[-1]) < 1e-9:
            coeffs[-1] = 1.0
        coeffs = coeffs / coeffs[-1]
        cuts = np.sort(rng.uniform(0.0, 1.0, size=4))
        intervals = [(cuts[0], cuts[1]), (cuts[2], cuts[3])]
        if sum(b - a for a, b in intervals) < 1e-3:
            intervals = [(0.0, 0.5)]
        ok = inequality.kovrijkine_check(
            inequality.AnalyticSample(tuple(coeffs)), intervals
        )
        n_fail += not ok
        rows.append(_row("kovrijkine", i, ok))
    _write(bundle, cfg.out_dir / "remez.csv", "\n".join(rows) + "\n")
    bundle.messages.append(f"failures: {n_fail}")
    if n_fail:
        raise NumericalError(f"{n_fail} one-dimensional estimates falsified")


def run_control(cfg: RunConfig, bundle: ReportBundle) -> None:
    from . import control, lattice

    p = cfg.params
    setup, sub, mask, rho = _torus_prelude(p)
    u0 = sub.vectors.conj().T @ lattice.coherent_vector(
        setup, (setup.L[0] / 2, setup.L[1] / 2)
    ).ravel() * setup.spacing[0] * setup.spacing[1]
    form = control.masked_form(sub, mask)  # shared by every horizon
    rows = ["T,rho,l1,l2,B,E_max,hum_cost,log_bound_traced,residual"]
    plot = []
    for idx, t in enumerate(p["T"]):
        problem = control.HeatProblem(sub, mask, t, u0, form)
        res = control.hum_control(problem)
        log_bound = control.cost_bound_log(rho, p["l"], setup.B, t)
        rows.append(_row(t, rho, *p["l"], setup.B, sub.cutoff, res.cost, log_bound,
                         res.terminal_residual))
        plot.append(_row(t, res.cost, sep=" "))
        times, states = control.state_trajectory(problem, res)
        traj_head = "t," + ",".join(
            f"re_{k},im_{k}" for k in range(sub.dim)
        )
        traj_rows = [traj_head]
        for ti, ui in zip(times, states):
            traj_rows.append(_row(ti, *np.column_stack([ui.real, ui.imag]).ravel()))
        _write(bundle, cfg.out_dir / f"trajectory_{idx}.csv",
               "\n".join(traj_rows) + "\n")
        if res.terminal_residual > p["eps-target"]:
            raise NumericalError(
                f"terminal residual {res.terminal_residual:.2e} above target"
            )
    _write(bundle, cfg.out_dir / "control.csv", "\n".join(rows) + "\n")
    _write(bundle, cfg.out_dir / "cost_vs_T.dat", "\n".join(plot) + "\n")


def run_wegner(cfg: RunConfig, bundle: ReportBundle) -> None:
    from . import disorder, lattice

    p = cfg.params
    prof = disorder.fat_cantor_disk_profile((p["cells-per-unit"],) * 2)
    configs = []
    for L in p["L"]:
        n_side = int(round(L)) * p["cells-per-unit"]
        n_phi = p["flux-per-unit"] * int(round(L)) ** 2
        setup = lattice.TorusSetup.from_flux(n_phi, (L, L), (n_side, n_side))
        configs.append(
            disorder.EnsembleConfig(setup, prof, coupling=p["coupling"],
                                    master_seed=p["seed"])
        )
    stats = disorder.wegner_sweep(configs, p["E"], p["eps"], p["trials"])
    s2eps, ratio = stats.s2eps(), stats.ratios()
    rows = ["L,E,eps,mean_count,stderr,s2eps,ratio"] + [
        _row(L, stats.energy, e, stats.mean[i, j], stats.stderr[i, j], s2eps[j],
             ratio[i, j])
        for i, L in enumerate(stats.box_sizes) for j, e in enumerate(stats.eps)
    ]
    _write(bundle, cfg.out_dir / "wegner.csv", "\n".join(rows) + "\n")
    plot = [_row(e, m, sep=" ") for e, m in zip(stats.eps, stats.mean[-1])]
    _write(bundle, cfg.out_dir / "count_vs_eps.dat", "\n".join(plot) + "\n")
    exps = stats.l_exponents()
    exps = ("need two or more distinct --L values" if np.isnan(exps).any()
            else np.round(exps, 3).tolist())
    bundle.messages.append(
        f"L-exponents {exps}; linear_in_eps = {disorder.linear_in_eps(stats)}"
    )


RUNNERS = {
    "fm": run_fm,
    "weyl-verify": run_weyl_verify,
    "bernstein": run_bernstein,
    "thickness": run_thickness,
    "specineq": run_specineq,
    "remez": run_remez,
    "control": run_control,
    "wegner": run_wegner,
}


def run(cfg: RunConfig) -> ReportBundle:
    bundle = ReportBundle()
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    manifest = cfg.out_dir / "manifest.txt"
    manifest.write_text(cfg.manifest_text())
    bundle.files.append(str(manifest))
    RUNNERS[cfg.command](cfg, bundle)
    return bundle


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = parse_config(argv)
        bundle = run(cfg)
    except MagbernError as exc:
        print(f"magbern: error: {exc}", file=sys.stderr)
        return exc.exit_code
    for msg in bundle.messages:
        print(msg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
