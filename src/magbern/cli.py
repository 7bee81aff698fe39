"""Batch command-line surface: `magbern <command> [--key value]... [--config file]`.

Config files and manifests share the same plain-text `key = value` format
with `#` comments; command-line flags override file values; unknown commands
or keys exit with code 2, falsified checks with 3, resource caps with 4.
Every run writes a manifest echoing the resolved configuration, and the
manifest alone re-runs the experiment via `--config`.

`parse_config` is the one input layer.  Every numeric key goes through one
parser, `_numbers`; a range that a model constructor checks before the
manifest is left to that constructor; and every input a runner needs (the
mask, the torus set-up, the Wegner ensembles) is read or built there, before
the manifest is written.  A runner only computes and writes.
"""

from __future__ import annotations

import ctypes
import math
import sys
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

# the torus modules load scipy: only the commands that solve on the lattice
# (specineq, control, wegner) import them, inside their runners and checks
from . import algebra, geometry, inequality, landau
from .errors import MagbernError, NumericalError, ValidationError


def _numbers(kind=float, count=1, least=None, positive=None, most=None):
    """Parser for `count` comma-separated numbers of `kind` (count None: one
    or more, empty items skipped): finite floats, each at least `least`, at
    most `most`, and > 0 where `positive` names them.  One number comes back
    bare, more as a tuple."""
    def parse(text: str):
        parts = str(text).split(",")
        if count is None:
            parts = [p for p in parts if p.strip()]
            if not parts:
                raise ValueError("expected one or more comma-separated numbers")
        elif len(parts) != count:
            raise ValueError(f"expected {count} comma-separated value(s), got {len(parts)}")
        values = tuple(kind(p) for p in parts)
        if kind is float and not all(map(math.isfinite, values)):
            raise ValueError("must be finite")
        if positive and not min(values) > 0:
            raise ValueError(f"{positive} must be positive")
        if least is not None and min(values) < least:
            raise ValueError(f"must be at least {least}")
        if most is not None and max(values) > most:
            raise ValueError(f"must be at most {most}")
        return values[0] if count == 1 else values
    return parse


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
    raise ValueError("expected a boolean")


def parse_energy(text: str, b_value: float) -> float:
    """Energy values accept a 'B' multiplier suffix: '3B' means 3*B."""
    s = str(text).strip()
    if s.lower().endswith("b"):
        head = s[:-1].strip()
        return (float(head) if head else 1.0) * b_value
    return float(s)


def _energy_text(text: str) -> str:
    """Keep the text (a 'B' suffix needs the field), but reject it now unless
    it parses to a finite positive energy (B > 0 keeps the sign of '3B')."""
    if not 0.0 < parse_energy(text, 1.0) < math.inf:
        raise ValueError("must be a finite positive energy")
    return text


_INT0, _INT1 = _numbers(int, least=0), _numbers(int, least=1)
_PAIR = _numbers(count=2)
_WINDOW = _numbers(count=2, positive="window sides")
_RHO = _numbers(positive="rho", most=1)
REQUIRED = object()  # the default of a key that must be given

# command -> {key: (parser, default)}; a None default leaves the key out.
# A range that a model constructor checks before the manifest (a grid of at
# least 4 points, a box of positive or integer sides, m0 < M0) is left to it
SCHEMAS = {
    "fm": {"m": (_INT0, 2)},
    "weyl-verify": {
        "m-max": (_INT1, 6),
        "field": (_parse_field, (1, 1, 1)),
        "max-terms": (_INT1, 10**6),
    },
    "bernstein": {
        "B": (_numbers(positive="B"), 1.0),
        "m-max": (_INT1, 3),
        "samples": (_INT1, 5),
        "levels": (_INT0, 2),
        "seed": (_INT0, 0),
        "tol": (_numbers(least=0), 1e-4),
    },
    "thickness": {
        "mask": (str, REQUIRED),
        "l": (_WINDOW, REQUIRED),
        "spacing": (_numbers(count=2, positive="spacing"), (1.0, 1.0)),
        "periodic": (_parse_bool, False),
    },
    "specineq": {
        "mask": (str, REQUIRED),
        "E": (_energy_text, "B"),
        "n-phi": (_INT0, 2),
        "L": (_PAIR, (8.0, 8.0)),
        "N": (_numbers(int, 2), (32, 32)),
        "l": (_WINDOW, (2.0, 2.0)),
        "rho": (_RHO, None),
        "seed": (_INT0, 0),  # no effect: the ring solve draws no random numbers
    },
    "remez": {
        "count": (_INT1, 200),
        "degree-max": (_INT0, 10),
        "seed": (_INT0, 0),
    },
    "control": {
        "mask": (str, REQUIRED),
        "n-phi": (_INT1, 2),
        "L": (_PAIR, (8.0, 8.0)),
        "N": (_numbers(int, 2), (32, 32)),
        "T": (_numbers(count=None, positive="horizon"), (0.5, 1.0, 2.0)),
        "l": (_WINDOW, (2.0, 2.0)),
        "eps-target": (_numbers(least=0), 1e-8),
        "clusters": (_INT1, 2),
        "rho": (_RHO, None),
        "seed": (_INT0, 0),  # no effect, as for specineq; kept so old manifests re-run
    },
    "wegner": {
        "L": (_numbers(count=None), (4.0, 8.0)),
        "cells-per-unit": (_numbers(int, least=2), 5),
        "flux-per-unit": (_INT0, 1),
        "E": (_numbers(), 6.30),
        "eps": (_numbers(count=None, positive="eps"), (0.02, 0.04, 0.08)),
        "trials": (_numbers(int, least=2), 200),
        "coupling": (_PAIR, (0.0, 1.0)),
        "seed": (_INT0, 0),
    },
}

GLOBAL_KEYS = {"out": (str, ".")}


@dataclass
class RunConfig:
    command: str
    params: dict
    out_dir: Path
    # what parse_config built from params before the manifest (the mask, the
    # torus set-up, the Wegner ensembles), handed on to the runner; the
    # manifest echoes params alone
    checked: dict = field(default_factory=dict)

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


def read_keyvalue_file(path) -> dict:
    """`key = value` lines of a UTF-8 file; ValidationError when it cannot be
    read or decoded, or a line is not of that form."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, ValueError) as exc:  # ValueError: undecodable bytes, a NUL in the path
        raise ValidationError(f"{path}: cannot read config: {exc}") from exc
    out = {}
    for lineno, raw in enumerate(lines, 1):
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
        except (ValueError, ArithmeticError) as exc:
            raise ValidationError(f"cannot parse --{key} {value!r}: {exc}") from exc
    for key, (_parser, default) in schema.items():
        if key not in params:
            if default is REQUIRED:
                raise ValidationError(f"command {command!r} requires --{key}")
            if default is not None:
                params[key] = default
    # everything a runner reads is built here, before the manifest: a window
    # the thickness scan would refuse, a box the torus refuses, an unreadable
    # mask, or a field whose Bernstein sums can leave the float range ends the
    # run first
    checked: dict = {}
    if command == "thickness":
        checked = {"mask": geometry.read_pbm(params["mask"], spacing=params["spacing"],
                                             periodic=params["periodic"])}
        geometry.mask_window(checked["mask"], params["l"])
    elif command in ("specineq", "control"):
        from . import lattice

        # the torus cell side is L/N
        setup = lattice.TorusSetup.from_flux(params["n-phi"], params["L"], params["N"])
        if "rho" not in params:  # a given --rho skips the scan
            geometry.snap_window(params["l"], setup.spacing)
        mask = geometry.read_pbm(params["mask"], spacing=setup.spacing, periodic=True)
        if mask.cells.shape != params["N"]:
            raise ValidationError("mask grid does not match --N")
        checked = {"setup": setup, "mask": mask}
    elif command == "wegner":
        from . import disorder, lattice

        # box L is a grid of L x cells-per-unit points per side, with
        # flux-per-unit quanta per unit area
        cells = params["cells-per-unit"]
        sizes = [(round(L) * cells,) * 2 for L in params["L"]]
        for n in sizes:  # on the sizes alone, before the set-up and the cells^2 profile
            disorder.check_box_grid(n)
        setups = [lattice.TorusSetup.from_flux(params["flux-per-unit"] * round(L) ** 2, (L, L), n)
                  for L, n in zip(params["L"], sizes)]
        prof = disorder.fat_cantor_disk_profile((cells, cells))
        checked = {"configs": [disorder.EnsembleConfig(setup, prof, coupling=params["coupling"],
                                                       master_seed=params["seed"])
                               for setup in setups]}
    elif command == "bernstein":
        # three sizes stay within 10^300 of 1, 8 decades left for |c|^2 and the
        # bounds' B-free factors: B^m (m <= m-max) in the bounds, C(k, p) <= 2^k
        # in the binomial split of the field table, and ||f||^2 ~ pi k! (2/B)^(k+1)
        # |c|^2 at the top level k = levels, which also bounds the basis w^k f_y
        # on the grid.  The ints are compared, not multiplied, so a --m-max or
        # --levels past the float range neither overflows nor reaches lgamma
        k, decades = params["levels"], math.log10(params["B"])
        if (abs(decades) > 300 / params["m-max"] or k > 300 / math.log10(2.0)
                or (k + 1) * (math.log10(2.0) - decades) + math.log10(math.pi)
                + math.lgamma(k + 1) / math.log(10.0) > 300):
            raise ValidationError(
                f"--B {params['B']!r} takes the Bernstein sums out of the float range "
                f"at --m-max {params['m-max']}, --levels {k} "
                f"(B^{params['m-max']}, C(k, p) <= 2^k or ||f||^2 ~ pi k! (2/B)^(k+1) "
                f"past 1e300)")
    out_dir = Path(params.pop("out", "."))
    return RunConfig(command=command, params=params, out_dir=out_dir, checked=checked)


# -- command runners --------------------------------------------------------------


def _row(*cells, sep: str = ",") -> str:
    """One CSV (or whitespace .dat) row: floats as repr(float), ints as
    decimal, bools as true/false, whatever their numpy or Python type.

    A non-finite float ends the run: a verdict beside it would rest on it."""
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
    text = sep.join(out)
    for c, o in zip(cells, out):
        if isinstance(c, (float, np.floating)) and not math.isfinite(c):
            raise NumericalError(f"non-finite result {o} in row {text!r}: no verdict drawn")
    return text


def _write(bundle: ReportBundle, path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    bundle.files.append(str(path))


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
        sol = "; ".join(f"H^{k}*B^{j}:{algebra.i_power_text(v, j)}"
                        for (k, j), v in sorted(red.solution.items()))
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
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # the boundary-margin check
            try:
                l1_sums = landau.l1_bernstein_sums(f, cfg.params["m-max"])
            except UserWarning as exc:  # the sums miss the truncated tail
                raise NumericalError(f"{exc}: no verdict drawn") from None
        n2 = landau.checked_norm2(f)  # after the margin check: a truncated grid reports that
        for m, l1 in enumerate(l1_sums, 1):
            l2 = landau.bernstein_sum(lf, m)
            l2_bound = float(algebra.bernstein_constant(m, e, b, "L2")) * n2
            l1_bound = float(algebra.bernstein_constant(m, e, b, "L1")) * n2
            ok = l2 <= l2_bound * (1 + tol) and l1 <= l1_bound * (1 + 10 * tol)
            all_ok &= ok
            rows.append(_row(s, m, l2, l2_bound, l1, l1_bound, ok))
    _write(bundle, cfg.out_dir / "bernstein.csv", "\n".join(rows) + "\n")
    if not all_ok:
        raise NumericalError("magnetic Bernstein bound falsified")


def run_thickness(cfg: RunConfig, bundle: ReportBundle) -> None:
    rep = geometry.thickness_scan(cfg.checked["mask"], cfg.params["l"])
    rows = ["l1,l2,rho_lower,anchor_x,anchor_y",
            _row(*rep.ell, rep.rho_lower, *rep.anchor)]
    bundle.messages.append(f"rho_lower = {rep.rho_lower!r}")
    _write(bundle, cfg.out_dir / "thickness.csv", "\n".join(rows) + "\n")


def _torus_prelude(cfg: RunConfig):
    """Torus, spectral subspace, mask and rho shared by specineq and control:
    the subspace is cut at 1.001 E when E is given, else the lowest
    n-phi * clusters pairs."""
    from . import lattice

    params, setup, mask = cfg.params, cfg.checked["setup"], cfg.checked["mask"]
    if "E" in params:
        solve = {"energy": 1.001 * parse_energy(params["E"], setup.B)}
    else:
        solve = {"count": params["n-phi"] * params["clusters"]}
    sub = lattice.eigensolve(lattice.assemble(setup), **solve)
    rho = params.get("rho") or geometry.thickness_scan(mask, params["l"]).rho_lower
    if rho <= 0:
        raise NumericalError("mask is not thick at the requested window")
    return setup, sub, mask, rho


def run_specineq(cfg: RunConfig, bundle: ReportBundle) -> None:
    p = cfg.params
    setup, sub, mask, rho = _torus_prelude(cfg)
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


def _random_polynomial(rng, degree_max: int, n_intervals: int):
    """A complex polynomial of random degree <= degree_max (highest degree
    first) and n_intervals disjoint subintervals of [0, 1], replaced by
    [0, 0.5] when they measure under 1e-3."""
    deg = int(rng.integers(0, degree_max + 1))
    coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
    cuts = np.sort(rng.uniform(0.0, 1.0, size=2 * n_intervals))
    intervals = list(zip(cuts[::2], cuts[1::2]))
    if sum(b - a for a, b in intervals) < 1e-3:
        intervals = [(0.0, 0.5)]
    return coeffs, intervals


def run_remez(cfg: RunConfig, bundle: ReportBundle) -> None:
    p = cfg.params
    rng = np.random.default_rng(np.random.SeedSequence(p["seed"]))
    n_fail = 0
    rows = ["kind,index,pass"]
    for i in range(p["count"]):
        ok = inequality.remez_check(*_random_polynomial(rng, p["degree-max"], 3))
        n_fail += not ok
        rows.append(_row("remez", i, ok))
    for i in range(p["count"]):
        coeffs, intervals = _random_polynomial(rng, p["degree-max"], 2)
        if abs(coeffs[-1]) < 1e-9:
            coeffs[-1] = 1.0
        ok = inequality.kovrijkine_check(coeffs / coeffs[-1], intervals)  # P(0) = 1
        n_fail += not ok
        rows.append(_row("kovrijkine", i, ok))
    _write(bundle, cfg.out_dir / "remez.csv", "\n".join(rows) + "\n")
    bundle.messages.append(f"failures: {n_fail}")
    if n_fail:
        raise NumericalError(f"{n_fail} one-dimensional estimates falsified")


def run_control(cfg: RunConfig, bundle: ReportBundle) -> None:
    from . import control, lattice

    p = cfg.params
    setup, sub, mask, rho = _torus_prelude(cfg)
    u0 = sub.vectors.conj().T @ lattice.coherent_vector(
        setup, (setup.L[0] / 2, setup.L[1] / 2)
    ).ravel() * setup.spacing[0] * setup.spacing[1]
    form = control.masked_form(sub, mask)  # one form for every horizon
    rows = ["T,rho,l1,l2,B,E_max,hum_cost,log_bound_traced,residual"]
    plot = []
    for idx, t in enumerate(p["T"]):
        res = control.hum_control(form, sub.eigenvalues, u0, t)
        log_bound = control.cost_bound_log(rho, p["l"], setup.B, t)
        rows.append(_row(t, rho, *p["l"], setup.B, sub.cutoff, res.cost, log_bound,
                         res.terminal_residual))
        plot.append(_row(t, res.cost, sep=" "))
        times, states = control.state_trajectory(form, sub.eigenvalues, u0, t,
                                                 res.dual_state)
        # t, re_0, im_0, re_1, ...: one float table, checked once, as _row writes it
        table = np.column_stack(
            [times, np.stack([states.real, states.imag], axis=-1).reshape(len(times), -1)])
        finite = np.isfinite(table).all(axis=1)
        if not finite.all():
            _row(*table[np.argmin(finite)])  # raises _row's non-finite error
        traj_rows = ["t," + ",".join(f"re_{k},im_{k}" for k in range(sub.dim))]
        traj_rows += [",".join(map(repr, row)) for row in table.tolist()]
        _write(bundle, cfg.out_dir / f"trajectory_{idx}.csv",
               "\n".join(traj_rows) + "\n")
        if res.terminal_residual > p["eps-target"]:
            raise NumericalError(
                f"terminal residual {res.terminal_residual:.2e} above target"
            )
    _write(bundle, cfg.out_dir / "control.csv", "\n".join(rows) + "\n")
    _write(bundle, cfg.out_dir / "cost_vs_T.dat", "\n".join(plot) + "\n")


def run_wegner(cfg: RunConfig, bundle: ReportBundle) -> None:
    from . import disorder

    p = cfg.params
    stats = disorder.wegner_sweep(cfg.checked["configs"], p["E"], p["eps"], p["trials"])
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
    if sys.platform == "linux":
        # glibc lifts its mmap threshold to each freed mapped block's size, so large
        # grids then land in whatever heap holes earlier commands left, and one
        # process's peak RSS moved ~5 MB between identical runs: pin the thresholds
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD: blocks from 4 MiB up are mapped
        mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD: twice that, as glibc's rule pairs them
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
