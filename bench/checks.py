"""Output checker: what each CLI invocation must have produced.

Each invocation is reduced to a record of its exit code, verdict columns,
exactly reproducible values, floats and text.  A record is checked two ways:

* against invariants that hold for every seed: exit code 0, every verdict
  as the source paper predicts, thickness values equal to an independent
  window-count oracle, Wegner counts integral and monotone in the window,
  HUM residuals under target and costs non-increasing in the horizon;
* against a recorded reference, when one exists for the same argv and input
  bytes (`reference/<workload>.json` holds the default seed 0 and the
  held-out seed 1; `fm` and `weyl-verify` take no seed, so every seed
  matches).  Verdicts, exit codes, integer-derived values and text must be
  equal; floats (C_emp, Bernstein sums, HUM cost) must agree to FLOAT_RTOL.

FLOAT_RTOL = 1e-6 is loose enough for any eigensolver that returns the same
spectral subspace: on the seed-0 masks at dim 1024 the dense and ARPACK
paths give C_emp and the HUM cost equal to ~1e-14.  It is tight enough to
catch a wrong subspace: swapping one mode of the lowest cluster for the next
eigenvector moved the HUM cost by ~93% and C_emp by up to 9% on the same
masks.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

FLOAT_RTOL = 1e-6
EXACT_RTOL = 1e-12  # integer-derived floats: equal up to formula rounding


def _flags(argv) -> dict:
    return dict(zip(argv[1::2], argv[2::2]))


def _digest(path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()[:20]


def reference_key(argv) -> str:
    """Identity of an invocation: its argv without --out, mask paths replaced
    by a digest of the mask bytes, so equal inputs match across directories."""
    out = [argv[0]]
    for flag, value in _flags(argv).items():
        if flag == "--out":
            continue
        out += [flag, _digest(value) if flag == "--mask" else value]
    return json.dumps(out)


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _bools(rows, col) -> list:
    return [r[col] == "true" for r in rows]


def _num(text: str) -> float:
    # the CLI writes repr() of its values, which numpy 2 renders as np.float64(x)
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _floats(rows, col) -> list:
    return [_num(r[col]) for r in rows]


def extract(argv, out_dir: Path, exit_code: int) -> dict:
    """Reduce one invocation's output directory to a comparable record."""
    rec = {"exit": exit_code, "verdicts": {}, "exact": {}, "floats": {},
           "health": {}, "text": None}
    if exit_code != 0:
        return rec
    cmd = argv[0]
    v, x, f, h = rec["verdicts"], rec["exact"], rec["floats"], rec["health"]
    if cmd == "fm":
        rec["text"] = (out_dir / "fm.txt").read_text()
    elif cmd == "weyl-verify":
        with open(out_dir / "weyl.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        v["recursion_ok"] = [r[1] == "true" for r in rows if r[0] != "weyl3d_counterexample"]
        v["weyl3d_counterexample"] = [r[1] == "true" for r in rows
                                      if r[0] == "weyl3d_counterexample"]
    elif cmd == "bernstein":
        rows = _rows(out_dir / "bernstein.csv")
        v["pass"] = _bools(rows, "pass")
        x["sample,m"] = [[int(r["sample"]), int(r["m"])] for r in rows]
        for col in ("l2_sum", "l2_bound", "l1_sum", "l1_bound"):
            f[col] = _floats(rows, col)
    elif cmd == "thickness":
        rows = _rows(out_dir / "thickness.csv")
        for col in ("l1", "l2", "rho_lower", "anchor_x", "anchor_y"):
            x[col] = _floats(rows, col)
    elif cmd == "specineq":
        rows = _rows(out_dir / "specineq.csv")
        v["pass"] = _bools(rows, "pass")
        for col in ("E", "B", "l1", "l2", "rho"):
            x[col] = _floats(rows, col)
        for col in ("C_emp", "log_C_emp", "log_C_traced"):
            f[col] = _floats(rows, col)
    elif cmd == "remez":
        rows = _rows(out_dir / "remez.csv")
        v["pass"] = _bools(rows, "pass")
        x["kind,index"] = [[r["kind"], int(r["index"])] for r in rows]
    elif cmd == "control":
        rows = _rows(out_dir / "control.csv")
        for col in ("T", "rho", "l1", "l2", "B"):
            x[col] = _floats(rows, col)
        for col in ("E_max", "hum_cost", "log_bound_traced"):
            f[col] = _floats(rows, col)
        h["residual"] = _floats(rows, "residual")
        x["trajectory_rows"] = [
            len(_rows(out_dir / f"trajectory_{i}.csv")) for i in range(len(rows))
        ]
    elif cmd == "wegner":
        rows = _rows(out_dir / "wegner.csv")
        for col in ("L", "E", "eps", "mean_count"):
            x[col] = _floats(rows, col)
        for col in ("stderr", "s2eps", "ratio"):
            f[col] = _floats(rows, col)
    else:
        raise ValueError(f"no extractor for command {cmd!r}")
    return rec


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _flat(values) -> list:
    return list(np.ravel(np.asarray(values, dtype=object)))


def compare(rec: dict, ref: dict) -> list:
    """Problems found comparing a record against its reference."""
    problems = []
    for part in ("exit", "verdicts", "text"):
        if rec[part] != ref[part]:
            problems.append(f"{part}: {rec[part]!r} != reference {ref[part]!r}")
    for part, rtol in (("exact", EXACT_RTOL), ("floats", FLOAT_RTOL)):
        if rec[part].keys() != ref[part].keys():
            problems.append(f"{part} columns differ")
            continue
        for col in ref[part]:
            got, want = _flat(rec[part][col]), _flat(ref[part][col])
            if len(got) != len(want) or not all(
                g == w if isinstance(w, str) else _close(float(g), float(w), rtol)
                for g, w in zip(got, want)
            ):
                problems.append(f"{col}: {rec[part][col]!r} != reference {ref[part][col]!r}")
    return problems


# -- invariants ------------------------------------------------------------------


def read_pbm_cells(path) -> np.ndarray:
    tokens = Path(path).read_text().split()
    if tokens[0] != "P1":
        raise ValueError(f"{path}: not a plain PBM")
    n2, n1 = int(tokens[1]), int(tokens[2])
    return (np.array(tokens[3:3 + n1 * n2]) == "1").reshape(n1, n2)


def _window_cells(ell: float, h: float):
    w = ell / h
    r = round(w)
    if abs(w - r) < 1e-9 * max(1.0, w):
        return int(r), True
    return int(math.floor(w)), False


def _min_window(cells: np.ndarray, w1: int, w2: int, periodic: bool):
    """(min count, argmin index) over w1 x w2 windows, by summing shifted
    copies of the padded grid (a different route from the program's 2-D
    prefix sums)."""
    a = cells.astype(np.int64)
    if periodic:
        a = np.concatenate([a, a[: w1 - 1]], axis=0)
        a = np.concatenate([a, a[:, : w2 - 1]], axis=1)
    rows = sum(a[i: a.shape[0] - w1 + 1 + i] for i in range(w1))
    counts = sum(rows[:, j: rows.shape[1] - w2 + 1 + j] for j in range(w2))
    idx = np.unravel_index(int(np.argmin(counts)), counts.shape)
    return int(counts[idx]), idx


def thickness_oracle(cells: np.ndarray, spacing, ell, periodic: bool) -> dict:
    """rho_lower and anchor of the certified scan, recomputed independently."""
    h1, h2 = spacing
    l1, l2 = ell
    w1, exact1 = _window_cells(l1, h1)
    w2, exact2 = _window_cells(l2, h2)
    count, idx = _min_window(cells, w1, w2, periodic)
    if not (exact1 and exact2):
        count, _ = _min_window(cells, max(w1 - 1, 1), max(w2 - 1, 1), periodic)
    return {"rho_lower": max(0.0, count * (h1 * h2) / (l1 * l2)),
            "anchor": (idx[0] * h1, idx[1] * h2)}


class Checker:
    """Checks records against invariants and the workload's references."""

    def __init__(self, reference_path: Path):
        self.references = {}
        if reference_path.exists():
            self.references = json.loads(reference_path.read_text())["entries"]
        self.reference_hits = 0
        self._oracle_cache = {}

    def _oracle(self, mask: str, spacing, ell, periodic: bool) -> dict:
        key = (_digest(mask), tuple(spacing), tuple(ell), periodic)
        if key not in self._oracle_cache:
            self._oracle_cache[key] = thickness_oracle(read_pbm_cells(mask), spacing, ell,
                                                       periodic)
        return self._oracle_cache[key]

    def check(self, argv, rec: dict) -> list:
        problems = self.invariants(argv, rec)
        ref = self.references.get(reference_key(argv))
        if ref is not None:
            self.reference_hits += 1
            problems += compare(rec, ref)
        return problems

    def invariants(self, argv, rec: dict) -> list:
        if rec["exit"] != 0:
            return [f"exit code {rec['exit']}"]
        problems = []
        for col, values in rec["verdicts"].items():
            want = col != "weyl3d_counterexample"  # R^2(Id) reduces for field (1,1,1)
            if not all(val == want for val in values):
                problems.append(f"verdict {col} is not all {str(want).lower()}")
        cmd, fl, x = argv[0], _flags(argv), rec["exact"]
        if cmd == "thickness":
            ell = tuple(float(p) for p in fl["--l"].split(","))
            want = self._oracle(fl["--mask"], (1.0, 1.0), ell, fl["--periodic"] == "1")
            got = (x["rho_lower"][0], (x["anchor_x"][0], x["anchor_y"][0]))
            if not (_close(got[0], want["rho_lower"], EXACT_RTOL) and got[1] == want["anchor"]):
                problems.append(f"thickness {got} != oracle {want}")
        elif cmd in ("specineq", "control"):
            L = float(fl["--L"].split(",")[0])
            n = int(fl["--N"].split(",")[0])
            ell = tuple(float(p) for p in fl["--l"].split(","))
            want = self._oracle(fl["--mask"], (L / n, L / n), ell, True)["rho_lower"]
            if not all(_close(r, want, EXACT_RTOL) for r in x["rho"]):
                problems.append(f"rho {x['rho']} != oracle {want}")
            if cmd == "specineq" and not rec["floats"]["C_emp"][0] >= 1.0 - 1e-9:
                problems.append("C_emp below 1")
            if cmd == "control":
                problems += _control_invariants(rec)
        elif cmd == "wegner":
            problems += _wegner_invariants(fl, rec)
        return problems


def _control_invariants(rec: dict) -> list:
    problems = []
    if any(not r <= 1e-8 for r in rec["health"]["residual"]):
        problems.append(f"HUM residual {rec['health']['residual']} above 1e-8")
    pairs = sorted(zip(rec["exact"]["T"], rec["floats"]["hum_cost"]))
    costs = [c for _, c in pairs]
    if any(not (math.isfinite(c) and c > 0) for c in costs):
        problems.append(f"HUM cost not positive and finite: {costs}")
    # zero control after an optimal shorter-horizon control is admissible,
    # so the minimal cost cannot grow with the horizon
    if any(b > a * (1 + 1e-6) for a, b in zip(costs, costs[1:])):
        problems.append(f"HUM cost increases with T: {pairs}")
    if any(rows != 65 for rows in rec["exact"]["trajectory_rows"]):
        problems.append("trajectory files do not hold 65 states")
    return problems


WEGNER_WINDOWS = 3  # CLI defaults the workload leaves unset: --eps 0.02,0.04,0.08
CELLS_PER_UNIT = 5  # and --cells-per-unit 5, so dim = (5 L)^2


def _wegner_invariants(fl: dict, rec: dict) -> list:
    problems = []
    trials = int(fl["--trials"])
    x = rec["exact"]
    sizes = [float(s) for s in fl["--L"].split(",")]
    if len(x["L"]) != len(sizes) * WEGNER_WINDOWS:
        return [f"wegner rows {len(x['L'])} != {len(sizes)} sizes x {WEGNER_WINDOWS} windows"]
    by_size = {}
    for L, eps, mean in zip(x["L"], x["eps"], x["mean_count"]):
        total = mean * trials
        if abs(total - round(total)) > 1e-9 * max(1.0, total):
            problems.append(f"mean count {mean} x {trials} trials is not an integer")
        if mean > (CELLS_PER_UNIT * L) ** 2:
            problems.append(f"mean count {mean} exceeds the operator dimension")
        by_size.setdefault(L, []).append((eps, mean))
    for L, pts in by_size.items():
        means = [m for _, m in sorted(pts)]
        if any(b < a for a, b in zip(means, means[1:])):
            problems.append(f"counts at L={L} shrink as the window widens")
    return problems


def corrupted(rec: dict) -> list:
    """Copies of `rec` with one planted error each: a flipped verdict, a
    changed Wegner count, a changed float; empty if `rec` has none of them."""
    out = []
    for col, values in rec["verdicts"].items():
        if values:
            bad = copy.deepcopy(rec)
            bad["verdicts"][col][0] = not values[0]
            out.append(bad)
    if rec["exact"].get("mean_count"):
        bad = copy.deepcopy(rec)
        bad["exact"]["mean_count"][0] += 1.0
        out.append(bad)
    for col, values in rec["floats"].items():
        if values:
            bad = copy.deepcopy(rec)
            bad["floats"][col][0] = values[0] * (1 + 100 * FLOAT_RTOL)
            out.append(bad)
            break
    return out


def self_test(references: dict) -> list:
    """Problems with the checker itself: every planted error in every
    reference record must be caught by `compare`."""
    problems = []
    for key, rec in references.items():
        if compare(rec, rec):
            problems.append(f"reference {key} does not match itself")
        for bad in corrupted(rec):
            if not compare(bad, rec):
                problems.append(f"corrupted copy of {key} passed the check")
    return problems
