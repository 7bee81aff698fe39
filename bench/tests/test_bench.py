"""The benchmark's own tests: python3 -m pytest bench/tests -q (from the repo root)."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _generate(workload, seed, cwd: Path, monkeypatch):
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    invs = workloads.generate(workload, seed, Path("inputs"))
    files = {p.name: p.read_bytes() for p in sorted(Path("inputs").glob("*.pbm"))}
    return [inv.argv for inv in invs], files


# -- generator ---------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(workload, tmp_path, monkeypatch):
    first = _generate(workload, 3, tmp_path / "a", monkeypatch)
    again = _generate(workload, 3, tmp_path / "b", monkeypatch)
    other = _generate(workload, 4, tmp_path / "c", monkeypatch)
    assert first == again
    assert first != other


@pytest.mark.parametrize("seed", range(12))
def test_torus_masks_are_thick_at_the_window(seed):
    rng = workloads._rng("torus-spectral", seed)
    for params in workloads.torus_mask_params(rng):
        for n in workloads.TORUS_GRIDS:
            cells = workloads.rasterize_torus_mask(params, n)
            h = workloads.TORUS_L / n
            rep = checks.thickness_oracle(cells, (h, h), workloads.TORUS_WINDOW, True)
            assert rep["rho_lower"] > 0, (params, n)


@pytest.mark.parametrize("seed", range(2))
def test_thickness_mask_is_thick_at_every_window(seed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    invs = workloads.generate("torus-spectral", seed, Path("inputs"))
    cells = checks.read_pbm_cells("inputs/thick1024.pbm")
    for inv in invs:
        if inv.command == "thickness":
            fl = dict(zip(inv.argv[1::2], inv.argv[2::2]))
            ell = tuple(float(x) for x in fl["--l"].split(","))
            assert ell[0] != int(ell[0]) and ell[1] != int(ell[1])
            rep = checks.thickness_oracle(cells, (1.0, 1.0), ell, fl["--periodic"] == "1")
            assert rep["rho_lower"] > 0


def test_warmup_mask_is_thick(tmp_path):
    workloads.warmups("torus-spectral", tmp_path)
    cells = checks.read_pbm_cells(tmp_path / "warmup16.pbm")
    assert checks.thickness_oracle(cells, (0.5, 0.5), (2.0, 2.0), True)["rho_lower"] > 0


def test_thickness_oracle_matches_brute_force():
    rng = np.random.default_rng(0)
    cells = rng.random((9, 11)) < 0.6
    for periodic in (False, True):
        tiled = np.tile(cells, (2, 2)) if periodic else cells
        n1, n2 = cells.shape if periodic else (9 - 3 + 1, 11 - 4 + 1)
        brute = np.array([[tiled[i:i + 3, j:j + 4].sum() for j in range(n2)]
                          for i in range(n1)])
        rep = checks.thickness_oracle(cells, (1.0, 1.0), (3.0, 4.0), periodic)
        i, j = np.unravel_index(np.argmin(brute), brute.shape)
        assert rep["rho_lower"] == brute.min() / 12.0
        assert rep["anchor"] == (float(i), float(j))


# -- tracing ---------------------------------------------------------------------------


def test_self_time_on_nested_spans():
    spans = [
        ["cli", 0.0, 10.0, -1, "a"],
        ["x", 1.0, 4.0, 0, "a"],
        ["y", 2.0, 3.0, 1, "a"],
        ["z", 5.0, 6.5, 0, "a"],
        ["cli", 20.0, 21.0, -1, "b"],
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 3 - 1.5, 2.0, 1.0, 1.5, 1.0])
    table = tracing.layer_table(spans)
    assert table["cli"] == {"calls": 2, "self_s": pytest.approx(6.5)}


def test_self_time_clips_overlapping_children():
    spans = [["p", 0.0, 4.0, -1, None], ["c", 1.0, 3.0, 0, None], ["d", 2.0, 5.0, 0, None]]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


class _SpyCli:
    """Stands in for magbern.cli; records which wrappers exist during main()."""

    def __init__(self):
        self.seen = []

    def main(self, argv):
        self.seen.append(tracing.installed_wrappers())
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True, exist_ok=True)
        (out / "fm.txt").write_text("t\n")
        return 0


def test_untraced_run_installs_no_wrappers(tmp_path):
    spy = _SpyCli()
    inv = workloads.Invocation("fm_0", ("fm", "--m", "1"))
    p = run.measure(spy, [inv], tmp_path, checks.Checker(tmp_path / "none.json"))
    assert spy.seen == [[]]
    assert p.attempted == 1 and not p.failures


def test_traced_run_installs_and_removes_every_wrapper(tmp_path):
    from magbern import cli, lattice

    spy = _SpyCli()
    inv = workloads.Invocation("fm_0", ("fm", "--m", "1"))
    tracer = tracing.Tracer()
    with tracer.install():
        run.measure(spy, [inv], tmp_path, checks.Checker(tmp_path / "none.json"),
                    tracer=tracer)
        op = lattice.assemble(lattice.TorusSetup.from_flux(1, (4.0, 4.0), (8, 8)))
        assert op.matrix is op.matrix
    names = [name for name, _sites, _observe, _span in tracing.targets()]
    per_site = [name for name, sites, _observe, _span in tracing.targets() for _ in sites]
    assert sorted(spy.seen[0]) == sorted(per_site)
    assert tracing.installed_wrappers() == []
    assert [s[0] for s in tracer.spans if s[0] != tracing.OBSERVE] == [
        "cli", "lattice.assemble", "lattice.matrix"]
    assert len(names) == len(set(names))
    assert cli.main(["fm", "--m", "1", "--out", str(tmp_path / "plain")]) == 0


def test_traced_cli_call_records_nested_spans(tmp_path):
    from magbern import cli

    tracer = tracing.Tracer()
    with tracer.install():
        code, _, _ = run.run_invocation(cli, ["weyl-verify", "--m-max", "2", "--out",
                                              str(tmp_path)], tracer, "w")
    assert code == 0
    names = [s[0] for s in tracer.spans]
    assert names[:2] == ["cli", "cli.parse_config"]
    assert names.count("algebra.verify_recursion") == 2
    nested = [s for s in tracer.spans if s[0] == "algebra.f_poly"]
    assert nested and all(tracer.spans[s[3]][0] == "algebra.verify_recursion" for s in nested)
    assert all(s[4] == "w" for s in tracer.spans)
    assert tracer.counts["cli.bytes_written"] == sum(
        p.stat().st_size for p in tmp_path.iterdir())


# -- checker -----------------------------------------------------------------------------


def _references(workload):
    return json.loads((BENCH / "reference" / f"{workload}.json").read_text())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_references_cover_default_and_held_out_seed(workload):
    ref = _references(workload)
    assert ref["seeds"] == [0, 1]
    assert ref["float_rtol"] == checks.FLOAT_RTOL
    assert checks.self_test(ref["entries"]) == []


def test_checker_catches_flipped_verdict_and_changed_wegner_count():
    rec = next(iter(_references("wegner-mc")["entries"].values()))
    bad = json.loads(json.dumps(rec))
    bad["exact"]["mean_count"][0] += 1.0
    assert checks.compare(bad, rec)
    entries = _references("continuum-exact")["entries"]
    key, rec = next((k, r) for k, r in entries.items() if r["verdicts"].get("pass"))
    bad = json.loads(json.dumps(rec))
    bad["verdicts"]["pass"][3] = False
    assert checks.compare(bad, rec)
    # without a reference, the invariants still reject a failed verdict
    assert checks.Checker(Path("none.json")).invariants(json.loads(key), bad)


def test_wegner_invariants_reject_non_integer_counts():
    fl = {"--L": "4", "--trials": "6"}
    rec = {"exact": {"L": [4.0] * 3, "eps": [0.02, 0.04, 0.08],
                     "mean_count": [1.0, 2.0, 2.5]}}
    assert checks._wegner_invariants(fl, rec) == []
    rec["exact"]["mean_count"][1] = 1.1
    assert checks._wegner_invariants(fl, rec)
    rec["exact"]["mean_count"] = [2.0, 1.0, 3.0]
    assert checks._wegner_invariants(fl, rec)


def test_cli_float_repr_is_parsed():
    assert checks._num("np.float64(2.5)") == 2.5
    assert checks._num("-1e-3") == -1e-3


# -- contract ------------------------------------------------------------------------------


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["bench"]
