"""Command-line surface: parsing, precedence, outputs, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from magbern import disorder, landau
from magbern.cli import main, parse_config, parse_energy, read_keyvalue_file
from magbern.errors import ValidationError
from magbern.geometry import SetMask
from util_fields import write_pbm

DATA = Path(__file__).parent / "data"
STRIPS = str(DATA / "strips.pbm")


# -- parsing -----------------------------------------------------------------


def test_parse_command_and_flags():
    cfg = parse_config(["fm", "--m", "6"])
    assert cfg.command == "fm"
    assert cfg.params["m"] == 6


def test_flag_overrides_config_file(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("# comment\nm = 3\n")
    cfg = parse_config(["fm", "--config", str(f), "--m", "6"])
    assert cfg.params["m"] == 6
    cfg2 = parse_config(["fm", "--config", str(f)])
    assert cfg2.params["m"] == 3


def test_unknown_command_and_key_rejected():
    with pytest.raises(ValidationError):
        parse_config(["frobnicate"])
    with pytest.raises(ValidationError):
        parse_config(["fm", "--mm", "3"])
    with pytest.raises(ValidationError):
        parse_config(["fm", "--m"])  # missing value


def test_rho_validation():
    with pytest.raises(ValidationError):
        parse_config(["specineq", "--mask", "x.pbm", "--rho", "1.5"])


def test_energy_multiplier_syntax():
    assert parse_energy("3B", 2.0) == 6.0
    assert parse_energy("B", 2.0) == 2.0
    assert parse_energy("1.5", 2.0) == 1.5


def test_keyvalue_reader_rejects_garbage(tmp_path):
    f = tmp_path / "bad.cfg"
    f.write_text("just some words\n")
    with pytest.raises(ValidationError):
        read_keyvalue_file(f)


# -- commands -----------------------------------------------------------------


def test_fm_prints_polynomial(tmp_path, capsys):
    code = main(["fm", "--m", "2", "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "t^2 + 2*B^2"
    assert (tmp_path / "fm.txt").read_text().strip() == "t^2 + 2*B^2"
    assert "command = fm" in (tmp_path / "manifest.txt").read_text()


def test_unknown_command_exit_code(capsys):
    assert main(["bogus"]) == 2
    assert "error" in capsys.readouterr().err


def test_weyl_verify_records_reduction(tmp_path, capsys):
    code = main(["weyl-verify", "--m-max", "3", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "reduction exists" in out  # power-2 solve is consistent (see notes)
    csv = (tmp_path / "weyl.csv").read_text().splitlines()
    assert csv[0] == "m,recursion_ok"
    assert all(line.endswith("true") for line in csv[1:4])


def _fresh_python(*args):
    """Run a fresh interpreter with this checkout's src first on the path."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_weyl_verify_term_cap_binds_in_the_sweep(tmp_path):
    # R^m(Id) outgrows 10 monomials within the sweep: exit 4 with the cap on
    # stderr, no traceback and no weyl.csv
    proc = _fresh_python("-m", "magbern.cli", "weyl-verify", "--m-max", "12",
                         "--max-terms", "10", "--out", str(tmp_path))
    assert proc.returncode == 4
    assert "cap of 10 monomials" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "weyl.csv").exists()


# runs each argv (JSON, argument 2) through main with --out argument 1, then
# prints the exit codes and the scipy modules loaded by then
_SCIPY_PROBE = """
import json, sys
from magbern.cli import main
codes = [main([*argv, "--out", sys.argv[1]]) for argv in json.loads(sys.argv[2])]
print(json.dumps([codes, sorted(m for m in sys.modules
                                if m == "scipy" or m.startswith("scipy."))]))
"""


def _scipy_probe(out, argvs):
    proc = _fresh_python("-c", _SCIPY_PROBE, str(out), json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_continuum_commands_never_load_scipy(tmp_path):
    codes, loaded = _scipy_probe(tmp_path, [
        ["fm", "--m", "0"],
        ["weyl-verify", "--m-max", "1"],
        ["bernstein", "--m-max", "1", "--samples", "1", "--levels", "0"],
        ["remez", "--count", "1", "--degree-max", "0"],
    ])
    assert codes == [0, 0, 0, 0]
    assert loaded == []


def test_lattice_commands_still_load_scipy(tmp_path):
    # the probe sees scipy when a command does solve on the lattice
    codes, loaded = _scipy_probe(tmp_path, [["specineq", "--mask", STRIPS]])
    assert codes == [0]
    assert "scipy.linalg" in loaded


def test_thickness_on_bundled_strips(tmp_path, capsys):
    code = main([
        "thickness", "--mask", STRIPS, "--l", "8,8", "--periodic", "1",
        "--out", str(tmp_path),
    ])
    assert code == 0
    rows = (tmp_path / "thickness.csv").read_text().splitlines()
    assert rows[0] == "l1,l2,rho_lower,anchor_x,anchor_y"
    assert float(rows[1].split(",")[2]) == pytest.approx(0.5)


def test_specineq_on_bundled_strips(tmp_path):
    code = main([
        "specineq", "--mask", STRIPS, "--E", "3B", "--out", str(tmp_path),
    ])
    assert code == 0
    rows = (tmp_path / "specineq.csv").read_text().splitlines()
    header = rows[0].split(",")
    vals = rows[1].split(",")
    row = dict(zip(header, vals))
    assert row["pass"] == "true"
    assert float(row["log_C_emp"]) <= float(row["log_C_traced"])


def test_specineq_void_mask_exits_numerical(tmp_path, capsys):
    cells = np.zeros((32, 32), dtype=bool)
    cells[0, 0] = True
    bad = tmp_path / "sparse.pbm"
    write_pbm(SetMask(cells, (1.0, 1.0)), bad)
    code = main([
        "specineq", "--mask", str(bad), "--out", str(tmp_path / "o"),
    ])
    assert code == 3


def test_remez_command(tmp_path):
    code = main(["remez", "--count", "8", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "remez.csv").read_text().splitlines()
    assert rows[0] == "kind,index,pass"
    assert len(rows) == 1 + 16


def test_bernstein_command(tmp_path):
    code = main([
        "bernstein", "--samples", "2", "--m-max", "2", "--out", str(tmp_path),
    ])
    assert code == 0
    rows = (tmp_path / "bernstein.csv").read_text().splitlines()
    assert rows[0].startswith("sample,m,")
    assert all(r.endswith("true") for r in rows[1:])


def test_control_command(tmp_path):
    code = main([
        "control", "--mask", STRIPS, "--T", "1.0", "--out", str(tmp_path),
    ])
    assert code == 0
    rows = (tmp_path / "control.csv").read_text().splitlines()
    assert rows[0].startswith("T,rho,")
    assert float(rows[1].split(",")[-1]) <= 1e-8
    dat = (tmp_path / "cost_vs_T.dat").read_text().split()
    assert len(dat) == 2


def test_wegner_command_reproducible(tmp_path):
    args = [
        "wegner", "--L", "4", "--trials", "4", "--eps", "0.05,0.1",
        "--E", "6.3",
    ]
    code = main(args + ["--out", str(tmp_path / "a")])
    assert code == 0
    code = main(args + ["--out", str(tmp_path / "b")])
    assert code == 0
    a = (tmp_path / "a" / "wegner.csv").read_bytes()
    b = (tmp_path / "b" / "wegner.csv").read_bytes()
    assert a == b
    assert (tmp_path / "a" / "count_vs_eps.dat").exists()


def test_manifest_round_trip(tmp_path):
    out1 = tmp_path / "r1"
    assert main(["fm", "--m", "5", "--out", str(out1)]) == 0
    out2 = tmp_path / "r2"
    assert main(["--config", str(out1 / "manifest.txt"), "--out", str(out2)]) == 0
    assert (out1 / "fm.txt").read_bytes() == (out2 / "fm.txt").read_bytes()
    assert (out1 / "manifest.txt").read_bytes() == (out2 / "manifest.txt").read_bytes()

# -- output format ---------------------------------------------------------------

SMALL_RUNS = {
    "fm": ["--m", "3"],
    "weyl-verify": ["--m-max", "2"],
    "bernstein": ["--samples", "1", "--m-max", "1"],
    "thickness": ["--mask", STRIPS, "--l", "8.5,8.5"],
    "specineq": ["--mask", STRIPS],
    "remez": ["--count", "3"],
    "control": ["--mask", STRIPS, "--T", "0.5,1"],
    "wegner": ["--L", "2", "--trials", "2", "--eps", "0.1,0.2"],
}
HEADERS = {
    "weyl.csv": "m,recursion_ok",
    "bernstein.csv": "sample,m,l2_sum,l2_bound,l1_sum,l1_bound,pass",
    "thickness.csv": "l1,l2,rho_lower,anchor_x,anchor_y",
    "specineq.csv": "E,B,l1,l2,rho,C_emp,log_C_emp,log_C_traced,pass",
    "remez.csv": "kind,index,pass",
    "control.csv": "T,rho,l1,l2,B,E_max,hum_cost,log_bound_traced,residual",
    "wegner.csv": "L,E,eps,mean_count,stderr,s2eps,ratio",
}
OUTPUTS = {
    "fm": {"fm.txt"},
    "weyl-verify": {"weyl.csv"},
    "bernstein": {"bernstein.csv"},
    "thickness": {"thickness.csv"},
    "specineq": {"specineq.csv"},
    "remez": {"remez.csv"},
    "control": {"control.csv", "cost_vs_T.dat", "trajectory_0.csv", "trajectory_1.csv"},
    "wegner": {"wegner.csv", "count_vs_eps.dat"},
}


def _plain_cell(cell: str) -> bool:
    if cell in ("true", "false") or cell.isidentifier():
        return True
    try:
        float(cell)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_command_outputs_are_plain_rows(tmp_path, command):
    assert main([command, *SMALL_RUNS[command], "--out", str(tmp_path)]) == 0
    files = {p.name for p in tmp_path.iterdir()} - {"manifest.txt"}
    assert files == OUTPUTS[command]
    for name in files:
        text = (tmp_path / name).read_text()
        assert "np." not in text
        lines = text.splitlines()
        if name.endswith(".dat"):
            assert all(len(line.split(" ")) == 2 for line in lines)
            cells = [c for line in lines for c in line.split(" ")]
        elif name.endswith(".csv"):
            header = lines[0].split(",")
            if name.startswith("trajectory_"):
                k = (len(header) - 1) // 2
                assert header == ["t"] + [f"{p}_{i}" for i in range(k) for p in ("re", "im")]
            else:
                assert lines[0] == HEADERS[name]
            assert len(lines) > 1
            assert all(len(line.split(",")) == len(header) for line in lines[1:])
            cells = [c for line in lines[1:] for c in line.split(",")]
        else:
            continue
        assert all(_plain_cell(c) for c in cells)


@pytest.mark.parametrize("name,content", [
    ("missing.pbm", None),
    ("letters.pbm", "P1\nx 2\n1 1\n"),
    ("short.pbm", "P1\n4"),
    ("negative.pbm", "P1\n-1 -1\n1\n"),
    ("binary.pbm", b"\xff\xfe\x00"),
    ("digit.pbm", "P1\n2 2\n1 2\n0 1\n"),
    ("letter.pbm", "P1\n2 2\n1 0\n0 x\n"),
])
def test_unreadable_mask_exits_2(tmp_path, capsys, name, content):
    path = tmp_path / name
    if isinstance(content, str):
        path.write_text(content)
    elif content is not None:
        path.write_bytes(content)
    argv = ["thickness", "--mask", str(path), "--l", "1,1", "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("magbern: error:") and str(path) in err


@pytest.mark.parametrize("argv", [
    ["control", "--mask", STRIPS, "--clusters", "0"],
    ["remez", "--degree-max", "-1"],
    ["remez", "--count", "-1"],
    ["remez", "--count", "0"],
    ["bernstein", "--samples", "0"],
    ["bernstein", "--m-max", "-1"],
    ["bernstein", "--m-max", "0"],
    ["bernstein", "--levels", "-1"],
    ["weyl-verify", "--m-max", "-1"],
    ["weyl-verify", "--m-max", "0"],
    ["weyl-verify", "--max-terms", "0"],
    ["weyl-verify", "--max-terms", "-5"],
    ["control", "--mask", STRIPS, "--n-phi", "0"],
    ["wegner", "--L", "2", "--trials", "2", "--cells-per-unit", "-1"],
    ["specineq", "--mask", STRIPS, "--n-phi", "-1"],
    ["fm", "--m", "-1"],
    ["wegner", "--L", "2", "--trials", "1"],
    ["bernstein", "--B", "-1"],
    ["bernstein", "--B", "0"],
    ["wegner", "--L", "2", "--trials", "2", "--flux-per-unit", "-1"],
    ["bernstein", "--seed", "-1"],
    ["remez", "--count", "1", "--seed", "-1"],
    ["wegner", "--L", "2", "--trials", "2", "--seed", "-1"],
    ["specineq", "--mask", STRIPS, "--seed", "-1"],
    ["control", "--mask", STRIPS, "--seed", "-1"],
])
def test_count_key_below_range_exits_2(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("magbern: error:") and argv[-2] in err
    assert not (tmp_path / "manifest.txt").exists()


@pytest.mark.parametrize("argv", [
    ["thickness", "--mask", STRIPS, "--l", "0,0"],
    ["thickness", "--mask", STRIPS, "--l", "2,-1"],
    ["specineq", "--mask", STRIPS, "--rho", "0.5", "--l", "0,0"],
    ["control", "--mask", STRIPS, "--rho", "0.5", "--T", "1", "--l", "-2,2"],
])
def test_non_positive_window_side_exits_2(tmp_path, capsys, argv):
    # with --rho given no thickness scan runs, so the parser is the only check
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "--l" in err and "window sides must be positive" in err
    assert not (tmp_path / "manifest.txt").exists()


@pytest.mark.parametrize("argv", [
    ["bernstein", "--B", "1e300", "--samples", "1", "--m-max", "1"],
    ["bernstein", "--samples", "1", "--m-max", "40"],
])
def test_oversized_ladder_grid_exits_4(tmp_path, capsys, monkeypatch, argv):
    # both caps are checked on the sizes alone, before any array is allocated
    def no_words(*args):
        raise AssertionError("a derivative word was built before the cap check")

    monkeypatch.setattr(landau, "sample_table", no_words)
    monkeypatch.setattr(landau.LadderField, "magnetic_derivative", no_words)
    assert main(argv + ["--out", str(tmp_path)]) == 4
    assert "complex samples" in capsys.readouterr().err


def test_bernstein_builds_one_word_table_per_sample(tmp_path, monkeypatch):
    tables, envelopes = [], []
    real_table, real_factors = landau.sample_table, landau._envelope_factors

    def counted_table(fields, grid):
        tables.append((len(fields), list(fields[0].terms)))
        return real_table(fields, grid)

    def counted_factors(B, y, x1, x2):
        envelopes.append(y)
        return real_factors(B, y, x1, x2)

    monkeypatch.setattr(landau, "sample_table", counted_table)
    monkeypatch.setattr(landau, "_envelope_factors", counted_factors)
    argv = ["bernstein", "--samples", "2", "--m-max", "3", "--out", str(tmp_path)]
    assert main(argv) == 0
    # per sample: one table of the 2 + 4 + 8 derivative words, which evaluates
    # each centre's envelope once, whatever the number of words
    assert [n for n, _ in tables] == [14, 14]
    assert envelopes == [y for _, centres in tables for y in centres]


@pytest.mark.parametrize("argv", [
    ["wegner", "--L", "0", "--trials", "2"],
    ["wegner", "--L", "2,0", "--trials", "2"],
    ["specineq", "--mask", STRIPS, "--L", "0,8"],
])
def test_non_positive_box_side_exits_2(tmp_path, capsys, argv):
    # the flux B = 2 pi n_phi / (L1 L2) must not be formed from a zero side
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "box sides must be positive" in capsys.readouterr().err


def test_negative_bernstein_tol_exits_2(tmp_path, capsys):
    argv = ["bernstein", "--tol", "-1", "--samples", "1", "--m-max", "1",
            "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "tol must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "manifest.txt").exists()
    # the same parser guards control's target, before the eigensolve runs
    argv = ["control", "--mask", STRIPS, "--eps-target", "-1", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "--eps-target must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "manifest.txt").exists()


@pytest.mark.parametrize("argv,message", [
    (["weyl-verify", "--field", "1,1"], "expected three components"),
    (["weyl-verify", "--field", "1,1,1,1"], "expected three components"),
    (["wegner", "--L", ","], "one or more"),
    (["control", "--mask", STRIPS, "--T", ","], "one or more"),
    (["wegner", "--eps", ","], "one or more"),
    (["weyl-verify", "--field", "0,0,0"], "must not all vanish"),
    (["specineq", "--mask", STRIPS, "--N", "32.7,32"], "invalid literal for int()"),
    # constraints of the models, refused by the key's parser before the manifest
    (["specineq", "--mask", STRIPS, "--N", "0,32"],
     "need at least 4 grid points per direction"),
    (["control", "--mask", STRIPS, "--N", "32,3"],
     "need at least 4 grid points per direction"),
    (["wegner", "--L", "2", "--trials", "2", "--coupling", "1,0"], "need m0 < M0"),
    (["wegner", "--L", "2", "--trials", "2", "--coupling", "0.5,0.5"], "need m0 < M0"),
    (["wegner", "--trials", "2", "--L", "4.5"],
     "box sides must be integers (site lattice Z^2)"),
    (["wegner", "--trials", "2", "--L", "4,8.25"],
     "box sides must be integers (site lattice Z^2)"),
], ids=["field-2", "field-4", "wegner-L", "control-T", "wegner-eps", "field-0",
        "specineq-N", "specineq-N-small", "control-N-small", "coupling-reversed",
        "coupling-empty", "wegner-L-fraction", "wegner-L-second-fraction"])
def test_malformed_list_exits_2(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("magbern: error:") and message in err
    assert not (tmp_path / "manifest.txt").exists()


@pytest.mark.parametrize("sizes", ["2", "2,2"])
def test_wegner_one_box_prints_no_nan(tmp_path, capsys, sizes):
    # one box size is a valid run, but an exponent in L needs two or more
    assert main(["wegner", "--L", sizes, "--trials", "2", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "nan" not in out.lower()
    assert "L-exponents need two or more distinct --L values" in out


def test_wegner_rejects_zero_eps_before_any_trial(tmp_path, capsys, monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("trials ran before eps was validated")

    monkeypatch.setattr(disorder, "window_counts_for_trials", no_trials)
    argv = ["wegner", "--L", "4", "--trials", "20", "--eps", "0,0.1",
            "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "eps must be positive" in capsys.readouterr().err


# -- non-finite input ------------------------------------------------------------

NEEDS_MASK = ("thickness", "specineq", "control")
FLOAT_KEYS = [  # (command, key, value template)
    ("bernstein", "B", "{}"),
    ("bernstein", "tol", "{}"),
    ("thickness", "l", "{},8"),
    ("thickness", "spacing", "1,{}"),
    ("specineq", "E", "{}"),
    ("specineq", "E", "{}B"),
    ("specineq", "L", "{},8"),
    ("specineq", "l", "2,{}"),
    ("specineq", "rho", "{}"),
    ("control", "L", "8,{}"),
    ("control", "T", "1,{}"),
    ("control", "l", "{},2"),
    ("control", "eps-target", "{}"),
    ("control", "rho", "{}"),
    ("wegner", "L", "4,{}"),
    ("wegner", "E", "{}"),
    ("wegner", "eps", "0.1,{}"),
    ("wegner", "coupling", "0,{}"),
]


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("command,key,template", FLOAT_KEYS)
def test_non_finite_value_exits_2(tmp_path, capsys, command, key, template, bad):
    argv = [command, f"--{key}", template.format(bad), "--out", str(tmp_path)]
    if command in NEEDS_MASK:
        argv += ["--mask", STRIPS]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("magbern: error:")
    assert not (tmp_path / "manifest.txt").exists()
