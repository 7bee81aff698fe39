"""Command-line surface: parsing, precedence, outputs, exit codes."""

from pathlib import Path

import numpy as np
import pytest

from magbern import disorder
from magbern.cli import main, parse_config, parse_energy, read_keyvalue_file
from magbern.errors import ValidationError
from magbern.geometry import SetMask, write_pbm

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


def test_negative_bernstein_tol_exits_2(tmp_path, capsys):
    argv = ["bernstein", "--tol", "-1", "--samples", "1", "--m-max", "1",
            "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "tol must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "manifest.txt").exists()


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
