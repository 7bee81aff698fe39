"""Command-line surface: parsing, precedence, outputs, exit codes."""

import ctypes
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magbern import disorder, geometry, inequality, landau
from magbern.cli import (REQUIRED, SCHEMAS, RunConfig, _format_value, main, parse_config,
                          parse_energy, read_keyvalue_file)
from magbern.errors import MagbernError, NumericalError, ValidationError
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


@pytest.mark.parametrize("name,content,message", [
    ("missing.cfg", None, "No such file"),
    ("", None, "Is a directory"),  # the config path is tmp_path itself
    ("ff.cfg", b"command = fm\nm = \xff\n", "can't decode byte 0xff"),
    ("nul.cfg", b"command = thickness\nmask = a\x00b\nl = 2,2\n", "embedded null byte"),
], ids=["missing", "directory", "undecodable", "nul-mask"])
def test_unreadable_config_or_mask_path_exits_2(tmp_path, capsys, name, content, message):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("magbern: error:") and message in err


# numbers to put in a value: edge cases, then any float
NUMBER = st.one_of(
    st.sampled_from(["0", "-1", "nan", "inf", "5e-324", "1.7976931348623157e+308"]),
    st.floats().map(repr),
)
# a valid value for each key without a default
GIVEN = {"mask": STRIPS, "l": "2,2", "rho": "0.5"}


def base_value(command, key) -> str:
    default = SCHEMAS[command][key][1]
    if default is None or default is REQUIRED:
        return GIVEN[key]
    return ",".join(map(str, default)) if isinstance(default, tuple) else str(default)


@st.composite
def odd_value(draw, command, key):
    """Text for --key: its base value with one comma item replaced by a
    NUMBER, or any text."""
    if draw(st.booleans()):
        return draw(st.text(max_size=12))
    items = base_value(command, key).split(",")
    items[draw(st.integers(0, len(items) - 1))] = draw(NUMBER)
    return ",".join(items)


@st.composite
def command_lines(draw, command):
    """Flags and the bytes of a config file for `command`.  One or two drawn
    keys get an odd value, as a flag or as a config-file line whose value
    may be any bytes; every other key is left out or given its base value."""
    keys = sorted(SCHEMAS[command])
    odd = draw(st.sets(st.sampled_from(keys), min_size=1, max_size=2))
    flags, lines = [], []
    for key in keys:
        if key in odd:
            value = draw(odd_value(command, key))
        elif key not in ("mask", "l") and draw(st.booleans()):
            continue  # the two required keys are always given
        else:
            value = base_value(command, key)
        if draw(st.booleans()):
            flags += [f"--{key}", value]
        else:
            text = value.encode()
            if key in odd:
                text = draw(st.one_of(st.just(text), st.binary(max_size=8)))
            lines.append(key.encode() + b" = " + text)
    return flags, b"\n".join(lines) + b"\n"


@pytest.mark.parametrize("command", sorted(SCHEMAS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parser_returns_a_config_or_a_magbern_error(tmp_path_factory, command, data):
    flags, text = data.draw(command_lines(command))
    path = tmp_path_factory.getbasetemp() / f"parser-{command}.cfg"
    path.write_bytes(text)
    try:
        cfg = parse_config([command, "--config", str(path)] + flags)
    except MagbernError:
        return
    assert isinstance(cfg, RunConfig) and cfg.command == command


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


# prints how many mapped blocks a 6 MiB array adds once a 16 MiB mapped block
# has been freed, which under glibc's dynamic rule lifts the threshold past it
_MMAP_PROBE = """
import ctypes, sys
import numpy as np
from magbern.cli import main
main(["fm", "--m", "0", "--out", sys.argv[1]])
class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]
mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.argtypes, mallinfo2.restype = (), MallInfo2
big = np.ones(16 << 20, np.uint8)
del big
before = mallinfo2().hblks
grid = np.ones(6 << 20, np.uint8)
print(mallinfo2().hblks - before)
"""


@pytest.mark.skipif(sys.platform != "linux" or not hasattr(ctypes.CDLL(None), "mallinfo2"),
                    reason="needs glibc 2.33 or later")
def test_main_pins_the_mmap_threshold(tmp_path):
    # 4 MiB <= 6 MiB: the block is mapped whatever was freed before it
    proc = _fresh_python("-c", _MMAP_PROBE, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "1"  # after the polynomial fm printed


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


def test_bernstein_draws_no_verdict_from_a_non_finite_sum(tmp_path, capsys, monkeypatch):
    # a nan sum ends the run on the value instead of reporting a falsification
    real_sum = landau.bernstein_sum

    def nan_sum(lf, m):
        return float("nan") if m == 1 else real_sum(lf, m)

    monkeypatch.setattr(landau, "bernstein_sum", nan_sum)
    argv = ["bernstein", "--samples", "1", "--out", str(tmp_path)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "non-finite result nan" in err and "falsified" not in err
    assert not (tmp_path / "bernstein.csv").exists()


def test_bernstein_draws_no_verdict_when_the_grid_misses_the_norm(tmp_path, capsys,
                                                                 monkeypatch):
    # the bounds take ||f||^2 in closed form; a grid sum off by more than
    # NORM_RTOL means the grid does not resolve f, and the sampled L1 sums
    # beside it carry no verdict
    real_norm2 = landau.norm2
    monkeypatch.setattr(landau, "norm2", lambda f: real_norm2(f) * (1 + 2 * landau.NORM_RTOL))
    argv = ["bernstein", "--samples", "1", "--out", str(tmp_path)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "misses the closed form" in err and "no verdict drawn" in err
    assert "np.float64" not in err  # both norms print as plain floats
    assert not (tmp_path / "bernstein.csv").exists()


def test_bernstein_small_field_in_the_float_range_runs(tmp_path):
    assert main(["bernstein", "--B", "1e-20", "--samples", "1", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "bernstein.csv").read_text().splitlines()
    assert len(rows) == 1 + 3 and all(r.endswith("true") for r in rows[1:])


def test_bernstein_draws_no_verdict_on_a_truncated_field(tmp_path, capsys):
    # level-60 modes reach past the 12 magnetic lengths of the covering grid:
    # sums that miss the tail carry no verdict, whatever their rows would read
    argv = ["bernstein", "--levels", "60", "--samples", "3", "--m-max", "2",
            "--out", str(tmp_path)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "boundary truncation mass fraction" in err and "no verdict drawn" in err
    assert (tmp_path / "manifest.txt").exists()
    assert not (tmp_path / "bernstein.csv").exists()


def test_thickness_draws_no_verdict_from_a_non_finite_rho(tmp_path, capsys, monkeypatch):
    real_scan = geometry.thickness_scan

    def nan_scan(mask, ell):
        return dataclasses.replace(real_scan(mask, ell), rho_lower=float("nan"))

    monkeypatch.setattr(geometry, "thickness_scan", nan_scan)
    argv = ["thickness", "--mask", STRIPS, "--l", "8,8", "--out", str(tmp_path)]
    assert main(argv) == 3
    assert "non-finite result nan" in capsys.readouterr().err
    assert not (tmp_path / "thickness.csv").exists()


def test_specineq_draws_no_verdict_from_a_non_finite_constant(tmp_path, capsys,
                                                              monkeypatch):
    monkeypatch.setattr(inequality, "empirical_constant", lambda sub, mask: float("nan"))
    argv = ["specineq", "--mask", STRIPS, "--E", "3B", "--out", str(tmp_path)]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert "non-finite result nan" in err and "falsified" not in err
    assert "pass" not in out
    assert not (tmp_path / "specineq.csv").exists()


def test_control_draws_no_verdict_from_a_non_finite_cost(tmp_path, capsys, monkeypatch):
    from magbern import control

    real = control.hum_control
    monkeypatch.setattr(control, "hum_control",
                        lambda *args: dataclasses.replace(real(*args), cost=float("nan")))
    argv = ["control", "--mask", STRIPS, "--T", "0.5,1", "--out", str(tmp_path)]
    assert main(argv) == 3
    assert "non-finite result nan" in capsys.readouterr().err
    assert not (tmp_path / "control.csv").exists()
    assert not (tmp_path / "cost_vs_T.dat").exists()


def test_wegner_draws_no_verdict_from_a_non_finite_mean(tmp_path, capsys, monkeypatch):
    real = disorder.wegner_sweep

    def nan_sweep(*args):
        stats = real(*args)
        mean = stats.mean.copy()
        mean[-1, 0] = float("nan")
        return dataclasses.replace(stats, mean=mean)

    monkeypatch.setattr(disorder, "wegner_sweep", nan_sweep)
    argv = ["wegner", "--L", "2", "--trials", "2", "--out", str(tmp_path)]
    assert main(argv) == 3
    assert "non-finite result nan" in capsys.readouterr().err
    assert not (tmp_path / "wegner.csv").exists()
    assert not (tmp_path / "count_vs_eps.dat").exists()


@pytest.mark.parametrize("poison", [None, float("nan"), complex(0.0, float("inf"))])
def test_trajectory_rows_are_the_per_cell_rows(tmp_path, capsys, monkeypatch, poison):
    from magbern import control
    from magbern.cli import _row

    real = control.state_trajectory
    seen = []

    def trajectory(*args):
        times, states = real(*args)
        if poison is not None:
            states[5, 1] = poison
        seen.append((times, states))
        return times, states

    def per_cell(t, u):  # a row as `_row` writes it, one cell at a time
        return _row(t, *np.column_stack([u.real, u.imag]).ravel())

    monkeypatch.setattr(control, "state_trajectory", trajectory)
    code = main(["control", "--mask", STRIPS, "--T", "0.5", "--out", str(tmp_path)])
    (times, states), = seen
    if poison is None:
        assert code == 0
        lines = (tmp_path / "trajectory_0.csv").read_text().splitlines()
        assert lines[1:] == [per_cell(t, u) for t, u in zip(times, states)]
    else:
        assert code == 3
        with pytest.raises(NumericalError) as want:
            per_cell(times[5], states[5])
        assert f"magbern: error: {want.value}" in capsys.readouterr().err
        assert not (tmp_path / "trajectory_0.csv").exists()


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


def test_control_forms_the_masked_form_once_per_run(tmp_path, monkeypatch):
    from magbern import control

    real = control.masked_form
    calls = []

    def counted(sub, mask):
        calls.append(sub.dim)
        return real(sub, mask)

    monkeypatch.setattr(control, "masked_form", counted)
    argv = ["control", "--mask", STRIPS, "--T", "0.5,1,2", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert len(calls) == 1
    assert len((tmp_path / "control.csv").read_text().splitlines()) == 4


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


@pytest.mark.parametrize("seed", ["0", "1537630780"])
def test_wegner_outputs_do_not_depend_on_the_workers(tmp_path, capsys, monkeypatch, seed):
    # 7 trials split unevenly over 2 and 3 workers; at seed 1537630780 a
    # shift of L = 8 needs the second ordering
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(disorder, "_default_workers", lambda: workers)
        out = tmp_path / str(workers)
        code = main(["wegner", "--L", "4,8", "--trials", "7", "--seed", seed,
                     "--out", str(out)])
        runs.append((code, capsys.readouterr().out,
                     {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
    assert runs[0][0] == 0
    assert set(runs[0][2]) == {"manifest.txt", "wegner.csv", "count_vs_eps.dat"}
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


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


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_manifest_round_trip(tmp_path, command):
    argv = [command, *SMALL_RUNS[command]]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(argv + ["--out", str(out1)]) == 0
    manifest = str(out1 / "manifest.txt")
    assert parse_config(["--config", manifest]).params == parse_config(argv).params
    assert main(["--config", manifest, "--out", str(out2)]) == 0
    files = sorted(p.name for p in out1.iterdir())
    assert files == sorted(p.name for p in out2.iterdir())
    for name in files:  # the manifest and every result, byte for byte
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_every_default_survives_its_manifest_text(command):
    for key, (parser, default) in SCHEMAS[command].items():
        if default is not None and default is not REQUIRED:
            assert parser(_format_value(default)) == default, key


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
    # a window the parser accepts, so the mask is the only fault
    argv = ["thickness", "--mask", str(path), "--l", "2,2", "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("magbern: error:") and str(path) in err
    assert not (tmp_path / "manifest.txt").exists()


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
    # an energy at or below 0 leaves an empty subspace: refused before the solve
    ["specineq", "--mask", STRIPS, "--E", "-3B"],
    ["specineq", "--mask", STRIPS, "--E", "0"],
    ["specineq", "--mask", STRIPS, "--E", "-0.5"],
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


@pytest.mark.parametrize("argv,message", [
    (["thickness", "--mask", STRIPS, "--l", "1.5,8"], "window smaller than 2 cells"),
    (["thickness", "--mask", STRIPS, "--l", "2.5,8", "--spacing", "2,2"],
     "window smaller than 2 cells"),
    # the cell side of the torus commands is L/N: 8/32 here
    (["specineq", "--mask", STRIPS, "--l", "2,0.45"], "window smaller than 2 cells"),
    (["control", "--mask", STRIPS, "--l", "0.2,2", "--T", "1"],
     "window smaller than 2 cells"),
    # the ensemble scans unit windows, so a unit needs 2 cells
    (["wegner", "--L", "4", "--trials", "2", "--cells-per-unit", "1"],
     "--cells-per-unit '1': must be at least 2"),
], ids=["thickness", "thickness-spacing", "specineq", "control", "wegner"])
def test_window_under_two_cells_exits_2_before_the_manifest(tmp_path, capsys, argv,
                                                             message):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "manifest.txt").exists()


@pytest.mark.parametrize("argv", [
    ["fm", "--m", "1"],
    ["weyl-verify"],
    ["bernstein"],
    ["thickness", "--mask", STRIPS, "--l", "2,2"],
    ["remez"],
    ["wegner"],
])
def test_rho_exits_2_before_the_manifest_where_no_scan_reads_it(tmp_path, capsys, argv):
    assert main(argv + ["--rho", "0.5", "--out", str(tmp_path)]) == 2
    assert "unknown key --rho" in capsys.readouterr().err
    assert not (tmp_path / "manifest.txt").exists()


def test_window_under_two_cells_is_not_scanned_when_rho_is_given(tmp_path):
    argv = ["specineq", "--mask", STRIPS, "--l", "0.2,2", "--rho", "0.5",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    assert (tmp_path / "specineq.csv").exists()


@pytest.mark.parametrize("argv", [
    ["bernstein", "--B", "1e300", "--samples", "1", "--m-max", "1"],
    ["bernstein", "--samples", "1", "--m-max", "80"],
])
def test_oversized_ladder_grid_exits_4(tmp_path, capsys, monkeypatch, argv):
    # both caps are checked on the sizes alone, before any array is allocated:
    # f alone may be sampled, as a one-field table
    def no_words(*args):
        raise AssertionError("a derivative word was built before the cap check")

    real_init = landau._FactoredFields.__init__

    def one_field_only(self, fields, x1, x2):
        fields = list(fields)
        if len(fields) > 1:
            no_words()
        real_init(self, fields, x1, x2)

    monkeypatch.setattr(landau._FactoredFields, "__init__", one_field_only)
    monkeypatch.setattr(landau.LadderField, "magnetic_derivative", no_words)
    assert main(argv + ["--out", str(tmp_path)]) == 4
    assert "complex samples" in capsys.readouterr().err


def test_bernstein_builds_one_word_table_per_row_slab(tmp_path, monkeypatch):
    tables, slabs, envelopes = [], [], []
    real_init, real_rows = landau._FactoredFields.__init__, landau._FactoredFields.rows
    real_factors = landau._envelope_factors

    def counted_init(self, fields, x1, x2):
        fields = list(fields)
        start = len(envelopes)
        real_init(self, fields, x1, x2)
        tables.append((self, fields, envelopes[start:]))
        del envelopes[start:]

    def counted_rows(self, r0=0, r1=None):
        out = real_rows(self, r0, r1)
        slabs.append((self, r0, r1, out.shape))
        return out

    def counted_factors(B, y, x1, x2, sgn=1.0):
        envelopes.append(y)
        return real_factors(B, y, x1, x2, sgn)

    monkeypatch.setattr(landau._FactoredFields, "__init__", counted_init)
    monkeypatch.setattr(landau._FactoredFields, "rows", counted_rows)
    monkeypatch.setattr(landau, "_envelope_factors", counted_factors)
    argv = ["bernstein", "--samples", "2", "--m-max", "3", "--out", str(tmp_path)]
    assert main(argv) == 0
    # per sample: f sampled as a one-field table in one product, then one table
    # of the 2 + 3 + 4 sorted words (no F_m(H) f: the L2 sums are closed-form)
    assert [len(fields) for _, fields, _ in tables] == [1, 9] * 2
    for table, fields, evaluated in tables:
        # each centre's envelope evaluated once per table, whatever the number of slabs
        assert evaluated == list(dict.fromkeys(y for lf in fields for y in lf.terms))
        n1, n2 = len(table.a), table.g.shape[-1]
        ranges = [(r0, r1, shape) for owner, r0, r1, shape in slabs if owner is table]
        if len(fields) == 1:
            assert ranges == [(0, None, (1, n1, n2))]
            continue
        for r0, r1, shape in ranges:
            assert shape == (9, r1 - r0, n2)
            assert r1 - r0 >= 2 and np.prod(shape) <= landau.SLAB_SAMPLES
        assert len(ranges) > 1  # the grid's rows covered slab by slab
        assert [r0 for r0, _, _ in ranges] == [0] + [r1 for _, r1, _ in ranges[:-1]]
        assert ranges[-1][1] == n1
    assert envelopes == []  # no envelope evaluated outside a table


def test_bernstein_peak_memory_stays_near_one_slab(tmp_path):
    # the full table of the 9 words on one sample's ~200 x 200 grid takes
    # ~6 MiB; streamed, one slab of at most 1 MiB is alive beside f and the
    # factors
    argv = ["bernstein", "--samples", "1", "--m-max", "3", "--out", str(tmp_path)]
    assert main(argv) == 0  # first-call caches and imports are not the run's
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("command", ["specineq", "control"])
def test_torus_run_reads_its_mask_and_builds_its_torus_once(tmp_path, monkeypatch, command):
    from magbern import lattice

    reads, setups = [], []
    real_read, real_flux = geometry.read_pbm, lattice.TorusSetup.from_flux

    def counted_read(*args, **kwargs):
        reads.append(args[0])
        return real_read(*args, **kwargs)

    def counted_flux(*args):
        setups.append(args)
        return real_flux(*args)

    monkeypatch.setattr(geometry, "read_pbm", counted_read)
    monkeypatch.setattr(lattice.TorusSetup, "from_flux", staticmethod(counted_flux))
    argv = [command, "--mask", STRIPS, "--out", str(tmp_path)]
    assert main(argv + (["--T", "1"] if command == "control" else [])) == 0
    assert reads == [STRIPS] and len(setups) == 1


@pytest.mark.parametrize("argv", [
    ["wegner", "--L", "0", "--trials", "2"],
    ["wegner", "--L", "2,0", "--trials", "2"],
    ["specineq", "--mask", STRIPS, "--L", "0,8"],
    ["specineq", "--mask", STRIPS, "--L", "-8,8"],
    ["control", "--mask", STRIPS, "--L", "8,0"],
])
def test_non_positive_box_side_exits_2(tmp_path, capsys, argv):
    # the flux B = 2 pi n_phi / (L1 L2) must not be formed from a zero side
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "box sides must be positive" in capsys.readouterr().err
    assert not (tmp_path / "manifest.txt").exists()


def test_wegner_box_past_the_grid_cap_exits_4_before_the_manifest(tmp_path, capsys,
                                                                 monkeypatch):
    def no_profile(*args):
        raise AssertionError("the site profile was built before the cap check")

    monkeypatch.setattr(disorder, "fat_cantor_disk_profile", no_profile)
    big = "4" + "0" * 400
    for argv, grid in [(["--L", "4,1000000"], "5000000 x 5000000"),
                       # a unit cell of 10^12 cells: the cap ends the run before its profile
                       (["--L", "4", "--cells-per-unit", "1000000"], "4000000 x 4000000"),
                       # a side past the float range: the cap ends the run before the
                       # torus set-up divides by it
                       (["--L", "4", "--cells-per-unit", "1" + "0" * 400], f"{big} x {big}")]:
        assert main(["wegner", *argv, "--trials", "2", "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert f"a {grid} Wegner box grid exceeds the cap" in err and "Traceback" not in err
        assert not (tmp_path / "manifest.txt").exists()
    # L = 64 at 5 cells per unit stays within the cap
    monkeypatch.undo()
    cfg = parse_config(["wegner", "--L", "4,64"])
    assert [c.setup.dim for c in cfg.checked["configs"]] == [400, 102400]


def test_window_of_infinitely_many_cells_exits_2_before_the_manifest(tmp_path, capsys):
    argv = ["thickness", "--mask", STRIPS, "--l", "1e308,1e308", "--spacing", "1e-10,1",
            "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "spans inf cells" in capsys.readouterr().err
    assert not (tmp_path / "manifest.txt").exists()


@pytest.mark.parametrize("argv", [
    ["specineq", "--mask", STRIPS, "--l", "1e300,2"],
    ["thickness", "--mask", STRIPS, "--l", "1e300,2", "--periodic", "1"],
], ids=["specineq", "thickness"])
def test_window_padding_past_the_grid_cap_exits_4(tmp_path, capsys, monkeypatch, argv):
    # the cap is checked on the window's sizes, before the manifest, any
    # solve, or the padding of the periodic grid
    def no_pad(*args, **kwargs):
        raise AssertionError("the grid was padded before the cap check")

    monkeypatch.setattr(geometry.np, "pad", no_pad)
    assert main(argv + ["--out", str(tmp_path)]) == 4
    assert "window-count grid that holds it exceeds the cap" in capsys.readouterr().err
    assert not (tmp_path / "manifest.txt").exists()


@pytest.mark.parametrize("command", ["specineq", "control"])
def test_mask_grid_other_than_n_exits_2_before_the_solve(tmp_path, capsys, monkeypatch,
                                                          command):
    from magbern import lattice

    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve ran before the mask grid was checked")

    monkeypatch.setattr(lattice, "eigensolve", no_solve)
    out = tmp_path / "out"
    # STRIPS is a 32 x 32 mask
    assert main([command, "--mask", STRIPS, "--N", "80,80", "--out", str(out)]) == 2
    assert "mask grid does not match --N" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


def test_negative_bernstein_tol_exits_2(tmp_path, capsys):
    argv = ["bernstein", "--tol", "-1", "--samples", "1", "--m-max", "1",
            "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "--tol '-1': must be at least 0" in capsys.readouterr().err
    assert not (tmp_path / "manifest.txt").exists()
    # the same parser guards control's target, before the eigensolve runs
    argv = ["control", "--mask", STRIPS, "--eps-target", "-1", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "--eps-target '-1': must be at least 0" in capsys.readouterr().err
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
    (["control", "--mask", STRIPS, "--T", "0"], "horizon must be positive"),
    (["control", "--mask", STRIPS, "--T", "-1,1"], "horizon must be positive"),
    (["wegner", "--trials", "2", "--eps", "-0.1"], "eps must be positive"),
    (["thickness", "--mask", STRIPS, "--l", "2,2", "--spacing", "0,1"],
     "spacing must be positive"),
    # a cross-key constraint: each box's grid has L * cells-per-unit points a side
    (["wegner", "--trials", "2", "--L", "1", "--cells-per-unit", "2"],
     "need at least 4 grid points per direction"),
    (["wegner", "--trials", "2", "--L", "1,4", "--cells-per-unit", "3"],
     "need at least 4 grid points per direction"),
    # box sides at the ends of the float range, refused by the torus set-up
    (["specineq", "--mask", STRIPS, "--rho", "0.5", "--L", "5e-324,8"],
     "B must be finite and non-negative, got inf"),
    (["specineq", "--mask", STRIPS, "--rho", "0.5", "--L", "1e-300,1e-300"],
     "box area L1*L2 = 0.0 is not a finite positive float"),
    (["specineq", "--mask", STRIPS, "--rho", "0.5", "--L", "1e300,1e300"],
     "box area L1*L2 = inf is not a finite positive float"),
    (["control", "--mask", STRIPS, "--rho", "0.5", "--L", "1e-160,1e10"],
     "1/h^2 is not a finite positive float"),
    (["control", "--mask", STRIPS, "--rho", "0.5", "--L", "1e200,1e-100"],
     "1/h^2 is not a finite positive float"),
    (["specineq", "--mask", STRIPS, "--rho", "0.5", "--n-phi", "1" + "0" * 160,
      "--L", "1e10,1e-150"], "flux quantization violated: B*L1*L2/(2*pi) = inf"),
    # flux counts past the float range
    (["specineq", "--mask", STRIPS, "--n-phi", "1" + "0" * 400],
     "n_phi exceeds the float range"),
    (["control", "--mask", STRIPS, "--n-phi", "1" + "0" * 400],
     "n_phi exceeds the float range"),
    (["wegner", "--L", "4", "--trials", "2", "--flux-per-unit", "1" + "0" * 400],
     "n_phi exceeds the float range"),
    # grid sizes past the float range, refused before the spacing L/N
    (["specineq", "--mask", STRIPS, "--N", "1" + "0" * 400 + ",32"],
     "grid size exceeds the float range"),
    (["control", "--mask", STRIPS, "--N", "32,1" + "0" * 400],
     "grid size exceeds the float range"),
    # fields whose Bernstein sums or bounds leave the float range: (E + 6B)^6
    # underflows to a bound of 0.0, the samples overflow to inf and nan
    (["bernstein", "--samples", "1", "--B", "1e-60", "--m-max", "6"],
     "takes the Bernstein sums out of the float range"),
    (["bernstein", "--samples", "1", "--B", "1e-200"],
     "takes the Bernstein sums out of the float range"),
    (["bernstein", "--samples", "1", "--B", "0.5", "--levels", "1" + "0" * 400],
     "takes the Bernstein sums out of the float range"),
    # B^-10 alone is 1e300, pi 9! 2^10 B^-10 ~ 1e309 overflows ||f||^2
    (["bernstein", "--samples", "5", "--B", "1e-30", "--levels", "9"],
     "takes the Bernstein sums out of the float range"),
    # at the default B = 1: a level past int64 (rng.integers), C(k, p) past the
    # float range (the field table's binomial split) and ||f||^2 = nan
    (["bernstein", "--levels", "100000000000000000000"],
     "takes the Bernstein sums out of the float range"),
    (["bernstein", "--levels", "2000"], "takes the Bernstein sums out of the float range"),
    (["bernstein", "--levels", "1100"], "takes the Bernstein sums out of the float range"),
    # a non-periodic mask holds no window larger than its domain (32 x 32 cells)
    (["thickness", "--mask", STRIPS, "--l", "1000,1000"], "window exceeds the mask domain"),
], ids=["field-2", "field-4", "wegner-L", "control-T", "wegner-eps", "field-0",
        "specineq-N", "specineq-N-small", "control-N-small", "coupling-reversed",
        "coupling-empty", "wegner-L-fraction", "wegner-L-second-fraction",
        "control-T-zero", "control-T-negative", "wegner-eps-negative",
        "thickness-spacing-zero", "wegner-grid-small", "wegner-grid-small-second",
        "specineq-L-subnormal", "specineq-L-area-zero", "specineq-L-area-inf",
        "control-L-hop-overflow", "control-L-hop-underflow", "specineq-flux-overflow",
        "specineq-n-phi-past-float", "control-n-phi-past-float", "wegner-flux-past-float",
        "specineq-N-past-float", "control-N-past-float",
        "bernstein-bound-underflow", "bernstein-sample-overflow", "bernstein-levels-past-float",
        "bernstein-norm-overflow", "bernstein-levels-past-int64",
        "bernstein-levels-binomial-overflow", "bernstein-levels-norm-nan",
        "thickness-window-past-mask"])
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
    assert not (tmp_path / "manifest.txt").exists()


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
