"""Seeded workload generators: CLI argv lists and the PBM masks they read.

Every input comes from the workload seed alone.  Scalar draws use
`random.Random` (its stream is fixed across Python versions) and masks are
rasterized from those scalars with plain numpy arithmetic, so the same seed
gives byte-identical argv and PBM files on any machine.  All paths in an argv
are relative to the directory the benchmark runs from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TORUS_L = 8.0  # side of the torus box for `specineq` and `control`
TORUS_WINDOW = (2.0, 2.0)  # thickness window the torus masks must satisfy
TORUS_GRIDS = (32, 48, 80)  # operator dims 1024 (dense), 2304 and 6400 (ARPACK)
THICK_SIDE = 1024  # cells per side of the `thickness` mask
THICK_PERIOD_MAX = 30  # strip rows recur at least this often in that mask


@dataclass(frozen=True)
class Invocation:
    """One CLI call: `key` names it within the workload, `argv` excludes --out."""

    key: str
    argv: tuple

    @property
    def command(self) -> str:
        return self.argv[0]

    def full_argv(self, out_root: Path) -> list:
        return list(self.argv) + ["--out", str(out_root / self.key)]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


# -- masks ---------------------------------------------------------------------


def write_pbm(cells: np.ndarray, path: Path) -> None:
    """Plain PBM (P1): height = rows = first index, 1 = cell in the set."""
    n1, n2 = cells.shape
    body = "\n".join(" ".join(row) for row in np.where(cells, "1", "0"))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f"P1\n{n2} {n1}\n{body}\n")


def torus_mask_params(rng: random.Random) -> list:
    """Strip, checkerboard and disk-complement families, each periodic on the
    8 x 8 torus and thick at the 2 x 2 window on every grid in TORUS_GRIDS."""
    return [
        # stripes of period 8/k, width 35-60% of the period
        {"family": "strip", "k": rng.choice((4, 5, 6, 8)),
         "width": rng.uniform(0.35, 0.6), "axis": rng.randrange(2),
         "phase": rng.random()},
        # blocks of side 8/k with k even, so the colouring closes on the torus
        {"family": "checkerboard", "k": rng.choice((6, 8, 10, 12)),
         "phase": (rng.random(), rng.random())},
        # one hole per 8/k cell; radius < 0.9 so no 2 x 2 window fits inside
        {"family": "disk_complement", "k": rng.choice((2, 3, 4)),
         "radius_frac": rng.uniform(0.25, 0.45),
         "phase": (rng.random(), rng.random())},
    ]


def rasterize_torus_mask(params: dict, n: int) -> np.ndarray:
    """Cells of an n x n grid on [0, 8)^2 whose centres lie in the set."""
    h = TORUS_L / n
    x = (np.arange(n) + 0.5) * h
    x1, x2 = x[:, None], x[None, :]
    period = TORUS_L / params["k"]
    family = params["family"]
    if family == "strip":
        u = x1 if params["axis"] == 0 else x2
        frac = (u / period + params["phase"]) % 1.0
        cells = np.broadcast_to(frac < params["width"], (n, n))
    elif family == "checkerboard":
        i = np.floor(x1 / period + params["phase"][0])
        j = np.floor(x2 / period + params["phase"][1])
        cells = (i + j) % 2 == 0
    elif family == "disk_complement":
        radius = min(params["radius_frac"] * period, 0.9)
        d1 = ((x1 / period + params["phase"][0]) % 1.0 - 0.5) * period
        d2 = ((x2 / period + params["phase"][1]) % 1.0 - 0.5) * period
        cells = d1 * d1 + d2 * d2 >= radius * radius
    else:
        raise ValueError(f"unknown mask family {family!r}")
    return np.ascontiguousarray(cells, dtype=bool)


def thickness_mask(rng: random.Random) -> np.ndarray:
    """1024^2 cells: random 16 x 16 blocks over strip rows that recur every
    `period` <= THICK_PERIOD_MAX rows, so every window of at least that many
    rows holds a strip row."""
    blocks = THICK_SIDE // 16
    bits = [rng.random() < 0.55 for _ in range(blocks * blocks)]
    base = np.kron(np.array(bits, dtype=bool).reshape(blocks, blocks),
                   np.ones((16, 16), dtype=bool))
    period = rng.randrange(12, THICK_PERIOD_MAX + 1)
    width = rng.randrange(2, 5)
    offset = rng.randrange(period)
    rows = ((np.arange(THICK_SIDE) + offset) % period < width)[:, None]
    return base | rows


# -- workloads -------------------------------------------------------------------


def _torus_spectral(rng: random.Random, inputs: Path) -> list:
    out = []
    for m, params in enumerate(torus_mask_params(rng)):
        for n in TORUS_GRIDS:
            pbm = inputs / f"torus{m}_{params['family']}_{n}.pbm"
            write_pbm(rasterize_torus_mask(params, n), pbm)
            common = ("--mask", str(pbm), "--L", f"{TORUS_L:g},{TORUS_L:g}", "--n-phi", "2",
                      "--N", f"{n},{n}", "--l", "{:g},{:g}".format(*TORUS_WINDOW))
            out.append(Invocation(f"specineq_m{m}_n{n}",
                                  ("specineq",) + common + ("--E", "3B", "--seed", _seed(rng))))
            out.append(Invocation(f"control_m{m}_n{n}",
                                  ("control",) + common + ("--T", "0.5,1,2", "--seed", _seed(rng))))
    pbm = inputs / "thick1024.pbm"
    write_pbm(thickness_mask(rng), pbm)
    for i in range(4):
        # window sides off the cell multiples, so the certified sub-cell path runs
        l1 = rng.randrange(THICK_PERIOD_MAX + 2, 64) + rng.uniform(0.1, 0.9)
        l2 = rng.randrange(THICK_PERIOD_MAX + 2, 64) + rng.uniform(0.1, 0.9)
        out.append(Invocation(f"thickness_{i}",
                              ("thickness", "--mask", str(pbm), "--l", f"{l1!r},{l2!r}",
                               "--periodic", str(i % 2))))
    return out


def _wegner_mc(rng: random.Random, inputs: Path) -> list:
    return [
        Invocation(f"wegner_{i}", ("wegner", "--L", "4,8", "--trials", "6",
                                   "--E", "6.30", "--seed", _seed(rng)))
        for i in range(2)
    ]


def _continuum_exact(rng: random.Random, inputs: Path) -> list:
    out = [
        Invocation(f"bernstein_{i}", ("bernstein", "--samples", "5", "--m-max", "3",
                                      "--seed", _seed(rng)))
        for i in range(2)
    ]
    out += [
        Invocation(f"remez_{i}", ("remez", "--count", "100", "--seed", _seed(rng)))
        for i in range(2)
    ]
    out.append(Invocation("weyl_verify", ("weyl-verify", "--m-max", "12")))
    out += [Invocation(f"fm_{i}", ("fm", "--m", "24")) for i in range(4)]
    return out


WORKLOADS = {
    "torus-spectral": _torus_spectral,
    "wegner-mc": _wegner_mc,
    "continuum-exact": _continuum_exact,
}


def generate(workload: str, seed: int, inputs: Path) -> list:
    """Write the workload's input files under `inputs`; return its invocations."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return WORKLOADS[workload](_rng(workload, seed), inputs)


COMMANDS = {
    "torus-spectral": ("specineq", "control", "thickness"),
    "wegner-mc": ("wegner",),
    "continuum-exact": ("bernstein", "remez", "weyl-verify", "fm"),
}


def warmups(workload: str, inputs: Path) -> list:
    """One invocation of each of the workload's commands at its smallest config."""
    pbm = inputs / "warmup16.pbm"
    write_pbm(rasterize_torus_mask({"family": "checkerboard", "k": 8, "phase": (0.0, 0.0)}, 16),
              pbm)
    torus = ("--mask", str(pbm), "--N", "16,16", "--n-phi", "1")
    small = {
        "specineq": ("specineq",) + torus + ("--E", "3B"),
        "control": ("control",) + torus + ("--T", "1"),
        "thickness": ("thickness", "--mask", str(pbm), "--l", "4.5,4.5"),
        "wegner": ("wegner", "--L", "2", "--trials", "2"),
        "bernstein": ("bernstein", "--samples", "1", "--m-max", "1"),
        "remez": ("remez", "--count", "1"),
        "weyl-verify": ("weyl-verify", "--m-max", "1"),
        "fm": ("fm", "--m", "1"),
    }
    return [Invocation(f"warmup_{c}", small[c]) for c in COMMANDS[workload]]
