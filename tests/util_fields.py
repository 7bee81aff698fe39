"""Shared construction helpers for test fields and mask files."""

import numpy as np

from magbern.landau import GridField, LadderField, norm2


def random_ladder(rng, B=1.0, n_terms=3, max_level=2, box=1.5):
    """Random combination of chiral Landau modes with levels <= max_level."""
    terms = {}
    for _ in range(n_terms):
        y = (rng.uniform(-box, box), rng.uniform(-box, box))
        k = rng.integers(0, max_level + 1)
        c = rng.normal() + 1j * rng.normal()
        dst = terms.setdefault(y, {})
        dst[int(k)] = dst.get(int(k), 0.0) + c
    return LadderField(B, terms)


def eval_on_grid(lf: LadderField, grid: GridField) -> GridField:
    """`lf` sampled on the grid of `grid` by `LadderField.eval`, tagged."""
    return GridField(lf.eval(*grid.axes()), grid.origin, grid.spacing, ladder=lf)


def oracle_word_fields(f: GridField, m_max: int) -> dict:
    """The full table of all 2^(m_max+1) - 1 derivative words, every word
    sampled from scratch by `LadderField.eval`, one grid evaluation per word."""
    out = {(): f}
    frontier = {(): f}
    for _ in range(m_max):
        nxt = {}
        for word, g in frontier.items():
            for axis in (1, 2):
                nxt[word + (axis,)] = eval_on_grid(g.ladder.magnetic_derivative(axis), g)
        out.update(nxt)
        frontier = nxt
    return out


def oracle_bernstein_sum(words: dict, m: int) -> float:
    """Sum of the squared L2 norms of the 2^m words of length m in a full
    `oracle_word_fields` table."""
    return sum(norm2(g) for w, g in words.items() if len(w) == m)


def full_mod2_derivative_word(words: dict, alpha: tuple) -> np.ndarray:
    """d^alpha |f|^2 from all 2^m subsequences beta of alpha, read from a
    full `oracle_word_fields` table:
    (-i)^m sum_beta (-1)^(m-|beta|) (md^beta f) conj(md^(alpha\\beta) f),
    as a complex array."""
    m = len(alpha)
    total = 0
    for mask in range(1 << m):
        sel = tuple(alpha[i] for i in range(m) if mask >> i & 1)
        com = tuple(alpha[i] for i in range(m) if not mask >> i & 1)
        total = total + (-1) ** (m - len(sel)) * words[sel].samples * np.conj(words[com].samples)
    return ((-1j) ** m) * total


def rng_stream(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def write_pbm(mask, path) -> None:
    """Plain PBM (P1) of a SetMask, the round-trip partner of
    `geometry.read_pbm`: 1 = cell in the set; height = N1 rows, width = N2
    columns."""
    n1, n2 = mask.cells.shape
    with open(path, "w") as fh:
        fh.write(f"P1\n{n2} {n1}\n")
        for row in mask.cells:
            fh.write(" ".join("1" if v else "0" for v in row) + "\n")
