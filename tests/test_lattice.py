"""Discretized torus Landau operator: flux, spectra, magnetic translations."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from magbern import lattice
from magbern.errors import NumericalError, ResourceLimitError, ValidationError
from magbern.lattice import (
    SpectralSubspace,
    TorusSetup,
    assemble,
    dense_matrix,
    eigensolve,
    validate_flux,
)
from util_fields import rng_stream


def small_setup(n_phi=2, L=4.0, N=16):
    return TorusSetup.from_flux(n_phi, (L, L), (N, N))


def oracle_eigensolve(op, energy=None, count=None):
    """The 2-D solve the ring solve replaced: a subset dense `eigh` of the
    whole operator."""
    setup = op.setup
    h1, h2 = setup.spacing
    window = ({"subset_by_index": (0, min(count, setup.dim) - 1)} if count
              else {"subset_by_value": (-np.inf, energy)})
    evals, evecs = scipy.linalg.eigh(dense_matrix(op.matrix), **window)
    cutoff = energy if energy is not None else evals[-1]
    return SpectralSubspace(setup, evals, evecs / np.sqrt(h1 * h2), float(cutoff))


def sparse_sum_matrix(op):
    """The construction `MagneticOperator.matrix` replaced: COO hops to CSR,
    then a + a^H + diag."""
    n1, n2 = op.setup.N
    h1, h2 = op.setup.spacing
    dim = n1 * n2
    idx = np.arange(dim).reshape(n1, n2)
    rows, cols, vals = [], [], []
    for target, phases, weight in [(np.roll(idx, -1, axis=0), op.u1, 1.0 / h1**2),
                                   (np.roll(idx, -1, axis=1), op.u2, 1.0 / h2**2)]:
        rows.append(idx.ravel())
        cols.append(target.ravel())
        vals.append(-phases.ravel() * weight)
    a = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )
    d = np.full(dim, 2.0 / h1**2 + 2.0 / h2**2)
    if op.diag is not None:
        d = d + op.diag.ravel()
    return (a + a.conj().T + sp.diags(d)).tocsr()


def ring_setup(setup, potential=None):
    """(rings' modes, v1) as `eigensolve` forms them."""
    n1, n2 = setup.N
    n_phi = setup.n_phi
    g = math.gcd(n_phi, n2)
    modes = (np.arange(g)[:, None] - n_phi * np.arange(n2 // g)[None, :]) % n2
    return modes, np.zeros(n1) if potential is None else potential


def ring_matrix(setup, modes, v1):
    """A ring as a CSC matrix, built apart from `_ring_diagonal`: periodic
    tridiagonal, every hop -1/h1^2."""
    n1, n2 = setup.N
    h1, h2 = setup.spacing
    phi = setup.B * h1 * h2
    d = (2.0 / h1**2 + 2.0 / h2**2 + v1[None, :]
         - (2.0 / h2**2) * np.cos(2 * np.pi * modes[:, None] / n2
                                  - phi * np.arange(n1)[None, :]))
    m = d.size
    hop = np.full(m - 1, -1.0 / h1**2)
    return sp.diags([d.ravel(), hop, hop, hop[:1], hop[:1]], [0, 1, -1, m - 1, 1 - m],
                    format="csc")


def projector_gap(a, b):
    cell = a.setup.spacing[0] * a.setup.spacing[1]
    pa = a.vectors @ a.vectors.conj().T
    pb = b.vectors @ b.vectors.conj().T
    return np.max(np.abs(pa - pb)) * cell


# -- setup validation -----------------------------------------------------------


def test_flux_quantization_enforced():
    with pytest.raises(ValidationError):
        TorusSetup(L=(4.0, 4.0), B=0.5, N=(16, 16))
    ok = small_setup()
    assert ok.n_phi == 2


def test_flux_conventions():
    # the area convention: B*L1*L2 in 2*pi*Z
    assert validate_flux(2 * np.pi * 3 / 16.0, (4.0, 4.0))
    assert not validate_flux(0.7, (4.0, 4.0))


def test_minimum_resolution():
    with pytest.raises(ValidationError):
        TorusSetup(L=(4.0, 4.0), B=0.0, N=(3, 8))


# -- assembly ---------------------------------------------------------------------


def test_zero_field_gives_ordinary_periodic_laplacian():
    setup = TorusSetup(L=(4.0, 4.0), B=0.0, N=(8, 8))
    op = assemble(setup)
    m = op.matrix
    assert np.abs(m.sum(axis=1)).max() < 1e-13  # row sums vanish
    sub = eigensolve(op, count=1)
    assert sub.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
    v = sub.vectors[:, 0]
    assert np.std(np.abs(v)) < 1e-10  # constant eigenvector


def plaquette_phases(op):
    """Product of link phases around every plaquette (counterclockwise)."""
    u1, u2 = op.u1, op.u2
    return u1 * np.roll(u2, -1, axis=0) * np.conj(np.roll(u1, -1, axis=1)) * np.conj(u2)


def test_plaquette_phases_carry_constant_flux():
    setup = small_setup(n_phi=3, L=6.0, N=24)
    op = assemble(setup)
    phi = setup.B * setup.spacing[0] * setup.spacing[1]
    expected = np.exp(-1j * phi)
    assert np.max(np.abs(plaquette_phases(op) - expected)) < 1e-13


def test_operator_is_exactly_hermitian():
    setup = small_setup(n_phi=2, L=4.0, N=12)
    rng = rng_stream(41)
    op = assemble(setup, potential=rng.uniform(0, 1, size=(12, 12)))
    diff = (op.matrix - op.matrix.conj().T).tocoo()
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0


def test_constant_potential_shifts_spectrum():
    setup = small_setup()
    base = eigensolve(assemble(setup), count=4).eigenvalues
    shifted = eigensolve(
        assemble(setup, potential=np.full(setup.N, 0.7)), count=4
    ).eigenvalues
    assert np.allclose(shifted, base + 0.7, atol=1e-10)


# -- spectra ----------------------------------------------------------------------


@pytest.mark.parametrize("n_phi", [2, 4, 6])
def test_lowest_cluster_degeneracy_equals_flux_quanta(n_phi):
    setup = TorusSetup.from_flux(n_phi, (6.0, 6.0), (48, 48))
    assert max(setup.spacing) * np.sqrt(setup.B) <= 1 / 7.5
    op = assemble(setup)
    sub = eigensolve(op, count=n_phi + 3)
    ev = sub.eigenvalues
    b = setup.B
    assert ev[n_phi - 1] - ev[0] < 0.5 * b  # the lowest n_phi form one cluster
    assert ev[n_phi] - ev[n_phi - 1] > b  # gap to the next cluster
    assert abs(np.mean(ev[:n_phi]) - b) < 0.15 * b
    # next cluster sits near 3B
    assert abs(ev[n_phi] - 3 * b) < 0.5 * b


def test_lowest_cluster_converges_at_second_order():
    errs = []
    for n in (24, 48):
        setup = TorusSetup.from_flux(2, (6.0, 6.0), (n, n))
        sub = eigensolve(assemble(setup), count=2)
        errs.append(abs(np.mean(sub.eigenvalues) - setup.B))
    assert 2.5 < errs[0] / errs[1] < 6.0


@pytest.mark.parametrize("n_grid,solve", [
    (4, {"count": 16}),
    (4, {"energy": 1e6}),
    (8, {"energy": 1e6}),
])
def test_request_beyond_arpack_cap_is_solved_dense(n_grid, solve):
    # a request for every pair of a ring (ARPACK's old cap was M - 2 of them)
    # brings the whole spectrum back
    setup = TorusSetup.from_flux(1, (4.0, 4.0), (n_grid, n_grid))
    op = assemble(setup)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # energy=1e6 is above the trusted band
        sub = eigensolve(op, **solve)
    full = np.linalg.eigvalsh(op.matrix.toarray())
    assert sub.dim == setup.dim
    assert np.allclose(sub.eigenvalues, full, atol=1e-9)


def test_dense_request_above_the_cap_is_refused(monkeypatch):
    # a ring block of M x pairs past DENSE_DIM_CAP^2 entries must raise
    # (exit 4) before it is allocated: 16 x 16 against 15^2
    op = assemble(TorusSetup.from_flux(1, (4.0, 4.0), (4, 4)))
    monkeypatch.setattr(lattice, "DENSE_DIM_CAP", op.setup.dim - 1)
    with mock.patch.object(lattice, "dstein", side_effect=AssertionError("allocated")), \
            pytest.raises(ResourceLimitError, match="cap is dim 15") as exc:
        eigensolve(op, count=16)
    assert exc.value.exit_code == 4
    with warnings.catch_warnings(), pytest.raises(ResourceLimitError, match="16 x 16"):
        warnings.simplefilter("ignore")  # by energy, on the counted block
        eigensolve(op, energy=float(np.linalg.eigvalsh(op.matrix.toarray())[-1]) + 1.0)
    # n_phi 2 splits the same grid into two translated rings of length 8, of
    # which ring 0 alone is solved for 8 pairs: the cap bounds the ring
    # block, not the 2-D dim
    two_rings = assemble(TorusSetup.from_flux(2, (4.0, 4.0), (4, 4)))
    monkeypatch.setattr(lattice, "DENSE_DIM_CAP", 8)
    assert eigensolve(two_rings, count=16).dim == 16
    monkeypatch.setattr(lattice, "DENSE_DIM_CAP", 7)
    with pytest.raises(ResourceLimitError, match="cap is dim 7"):
        eigensolve(two_rings, count=16)


def test_potential_varying_along_x2_is_rejected():
    setup = small_setup(n_phi=2, L=4.0, N=8)
    potential = np.zeros(setup.N)
    potential[3, 5] = 0.1
    with pytest.raises(ValidationError, match="constant along x2"):
        eigensolve(assemble(setup, potential=potential), count=2)


def test_perturbed_link_phase_fails_the_residual_gate():
    # the rings are built from the gauge of `assemble`; the residual against
    # op.matrix is what catches an operator with other link phases
    setup = small_setup(n_phi=2, L=4.0, N=16)
    op = assemble(setup)
    op.u2[5, 7] *= np.exp(0.3j)
    with pytest.raises(NumericalError, match="residual"):
        eigensolve(op, count=4)


@settings(max_examples=40, deadline=None)
@given(
    n_phi=st.integers(0, 6),
    n1=st.integers(5, 12),
    n2=st.integers(5, 12),
    sides=st.tuples(st.sampled_from([3.0, 4.0, 5.5]), st.sampled_from([3.0, 4.0, 5.5])),
    amplitude=st.sampled_from([0.0, 0.5, 3.0]),
    position=st.floats(0.0, 1.0),
    by_count=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_ring_solve_matches_the_2d_oracle(n_phi, n1, n2, sides, amplitude, position,
                                          by_count, seed):
    setup = TorusSetup.from_flux(n_phi, sides, (n1, n2))
    v1 = amplitude * np.random.default_rng(seed).uniform(-1.0, 1.0, n1)
    op = assemble(setup, potential=np.repeat(v1[:, None], n2, axis=1))
    full = np.linalg.eigvalsh(op.matrix.toarray())
    # cut in the first gap of at least 0.05 from the drawn position on, so
    # that both subspaces are well defined
    cuts = [c for c in range(max(1, int(position * setup.dim)), setup.dim)
            if full[c] - full[c - 1] >= 0.05]
    cut = cuts[0] if cuts else setup.dim
    solve = ({"count": cut} if by_count or cut == setup.dim
             else {"energy": 0.5 * (full[cut - 1] + full[cut])})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # cutoffs above the trusted band
        ring, calls = count_ring_solves(op, **solve)
        oracle = oracle_eigensolve(op, **solve)
    # each ring class is solved once: ring 0 alone when the g rings are its
    # magnetic translates (constant potential, n_phi | N1), else every ring
    g = math.gcd(n_phi, n2)
    translates = g > 1 and amplitude == 0.0 and n_phi > 0 and n1 % n_phi == 0
    assert calls == (1 if translates else g)
    assert ring.dim == oracle.dim == cut
    assert np.max(np.abs(ring.eigenvalues - oracle.eigenvalues)) <= 1e-9
    assert projector_gap(ring, oracle) <= 1e-8


@settings(max_examples=60, deadline=None)
@given(
    n1=st.integers(4, 30),
    n2=st.integers(4, 30),
    n_phi=st.integers(0, 6),
    sides=st.tuples(st.sampled_from([3.0, 4.0, 5.5, 8.0]), st.sampled_from([3.0, 4.0, 8.0])),
    with_potential=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_matrix_is_the_sparse_sum_bit_for_bit(n1, n2, n_phi, sides, with_potential, seed):
    setup = TorusSetup.from_flux(n_phi, sides, (n1, n2))
    potential = (np.random.default_rng(seed).uniform(-3.0, 3.0, setup.N)
                 if with_potential else None)
    op = assemble(setup, potential=potential)
    got, want = op.matrix, sparse_sum_matrix(op)
    assert got.indptr.dtype == want.indptr.dtype and got.indices.dtype == want.indices.dtype
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()  # signed zeros included
    assert np.array_equal(got.indptr, np.arange(0, 5 * setup.dim + 1, 5))


def test_matrix_stores_a_vanishing_diagonal():
    # the sparse sum dropped an on-site entry that cancels to 0; the direct
    # CSR keeps 5 entries a row, which Wegner's in-place diagonal relies on
    setup = TorusSetup.from_flux(1, (4.0, 4.0), (8, 8))
    h1, h2 = setup.spacing
    potential = np.zeros(setup.N)
    potential[2, 3] = -(2.0 / h1**2 + 2.0 / h2**2)
    m = assemble(setup, potential=potential).matrix
    row = 2 * 8 + 3
    assert m.indptr[row + 1] - m.indptr[row] == 5
    assert row in m.indices[m.indptr[row]:m.indptr[row + 1]]
    assert m[row, row] == 0


def chain_eigenvalues(d, hop):
    """Dense spectrum of the open chain T of `_open_chain`."""
    t = lattice._open_chain(d, hop)
    off = np.full(d.size - 1, hop)
    return np.linalg.eigvalsh(np.diag(t) + np.diag(off, 1) + np.diag(off, -1))


def dense_ring(d, hop):
    """The ring with diagonal d and every hop, the closing one included, `hop`."""
    a = np.diag(d)
    i = np.arange(d.size)
    a[i, i - 1] = a[i - 1, i] = hop
    return a


def check_ring_pairs(d, hop, evals, vecs, want, tol=1e-12):
    """`_solve_ring`'s pairs against the dense eigenvalues `want`: values,
    residuals and orthogonality to tol relative to the ring's scale, and
    the sign convention."""
    scale = np.abs(d).max() + 2.0 * abs(hop)
    assert evals.size == want.size
    assert np.all(np.diff(evals) >= 0)
    assert np.max(np.abs(evals - want), initial=0.0) <= tol * scale
    a = np.roll(vecs, 1, axis=0) + np.roll(vecs, -1, axis=0)
    resid = np.linalg.norm(d[:, None] * vecs + hop * a - vecs * evals, axis=0)
    assert np.max(resid, initial=0.0) <= tol * scale
    assert np.max(np.abs(vecs.T @ vecs - np.eye(evals.size)), initial=0.0) <= tol
    mag = np.abs(vecs)
    first = np.argmax(mag >= (1 - lattice.SIGN_TIE) * mag.max(axis=0, initial=0.0), axis=0)
    assert np.all(vecs[first, np.arange(evals.size)] > 0)


@st.composite
def rings(draw):
    """Rings on which the rank-one update is hard: rough; constant, where
    every other pair of the open chain deflates and the ring's pairs are
    degenerate; reflection-symmetric, with near-degenerate pairs straddling
    deflated ones; wells far from the seam, whose low pairs deflate as a
    whole cluster, close pairs among them rotated; and integer diagonals."""
    m = draw(st.integers(3, 60))
    hop = -draw(st.floats(0.01, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["rough", "constant", "mirror", "wells", "integer"]))
    if kind == "rough":
        d = rng.uniform(-5.0, 5.0, m)
    elif kind == "constant":
        d = np.full(m, rng.uniform(-5.0, 5.0))
    elif kind == "mirror":  # symmetric about a random axis
        h = rng.uniform(-5.0, 5.0, m)
        d = 0.5 * (h + np.roll(h[::-1], int(rng.integers(m))))
    elif kind == "wells":
        m = max(m, 24)
        d = np.full(m, 10.0)
        d[m // 2 + np.array([-3, 0, 3])] = 0.0
        hop = max(hop, -1.0)
    else:
        d = np.round(rng.uniform(-2.0, 2.0, m))
    return d, hop


@settings(max_examples=200, deadline=None)
@given(ring=rings(), at=st.floats(0.0, 1.0), everything=st.booleans())
def test_ring_solve_by_count_matches_dense_eigh(ring, at, everything):
    # 1 to M pairs, or M + 1 for the whole spectrum
    d, hop = ring
    count = d.size + 1 if everything else 1 + int(at * d.size)
    evals, vecs = lattice._solve_ring(d, hop, count=count)
    check_ring_pairs(d, hop, evals, vecs, np.linalg.eigvalsh(dense_ring(d, hop))[:count])


@settings(max_examples=200, deadline=None)
@given(ring=rings(), at=st.floats(0.0, 1.0), everything=st.booleans())
def test_ring_solve_by_energy_matches_dense_eigh(ring, at, everything):
    # a cutoff anywhere in the spectrum, or above it all; the ring's count
    # there is the dense count
    d, hop = ring
    full = np.linalg.eigvalsh(dense_ring(d, hop))
    cut = full[-1] + 1.0 if everything else full[0] - 1.0 + at * (full[-1] - full[0] + 2.0)
    if np.min(np.abs(full - cut)) < 1e-9 * (np.abs(full).max() + 1.0):
        return  # a cutoff on an eigenvalue: the count is a tie
    evals, vecs = lattice._solve_ring(d, hop, energy=cut)
    check_ring_pairs(d, hop, evals, vecs, full[full <= cut])


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_count_cut_on_a_deflated_chain_pair(count):
    # a constant ring's pairs above the lowest are degenerate, and every
    # other pair of its open chain vanishes at the ends: a cut by count
    # lands on a deflated pair, with the ring's other pair of that level
    # a root at it, above the last kept pole
    d, hop = np.full(8, 2.0), -1.0
    evals, vecs = lattice._solve_ring(d, hop, count=count)
    check_ring_pairs(d, hop, evals, vecs, np.linalg.eigvalsh(dense_ring(d, hop))[:count])


def test_a_well_cluster_deflates_as_a_whole():
    # three equal wells far from the seam: the open chain's three lowest
    # pairs vanish at its ends, so all three are the ring's, with no root
    d = np.full(40, 10.0)
    d[[17, 20, 23]] = 0.0
    t = lattice._open_chain(d, -0.5)
    lam, q = np.linalg.eigh(np.diag(t) - 0.5 * (np.eye(40, k=1) + np.eye(40, k=-1)))
    assert np.all(0.5 * np.abs(q[0, :3] + q[-1, :3]) <= 8 * np.finfo(float).eps * (t.max() + 1.0))
    assert lam[2] - lam[0] < 0.01 * (lam[3] - lam[2])  # a cluster
    evals, vecs = lattice._solve_ring(d, -0.5, count=3)
    check_ring_pairs(d, -0.5, evals, vecs, np.linalg.eigvalsh(dense_ring(d, -0.5))[:3])


@pytest.mark.parametrize("n_phi,n", [(6, 64), (5, 64), (3, 32)])
def test_harper_rings_whose_chain_pairs_deflate(n_phi, n):
    # ring 0 (M = 2048, 4096, 1024) of the CLI's torus (L 8,8) at a
    # 1.001 * 3B cutoff: most of the open chain's pairs are localized away
    # from the seam and deflate, and the ring's roots sit among them
    setup = TorusSetup.from_flux(n_phi, (8.0, 8.0), (n, n))
    modes, v1 = ring_setup(setup)
    d, hop = lattice._ring_diagonal(setup, modes[0], v1), -1.0 / setup.spacing[0] ** 2
    cut = 1.001 * 3 * setup.B
    t = lattice._open_chain(d, hop)
    _, q = scipy.linalg.eigh_tridiagonal(t, np.full(d.size - 1, hop), select="v",
                                         select_range=(t.min() - 4.0 * abs(hop), cut))
    z = q[0] + q[-1]
    assert np.sum(np.abs(z) < 1e-38) >= z.size - 2
    # the oracle: shift-invert ARPACK on the sparse ring, below its spectrum
    want = spla.eigsh(ring_matrix(setup, modes[0], v1), k=z.size + 3, sigma=d.min() + 3.0 * hop,
                      which="LM", v0=np.ones(d.size), return_eigenvectors=False)
    evals, vecs = lattice._solve_ring(d, hop, energy=cut)
    check_ring_pairs(d, hop, evals, vecs, np.sort(want[want <= cut]), tol=1e-11)
    assert evals.size == z.size + 1


@settings(max_examples=80, deadline=None)
@given(n_phi=st.integers(0, 7), n1=st.integers(4, 24), n2=st.integers(4, 24),
       sides=st.tuples(st.sampled_from([3.0, 4.0, 5.5]), st.sampled_from([3.0, 4.0, 8.0])),
       amplitude=st.sampled_from([0.0, 1.0, 20.0]), at=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**16))
def test_ring_count_exceeds_its_chain_count_by_at_most_one(n_phi, n1, n2, sides, amplitude,
                                                           at, seed):
    # A = T - |hop| u u^T: Cauchy interlacing puts at most one more
    # eigenvalue of the ring than of its open chain at or below any c, and
    # the ring solve's block at c holds exactly the ring's count
    setup = TorusSetup.from_flux(n_phi, sides, (n1, n2))
    v1 = amplitude * np.random.default_rng(seed).uniform(-1.0, 1.0, n1)
    modes, v1 = ring_setup(setup, v1)
    hop = -1.0 / setup.spacing[0] ** 2
    d = lattice._ring_diagonal(setup, modes[0], v1)
    ring = scipy.linalg.eigvalsh(ring_matrix(setup, modes[0], v1).toarray())
    chain = chain_eigenvalues(d, hop)
    both = np.sort(np.concatenate([ring, chain]))
    c = both[0] - 1.0 + at * (both[-1] - both[0] + 2.0)
    tol = 1e-9 * (np.abs(both).max() + 1.0)
    if np.min(np.abs(both - c)) < tol:
        return  # shifts on eigenvalues: counts there are ties
    assert np.sum(ring <= c) - np.sum(chain <= c) in (0, 1)
    assert lattice._solve_ring(d, hop, energy=c)[0].size == np.sum(ring <= c)


@pytest.mark.parametrize("dense_threshold", [0, 10**4])
def test_ring_vectors_have_a_positive_peak(dense_threshold):
    setup = TorusSetup.from_flux(3, (6.0, 6.0), (24, 24))
    # eigensolve keeps dense_threshold for the benchmark's tracer, which reads
    # it by name; it has no effect on the pairs
    op = assemble(setup)
    a, b = eigensolve(op, count=18), eigensolve(op, count=18, dense_threshold=dense_threshold)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.vectors, b.vectors)
    modes, v1 = ring_setup(setup)
    d = lattice._ring_diagonal(setup, modes[0], v1)
    hop = -1.0 / setup.spacing[0] ** 2
    evals, vecs = lattice._solve_ring(d, hop, count=6)
    mag = np.abs(vecs)
    top = np.sort(mag, axis=0)
    tied = top[-2] >= (1 - lattice.SIGN_TIE) * top[-1]
    assert tied.any() and not tied.all()  # odd vectors tie +x and -x at the peak
    cols = np.arange(vecs.shape[1])
    assert np.all(vecs[mag.argmax(axis=0), cols][~tied] > 0)
    first = np.argmax(mag >= (1 - lattice.SIGN_TIE) * top[-1], axis=0)
    assert np.all(vecs[first, cols] > 0)
    # the same vectors as a dense eigh's, signed by the same rule, where the
    # eigenvalues are simple
    dense_evals, dense = np.linalg.eigh(dense_ring(d, hop))
    dense = dense[:, :6] * np.copysign(1.0, dense[first, cols])
    assert np.allclose(evals, dense_evals[:6], atol=1e-10)
    gaps = np.abs(dense_evals[:6, None] - dense_evals[None, :7])
    gaps[np.arange(6), np.arange(6)] = np.inf
    simple = gaps.min(axis=1) > 1e-6
    assert simple.any()
    assert np.allclose(vecs[:, simple], dense[:, simple], atol=1e-8)


def count_ring_solves(op, **solve):
    with mock.patch.object(lattice, "_solve_ring", wraps=lattice._solve_ring) as spy:
        sub = eigensolve(op, **solve)
    return sub, spy.call_count


@pytest.mark.parametrize("n", [32, 48, 80])
@pytest.mark.parametrize("by_energy", [True, False])
def test_bench_grids_solve_one_ring(n, by_energy):
    # specineq cuts at 1.001 * 3B, control keeps n_phi * clusters = 4 pairs;
    # with n_phi = 2 both rings are translates, so ring 0 alone is solved, once
    setup = TorusSetup.from_flux(2, (8.0, 8.0), (n, n))
    solve = {"energy": 1.001 * 3 * setup.B} if by_energy else {"count": 4}
    sub, calls = count_ring_solves(assemble(setup), **solve)
    assert calls == 1
    assert sub.dim == 4


@st.composite
def translation_cases(draw):
    n_phi = draw(st.integers(1, 6))
    # about half the sides are multiples of n_phi: in N2 for more than one
    # ring, in N1 for rings that are translates
    side = st.one_of(st.integers(8, 40),
                     st.integers(-(-8 // n_phi), 40 // n_phi).map(lambda q: q * n_phi))
    n1, n2 = draw(side), draw(side)
    sides = draw(st.tuples(st.sampled_from([3.0, 4.0, 6.0]), st.sampled_from([3.0, 4.0, 6.0])))
    potential = draw(st.sampled_from(["none", "constant", "varying"]))
    return n_phi, n1, n2, sides, potential, draw(st.integers(0, 2**16))


@settings(max_examples=60, deadline=None)
@given(case=translation_cases(), position=st.floats(0.0, 1.0))
def test_translation_reuse_matches_solving_every_ring(case, position):
    n_phi, n1, n2, sides, potential, seed = case
    setup = TorusSetup.from_flux(n_phi, sides, (n1, n2))
    v1 = {"none": np.zeros(n1), "constant": np.full(n1, 0.7),
          "varying": np.random.default_rng(seed).uniform(-1.0, 1.0, n1)}[potential]
    op = assemble(setup, potential=np.repeat(v1[:, None], n2, axis=1))
    g = math.gcd(n_phi, n2)
    reuse = g > 1 and n1 % n_phi == 0 and potential != "varying"
    with mock.patch.object(lattice, "_translation_shifts", return_value=None):
        ev = eigensolve(op, count=min(3 * n_phi + 2, setup.dim)).eigenvalues
    # cut in the first gap of at least 0.05 from the drawn position on
    cuts = [c for c in range(max(1, int(position * ev.size)), ev.size)
            if ev[c] - ev[c - 1] >= 0.05]
    if not cuts:
        return
    energy = 0.5 * (ev[cuts[0] - 1] + ev[cuts[0]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # cutoffs above the trusted band
        with mock.patch.object(lattice, "_translation_shifts", return_value=None):
            every, every_calls = count_ring_solves(op, energy=energy)
        fast, fast_calls = count_ring_solves(op, energy=energy)
    assert every_calls == g
    assert fast_calls == (1 if reuse else g)
    assert fast.dim == every.dim == cuts[0]
    assert np.max(np.abs(fast.eigenvalues - every.eigenvalues)) <= 1e-10
    assert projector_gap(fast, every) <= 1e-10


@pytest.mark.parametrize("count", [0, -1])
def test_count_below_one_rejected(count):
    with pytest.raises(ValidationError):
        eigensolve(assemble(small_setup()), count=count)


def test_energy_cutoff_selects_cluster():
    setup = TorusSetup.from_flux(2, (6.0, 6.0), (24, 24))
    sub = eigensolve(assemble(setup), energy=2 * setup.B)
    assert sub.dim == 2
    assert np.all(sub.eigenvalues <= 2 * setup.B)


def test_eigenvectors_orthonormal_in_l2():
    setup = small_setup()
    sub = eigensolve(assemble(setup), count=6)
    cell = setup.spacing[0] * setup.spacing[1]
    g = sub.vectors.conj().T @ sub.vectors * cell
    assert np.max(np.abs(g - np.eye(6))) < 1e-10


# -- magnetic translations ---------------------------------------------------------


# An audit of `assemble`'s link phases: magnetic translations Gamma_y of the
# torus Landau gauge, which commute with H exactly when y meets the flux
# condition.


def site_shift(setup, y):
    h1, h2 = setup.spacing
    s1 = y[0] / h1
    s2 = y[1] / h2
    if abs(s1 - round(s1)) > 1e-9 or abs(s2 - round(s2)) > 1e-9:
        raise ValidationError("translation vector must lie on the grid")
    return int(round(s1)) % setup.N[0], int(round(s2)) % setup.N[1]


def flux_condition(setup, y):
    """Vector flux condition making Gamma_y well defined on the torus:
    B*y1*L2 and B*y2*L1 both in 2*pi*Z (to within 1e-9)."""
    q1 = setup.B * y[0] * setup.L[1] / (2 * np.pi)
    q2 = setup.B * y[1] * setup.L[0] / (2 * np.pi)
    return abs(q1 - round(q1)) < 1e-9 and abs(q2 - round(q2)) < 1e-9


def translations_commute(setup, y, yp):
    """Pairwise condition B*(y1*y2' - y2*y1') in 2*pi*Z (to within 1e-9)."""
    q = setup.B * (y[0] * yp[1] - y[1] * yp[0]) / (2 * np.pi)
    return abs(q - round(q)) < 1e-9


def translate_array(setup, values, y):
    """Magnetic translation by a grid vector y on raw samples.

    Composition T1(s1) T2(s2): T2 is a plain roll (x2-link phases do not
    depend on x2), T1 rolls and applies the gauge-compensating phase
    exp(i*phi*s1*n2) plus the seam unfolding factor on wrapped rows.
    """
    s1, s2 = site_shift(setup, y)
    n1, n2 = setup.N
    phi = setup.B * setup.spacing[0] * setup.spacing[1]
    out = np.roll(np.roll(values, s2, axis=1), s1, axis=0)
    j = np.arange(n2)[None, :]
    if s1:
        out[:s1, :] = out[:s1, :] * np.exp(-1j * phi * n1 * j)
    return out * np.exp(1j * phi * s1 * j)


def apply(op, f):
    """H acting on an (N1, N2) sample array."""
    return (op.matrix @ f.ravel()).reshape(op.setup.N)


def commutation_check(op, y):
    """Max relative norm of (H Gamma_y - Gamma_y H) v over 4 random probes."""
    setup = op.setup
    if not flux_condition(setup, y):
        raise ValidationError("translation vector violates the flux condition")
    rng = np.random.default_rng(7)
    h1, h2 = setup.spacing
    scale = 4.0 / h1**2 + 4.0 / h2**2 + (
        float(np.max(np.abs(op.diag))) if op.diag is not None else 0.0)
    worst = 0.0
    for _ in range(4):
        v = rng.standard_normal(setup.N) + 1j * rng.standard_normal(setup.N)
        diff = apply(op, translate_array(setup, v, y)) - translate_array(setup, apply(op, v), y)
        worst = max(worst, np.linalg.norm(diff) / (scale * np.linalg.norm(v)))
    return worst


def test_translate_identity_and_unitarity():
    setup = small_setup(n_phi=2, L=4.0, N=16)
    rng = rng_stream(42)
    v = rng.standard_normal(setup.N) + 1j * rng.standard_normal(setup.N)
    assert np.array_equal(translate_array(setup, v, (0.0, 0.0)), v)
    moved = translate_array(setup, v, (setup.L[0] / 2, 0.0))
    assert np.linalg.norm(moved) == pytest.approx(np.linalg.norm(v))


def test_full_period_translation_is_identity():
    setup = small_setup(n_phi=2, L=4.0, N=16)
    rng = rng_stream(43)
    v = rng.standard_normal(setup.N) + 1j * rng.standard_normal(setup.N)
    for y in [(setup.L[0], 0.0), (0.0, setup.L[1])]:
        assert np.allclose(translate_array(setup, v, y), v, atol=1e-12)
        assert commutation_check(assemble(setup), y) <= 1e-10


def test_flux_condition_translations_commute_with_h():
    setup = small_setup(n_phi=2, L=8.0, N=32)
    op = assemble(setup)
    # B * (L/2) * L = 2*pi*n_phi/2 = 2*pi: satisfies the vector condition
    for y in [(setup.L[0] / 2, 0.0), (0.0, setup.L[1] / 2), (setup.L[0] / 2, setup.L[1] / 2)]:
        assert flux_condition(setup, y)
        assert commutation_check(op, y) <= 1e-10


def test_translations_commute_pairwise_when_condition_holds():
    setup = small_setup(n_phi=2, L=8.0, N=32)
    y = (setup.L[0] / 2, 0.0)
    yp = (0.0, setup.L[1])
    assert translations_commute(setup, y, yp)
    rng = rng_stream(44)
    v = rng.standard_normal(setup.N) + 1j * rng.standard_normal(setup.N)
    ab = translate_array(setup, translate_array(setup, v, yp), y)
    ba = translate_array(setup, translate_array(setup, v, y), yp)
    assert np.allclose(ab, ba, atol=1e-12)
    # half-period pair at n_phi = 2 encloses half a quantum: must anticommute
    yq = (0.0, setup.L[1] / 2)
    assert not translations_commute(setup, y, yq)


def test_commutation_check_rejects_off_condition_vectors():
    setup = small_setup(n_phi=2, L=4.0, N=16)
    h1 = setup.spacing[0]
    with pytest.raises(ValidationError):
        commutation_check(assemble(setup), (h1, 0.0))
