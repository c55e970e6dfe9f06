"""Eigensolvers, the tail-norm filter, and cross-spectrum alignment."""

import bisect
import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.csgraph
from hypothesis import given
from hypothesis import strategies as st

from tprabi import (
    ALL_SUBSPACES,
    FULL,
    ModelParams,
    SubspaceLabel,
    build_full_fock,
    build_subspace_tridiagonal,
    convergence_filter,
    critical_coupling,
    solve_hermitian,
    solve_point,
    solve_tridiagonal,
)
from tprabi import solver
from tprabi.model import (
    HermitianMatrix,
    TridiagonalMatrix,
    build_phase_space,
    build_rotated_fock,
    full_fock_band,
)
from tprabi.solver import (
    EigenPair,
    FilteredSpectrum,
    align_spectra,
    solve_band,
    tail_norm_of,
)

Q14P = SubspaceLabel(0.25, 1)
# the one message every solver raises for a solved column that is not unit-norm
BAD_COLUMN = r"eigenvector norms off 1 by .* or eigenvalues not finite$"

# regression values frozen from two cutoffs (N=512, N=1024) agreeing to 1e-9
FROZEN_512 = [
    -0.545420844055,
    -0.145099377000,
    0.051507350281,
    0.252314478513,
    0.457121872204,
    0.602870329551,
    0.672819483245,
    0.938618357631,
    0.958971386855,
    1.194957007861,
]


class TestSolveTridiagonal:
    def test_already_diagonal(self):
        t = TridiagonalMatrix(np.array([0.5, 2.5, 4.5]), np.zeros(2))
        pairs = solve_tridiagonal(t, 3)
        assert [p.value for p in pairs] == [0.5, 2.5, 4.5]
        for i, pair in enumerate(pairs):
            expected = np.zeros(3)
            expected[i] = 1.0
            assert np.allclose(pair.vector, expected, atol=1e-14)

    def test_two_by_two(self):
        t = TridiagonalMatrix(np.zeros(2), np.ones(1))
        values = [p.value for p in solve_tridiagonal(t, 2)]
        assert values == pytest.approx([-1.0, 1.0], abs=1e-14)

    def test_degenerate_subspace_matches_closed_form(self):
        t = build_subspace_tridiagonal(Q14P, ModelParams(0.0, 0.45, 0.2), 4096)
        values = np.array([p.value for p in solve_tridiagonal(t, 10)])
        omega_eff = np.sqrt(0.45**2 - 4 * 0.2**2)
        exact = omega_eff * (2 * np.arange(10) + 0.5)
        assert values[0] == pytest.approx(0.1030776, abs=1e-7)
        assert np.max(np.abs(values - exact) / exact) < 1e-8

    def test_matches_dense_reference(self):
        t = build_subspace_tridiagonal(Q14P, ModelParams(0.0, 0.45, 0.2), 512)
        values = np.array([p.value for p in solve_tridiagonal(t, 10)])
        dense = np.diag(t.diag) + np.diag(t.offdiag, 1) + np.diag(t.offdiag, -1)
        dense = np.linalg.eigvalsh(dense)[:10]
        assert np.max(np.abs(values - dense)) < 1e-10

    def test_k_range(self):
        t = TridiagonalMatrix(np.zeros(4), np.zeros(3))
        with pytest.raises(ValueError):
            solve_tridiagonal(t, 0)
        with pytest.raises(ValueError):
            solve_tridiagonal(t, 5)

    def test_dimension_one(self):
        pair = solve_tridiagonal(TridiagonalMatrix(np.array([3.0]), np.zeros(0)), 1)[0]
        assert pair.value == 3.0
        assert pair.vector.tolist() == [1.0]
        # the whole vector is its own tail
        assert convergence_filter([pair]).tails.tolist() == [1.0]

    def test_pairs_carry_no_verdict(self):
        pair = solve_tridiagonal(TridiagonalMatrix(np.arange(4.0), np.ones(3)), 2)[0]
        assert [f.name for f in dataclasses.fields(pair)] == ["value", "vector"]


class TestAllPairsMRRR:
    """k = dimension solves by MRRR, any smaller k by bisection; the two give
    the same values and the same filter verdicts."""

    @pytest.mark.parametrize("cutoff", [64, 1024])
    @pytest.mark.parametrize("fraction", [0.0, 0.5, 0.999])
    @pytest.mark.parametrize("label", ALL_SUBSPACES, ids=lambda label: label.name)
    def test_matches_the_bisection_path(self, label, fraction, cutoff):
        params = ModelParams(1.0, 0.5, fraction * critical_coupling(0.5))
        t = build_subspace_tridiagonal(label, params, cutoff)
        full = convergence_filter(solve_tridiagonal(t, cutoff))
        values, vectors = scipy.linalg.eigh_tridiagonal(
            t.diag, t.offdiag, select="i", select_range=(0, cutoff - 1)
        )
        bisected = convergence_filter([EigenPair(w, v) for w, v in zip(values, vectors.T)])
        deviation = [p.value - q.value for p, q in zip(full.pairs, bisected.pairs)]
        assert np.max(np.abs(deviation)) <= 1e-12 * np.max(np.abs(t.diag))
        assert np.array_equal(full.converged, bisected.converged)


class TestBandSolve:
    """solve_band on the full-Fock band against dense eigh of the same matrix:
    the same values and the same filter verdicts, for every pair (?sbevd) and
    for the lowest 10 (?sbevx)."""

    @pytest.mark.parametrize("k", ["dim", 10])
    @pytest.mark.parametrize("cutoff", [32, 128])
    @pytest.mark.parametrize("fraction", [0.0, 0.5, 0.999])
    def test_matches_dense_eigh(self, fraction, cutoff, k):
        params = ModelParams(1.0, 0.5, fraction * critical_coupling(0.5))
        dense = build_full_fock(params, cutoff).data
        k = len(dense) if k == "dim" else k
        banded = convergence_filter(solve_band(full_fock_band(params, cutoff), k), qubit_dim=2)
        values, vectors = scipy.linalg.eigh(dense, subset_by_index=[0, k - 1])
        reference = convergence_filter(
            [EigenPair(w, v) for w, v in zip(values, vectors.T)], qubit_dim=2
        )
        deviation = [p.value - q.value for p, q in zip(banded.pairs, reference.pairs)]
        assert len(banded.pairs) == k
        assert np.max(np.abs(deviation)) <= 1e-12 * np.max(np.abs(np.diag(dense)))
        assert np.array_equal(banded.converged, reference.converged)


class TestBandBlocks:
    """solve_band solves each irreducible block of a band on its own."""

    @pytest.fixture
    def solved(self, monkeypatch):
        """(routine, dimension) of every scipy.linalg.eigh_tridiagonal and eig_banded call."""
        calls = []
        for name in ("eigh_tridiagonal", "eig_banded"):
            solve = getattr(scipy.linalg, name)

            def recorded(first, *args, _name=name, _solve=solve, **kwargs):
                calls.append((_name, first.shape[-1]))
                return _solve(first, *args, **kwargs)

            monkeypatch.setattr(scipy.linalg, name, recorded)
        return calls

    @pytest.mark.parametrize("g2", [0.0, 0.1, 0.2])
    def test_full_fock_band_is_solved_chain_by_chain(self, solved, g2):
        # the four parity chains of N levels each, tridiagonal; at g2 = 0 every
        # entry is its own block and no routine runs
        cutoff = 64
        pairs = solve_band(full_fock_band(ModelParams(1.0, 0.5, g2), 2 * cutoff), 4 * cutoff)
        assert len(pairs) == 4 * cutoff
        assert solved == ([] if g2 == 0.0 else [("eigh_tridiagonal", cutoff)] * 4)

    @pytest.mark.parametrize("k", ["dim", 5])
    @pytest.mark.parametrize("routine", ["eigh_tridiagonal", "eig_banded"])
    def test_one_block_band_is_one_direct_call(self, solved, routine, k):
        # a real tridiagonal band goes to eigh_tridiagonal (MRRR for every pair,
        # else bisection), a wider one to eig_banded; each keeps a direct call's bytes
        t = build_subspace_tridiagonal(Q14P, ModelParams(1.0, 0.5, 0.2), 40)
        band = np.array([t.diag, np.append(t.offdiag, 0.0)])
        k = t.dimension if k == "dim" else k
        if routine == "eigh_tridiagonal":
            every = {"lapack_driver": "stemr"}
            lowest = {"select": "i", "select_range": (0, k - 1)}
            values, vectors = scipy.linalg.eigh_tridiagonal(
                t.diag, t.offdiag, **(every if k == t.dimension else lowest)
            )
        else:
            band = np.vstack([band, np.append(t.offdiag[1:], [0.0, 0.0]) / 3])
            values, vectors = scipy.linalg.eig_banded(
                band, lower=True, select="a" if k == t.dimension else "i", select_range=(0, k - 1)
            )
        pairs = solve_band(band, k)
        assert solved == [(routine, t.dimension)] * 2
        assert np.array([p.value for p in pairs]).tobytes() == values.tobytes()
        for pair, column in zip(pairs, vectors.T):
            assert np.array_equal(pair.vector, column) or np.array_equal(pair.vector, -column)

    def test_rotated_form_keeps_its_imaginary_parts(self):
        # two blocks (even and odd Fock levels), each complex; a real scatter would
        # drop the imaginary parts and fail the unit-norm check
        dense = build_rotated_fock(ModelParams(0.7, 0.5, 0.13), 48).data
        pairs = solve_hermitian(HermitianMatrix(dense), len(dense))
        values, vectors = scipy.linalg.eigh(dense)
        assert np.max(np.abs([p.value for p in pairs] - values)) <= 1e-12 * np.max(np.abs(values))
        stacked = np.column_stack([p.vector for p in pairs])
        assert np.iscomplexobj(stacked) and np.max(np.abs(stacked.imag)) > 0.1
        assert np.max(np.abs(dense @ stacked - stacked * values)) < 1e-10
        overlap = np.abs(vectors.conj().T @ stacked)  # each pair is eigh's column up to a phase
        assert np.max(np.abs(np.diag(overlap) - 1.0)) < 1e-8

    @pytest.mark.parametrize("k", [3, 10, 11, 64])
    def test_ties_across_blocks_keep_the_dense_values(self, k):
        # g2 = 0, omega0 = 2 omega: |n, up> ties |n + 2, down>, so k = 3 and 11 cut a tie
        params = ModelParams(1.0, 0.5, 0.0)
        dense = build_full_fock(params, 32).data
        values, vectors = scipy.linalg.eigh(dense, subset_by_index=[0, k - 1])
        reference = convergence_filter(
            [EigenPair(w, v) for w, v in zip(values, vectors.T)], qubit_dim=2
        )
        banded = convergence_filter(solve_band(full_fock_band(params, 32), k), qubit_dim=2)
        assert banded.converged_values.tobytes() == reference.converged_values.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sparse_bands_match_dense_eigh(self, solved, seed):
        # couplings dropped at random: blocks of every size, interleaved, real and complex
        rng = np.random.default_rng(seed)
        dim, width = 40, 4
        band = rng.normal(size=(width + 1, dim)) * (rng.random((width + 1, dim)) < 0.25)
        if seed % 2:
            band = band * np.exp(2j * np.pi * rng.random((width + 1, dim)))
        band[0] = rng.normal(size=dim)
        band[1:][np.arange(dim) + np.arange(1, width + 1)[:, None] >= dim] = 0.0
        dense = np.zeros((dim, dim), dtype=band.dtype)
        for d, row in enumerate(band):
            dense[np.arange(d, dim), np.arange(dim - d)] = row[: dim - d]
        dense = dense + np.tril(dense, -1).conj().T
        # the blocks by a reference graph search, in order of first index
        count, labels = scipy.sparse.csgraph.connected_components(dense != 0, directed=False)
        blocks = sorted((np.flatnonzero(labels == c) for c in range(count)), key=min)
        for k in (dim, 7):
            pairs = solve_band(band, k)
            values = scipy.linalg.eigh(dense, eigvals_only=True, subset_by_index=[0, k - 1])
            assert np.max(np.abs([p.value for p in pairs] - values)) < 1e-12 * dim
            for pair in pairs:
                assert np.linalg.norm(dense @ pair.vector - pair.value * pair.vector) < 1e-10
        assert 1 < count < dim
        # a real block whose entries join only neighbours in it is tridiagonal
        tridiagonal = [
            not np.iscomplexobj(band) and not np.tril(dense[np.ix_(b, b)], -2).any()
            for b in blocks
        ]
        routines = ["eigh_tridiagonal" if t else "eig_banded" for t in tridiagonal]
        assert solved == [(r, len(b)) for r, b in zip(routines, blocks) if len(b) > 1] * 2


class TestSolveHermitian:
    def test_decoupled_full_model(self):
        pairs = solve_hermitian(build_full_fock(ModelParams(1.0, 1.0, 0.0), 8), 4)
        assert [p.value for p in pairs] == pytest.approx([-0.5, 0.5, 0.5, 1.5], abs=1e-12)

    def test_identity(self):
        values = [p.value for p in solve_hermitian(HermitianMatrix(np.eye(3)), 3)]
        assert values == pytest.approx([1.0, 1.0, 1.0], abs=1e-14)

    def test_frozen_regression(self):
        pairs = solve_hermitian(build_full_fock(ModelParams(1.0, 0.5, 0.2), 512), 10)
        values = [p.value for p in pairs]
        assert values == pytest.approx(FROZEN_512, abs=1e-9)


class TestEigenPair:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            EigenPair(1.0, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            EigenPair(np.nan, np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_vector(self, bad):
        # abs(nan - 1) > 1e-12 is False: a nan vector used to pass, and the
        # filter then judged it converged with tail 0
        with pytest.raises(ValueError, match="norm"):
            EigenPair(0.0, np.array([bad] + [0.0] * 9))

    def test_orthonormality(self):
        t = build_subspace_tridiagonal(Q14P, ModelParams(0.7, 0.4, 0.12), 128)
        vectors = np.column_stack([p.vector for p in solve_tridiagonal(t, 12)])
        gram = vectors.T @ vectors
        assert np.max(np.abs(gram - np.eye(12))) < 1e-10
        assert np.max(np.abs(np.linalg.norm(vectors, axis=0) - 1.0)) < 1e-12

    def test_eigen_residuals_random_points(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            params = ModelParams(
                rng.uniform(0, 2), rng.uniform(0.1, 1.5), rng.uniform(0, 0.5)
            )
            h = build_full_fock(params, 64)
            dense = h.data
            for pair in solve_hermitian(h, 6):
                residual = np.linalg.norm(dense @ pair.vector - pair.value * pair.vector)
                assert residual <= 1e-8 * (1 + abs(pair.value))


class TestBadColumn:
    @pytest.mark.parametrize("damage", [1.5, np.nan])
    def test_every_solver_raises_one_message(self, damage_last_column, damage):
        params = ModelParams(1.0, 0.5, 0.2)
        sector = build_subspace_tridiagonal(Q14P, params, 64)
        band = full_fock_band(params, 64)
        wide = build_phase_space(params, 64)  # blocks of three off-diagonals: eig_banded
        for lapack in ("eigh_tridiagonal", "eigh", "eig_banded"):
            damage_last_column(lapack, damage)
        with pytest.raises(ValueError, match=BAD_COLUMN):
            solve_tridiagonal(sector, 10)
        with pytest.raises(ValueError, match=BAD_COLUMN):
            solve_band(band, 10)
        with pytest.raises(ValueError, match=BAD_COLUMN):
            solve_hermitian(wide, 10)


def _reference_sign(vector):
    """The per-pair canonical sign: the first amplitude above 1e-8 made positive."""
    significant = np.flatnonzero(np.abs(vector) > 1e-8)
    pivot = vector[significant[0]] if significant.size else vector[np.argmax(np.abs(vector))]
    if np.iscomplexobj(vector):
        return vector * (np.conj(pivot) / abs(pivot))
    return -vector if pivot < 0 else vector


def _reference_package(blocks, k):
    """The per-pair packager: a sign, a scatter and a checked EigenPair for each pick."""
    values = np.concatenate([block_values for _, block_values, _ in blocks])
    dim = sum(len(indices) for indices, *_ in blocks if indices is not None)
    starts = np.cumsum([0, *(v.shape[1] for *_, v in blocks)]).tolist()
    pairs = []
    for i in np.argsort(values, kind="stable")[:k].tolist():
        b = bisect.bisect_right(starts, i) - 1
        indices, _, vectors = blocks[b]
        j = i - starts[b]
        vector = _reference_sign(vectors[:, j])
        if indices is not None:
            scattered = np.zeros(dim, dtype=vector.dtype)
            scattered[indices if len(vectors) > 1 else indices[j : j + 1]] = vector
            vector = scattered
        pairs.append(EigenPair(float(values[i]), vector))
    return pairs


def _reference_filter(pairs, fraction, qubit_dim):
    """(sorted pairs, tails) with every tail by np.linalg.norm."""
    tails = []
    for pair in pairs:
        n = len(pair.vector)
        take = math.ceil(fraction * (n // qubit_dim)) * qubit_dim
        tails.append(float(np.linalg.norm(pair.vector[n - take :])))
    order = np.lexsort((tails, [p.value for p in pairs]))
    return [pairs[i] for i in order], np.array(tails)[order]


class TestBlockPackager:
    """The packager signs and scatters a block at a time and the filter skips the
    per-pair checks; both give the per-pair reference's bytes."""

    @pytest.fixture
    def packaged(self, monkeypatch):
        """(blocks, k, pairs) of every solver._package call."""
        calls = []
        package = solver._package

        def recorded(blocks, k):
            calls.append((blocks, k, package(blocks, k)))
            return calls[-1][2]

        monkeypatch.setattr(solver, "_package", recorded)
        return calls

    @staticmethod
    def _solves(seed):
        """(pairs, qubit_dim) of seeded solves: every sector and FULL, g2 = 0 and
        coupled, real phase-space and complex rotated bands, k in {1, 3, 25, dim}."""
        rng = np.random.default_rng(seed)
        for case, k in zip(range(12), [1, 3, 25, None] * 3):
            omega = rng.uniform(0.3, 1.0)
            g2 = 0.0 if case % 3 == 0 else rng.uniform(0.0, 0.95) * critical_coupling(omega)
            params, cutoff = ModelParams(rng.uniform(0.0, 1.5), omega, g2), int(rng.integers(16, 97))
            for label in [*ALL_SUBSPACES, FULL]:
                dim = 2 * cutoff if label is FULL else cutoff
                yield solve_point(params, label, cutoff, k or dim).pairs, 1 + (label is FULL)
            for build in (build_phase_space, build_rotated_fock):
                yield solve_hermitian(build(params, cutoff), k or 2 * cutoff), 2

    @pytest.mark.parametrize("seed", range(3))
    def test_pairs_and_tails_match_the_per_pair_reference(self, packaged, seed):
        fraction = [0.2, 0.1, 0.35][seed]
        for pairs, qubit_dim in self._solves(seed):
            reference = _reference_package(*packaged[-1][:2])
            for a, b in zip(pairs, reference, strict=True):
                assert type(a.value) is float and a.value == b.value
                assert a.vector.dtype == b.vector.dtype
                assert a.vector.tobytes() == b.vector.tobytes()
                # a view of the solved block where the reference viewed it, else its own array
                assert (a.vector.base is None) == (b.vector.base is None)
            filtered = convergence_filter(pairs, fraction, qubit_dim=qubit_dim)
            ordered, tails = _reference_filter(reference, fraction, qubit_dim)
            assert filtered.tails.tobytes() == tails.tobytes()
            assert [p.value for p in filtered.pairs] == [p.value for p in ordered]
        # (blocks, one-row columns, dtype kind): a sector, FULL at g2 = 0 (1 x 1 blocks
        # only), coupled FULL (four chains and no 1 x 1 block), the complex rotated form
        layouts = {(len(b), len(b[0][2]) == 1, b[0][2].dtype.kind) for b, *_ in packaged}
        assert {(1, False, "f"), (1, True, "f"), (5, False, "f")} <= layouts
        assert any(kind == "c" for *_, kind in layouts)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_random_blocks_match_the_per_pair_reference(self, dtype):
        # generic pivots (a complex phase divided per pair), some past leading
        # amplitudes below 1e-8, unscattered, scattered and 1 x 1 blocks
        rng = np.random.default_rng(5)

        def columns(m, n):
            v = rng.normal(size=(m, n)) + (1j * rng.normal(size=(m, n)) if dtype is complex else 0)
            for c in range(n):
                v[: c % 4, c] = 1e-9
            return v / np.linalg.norm(v, axis=0)

        order = rng.permutation(30)
        units = np.ones((1, 6), dtype=dtype)
        split = [
            (np.sort(order[:9]), np.sort(rng.normal(size=9)), columns(9, 9)),
            (np.sort(order[9:24]), np.sort(rng.normal(size=7)), columns(15, 7)),
            (np.sort(order[24:]), rng.normal(size=6), units),
        ]
        whole = [(None, np.sort(rng.normal(size=12)), columns(40, 12))]
        for blocks, total in [(split, 22), (whole, 12)]:
            for k in (1, 5, total):
                got, want = solver._package(blocks, k), _reference_package(blocks, k)
                assert [p.value for p in got] == [p.value for p in want]
                for a, b in zip(got, want, strict=True):
                    assert a.vector.dtype == b.vector.dtype
                    assert a.vector.tobytes() == b.vector.tobytes()

    def test_every_returned_pair_passes_the_public_check(self):
        # the packager's own bulk check stands in for EigenPair's; rebuilding each pair
        # through the public constructor runs that check again
        params = ModelParams(0.7, 0.5, 0.2)
        solved = [
            solve_tridiagonal(build_subspace_tridiagonal(Q14P, params, 64), 64),
            solve_band(full_fock_band(params, 64), 128),
            solve_band(full_fock_band(ModelParams(0.7, 0.5, 0.0), 64), 30),
            solve_hermitian(build_phase_space(params, 40), 80),
            solve_hermitian(build_rotated_fock(params, 40), 17),
        ]
        for pairs in solved:
            for pair in pairs:
                rebuilt = EigenPair(pair.value, pair.vector)
                assert rebuilt.value == pair.value and rebuilt.vector is pair.vector

    @pytest.mark.parametrize("damage", [1.5, np.nan])
    def test_unpicked_bad_column_raises(self, damage):
        vectors = np.eye(4)
        vectors[:, 3] *= damage  # the column of the highest value, never picked at k = 2
        with pytest.raises(ValueError, match=BAD_COLUMN):
            solver._package([(None, np.arange(4.0), vectors)], 2)


class TestTailNorm:
    def test_first_basis_vector(self):
        e0 = np.zeros(10)
        e0[0] = 1.0
        assert tail_norm_of(e0, 0.2) == 0.0

    def test_uniform_vector(self):
        uniform = np.full(10, 1 / np.sqrt(10))
        assert tail_norm_of(uniform, 0.2) == pytest.approx(np.sqrt(2 / 10), abs=1e-15)

    def test_qubit_pooling(self):
        # tail spans Fock levels across both interleaved qubit components
        v = np.zeros(10)
        v[-2:] = 1 / np.sqrt(2)
        assert tail_norm_of(v, 0.2, qubit_dim=2) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5])
    def test_fraction_outside_open_interval_is_rejected(self, fraction):
        # convergence_filter checks first, so only direct callers reach this
        with pytest.raises(ValueError, match=r"tail_fraction must be in \(0, 1\)"):
            tail_norm_of(np.full(10, 1 / np.sqrt(10)), fraction)

    @given(st.integers(5, 200))
    def test_monotone_in_fraction(self, length):
        rng = np.random.default_rng(length)
        v = rng.normal(size=length)
        v /= np.linalg.norm(v)
        assert tail_norm_of(v, 0.1) <= tail_norm_of(v, 0.2) + 1e-15


class TestConvergenceFilter:
    def test_verdicts(self):
        e0 = np.zeros(10)
        e0[0] = 1.0
        uniform = np.full(10, 1 / np.sqrt(10))
        spectrum = convergence_filter([EigenPair(1.0, uniform), EigenPair(0.0, e0)])
        assert [p.value for p in spectrum.pairs] == [0.0, 1.0]
        assert spectrum.converged.tolist() == [True, False]
        assert spectrum.tails[0] == 0.0
        assert spectrum.tails[1] == pytest.approx(np.sqrt(0.2), abs=1e-15)
        assert spectrum.converged_count == 1
        assert spectrum.converged_pairs == (spectrum.pairs[0],)
        assert spectrum.converged_values.tolist() == [0.0]

    def test_empty_input(self):
        empty = convergence_filter([])
        assert empty.pairs == () and empty.tails.shape == (0,)
        assert empty.converged_count == 0 and empty.converged_values.shape == (0,)
        assert empty.converged_values.dtype == np.float64

    def test_equal_values_ordered_by_tail(self):
        e0, e9 = np.eye(10)[0], np.eye(10)[9]
        spectrum = convergence_filter([EigenPair(0.5, e9), EigenPair(0.5, e0)])
        assert spectrum.tails.tolist() == [0.0, 1.0]
        assert spectrum.pairs[0].vector[0] == 1.0

    def test_mixed_lengths_keep_their_own_tail(self):
        # the last ceil(0.2 * 10) = 2 and ceil(0.2 * 20) = 4 amplitudes of each
        short, long = np.zeros(10), np.zeros(20)
        short[-3:] = long[-3:] = 1 / np.sqrt(3)
        spectrum = convergence_filter([EigenPair(0.0, short), EigenPair(1.0, long)])
        assert spectrum.tails.tolist() == [tail_norm_of(short), tail_norm_of(long)]
        assert spectrum.tails == pytest.approx([np.sqrt(2 / 3), 1.0], abs=1e-15)

    # the settings are checked once per batch, an empty one included
    @pytest.mark.parametrize("pairs", [[], [EigenPair(0.0, np.ones(4) / 2)]], ids=["empty", "one"])
    @pytest.mark.parametrize("fraction", [0.0, 1.0, np.nan])
    def test_rejects_bad_fraction(self, fraction, pairs):
        with pytest.raises(ValueError, match=r"tail_fraction must be in \(0, 1\)"):
            convergence_filter(pairs, fraction)

    def test_rejects_zero_length_tail(self):
        pair = EigenPair(0.0, np.ones(1))
        with pytest.raises(ValueError):
            convergence_filter([pair], qubit_dim=2)

    # a nan tolerance used to judge every pair unconverged without complaint
    @pytest.mark.parametrize("tolerance", [np.nan, np.inf, 0.0, -1e-6])
    def test_rejects_bad_tolerance(self, tolerance):
        pair = EigenPair(0.0, np.ones(4) / 2)
        with pytest.raises(ValueError, match="tolerance"):
            convergence_filter([pair], tolerance=tolerance)

    def test_idempotent(self):
        t = build_subspace_tridiagonal(Q14P, ModelParams(1.0, 0.5, 0.2), 256)
        once = convergence_filter(solve_tridiagonal(t, 20))
        twice = convergence_filter(once.pairs)
        assert once.converged.tolist() == twice.converged.tolist()
        assert once.tails.tolist() == twice.tails.tolist()

    def test_ground_state_near_collapse(self):
        # converged count collapses to one exactly at g2 = omega/2
        t = build_subspace_tridiagonal(Q14P, ModelParams(1.0, 0.5, 0.245), 8192)
        near = convergence_filter(solve_tridiagonal(t, 25))
        assert near.converged[0]
        assert near.converged_count > 1
        t_c = build_subspace_tridiagonal(Q14P, ModelParams(1.0, 0.5, 0.25), 8192)
        at = convergence_filter(solve_tridiagonal(t_c, 25))
        assert at.converged_count == 1


def _filtered_subspaces(params, cutoff, k):
    out = []
    for label in ALL_SUBSPACES:
        t = build_subspace_tridiagonal(label, params, cutoff)
        out.append(convergence_filter(solve_tridiagonal(t, k)))
    return out


class TestAlignSpectra:
    def _reference(self):
        t = build_subspace_tridiagonal(Q14P, ModelParams(1.0, 0.5, 0.1), 128)
        return convergence_filter(solve_tridiagonal(t, 25))

    def test_identical_spectra(self):
        ref = self._reference()
        alignment = align_spectra(ref, [ref])
        assert alignment.offset == pytest.approx(0.0, abs=1e-12)
        assert alignment.residual < 1e-12

    def test_constant_shift_recovered(self):
        ref = self._reference()
        shifted = convergence_filter([EigenPair(p.value + 0.25, p.vector) for p in ref.pairs])
        alignment = align_spectra(ref, [shifted])
        assert alignment.offset == pytest.approx(-0.25, abs=1e-12)
        assert alignment.residual < 1e-12

    def test_rejects_sparse_spectra(self):
        ref = self._reference()
        starved = convergence_filter(ref.pairs, tolerance=1e-300)
        with pytest.raises(ValueError):
            align_spectra(starved, [ref])
        with pytest.raises(ValueError):
            align_spectra(ref, [starved])

    def test_subspace_union_matches_full_model(self):
        # the reference must span the aligned values, so solve it in full
        params = ModelParams(1.0, 0.5, 0.1)
        matrix = build_full_fock(params, 256)
        full = convergence_filter(
            solve_hermitian(matrix, matrix.dimension), qubit_dim=2
        )
        subs = _filtered_subspaces(params, 128, 128)
        alignment = align_spectra(full, subs)
        assert alignment.residual < 1e-8
        # quadrature-form subspaces sit omega/2 above the full model
        assert alignment.offset == pytest.approx(-0.25, abs=1e-8)

    @pytest.mark.parametrize("g2", [0.0, 0.1, 0.2])
    def test_block_completeness(self, g2):
        params = ModelParams(1.0, 0.5, g2)
        matrix = build_full_fock(params, 256)
        full = convergence_filter(
            solve_hermitian(matrix, matrix.dimension), qubit_dim=2
        )
        subs = _filtered_subspaces(params, 128, 128)
        offset = align_spectra(full, subs).offset
        union = np.sort(np.concatenate([s.converged_values + offset for s in subs]))
        assert len(union) == full.converged_count
        assert np.max(np.abs(union - full.converged_values)) < 1e-8


class TestSharedOffset:
    """One offset serves every sector, so a single misplaced sector shows."""

    def _full_and_sectors(self):
        params = ModelParams(1.0, 0.5, 0.1)
        matrix = build_full_fock(params, 256)
        full = convergence_filter(
            solve_hermitian(matrix, matrix.dimension), qubit_dim=2
        )
        return full, _filtered_subspaces(params, 128, 128)

    def test_shifted_sector_keeps_its_deviation(self):
        # a per-sector fit would absorb the shift and report ~0 everywhere;
        # q34+ holds neither the ground state nor a level within delta of another
        delta = 1e-3
        full, subs = self._full_and_sectors()
        moved = subs[2]
        subs[2] = convergence_filter(
            [EigenPair(p.value + delta, p.vector) for p in moved.pairs]
        )
        alignment = align_spectra(full, subs)
        assert alignment.residual == pytest.approx(delta, rel=1e-8)
        assert alignment.offset == pytest.approx(-0.25, abs=1e-8)

    @pytest.mark.parametrize("index,counted", [(0, True), (21, True), (22, False), (24, False)])
    def test_compares_the_prefix_less_its_top_tenth(self, index, counted):
        # 25 common values: the top max(2, ceil(25 / 10)) = 3 are left out
        t = build_subspace_tridiagonal(Q14P, ModelParams(1.0, 0.5, 0.1), 128)
        ref = convergence_filter(solve_tridiagonal(t, 25))
        assert ref.converged_count == 25
        bumped = convergence_filter(
            [
                EigenPair(p.value + (1e-3 if i == index else 0.0), p.vector)
                for i, p in enumerate(ref.pairs)
            ]
        )
        alignment = align_spectra(ref, [bumped])
        # a bumped ground state moves the anchor, which shifts every other entry
        assert alignment.residual == pytest.approx(1e-3 if counted else 0.0, abs=1e-12)

    def test_rejects_a_sector_without_converged_values(self):
        full, subs = self._full_and_sectors()
        # every tail above the tolerance; a tolerance of 1e-300 would not do,
        # since a full-spectrum solve reads some tails as exactly 0
        pairs = subs[1].pairs
        subs[1] = FilteredSpectrum(pairs, np.full(len(pairs), 1e-3), 1e-6)
        with pytest.raises(ValueError, match="converged"):
            align_spectra(full, subs)
