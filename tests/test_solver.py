"""Eigensolvers, the tail-norm filter, and cross-spectrum alignment."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tprabi import (
    ALL_SUBSPACES,
    ModelParams,
    SubspaceLabel,
    build_full_fock,
    build_subspace_tridiagonal,
    convergence_filter,
    solve_hermitian,
    solve_tridiagonal,
)
from tprabi.model import HermitianMatrix, TridiagonalMatrix, full_fock_chains
from tprabi.solver import EigenPair, align_spectra, solve_chains, tail_norm_of

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
        chains = full_fock_chains(params, 64)
        full = build_full_fock(params, 64)
        for lapack in ("eigh_tridiagonal", "eigh"):
            damage_last_column(lapack, damage)
        with pytest.raises(ValueError, match=BAD_COLUMN):
            solve_tridiagonal(sector, 10)
        with pytest.raises(ValueError, match=BAD_COLUMN):
            solve_chains(chains, 10)
        with pytest.raises(ValueError, match=BAD_COLUMN):
            solve_hermitian(full, 10)


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

    def test_equal_values_ordered_by_tail(self):
        e0, e9 = np.eye(10)[0], np.eye(10)[9]
        spectrum = convergence_filter([EigenPair(0.5, e9), EigenPair(0.5, e0)])
        assert spectrum.tails.tolist() == [0.0, 1.0]
        assert spectrum.pairs[0].vector[0] == 1.0

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
        subs[1] = convergence_filter(subs[1].pairs, tolerance=1e-300)
        with pytest.raises(ValueError, match="converged"):
            align_spectra(full, subs)
