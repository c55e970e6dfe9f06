"""Hamiltonian builders: matrix elements, symmetry, and equivalences."""

import functools
import pickle

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

import tprabi.model
from tprabi import (
    ALL_SUBSPACES,
    FULL,
    ModelParams,
    SubspaceLabel,
    build_full_fock,
    build_subspace_tridiagonal,
    solve_hermitian,
)
from tprabi.model import (
    HermitianMatrix,
    TridiagonalMatrix,
    build_phase_space,
    build_rotated_fock,
    full_fock_chains,
    rotation_gauge_deviation,
    subspace_from_name,
)

params_st = st.builds(
    ModelParams,
    omega0=st.floats(0.0, 3.0),
    omega=st.floats(0.05, 3.0),
    g2=st.floats(0.0, 2.0),
)


def eigenvalues(matrix: HermitianMatrix) -> np.ndarray:
    return np.linalg.eigvalsh(matrix.data)


class TestModelParams:
    def test_accepts_boundary_values(self):
        ModelParams(0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "bad", [(-1.0, 1.0, 0.0), (1.0, -0.5, 0.0), (1.0, 1.0, -0.1), (np.nan, 1.0, 0.0)]
    )
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            ModelParams(*bad)


class TestSubspaceLabel:
    def test_names_round_trip(self):
        for label in ALL_SUBSPACES:
            assert subspace_from_name(label.name) == label
        assert {s.name for s in ALL_SUBSPACES} == {"q14+", "q14-", "q34+", "q34-"}

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            SubspaceLabel(0.5, 1)
        with pytest.raises(ValueError):
            SubspaceLabel(0.25, 0)
        with pytest.raises(ValueError, match="unknown subspace"):
            subspace_from_name("q12+")

    def test_full_is_a_named_label(self):
        assert subspace_from_name("full") is FULL
        assert FULL.name == "full"
        for label in ALL_SUBSPACES:
            assert subspace_from_name(label.name) == label
        with pytest.raises(ValueError, match="unknown subspace"):
            subspace_from_name("Full")

    def test_from_name_reads_the_same_table_for_sectors_only(self):
        # kept for the benchmark's answer checks
        for label in ALL_SUBSPACES:
            assert SubspaceLabel.from_name(label.name) is subspace_from_name(label.name)
        for name in ("full", "q12+"):
            with pytest.raises(ValueError):
                SubspaceLabel.from_name(name)

    def test_labels_survive_pickling(self):
        # forked sweep workers send their rows back pickled
        assert pickle.loads(pickle.dumps(FULL)) is FULL
        for label in ALL_SUBSPACES:
            copy = pickle.loads(pickle.dumps(label))
            assert copy == label and hash(copy) == hash(label) and copy.name == label.name


class TestStorageTypes:
    def test_tridiagonal_shape_checks(self):
        with pytest.raises(ValueError):
            TridiagonalMatrix(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            TridiagonalMatrix(np.array([1.0, np.inf]), np.zeros(1))
        with pytest.raises(ValueError, match="one-dimensional"):
            TridiagonalMatrix(np.zeros((2, 2)), np.zeros(1))

    def test_dense_must_be_hermitian(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            HermitianMatrix([[np.nan]])

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
    def test_dense_must_be_square(self, shape):
        with pytest.raises(ValueError, match="square"):
            HermitianMatrix(np.zeros(shape))


class TestFullFock:
    def test_decoupled_point(self):
        # g2 = 0 leaves oscillator levels split by the qubit
        h = build_full_fock(ModelParams(1.0, 1.0, 0.0), 2)
        assert np.allclose(eigenvalues(h), [-0.5, 0.5, 0.5, 1.5], atol=1e-14)

    def test_number_operator_point(self):
        h = build_full_fock(ModelParams(0.0, 1.0, 0.0), 3)
        assert np.array_equal(h.data, np.diag([0.0, 0.0, 1.0, 1.0, 2.0, 2.0]))

    def test_frozen_ground_energy(self):
        h = build_full_fock(ModelParams(1.0, 0.5, 0.1), 64)
        ground = solve_hermitian(h, 1)[0].value
        assert ground == pytest.approx(-0.5102660183012444, abs=1e-10)

    def test_two_photon_element(self):
        # <n+2, down | H | n, up> = g2 sqrt((n+1)(n+2))
        h = build_full_fock(ModelParams(0.3, 0.7, 0.2), 8).data
        n = 3
        up, flipped = 2 * n, 2 * (n + 2) + 1
        assert h[flipped, up] == pytest.approx(0.2 * np.sqrt(4 * 5), abs=1e-15)

    def test_at_scale_truncates_to_smaller_build(self):
        params = ModelParams(1.0, 0.5, 0.2)
        big = build_full_fock(params, 512)
        small = build_full_fock(params, 512 - 480)
        sub = big.data[: small.dimension, : small.dimension]
        assert np.array_equal(sub, small.data)


class TestFullFockChains:
    @pytest.mark.parametrize("omega0", [0.0, 1.0])
    @pytest.mark.parametrize("cutoff", [2, 3, 4, 5, 64, 1025])
    def test_chains_scatter_to_full_matrix(self, cutoff, omega0):
        params = ModelParams(omega0, 0.5, 0.2)
        chains = full_fock_chains(params, cutoff)
        assert len(chains) == 4
        indices = np.concatenate([idx for idx, _ in chains])
        assert np.array_equal(np.sort(indices), np.arange(2 * cutoff))
        dense = np.zeros((2 * cutoff, 2 * cutoff))
        for idx, chain in chains:
            dense[idx, idx] = chain.diag
            dense[idx[1:], idx[:-1]] = chain.offdiag
            dense[idx[:-1], idx[1:]] = chain.offdiag
        assert np.array_equal(dense, build_full_fock(params, cutoff).data)

    @pytest.mark.parametrize("cutoff,lengths", [(2, [1, 1, 1, 1]), (5, [3, 3, 2, 2])])
    def test_chain_lengths(self, cutoff, lengths):
        chains = full_fock_chains(ModelParams(1.0, 0.5, 0.2), cutoff)
        assert [chain.dimension for _, chain in chains] == lengths

    @pytest.mark.parametrize("g2", [0.0, 0.4])
    @pytest.mark.parametrize("omega0", [0.0, 1.3])
    @pytest.mark.parametrize("cutoff", [64, 65, 2048])
    def test_chain_c_is_sector_c(self, cutoff, omega0, g2):
        # the same ladder up to the full model's -omega/2 shift and the
        # sector's sign convention on the coupling
        params = ModelParams(omega0, 0.5, g2)
        for label, (_, chain) in zip(ALL_SUBSPACES, full_fock_chains(params, cutoff)):
            sector = build_subspace_tridiagonal(label, params, chain.dimension)
            assert np.array_equal(chain.offdiag, -sector.offdiag), label.name
            np.testing.assert_allclose(
                chain.diag, sector.diag - params.omega / 2, rtol=1e-15, atol=0
            )


class TestPhaseSpace:
    def test_quadrature_oscillator_point(self):
        h = build_phase_space(ModelParams(0.0, 1.0, 0.0), 3)
        vals = eigenvalues(h)
        # elementwise-truncated (p^2+q^2)/2 is diagonal n + 1/2 per branch
        assert np.allclose(vals[:4], [0.5, 0.5, 1.5, 1.5], atol=1e-14)

    def test_hermitian_by_construction(self):
        h = build_phase_space(ModelParams(1.0, 1.0, 0.0), 2).data
        assert np.array_equal(h, h.conj().T)

    def test_spectrum_shifted_from_full(self):
        # quadrature form sits omega/2 above the Fock form
        params = ModelParams(1.0, 0.5, 0.15)
        full = eigenvalues(build_full_fock(params, 256))
        phase = eigenvalues(build_phase_space(params, 256))
        assert np.max(np.abs(full[:20] + 0.25 - phase[:20])) < 1e-8


class TestRotatedFock:
    def test_block_diagonal_when_degenerate(self):
        h = build_rotated_fock(ModelParams(0.0, 0.8, 0.3), 6).data
        assert np.all(h[0::2, 1::2] == 0)
        assert np.array_equal(h[0::2, 0::2], h[1::2, 1::2])

    def test_hermitian_by_construction(self):
        h = build_rotated_fock(ModelParams(1.0, 1.0, 0.0), 4).data
        assert np.array_equal(h, h.conj().T)

    def test_coupling_phases(self):
        h = build_rotated_fock(ModelParams(2.0, 1.0, 0.0), 4).data
        n = np.arange(4)
        expected = np.exp(-1j * np.pi * (n + 0.5) / 2.0)
        assert np.allclose(np.diag(h[0::2, 1::2]), expected, atol=1e-15)

    @given(params_st, st.integers(2, 80))
    def test_gauge_identity(self, params, cutoff):
        # U^dag F U + omega/2 = P, U = (Hadamard on the qubit) (x) diag(i^n), and
        # D^dag R D = P, D = 1 on |n, up> and exp(i pi (n + 1/2)/2) on |n, down>:
        # dense, and band by band, to the rounding of the phases
        phase_space = build_phase_space(params, cutoff).data
        u = np.kron(np.diag(np.array([1, 1j, -1, -1j])[np.arange(cutoff) % 4]), [[1, 1], [1, -1]])
        gauged = u.conj().T @ build_full_fock(params, cutoff).data @ u / 2.0
        gauged[np.diag_indices(2 * cutoff)] += params.omega / 2.0
        d = np.ones(2 * cutoff, dtype=complex)
        d[1::2] = np.exp(0.5j * np.pi * (np.arange(cutoff) + 0.5))
        rotated = build_rotated_fock(params, cutoff).data
        scale = params.omega0 + params.omega + params.g2 * cutoff  # |d_n|^2 rounds too
        bound = 16 * np.finfo(float).eps * cutoff * scale
        assert np.max(np.abs(gauged - phase_space)) <= bound
        assert np.max(np.abs(np.conj(d)[:, None] * rotated * d - phase_space)) <= bound
        assert rotation_gauge_deviation(params, cutoff) <= bound

    # every array band of each form: up, down, the rotated cross term, then the
    # same-spin bands of the rotated and phase-space forms and the spin-flip
    # bands of the full-Fock form, each for s = up, down
    @pytest.mark.parametrize(
        "form,band",
        [("_rotated_bands", b) for b in range(5)]
        + [("_phase_space_bands", b) for b in (0, 1, 3, 4)]
        + [("_full_fock_bands", b) for b in (0, 1, 5, 6)],
    )
    def test_gauge_deviation_reads_every_band(self, monkeypatch, form, band):
        # one element of one band moved by 0.1 reads 0.1
        real_bands = getattr(tprabi.model, form)

        def moved(params, cutoff):
            up, down, cross, *spin_pairs = real_bands(params, cutoff)
            bands = [up, down, cross, *(b for pair in spin_pairs for b in pair)]
            bands[band] = bands[band] + 0.1 * (np.arange(len(bands[band])) == 3)
            return *bands[:3], *zip(bands[3::2], bands[4::2])

        params = ModelParams(0.7, 0.5, 0.13)
        assert rotation_gauge_deviation(params, 16) < 1e-14
        monkeypatch.setattr(tprabi.model, form, moved)
        assert rotation_gauge_deviation(params, 16) == pytest.approx(0.1, rel=1e-12)

    def test_spectrum_matches_phase_space(self):
        params = ModelParams(0.9, 0.6, 0.2)
        phase = eigenvalues(build_phase_space(params, 256))
        rotated = eigenvalues(build_rotated_fock(params, 256))
        assert np.max(np.abs(phase[:20] - rotated[:20])) < 1e-8


class TestSubspaceTridiagonal:
    def test_hand_evaluated_point(self):
        t = build_subspace_tridiagonal(
            SubspaceLabel(0.25, 1), ModelParams(1.0, 0.5, 0.1), 3
        )
        assert np.allclose(t.diag, [0.75, 0.75, 2.75], atol=1e-15)
        assert np.allclose(
            t.offdiag, [-0.2 * np.sqrt(0.5), -0.2 * np.sqrt(3.0)], atol=1e-15
        )

    def test_bare_ladder(self):
        t = build_subspace_tridiagonal(
            SubspaceLabel(0.25, 1), ModelParams(0.0, 1.0, 0.0), 4
        )
        assert np.array_equal(t.diag, [0.5, 2.5, 4.5, 6.5])
        assert np.all(t.offdiag == 0)

    def test_parity_alternation(self):
        t = build_subspace_tridiagonal(
            SubspaceLabel(0.75, -1), ModelParams(2.0, 0.0, 0.0), 2
        )
        assert np.array_equal(t.diag, [-1.0, 1.0])

    @given(params_st)
    def test_degenerate_branches_identical(self, params):
        degenerate = ModelParams(0.0, params.omega, params.g2)
        for q in (0.25, 0.75):
            plus = build_subspace_tridiagonal(SubspaceLabel(q, 1), degenerate, 16)
            minus = build_subspace_tridiagonal(SubspaceLabel(q, -1), degenerate, 16)
            assert np.array_equal(plus.diag, minus.diag)
            assert np.array_equal(plus.offdiag, minus.offdiag)

    @given(params_st, st.integers(4, 64))
    def test_gauge_invariance(self, params, cutoff):
        # flipping the off-diagonal sign is a diagonal +/-1 similarity
        t = build_subspace_tridiagonal(SubspaceLabel(0.25, 1), params, cutoff)
        flipped = scipy.linalg.eigvalsh_tridiagonal(t.diag, -t.offdiag)
        original = scipy.linalg.eigvalsh_tridiagonal(t.diag, t.offdiag)
        assert np.max(np.abs(flipped - original)) < 1e-12


class TestBosonParity:
    @given(params_st, st.sampled_from([8, 32, 256]))
    def test_commutes_with_full_model(self, params, cutoff):
        h = build_full_fock(params, cutoff).data
        # Fock parity (-1)^n on the boson, identity on the qubit
        p = np.kron(np.diag((-1.0) ** np.arange(cutoff)), np.eye(2))
        assert np.array_equal(h @ p, p @ h)


def elementwise_reference(builder, params, cutoff):
    """The builder's matrix assembled entry by entry from its documented
    matrix elements, both triangles written explicitly."""
    N = cutoff
    complex_phases = builder is build_rotated_fock
    h = np.zeros((2 * N, 2 * N), dtype=complex if complex_phases else float)

    def put(i, j, value):
        h[i, j] = value
        h[j, i] = np.conj(value)

    phases = np.exp(-1j * np.pi * (np.arange(N) + 0.5) / 2.0)
    for n in range(N):
        if builder is build_full_fock:
            put(2 * n, 2 * n, params.omega * n + params.omega0 / 2.0)
            put(2 * n + 1, 2 * n + 1, params.omega * n - params.omega0 / 2.0)
        else:
            put(2 * n, 2 * n, params.omega * (n + 0.5))
            put(2 * n + 1, 2 * n + 1, params.omega * (n + 0.5))
            if complex_phases:
                put(2 * n, 2 * n + 1, (params.omega0 / 2.0) * phases[n])
            else:
                put(2 * n + 1, 2 * n, params.omega0 / 2.0)
    for m in range(N - 2):
        root = np.sqrt((m + 1.0) * (m + 2.0))
        if builder is build_full_fock:
            put(2 * m + 5, 2 * m, params.g2 * root)
            put(2 * m + 4, 2 * m + 1, params.g2 * root)
        else:
            put(2 * m + 4, 2 * m, -2.0 * params.g2 * (root / 2.0))
            sign = -1.0 if complex_phases else 1.0
            put(2 * m + 5, 2 * m + 1, sign * 2.0 * params.g2 * (root / 2.0))
    return h


class TestBuilderInvariants:
    @pytest.mark.parametrize("builder", [build_full_fock, build_phase_space, build_rotated_fock])
    @pytest.mark.parametrize("cutoff", [2, 3, 5, 64, 7])
    @pytest.mark.parametrize(
        "point",
        [(1.0, 0.5, 0.2), (0.0, 0.45, 0.1), (1.0, 0.5, 0.0), (2.1, 1.0, 0.49), (0.0, 0.5, 0.0)],
    )
    def test_matches_elementwise_definition(self, builder, cutoff, point):
        # every entry and the dtype: float for the Fock and phase-space
        # forms, complex for the rotated form's phases
        params = ModelParams(*point)
        expected = elementwise_reference(builder, params, cutoff)
        data = builder(params, cutoff).data
        assert data.dtype == expected.dtype
        assert np.array_equal(data, expected)

    @pytest.mark.parametrize(
        "builder",
        [
            build_full_fock,
            build_phase_space,
            build_rotated_fock,
            functools.partial(build_subspace_tridiagonal, SubspaceLabel(0.75, -1)),
            full_fock_chains,
        ],
        ids=["full", "phase", "rotated", "sector", "chains"],
    )
    @pytest.mark.parametrize(
        "cutoff,message",
        [
            (1, "cutoff 1 too small, need at least 2"),
            (0, "cutoff 0 too small, need at least 2"),
            (-3, "cutoff -3 too small, need at least 2"),
            (2.0, "cutoff must be an integer, got 2.0"),
            (True, "cutoff must be an integer, got True"),
            ("x", "cutoff must be an integer, got 'x'"),
        ],
    )
    def test_bad_cutoff_rejected_before_build(self, builder, cutoff, message):
        # the cutoff check runs first, so no numpy error from sizing an
        # array by a bad cutoff gets ahead of it
        with pytest.raises(ValueError) as caught:
            builder(ModelParams(1.0, 1.0, 0.1), cutoff)
        assert str(caught.value) == message

    @given(params_st, st.integers(2, 40))
    def test_exact_hermiticity(self, params, cutoff):
        for builder in (build_full_fock, build_phase_space, build_rotated_fock):
            h = builder(params, cutoff).data
            assert np.array_equal(h, h.conj().T)

    @given(params_st)
    def test_unitary_equivalence_chain(self, params):
        full = eigenvalues(build_full_fock(params, 64))
        phase = eigenvalues(build_phase_space(params, 64))
        rotated = eigenvalues(build_rotated_fock(params, 64))
        shifted = full + params.omega / 2.0
        # elementwise truncation keeps the chain exactly equivalent, so the
        # whole spectrum agrees, not only the interior
        assert np.max(np.abs(shifted - phase)) < 1e-10
        assert np.max(np.abs(shifted - rotated)) < 1e-10

    def test_chain_at_reference_cutoff(self):
        params = ModelParams(1.0, 0.5, 0.2)
        full = eigenvalues(build_full_fock(params, 256))
        phase = eigenvalues(build_phase_space(params, 256))
        rotated = eigenvalues(build_rotated_fock(params, 256))
        shifted = full + 0.25
        assert np.max(np.abs(shifted[:20] - phase[:20])) < 1e-8
        assert np.max(np.abs(shifted[:20] - rotated[:20])) < 1e-8
