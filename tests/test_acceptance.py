"""End-to-end acceptance criteria, one reported verdict line per criterion.

Each test drives the library exactly as a study would: coarse coupling combs
at cutoff 2^10, the degenerate-regime oracle at 2^12, the exceptional-state
probe at 2^13, and the representation cross-checks. Criterion 4 encodes the
single-surviving-eigenstate claim literally on the three omega0 != 0 slices;
the measured overlap there is weaker (see the module tests for what actually
holds), so those three cases are expected to stay red. On the degenerate
slice (omega0 = 0) the collapse passes through the free-particle potential,
whose eigenfunctions are only Dirac-normalizable, so that case asserts that
no eigenpair survives the filter.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from tprabi import (
    ALL_SUBSPACES,
    ModelParams,
    SubspaceLabel,
    build_full_fock,
    build_subspace_tridiagonal,
    classify_regime,
    convergence_filter,
    critical_coupling,
    detect_collapse,
    exceptional_state,
    solve_hermitian,
    solve_point,
    solve_tridiagonal,
)
from tprabi.analytic import degenerate_energies, kummer_1f1
from tprabi.cli import _closed_form_and_numeric, main
from tprabi.model import build_phase_space, build_rotated_fock
from tprabi.solver import align_spectra

Q14P = SubspaceLabel(0.25, 1)

SURVEY_SLICES = [
    (0.0, 0.45, 0.225),
    (1.0, 0.5, 0.25),
    (1.0, 0.45, 0.225),
    (0.95, 0.5, 0.25),
]


class TestCriterion1CriticalCouplings:
    @pytest.mark.parametrize("omega0,omega,gc", SURVEY_SLICES)
    def test_collapse_located_within_one_comb_step(
        self, coarse_sweeps, criterion_report, omega0, omega, gc
    ):
        result, duration = coarse_sweeps(omega0, omega)
        estimate = detect_collapse(result, omega0, omega)
        name = f"1: critical coupling at (omega0={omega0}, omega={omega})"
        if not estimate.found:
            criterion_report(name, False, "no collapse located in the comb")
            pytest.fail("no collapse located")
        error = abs(estimate.coupling - gc)
        ok = error <= estimate.step * (1 + 1e-9) and duration < 300.0
        criterion_report(
            name,
            ok,
            f"g_c ~= {estimate.coupling:.6g} vs {gc} "
            f"(|err| {error:.2e} <= step {estimate.step:.2e}, {duration:.0f}s)",
        )
        assert error <= estimate.step * (1 + 1e-9)
        assert duration < 300.0


class TestCriterion2QubitFrequencyIndependence:
    def test_estimate_does_not_move_with_omega0(self, coarse_sweeps, criterion_report):
        estimates = {}
        step = None
        for omega0 in (0.0, 0.95, 1.0, 1.05):
            result, _ = coarse_sweeps(omega0, 0.5)
            estimate = detect_collapse(result, omega0, 0.5)
            assert estimate.found
            estimates[omega0] = estimate.coupling
            step = estimate.step
        spread = max(estimates.values()) - min(estimates.values())
        ok = spread <= step * (1 + 1e-9)
        criterion_report(
            "2: qubit-frequency independence",
            ok,
            f"ghat_c spread {spread:.2e} over omega0 in {sorted(estimates)} "
            f"(<= one comb step {step:.2e})",
        )
        assert ok


class TestCriterion3DegenerateOracle:
    def test_subspace_ladders_match_closed_form(self, criterion_report):
        worst = 0.0
        for g2 in (0.0, 0.1, 0.2):
            params = ModelParams(0.0, 0.45, g2)
            data = classify_regime(params)
            for label in ALL_SUBSPACES:
                tridiag = build_subspace_tridiagonal(label, params, 2**12)
                filtered = convergence_filter(solve_tridiagonal(tridiag, 25))
                values = filtered.converged_values[:10]
                assert len(values) == 10
                exact = degenerate_energies(
                    data.alpha_plus, data.alpha_minus, label.bargmann_q, 10
                )
                worst = max(worst, float(np.max(np.abs(values - exact) / exact)))
        ok = worst < 1e-8
        criterion_report(
            "3: degenerate analytic oracle",
            ok,
            f"max relative error {worst:.2e} over g2 in (0, 0.1, 0.2), "
            "4 subspaces, 10 levels each (< 1e-8)",
        )
        assert ok


class TestCriterion4ExceptionalState:
    @pytest.mark.parametrize("omega0,omega,gc", SURVEY_SLICES)
    def test_single_survivor_with_ground_state_overlap(
        self, criterion_report, omega0, omega, gc
    ):
        cutoff = 2**13
        params = ModelParams(omega0, omega, gc)
        filtered = solve_point(params, Q14P, cutoff, 25, 0.2, 1e-6)
        count = filtered.converged_count
        name = f"4: exceptional state at (omega0={omega0}, omega={omega})"
        if omega0 == 0.0:
            # at g_c the sector Hamiltonian is omega*x^2 - omega/2 (+ branch)
            # or omega*p^2 (- branch) on even parity: a purely continuous
            # spectrum with no square-integrable eigenvector, so nothing may
            # survive, and every tail must sit far above the tolerance
            smallest = float(filtered.tails.min())
            ok = count == 0 and len(filtered.pairs) == 25 and smallest > 1e-2
            criterion_report(
                name,
                ok,
                f"{count} survivors at the free-particle point, smallest tail "
                f"norm {smallest:.4f} (need 0 survivors, every tail > 1e-2)",
            )
            assert count == 0
            assert len(filtered.pairs) == 25
            assert smallest > 1e-2
            return
        state = exceptional_state(filtered, params, Q14P, cutoff)
        if state is None:
            criterion_report(
                name, False, f"{count} eigenpairs pass the filter, need exactly 1"
            )
            assert count == 1
        overlap = state.overlap
        ok = overlap > 0.9
        criterion_report(
            name, ok, f"single survivor, overlap {overlap:.4f} (need > 0.9)"
        )
        assert overlap > 0.9


class TestCriterion5RepresentationEquivalence:
    def test_subspace_union_reproduces_full_spectrum(self, criterion_report):
        worst = 0.0
        for g2 in (0.0, 0.1, 0.2):
            params = ModelParams(1.0, 0.5, g2)
            full_matrix = build_full_fock(params, 256)
            full = convergence_filter(
                solve_hermitian(full_matrix, full_matrix.dimension), qubit_dim=2
            )
            subs = [
                convergence_filter(
                    solve_tridiagonal(build_subspace_tridiagonal(lbl, params, 128), 128)
                )
                for lbl in ALL_SUBSPACES
            ]
            offset = align_spectra(full, subs).offset
            union = np.sort(np.concatenate([s.converged_values + offset for s in subs]))
            assert len(union) == full.converged_count
            worst = max(worst, float(np.max(np.abs(union - full.converged_values))))
        ok = worst < 1e-8
        criterion_report(
            "5a: subspace union vs full model",
            ok,
            f"max aligned deviation {worst:.2e} at g2 in (0, 0.1, 0.2) (< 1e-8)",
        )
        assert ok

    def test_rotation_chain_agreement(self, criterion_report):
        worst = 0.0
        for g2 in (0.0, 0.1, 0.2):
            params = ModelParams(1.0, 0.5, g2)
            full = [p.value for p in solve_hermitian(build_full_fock(params, 256), 20)]
            phase = [
                p.value for p in solve_hermitian(build_phase_space(params, 256), 20)
            ]
            rotated = [
                p.value for p in solve_hermitian(build_rotated_fock(params, 256), 20)
            ]
            shifted = np.asarray(full) + params.omega / 2
            worst = max(
                worst,
                float(np.max(np.abs(shifted - phase))),
                float(np.max(np.abs(shifted - rotated))),
            )
        ok = worst < 1e-8
        criterion_report(
            "5b: rotation-chain agreement",
            ok,
            f"max deviation {worst:.2e} across 20 lowest eigenvalues (< 1e-8)",
        )
        assert ok


class TestCriterion6EigenfunctionMatch:
    def test_ground_state_matches_hermite_gauss_mode(self, criterion_report):
        x = np.linspace(-10.0, 10.0, 2001)
        exact, numeric = _closed_form_and_numeric(ModelParams(0.0, 0.5, 0.1), Q14P, 2048, 0, x)
        err = float(np.sqrt(np.trapezoid((numeric - exact) ** 2, x)))
        ok = err < 1e-6
        criterion_report(
            "6: position-space eigenfunction match",
            ok,
            f"L2 grid error {err:.2e} on [-10, 10] x 2001 (< 1e-6)",
        )
        assert ok


class TestCriterion7PropertySuites:
    def test_module_invariants_hold(self, criterion_report, tmp_path, capsys):
        failures = []
        params = ModelParams(0.7, 0.6, 0.15)

        h = build_full_fock(params, 64).data
        if not np.array_equal(h, h.conj().T):
            failures.append("hermiticity")

        parity = np.kron(np.diag((-1.0) ** np.arange(64)), np.eye(2))
        if not np.array_equal(parity @ h, h @ parity.conj()):
            failures.append("parity commutation")

        tri = build_subspace_tridiagonal(Q14P, params, 64)
        plus = scipy.linalg.eigvalsh_tridiagonal(tri.diag, tri.offdiag)
        minus = scipy.linalg.eigvalsh_tridiagonal(tri.diag, -tri.offdiag)
        if np.max(np.abs(plus - minus)) > 1e-12:
            failures.append("tridiagonal gauge invariance")

        pairs = solve_tridiagonal(tri, 8)
        once = convergence_filter(pairs, 0.2, 1e-6)
        twice = convergence_filter(once.pairs, 0.2, 1e-6)
        if once.converged.tolist() != twice.converged.tolist():
            failures.append("filter idempotence")

        gram = np.array([[np.dot(a.vector, b.vector) for a in pairs] for b in pairs])
        if np.max(np.abs(gram - np.eye(len(pairs)))) > 1e-10:
            failures.append("orthonormality")

        degenerate = ModelParams(0.0, 0.45, 0.1)
        Omega = classify_regime(degenerate).Omega
        ladder = convergence_filter(
            solve_tridiagonal(build_subspace_tridiagonal(Q14P, degenerate, 2048), 8)
        ).converged_values
        if np.max(np.abs(np.diff(ladder) - 2 * Omega)) > 1e-10:
            failures.append("equidistance")

        z = np.linspace(-5.0, 5.0, 101)
        kummer_err = max(
            abs(kummer_1f1(1.0, 1.0, zi) - math.exp(zi)) / math.exp(zi) for zi in z
        )
        if kummer_err > 1e-12:
            failures.append("Kummer identity")

        argv = (
            "spectrum --omega0 1 --omega 0.5 --g2 0.2 --cutoff 128"
            " --subspace q14+ --out".split()
        )
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + [str(first)]) == 0
        assert main(argv + [str(second)]) == 0
        if first.read_bytes() != second.read_bytes():
            failures.append("CSV determinism")

        ok = not failures
        criterion_report(
            "7: property suites",
            ok,
            "all module invariants hold" if ok else "failed: " + ", ".join(failures),
        )
        assert ok, failures


class TestSweepScalingProperties:
    def test_critical_coupling_scales_with_omega(self, coarse_sweeps):
        for omega in (0.45, 0.5, 0.55):
            result, _ = coarse_sweeps(1.0, omega)
            estimate = detect_collapse(result, 1.0, omega)
            assert estimate.found
            assert abs(estimate.coupling / omega - 0.5) <= estimate.step / omega * (
                1 + 1e-9
            )

    def test_count_monotone_across_collapse(self, coarse_sweeps):
        # 0.98 g_c and g_c are comb points 98 and 100 of the 200-step comb
        for omega0, omega, gc in SURVEY_SLICES:
            result, _ = coarse_sweeps(omega0, omega)
            rows = result.slice_rows(omega0, omega)
            near = [r for r in rows if abs(r.g2 - 0.98 * gc) < 1e-12]
            at = [r for r in rows if abs(r.g2 - gc) < 1e-12]
            assert len(near) == 1 and len(at) == 1
            assert near[0].converged_count >= at[0].converged_count
