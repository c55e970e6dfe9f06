"""Coupling-comb surveys, collapse detection, and the exceptional state."""

import dataclasses

import numpy as np
import pytest

import tprabi.sweep
from tprabi import (
    FAILURE_COUNT,
    CollapseEstimate,
    ModelParams,
    RelativeComb,
    SubspaceLabel,
    SweepConfig,
    SweepResult,
    SweepRow,
    build_full_fock,
    build_subspace_tridiagonal,
    convergence_filter,
    detect_collapse,
    exceptional_state,
    refine_comb,
    run_sweep,
    solve_hermitian,
    solve_point,
    solve_tridiagonal,
)

Q14P = SubspaceLabel(0.25, 1)
Q34P = SubspaceLabel(0.75, 1)


def make_row(g2, count, *, omega0=1.0, omega=0.5, subspace=Q14P, error=None, **over):
    fields = dict(
        omega0=omega0,
        omega=omega,
        g2=g2,
        subspace=subspace,
        cutoff=1024,
        eigenpairs=25,
        tail_fraction=0.2,
        tolerance=1e-6,
        converged_count=count,
        energies=(),
        collapsed=(error is None and count <= 1),
        exceptional=(error is None and count == 1),
        error=error,
    )
    fields.update(over)
    return SweepRow(**fields)


def make_result(rows):
    config = SweepConfig((1.0,), (0.5,), tuple(r.g2 for r in rows), (Q14P,), 1024)
    return SweepResult(config, tuple(rows))


class TestRelativeComb:
    def test_comb_points(self):
        comb = RelativeComb(steps=200, lo=0.0, hi=2.0)
        couplings = comb.couplings(0.45)
        assert len(couplings) == 201
        assert couplings[0] == 0.0
        assert couplings[-1] == pytest.approx(0.45, rel=1e-15)
        # the critical coupling itself lands on the comb
        assert couplings[100] == pytest.approx(0.225, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            RelativeComb(steps=0, lo=0.0, hi=2.0)
        with pytest.raises(ValueError):
            RelativeComb(steps=10, lo=1.0, hi=1.0)
        with pytest.raises(ValueError):
            RelativeComb(steps=10, lo=-0.1, hi=2.0)


class TestSweepConfig:
    def test_defaults(self):
        config = SweepConfig((1.0,), (0.5,), (0.1,), (Q14P,), 1024)
        assert config.requested_eigenpairs == 25
        assert config.tail_fraction == 0.2
        assert config.tolerance == 1e-6

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(omega0_grid=()),
            dict(omega_grid=()),
            dict(coupling_spec=()),
            dict(subspaces=()),
            dict(subspaces=("q14p",)),
            dict(cutoff=63),
            dict(requested_eigenpairs=1),
            dict(tail_fraction=0.0),
            dict(tail_fraction=1.0),
            dict(tolerance=0.0),
        ],
    )
    def test_validation(self, kwargs):
        base = dict(
            omega0_grid=(1.0,),
            omega_grid=(0.5,),
            coupling_spec=(0.1,),
            subspaces=(Q14P,),
            cutoff=1024,
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            SweepConfig(**base)

    def test_relative_comb_needs_positive_omega(self):
        comb = RelativeComb(steps=4, lo=0.0, hi=2.0)
        with pytest.raises(ValueError, match="omega > 0"):
            SweepConfig((1.0,), (0.5, 0.0), comb, (Q14P,), 64)
        # absolute couplings leave omega = 0 to the per-row solve
        assert SweepConfig((1.0,), (0.0,), (0.1,), (Q14P,), 64).omega_grid == (0.0,)

    def test_full_subspace_accepted(self):
        config = SweepConfig((1.0,), (0.5,), (0.1,), ("full", Q14P), 64)
        assert config.subspaces == ("full", Q14P)

    def test_couplings_for_comb(self):
        config = SweepConfig(
            (1.0,), (0.5,), RelativeComb(steps=4, lo=0.0, hi=2.0), (Q14P,), 64
        )
        assert np.allclose(config.couplings_for(0.5), [0.0, 0.125, 0.25, 0.375, 0.5])


class TestDetectCollapse:
    def test_synthetic_profile(self):
        couplings = [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4]
        counts = [25, 25, 24, 10, 1, 0, 0]
        result = make_result([make_row(g, c) for g, c in zip(couplings, counts)])
        estimate = detect_collapse(result, 1.0, 0.5)
        assert estimate.found
        assert estimate.coupling == pytest.approx(0.3)
        assert estimate.step == pytest.approx(0.05)

    def test_no_collapse(self):
        result = make_result([make_row(g, 25) for g in (0.1, 0.2, 0.3)])
        estimate = detect_collapse(result, 1.0, 0.5)
        assert estimate == CollapseEstimate(False)

    def test_failed_rows_are_not_evidence(self):
        rows = [
            make_row(0.1, 25),
            make_row(0.2, FAILURE_COUNT, error="ValueError: boom"),
            make_row(0.3, 0),
        ]
        estimate = detect_collapse(make_result(rows), 1.0, 0.5)
        assert estimate.found and estimate.coupling == pytest.approx(0.3)

    def test_collapse_at_first_point_uses_leading_step(self):
        result = make_result([make_row(0.3, 1), make_row(0.4, 0)])
        estimate = detect_collapse(result, 1.0, 0.5)
        assert estimate.coupling == pytest.approx(0.3)
        assert estimate.step == pytest.approx(0.1)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            detect_collapse(make_result([make_row(0.1, 25)]), 1.0, 0.5)

    def test_non_monotone_comb(self):
        result = make_result([make_row(0.3, 25), make_row(0.1, 0)])
        with pytest.raises(ValueError):
            detect_collapse(result, 1.0, 0.5)

    def test_mixed_subspace_slice_needs_selector(self):
        rows = [
            make_row(0.1, 25),
            make_row(0.1, 25, subspace=Q34P),
            make_row(0.2, 25),
            make_row(0.2, 25, subspace=Q34P),
        ]
        result = make_result(rows)
        with pytest.raises(ValueError):
            detect_collapse(result, 1.0, 0.5)
        estimate = detect_collapse(result, 1.0, 0.5, subspace=Q14P)
        assert not estimate.found


class TestRefineComb:
    @pytest.mark.parametrize("center", [0.25, 0.225])
    def test_two_percent_window(self, center):
        config = SweepConfig(
            (1.0,), (0.5,), RelativeComb(steps=10, lo=0.0, hi=2.0), (Q14P,), 64
        )
        refined = refine_comb(config, center)
        couplings = refined.couplings_for(0.5)
        assert len(couplings) == 200
        assert couplings[0] == pytest.approx(0.98 * center, rel=1e-15)
        assert couplings[-1] == pytest.approx(1.02 * center, rel=1e-15)

    def test_other_settings_preserved(self):
        config = SweepConfig((1.0,), (0.5,), (0.1,), (Q14P,), 128, tolerance=1e-8)
        refined = refine_comb(config, 0.25)
        assert refined.cutoff == 128 and refined.tolerance == 1e-8

    def test_rejects_nonpositive_center(self):
        config = SweepConfig((1.0,), (0.5,), (0.1,), (Q14P,), 64)
        with pytest.raises(ValueError):
            refine_comb(config, 0.0)


class TestRunSweep:
    def test_row_order_and_determinism(self):
        config = SweepConfig(
            (0.0, 1.0), (0.5,), (0.05, 0.1), (Q14P, "full"), 64, requested_eigenpairs=4
        )
        first = run_sweep(config)
        second = run_sweep(config)
        assert first.rows == second.rows
        keys = [(r.omega0, r.omega, r.g2) for r in first.rows]
        assert keys == sorted(keys)
        assert [r.subspace for r in first.rows[:2]] == [Q14P, "full"]

    def test_failure_rows_never_abort(self):
        config = SweepConfig(
            (1.0,), (0.5,), (-0.1, 0.1), (Q14P,), 64, requested_eigenpairs=4
        )
        result = run_sweep(config)
        bad, good = result.rows
        assert bad.converged_count == FAILURE_COUNT
        assert bad.error is not None and "ValueError" in bad.error
        assert not bad.collapsed and not bad.exceptional
        assert good.error is None and good.converged_count >= 0

    def test_programming_errors_are_not_failure_rows(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug in a builder")

        monkeypatch.setattr(tprabi.sweep, "build_subspace_tridiagonal", broken)
        config = SweepConfig((1.0,), (0.5,), (0.1,), (Q14P,), 64)
        with pytest.raises(TypeError, match="bug in a builder"):
            run_sweep(config)

    def test_degenerate_critical_point_loses_every_state(self):
        # at omega0 = 0 the filter keeps nothing at g_c: the collapse there
        # leaves no normalizable survivor, so exceptional stays False
        config = SweepConfig((0.0,), (0.45,), (0.2, 0.225), (Q14P,), 8192)
        before, at = run_sweep(config).rows
        assert before.converged_count == 25
        assert at.converged_count == 0
        assert at.collapsed and not at.exceptional


class TestSolvePoint:
    @pytest.mark.parametrize(
        "subspace,tail_fraction,tolerance", [(Q34P, 0.2, 1e-6), ("full", 0.3, 1e-8)]
    )
    def test_matches_build_solve_filter(self, subspace, tail_fraction, tolerance):
        params = ModelParams(1.0, 0.5, 0.2)
        if subspace == "full":
            pairs = solve_hermitian(build_full_fock(params, 128), 30)
            expected = convergence_filter(pairs, tail_fraction, tolerance, qubit_dim=2)
        else:
            pairs = solve_tridiagonal(build_subspace_tridiagonal(subspace, params, 128), 30)
            expected = convergence_filter(pairs, tail_fraction, tolerance)
        got = solve_point(params, subspace, 128, 30, tail_fraction, tolerance)
        assert 0 < got.converged_count < 30
        assert [p.value for p in got.pairs] == [p.value for p in expected.pairs]
        assert [p.tail_norm for p in got.pairs] == [p.tail_norm for p in expected.pairs]
        assert [p.converged for p in got.pairs] == [p.converged for p in expected.pairs]
        assert (got.cutoff, got.tail_fraction, got.tolerance) == (128, tail_fraction, tolerance)

    def test_k_clamped_to_dimension(self):
        params = ModelParams(1.0, 0.5, 0.1)
        assert len(solve_point(params, Q14P, 64, 500).pairs) == 64
        assert len(solve_point(params, "full", 64, 500).pairs) == 128


class TestRefineIntegration:
    def test_refined_estimate_tightens_to_known_critical_point(self):
        config = SweepConfig(
            (1.0,), (0.5,), RelativeComb(steps=8, lo=0.0, hi=2.0), (Q14P,), 1024
        )
        coarse = detect_collapse(run_sweep(config), 1.0, 0.5)
        assert coarse.found and coarse.coupling == pytest.approx(0.25)
        refined = detect_collapse(
            run_sweep(refine_comb(config, coarse.coupling)), 1.0, 0.5
        )
        assert refined.found
        assert abs(refined.coupling - 0.25) < 2e-4
        assert refined.step < coarse.step


class TestExceptionalState:
    def test_critical_point_survivor(self):
        row = make_row(0.25, 1, cutoff=8192)
        state = exceptional_state(row)
        assert state.pair.value == pytest.approx(-0.010035201610, abs=1e-9)
        assert state.overlap == pytest.approx(0.7780010930, abs=1e-8)
        assert np.isclose(np.linalg.norm(state.pair.vector), 1.0)

    def test_rejects_non_exceptional_row(self):
        with pytest.raises(ValueError):
            exceptional_state(make_row(0.25, 0))
        with pytest.raises(ValueError):
            exceptional_state(make_row(0.25, 25))

    def test_rejects_failed_row(self):
        row = make_row(0.25, FAILURE_COUNT, error="ValueError: boom")
        with pytest.raises(ValueError):
            exceptional_state(row)

    def test_rejects_row_whose_resolve_disagrees(self):
        # claims exceptional but the re-solve finds a full ladder
        row = make_row(0.1, 1, exceptional=True, collapsed=True)
        with pytest.raises(ValueError, match="expected exactly 1"):
            exceptional_state(row)
