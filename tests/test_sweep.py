"""Coupling-comb surveys, collapse detection, and the exceptional state."""

import dataclasses
import math
import os
import re
import signal
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import tprabi.sweep
from tprabi import (
    ALL_SUBSPACES,
    FULL,
    ModelParams,
    RelativeComb,
    SubspaceLabel,
    SweepConfig,
    build_full_fock,
    build_subspace_tridiagonal,
    convergence_filter,
    detect_collapse,
    exceptional_state,
    locate_collapse,
    refine_comb,
    run_sweep,
    solve_hermitian,
    solve_point,
    solve_tridiagonal,
)
from tprabi.cli import _sweep_summary, parse_sweep_config, sweep_csv
from tprabi.model import full_fock_chains
from tprabi.solver import EigenPair, FilteredSpectrum, solve_chains
from tprabi.sweep import FAILURE_COUNT, CollapseEstimate, SweepResult, SweepRow

Q14P = SubspaceLabel(0.25, 1)
Q34P = SubspaceLabel(0.75, 1)
# the one message every solver raises for a solved column that is not unit-norm
BAD_COLUMN = r"eigenvector norms off 1 by .* or eigenvalues not finite$"
SHIPPED_CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.cfg"))


def make_row(g2, count, *, omega0=1.0, omega=0.5, subspace=Q14P, error=None):
    """A row with count converged energies (none for a failed row)."""
    energies = tuple(0.1 * i for i in range(count))
    return SweepRow(omega0, omega, g2, subspace, energies, error)


def make_result(rows, subspaces=(Q14P,)):
    """rows under a config listing subspaces (its couplings are the rows')."""
    config = SweepConfig((1.0,), (0.5,), tuple(r.g2 for r in rows), subspaces, 1024)
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

    # 2.5 used to fail only inside run_sweep (a TypeError from linspace), and
    # True passed as one step
    @pytest.mark.parametrize("steps", [2.5, 3.0, True])
    def test_steps_must_be_an_integer(self, steps):
        with pytest.raises(ValueError, match="steps must be an integer"):
            RelativeComb(steps=steps, lo=0.0, hi=2.0)

    # an infinite hi used to give a comb of nan/inf couplings, one failure row each
    @pytest.mark.parametrize(
        "lo,hi", [(0.0, np.inf), (0.0, np.nan), (np.nan, 2.0), (-np.inf, 2.0)]
    )
    def test_bounds_must_be_finite(self, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            RelativeComb(steps=10, lo=lo, hi=hi)


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
            dict(subspaces=("full",)),  # the name, not the FULL label
            # non-integer counts used to pass and turn every row into a failure row
            dict(cutoff=1024.0),
            dict(requested_eigenpairs=5.5),
            dict(requested_eigenpairs=25.0),
            # a nan tolerance used to pass and report every row as collapsed
            dict(tolerance=float("nan")),
            dict(tolerance=float("inf")),
            # non-finite grid values used to pass and give failure rows
            dict(omega0_grid=(float("nan"),)),
            dict(omega0_grid=(1.0, float("inf"))),
            dict(omega_grid=(float("inf"),)),
            dict(omega_grid=(float("nan"),), coupling_spec=RelativeComb(2, 0.0, 2.0)),
            dict(omega_grid=(float("inf"),), coupling_spec=RelativeComb(2, 0.0, 2.0)),
            dict(coupling_spec=(0.1, float("nan"), 0.2)),
            dict(coupling_spec=(float("-inf"),)),
            # repeated grid values used to solve each of their rows twice
            dict(omega0_grid=(1.0, 1.0)),
            dict(subspaces=(Q14P, Q14P)),
            dict(omega_grid=(0.5, 0.5)),
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
        config = SweepConfig((1.0,), (0.5,), (0.1,), (FULL, Q14P), 64)
        assert config.subspaces == (FULL, Q14P)

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
        assert estimate == CollapseEstimate()

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
        result = make_result(rows, subspaces=(Q14P, Q34P))
        message = "slice holds 2 subspaces, pass one of ['q14+', 'q34+']"
        with pytest.raises(ValueError, match=re.escape(message)):
            detect_collapse(result, 1.0, 0.5)
        estimate = detect_collapse(result, 1.0, 0.5, subspace=Q14P)
        assert not estimate.found


def crafted_comb(monkeypatch, counts, failed=(), edge=24):
    """A comb whose _solve_point rows carry the given counts (failed indices
    become failure rows). Returns the config, the scan's estimate over every
    row, and the list that records each probed index from then on.

    The couplings are 0.01 apart, the one at index edge being
    critical_coupling(0.5) = 0.25; an edge off the comb leaves g_c outside."""
    couplings = tuple(0.25 + 0.01 * (i - edge) for i in range(len(counts)))
    config = SweepConfig((1.0,), (0.5,), couplings, (Q14P,), 1024)
    probes = []

    def fake(cfg, omega0, omega, g2, subspace):
        i = couplings.index(g2)
        probes.append(i)
        if i in failed:
            return make_row(g2, FAILURE_COUNT, error="ValueError: boom")
        return make_row(g2, counts[i])

    monkeypatch.setattr(tprabi.sweep, "_solve_point", fake)
    rows = [fake(config, 1.0, 0.5, g, Q14P) for g in couplings]
    scan = detect_collapse(make_result(rows), 1.0, 0.5)
    probes.clear()
    return config, scan, probes


def bisection_probes(n, hit):
    """Probe order of a blind bisection over n points whose first collapsed
    row is hit (n: none): both ends, then midpoints, or the scan of the rest."""
    probes = [0]
    if hit == 0:
        return probes
    probes.append(n - 1)
    if hit == n:
        return probes + list(range(1, n - 1))
    lo, hi = 0, n - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probes.append(mid)
        lo, hi = (lo, mid) if mid >= hit else (mid, hi)
    return probes


class TestLocateCollapse:
    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
    def test_matches_scan_on_shipped_configs(self, cached_sweeps, path):
        config = parse_sweep_config(path.read_text())
        for w0 in config.omega0_grid:
            for w in config.omega_grid:
                for sub in config.subspaces:
                    single = dataclasses.replace(
                        config, omega0_grid=(w0,), omega_grid=(w,), subspaces=(sub,)
                    )
                    scan = detect_collapse(cached_sweeps(single), w0, w, sub)
                    assert scan.found
                    assert locate_collapse(config, w0, w, sub) == scan

    @pytest.mark.parametrize(
        "counts,failed,hit",
        [
            ([10, 1, 20, 20, 0], (), 1),  # rising counts: a probe sees 10 -> 20
            ([25, 25, 25, 25, -1, 25, 0, 0, 0], (4,), 6),  # failed probe row
            ([-1, 0, 0, 0, 0], (0,), 1),  # failed first row
            ([25, 25, 25, -1], (3,), None),  # failed last row
            ([25, 24, 20, 12, 5], (), None),  # no collapse
            ([25, 25, 25, 25, 25, 25, 0], (), 6),  # hit only at the last point
        ],
    )
    def test_crafted_counts_give_scan_answer(self, monkeypatch, counts, failed, hit):
        config, scan, probes = crafted_comb(monkeypatch, counts, failed)
        assert scan.found == (hit is not None)
        if hit is not None:
            assert scan.coupling == config.coupling_spec[hit]
        assert locate_collapse(config, 1.0, 0.5) == scan
        assert len(probes) == len(set(probes))  # each row is solved once

    def test_collapse_at_first_point_probes_once(self, monkeypatch):
        config, scan, probes = crafted_comb(monkeypatch, [1, 0, 0, 0])
        estimate = locate_collapse(config, 1.0, 0.5)
        assert estimate == scan and estimate.coupling == config.coupling_spec[0]
        assert estimate.step == pytest.approx(0.01)  # the leading step
        assert probes == [0]

    def test_unseen_dip_is_the_documented_limit(self, monkeypatch):
        config, scan, _ = crafted_comb(monkeypatch, [25, 0, 25, 25, 0])
        assert scan.coupling == config.coupling_spec[1]
        assert locate_collapse(config, 1.0, 0.5).coupling == config.coupling_spec[4]

    @pytest.mark.parametrize("hit", [1, 2, 57, 100, 199, 200])
    def test_monotone_comb_needs_logarithmic_solves(self, monkeypatch, hit):
        counts = [25] * (hit - 1) + [12] + [0] * (201 - hit)
        config, scan, probes = crafted_comb(monkeypatch, counts)
        assert locate_collapse(config, 1.0, 0.5) == scan
        assert scan.coupling == config.coupling_spec[hit]
        assert len(probes) <= 2 + math.ceil(math.log2(200))

    def test_analytic_start_keeps_scan_answer_and_budget(self, monkeypatch):
        # every comb length, monotone first hit (n: none) and edge position
        for n in range(2, 41):
            budget = 2 + math.ceil(math.log2(n - 1))
            for hit in range(n + 1):
                counts = ([2] * hit + [1] + [0] * n)[:n]
                for edge in range(-1, n + 2):
                    config, scan, probes = crafted_comb(monkeypatch, counts, edge=edge)
                    assert locate_collapse(config, 1.0, 0.5) == scan, (n, hit, edge)
                    assert len(probes) == len(set(probes)), (n, hit, edge)
                    if hit < n:
                        assert scan.coupling == config.coupling_spec[hit]
                        assert len(probes) <= budget, (n, hit, edge)
                    else:  # the last point has not collapsed: the scan solves every row
                        assert not scan.found and sorted(probes) == list(range(n))
                    if not 0 < edge < n:  # no edge inside the comb: the blind order
                        assert probes == bisection_probes(n, hit), (n, hit, edge)

    def test_edge_at_the_analytic_point_costs_two_solves(self, monkeypatch):
        counts = [25] * 100 + [0] * 101
        config, scan, probes = crafted_comb(monkeypatch, counts, edge=100)
        assert locate_collapse(config, 1.0, 0.5) == scan
        assert probes == [100, 99]

    @pytest.mark.parametrize(
        "over,omega0,subspace,message",
        [
            ({}, 1.0, None, "pass one of"),
            ({}, 2.0, Q14P, "got 0"),
            (dict(coupling_spec=(0.1,)), 1.0, Q14P, "got 1"),
            (dict(coupling_spec=(0.2, 0.1)), 1.0, Q14P, "strictly increasing"),
            ({}, 2.0, None, "pass one of"),  # not in the grid, and no subspace
        ],
    )
    def test_validation_matches_detect_collapse(self, over, omega0, subspace, message):
        base = SweepConfig((1.0,), (0.5,), (0.1, 0.2), (Q14P, Q34P), 64)
        config = dataclasses.replace(base, **over)
        with pytest.raises(ValueError, match=message) as scanned:
            detect_collapse(run_sweep(config), omega0, 0.5, subspace)
        with pytest.raises(ValueError, match=message) as searched:
            locate_collapse(config, omega0, 0.5, subspace)
        assert str(searched.value) == str(scanned.value)


class TestRefineComb:
    # coarse hits of the default [0, 2] g_c comb (201 points) and of a
    # 9-point comb at omega = 0.45
    @pytest.mark.parametrize(
        "estimate",
        [CollapseEstimate(0.25, 0.0025), CollapseEstimate(0.225, 0.05625)],
        ids=["0.25", "0.225"],
    )
    def test_bracket_window(self, estimate):
        config = SweepConfig(
            (1.0,), (0.5,), RelativeComb(steps=10, lo=0.0, hi=2.0), (Q14P,), 64
        )
        c, step = estimate.coupling, estimate.step
        couplings = refine_comb(config, estimate).couplings_for(0.5)
        assert len(couplings) == 101
        # the coarse hit itself, bit for bit, and the point before it
        assert couplings[50] == c
        assert abs(couplings[0] - (c - step)) <= np.spacing(c - step)
        assert abs(couplings[-1] - (c + step)) <= np.spacing(c + step)
        np.testing.assert_allclose(np.diff(couplings), step / 50, rtol=1e-9)

    def test_other_settings_preserved(self):
        config = SweepConfig((1.0,), (0.5,), (0.1,), (Q14P,), 128, tolerance=1e-8)
        refined = refine_comb(config, CollapseEstimate(0.25, 0.0025))
        assert refined.cutoff == 128 and refined.tolerance == 1e-8

    def test_drops_points_below_zero(self):
        # a hit at the first point of a comb that starts above 0, with the
        # leading step: c - 16 * step / 50 is the last point at or above 0
        config = SweepConfig((1.0,), (0.5,), (0.1,), (Q14P,), 64)
        couplings = refine_comb(config, CollapseEstimate(0.01, 0.03)).couplings_for(0.5)
        assert len(couplings) == 67 and couplings[16] == 0.01
        assert couplings[0] == pytest.approx(0.0004) and min(couplings) >= 0

    def test_rejects_estimate_not_found(self):
        config = SweepConfig((1.0,), (0.5,), (0.1,), (Q14P,), 64)
        with pytest.raises(ValueError, match="must be found"):
            refine_comb(config, CollapseEstimate())

    def test_rejects_nonpositive_center(self):
        config = SweepConfig((1.0,), (0.5,), (0.1,), (Q14P,), 64)
        for center in (0.0, -0.25):
            with pytest.raises(ValueError, match="coupling, step > 0"):
                refine_comb(config, CollapseEstimate(center, 0.0025))

    # a nan center used to give an all-nan comb
    @pytest.mark.parametrize("center", [np.nan, np.inf])
    def test_rejects_non_finite_center(self, center):
        config = SweepConfig((1.0,), (0.5,), (0.1,), (Q14P,), 64)
        with pytest.raises(ValueError, match="finite"):
            refine_comb(config, CollapseEstimate(center, 0.0025))

    @pytest.mark.parametrize("step", [0.0, -0.0025, np.nan, np.inf])
    def test_rejects_bad_step(self, step):
        config = SweepConfig((1.0,), (0.5,), (0.1,), (Q14P,), 64)
        with pytest.raises(ValueError, match="finite coupling, step > 0"):
            refine_comb(config, CollapseEstimate(0.25, step))


# 2 omega0 x 8 couplings x 3 subspaces = 48 rows: three shares of 16 at three
# CPUs, rows 0-15 (omega0 = 0) solved by the parent, 16-31 and 32-47 by children
FORKING_CONFIG = SweepConfig(
    (0.0, 1.0),
    (0.5,),
    tuple(float(g) for g in np.linspace(0.02, 0.2, 8)),
    (Q14P, FULL, Q34P),
    64,
    requested_eigenpairs=4,
)

# 2 omega0 x 8 couplings x 4 sectors = 64 rows, 48 distinct solves: at
# omega0 = 0 the two branches of each sector share one
TWIN_CONFIG = dataclasses.replace(FORKING_CONFIG, subspaces=ALL_SUBSPACES)


def grid_points(config):
    return [
        (w0, w, float(g), sub)
        for w0 in config.omega0_grid
        for w in config.omega_grid
        for g in config.couplings_for(w)
        for sub in config.subspaces
    ]


def serial_rows(config):
    return [tprabi.sweep._solve_point(config, *p) for p in grid_points(config)]


class TestRunSweep:
    def test_row_order_and_determinism(self):
        config = SweepConfig(
            (0.0, 1.0), (0.5,), (0.05, 0.1), (Q14P, FULL), 64, requested_eigenpairs=4
        )
        first = run_sweep(config)
        second = run_sweep(config)
        assert first.rows == second.rows
        keys = [(r.omega0, r.omega, r.g2) for r in first.rows]
        assert keys == sorted(keys)
        assert [r.subspace for r in first.rows[:2]] == [Q14P, FULL]

    def test_failure_rows_never_abort(self):
        config = SweepConfig(
            (1.0,), (0.5,), (-0.1, 0.1), (Q14P,), 64, requested_eigenpairs=4
        )
        result = run_sweep(config)
        bad, good = result.rows
        assert bad.converged_count == FAILURE_COUNT
        assert bad.error is not None and "ValueError" in bad.error
        assert not bad.collapsed
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
        # leaves no normalizable survivor
        config = SweepConfig((0.0,), (0.45,), (0.2, 0.225), (Q14P,), 8192)
        before, at = run_sweep(config).rows
        assert before.converged_count == 25
        assert at.converged_count == 0
        assert at.collapsed

    def test_shared_solves_give_the_serial_rows(self):
        rows = run_sweep(TWIN_CONFIG).rows
        assert list(rows) == serial_rows(TWIN_CONFIG)
        assert [(r.omega0, r.omega, r.g2, r.subspace) for r in rows] == grid_points(TWIN_CONFIG)

    @pytest.mark.parametrize(
        "config,solves",
        # omega0 = 0: one solve per (g2, q); omega0 = 1 and no twin branches: one per point
        [(TWIN_CONFIG, 8 * 2 + 8 * 4), (FORKING_CONFIG, 48)],
        ids=["twin-branches", "forking-config"],
    )
    def test_one_solve_per_distinct_matrix(self, monkeypatch, config, solves):
        monkeypatch.setattr(tprabi.sweep, "_available_cpus", lambda: 1)  # calls seen here
        original = tprabi.sweep._solve_point
        calls = []

        def counted(config, omega0, omega, g2, subspace):
            calls.append((omega0, g2, subspace))
            return original(config, omega0, omega, g2, subspace)

        monkeypatch.setattr(tprabi.sweep, "_solve_point", counted)
        run_sweep(config)
        assert len(calls) == len(set(calls)) == solves
        at_zero = [
            (g2, sub.bargmann_q)
            for omega0, g2, sub in calls
            if omega0 == 0.0 and isinstance(sub, SubspaceLabel)
        ]
        assert len(at_zero) == len(set(at_zero))

    def test_twin_branches_share_a_failure_row(self):
        config = SweepConfig((0.0,), (0.5,), (-0.1, 0.1), ALL_SUBSPACES, 64, 4)
        rows = run_sweep(config).rows
        assert list(rows) == serial_rows(config)
        failed = rows[:4]
        assert [r.subspace for r in failed] == list(ALL_SUBSPACES)
        assert {r.error for r in failed} == {"ValueError: g2 must be >= 0, got -0.1"}
        assert failed[0] == dataclasses.replace(failed[1], subspace=failed[0].subspace)
        assert all(r.error is None for r in rows[4:])


def break_builder(monkeypatch, error, omega0=1.0, g2=None):
    """Make sector builds at omega0 (and g2, if given) raise error; the
    forked children inherit the patch."""
    original = tprabi.sweep.build_subspace_tridiagonal

    def builder(subspace, params, cutoff):
        if params.omega0 == omega0 and g2 in (None, params.g2):
            raise error
        return original(subspace, params, cutoff)

    monkeypatch.setattr(tprabi.sweep, "build_subspace_tridiagonal", builder)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedSweep:
    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(tprabi.sweep, "_available_cpus", lambda: 3)

    @pytest.fixture
    def forks(self, monkeypatch):
        pids = []
        real_fork = os.fork

        def fork():
            pid = real_fork()
            pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return pids

    @pytest.fixture
    def no_fork(self, monkeypatch):
        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)

    def test_shared_solves_in_forked_shares_give_the_serial_rows(self, forks):
        rows = run_sweep(TWIN_CONFIG).rows
        assert len(forks) == 2
        assert list(rows) == serial_rows(TWIN_CONFIG)
        assert [(r.omega0, r.omega, r.g2, r.subspace) for r in rows] == grid_points(TWIN_CONFIG)
        assert_no_children()

    def test_rows_are_the_serial_rows_in_grid_order(self, forks):
        rows = run_sweep(FORKING_CONFIG).rows
        assert len(forks) == 2
        assert list(rows) == serial_rows(FORKING_CONFIG)
        assert [(r.omega0, r.omega, r.g2, r.subspace) for r in rows] == grid_points(FORKING_CONFIG)
        assert all(r.subspace is FULL for r in rows[1::3])
        assert_no_children()

    def test_failure_rows_from_a_child_match_the_serial_path(self, monkeypatch, forks):
        g2 = FORKING_CONFIG.coupling_spec[6]
        break_builder(monkeypatch, ValueError("no ladder here"), g2=g2)
        rows = run_sweep(FORKING_CONFIG).rows
        assert len(forks) == 2 and list(rows) == serial_rows(FORKING_CONFIG)
        # rows 42-44: q14+ and q34+ fail inside the last child, full is solved
        assert [r.error for r in rows[42:45]] == [
            "ValueError: no ladder here",
            None,
            "ValueError: no ladder here",
        ]
        assert [r.converged_count for r in rows].count(FAILURE_COUNT) == 2

    def test_child_programming_error_propagates_with_its_traceback(self, monkeypatch):
        break_builder(monkeypatch, TypeError("bug in a builder"))
        with pytest.raises(TypeError, match="bug in a builder") as info:
            run_sweep(FORKING_CONFIG)
        note = "\n".join(info.value.__notes__)
        assert "raised in forked worker" in note
        assert "Traceback (most recent call last)" in note and "in builder" in note
        assert_no_children()

    def test_unpicklable_child_error_keeps_its_name(self, monkeypatch):
        class LocalError(Exception):
            pass

        break_builder(monkeypatch, LocalError("not picklable"))
        with pytest.raises(RuntimeError, match="LocalError: not picklable"):
            run_sweep(FORKING_CONFIG)
        assert_no_children()

    def test_child_that_dies_silently_is_an_error(self, monkeypatch):
        original = tprabi.sweep._solve_point

        def dying(config, omega0, omega, g2, subspace):
            if omega0 == 1.0:
                os._exit(3)
            return original(config, omega0, omega, g2, subspace)

        monkeypatch.setattr(tprabi.sweep, "_solve_point", dying)
        with pytest.raises(RuntimeError, match="exited without sending its results"):
            run_sweep(FORKING_CONFIG)
        assert_no_children()

    @pytest.mark.parametrize("failing_omega0", [None, 0.0, 1.0])
    def test_no_child_left_behind(self, monkeypatch, failing_omega0):
        # omega0 = 0 fails in the parent's own share, 1.0 in the children's
        if failing_omega0 is None:
            run_sweep(FORKING_CONFIG)
        else:
            break_builder(monkeypatch, TypeError("bug"), omega0=failing_omega0)
            with pytest.raises(TypeError):
                run_sweep(FORKING_CONFIG)
        assert_no_children()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_failed_fork_leaks_no_child_and_no_pipe(self, monkeypatch, forks):
        counted_fork = os.fork

        def fork_once():
            if forks:
                raise BlockingIOError("fork: resource temporarily unavailable")
            return counted_fork()

        monkeypatch.setattr(os, "fork", fork_once)
        fds = set(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            run_sweep(FORKING_CONFIG)
        assert len(forks) == 1
        assert_no_children()
        assert set(os.listdir("/proc/self/fd")) == fds

    def test_children_reaped_by_the_kernel(self, forks):
        # with SIGCHLD ignored the kernel reaps exited children itself
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            rows = run_sweep(FORKING_CONFIG).rows
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert len(forks) == 2 and list(rows) == serial_rows(FORKING_CONFIG)

    @pytest.mark.parametrize(
        "config,cpus",
        [
            # one solve below the 2 * ROWS_PER_WORKER = 8 that fork
            (SweepConfig((1.0,), (0.5,), tuple(np.linspace(0.01, 0.31, 7)), (Q14P,), 64, 4), 3),
            # 12 rows but 6 distinct solves: the twin branches at omega0 = 0 share one
            (SweepConfig((0.0,), (0.5,), (0.02, 0.1, 0.2), ALL_SUBSPACES, 64, 4), 3),
            (FORKING_CONFIG, 1),
        ],
        ids=["7-solves", "6-solves-12-rows", "one-cpu"],
    )
    def test_small_sweeps_never_fork(self, monkeypatch, no_fork, config, cpus):
        monkeypatch.setattr(tprabi.sweep, "_available_cpus", lambda: cpus)
        assert len(run_sweep(config).rows) == len(grid_points(config))

    def test_sweeps_fork_from_the_threshold(self, forks):
        # 8 solves: the comb of 7 above plus one
        assert 2 * tprabi.sweep.ROWS_PER_WORKER == 8
        config = SweepConfig((1.0,), (0.5,), tuple(np.linspace(0.01, 0.31, 8)), (Q14P,), 64, 4)
        rows = run_sweep(config).rows
        assert len(forks) == 1  # two shares, although three CPUs are free
        assert list(rows) == serial_rows(config)
        assert_no_children()

    def test_full_model_comb_forks_and_prints_the_serial_bytes(self, monkeypatch, forks):
        # shaped like the benchmark's comb: 11 full-model points, one solve each;
        # the child maps points 5-10, whose first keeps two bound states at
        # omega0 = 5 while the rest keep none, so a misordered share shows
        config = SweepConfig((5.0,), (0.5,), RelativeComb(10, 0, 2), (FULL,), 64)
        monkeypatch.setattr(tprabi.sweep, "_available_cpus", lambda: 1)
        serial = run_sweep(config)
        assert forks == []
        monkeypatch.setattr(tprabi.sweep, "_available_cpus", lambda: 2)
        forked = run_sweep(config)
        assert len(forks) == 1
        assert sweep_csv(forked) == sweep_csv(serial)
        assert _sweep_summary(forked) == _sweep_summary(serial)
        assert_no_children()

    def test_no_fork_while_other_threads_run(self, no_fork):
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            rows = run_sweep(FORKING_CONFIG).rows
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert len(rows) == len(grid_points(FORKING_CONFIG))

    def test_no_fork_on_platforms_without_it(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        points = grid_points(FORKING_CONFIG)
        rows = run_sweep(FORKING_CONFIG).rows
        assert [(r.omega0, r.omega, r.g2, r.subspace) for r in rows] == points


def unsplit_reference(params, cutoff, k, tail_fraction=0.2, tolerance=1e-6):
    """The full model solved without the chain split, as one dense matrix."""
    matrix = build_full_fock(params, cutoff)
    pairs = solve_hermitian(matrix, min(k, matrix.dimension))
    return convergence_filter(pairs, tail_fraction, tolerance, qubit_dim=2)


def values_of(spectrum):
    return np.array([p.value for p in spectrum.pairs])


def assert_values_close(got, ref):
    values = values_of(ref)
    assert np.all(np.abs(values_of(got) - values) <= 1e-12 * np.maximum(1.0, np.abs(values)))


class TestSolvePoint:
    @pytest.mark.parametrize("subspace,tail_fraction,tolerance", [(Q34P, 0.2, 1e-6)])
    def test_matches_build_solve_filter(self, subspace, tail_fraction, tolerance):
        params = ModelParams(1.0, 0.5, 0.2)
        pairs = solve_tridiagonal(build_subspace_tridiagonal(subspace, params, 128), 30)
        expected = convergence_filter(pairs, tail_fraction, tolerance)
        got = solve_point(params, subspace, 128, 30, tail_fraction, tolerance)
        assert 0 < got.converged_count < 30
        assert [p.value for p in got.pairs] == [p.value for p in expected.pairs]
        assert got.tails.tolist() == expected.tails.tolist()
        assert got.converged.tolist() == expected.converged.tolist()
        assert got.tolerance == tolerance

    def test_k_clamped_to_dimension(self):
        params = ModelParams(1.0, 0.5, 0.1)
        assert len(solve_point(params, Q14P, 64, 500).pairs) == 64
        assert len(solve_point(params, FULL, 64, 500).pairs) == 128


class TestFullChainSolve:
    """solve_point(..., FULL, ...) splits the model into four parity chains;
    the unsplit dense solve is the reference."""

    @pytest.mark.parametrize(
        "cutoff,k,tail_fraction,tolerance",
        [
            (128, 30, 0.3, 1e-8),
            (128, 30, 0.2, 1e-6),
            (129, 30, 0.2, 1e-6),  # odd cutoff: even-n chains one longer
            (2, 30, 0.2, 1e-6),  # chains of length 1
            (3, 30, 0.2, 1e-6),
            (64, 128, 0.2, 1e-6),  # every eigenpair, as the oracle asks
        ],
    )
    def test_matches_unsplit_solve(self, cutoff, k, tail_fraction, tolerance):
        params = ModelParams(1.0, 0.5, 0.2)
        got = solve_point(params, FULL, cutoff, k, tail_fraction, tolerance)
        ref = unsplit_reference(params, cutoff, k, tail_fraction, tolerance)
        assert len(got.pairs) == len(ref.pairs) == min(k, 2 * cutoff)
        assert_values_close(got, ref)
        assert got.converged.tolist() == ref.converged.tolist()
        gaps = np.diff(values_of(ref))
        isolated = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf)) > 1e-8
        assert isolated.sum() >= len(gaps) // 2
        for a, b, alone in zip(got.pairs, ref.pairs, isolated):
            if alone:
                assert abs(np.vdot(a.vector, b.vector)) > 1 - 1e-10
        assert got.tolerance == tolerance

    def test_degenerate_qubit_levels_keep_parity(self):
        # at omega0 = 0 the chains pair up into equal spectra, so the
        # eigenvector basis inside each level is arbitrary; every vector
        # still lies on one chain, a state of definite parity
        params = ModelParams(0.0, 0.5, 0.2)
        got = solve_point(params, FULL, 128, 30)
        ref = unsplit_reference(params, 128, 30)
        assert_values_close(got, ref)
        assert got.converged_count == ref.converged_count
        chains = [idx for idx, _ in full_fock_chains(params, 128)]
        for pair in got.pairs:
            occupied = [np.any(pair.vector[idx] != 0) for idx in chains]
            assert sum(occupied) == 1

    def test_memory_stays_bounded_at_large_cutoff(self):
        # the unsplit solve would build a dense matrix of 16384^2 doubles
        # (2 GB); the chains need four 4096 x 25 eigenvector blocks (3.3 MB)
        # and the 25 returned vectors of 16384 doubles (3.3 MB), so scattering
        # every chain pair (100 vectors, 13 MB) does not fit
        tracemalloc.start()
        try:
            got = solve_point(ModelParams(1.0, 0.5, 0.2), FULL, 8192, 25)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert got.converged_count == 25

    @pytest.mark.parametrize("k", [1, 30, "all"])
    @pytest.mark.parametrize("cutoff", [2, 3, 128, 129])
    @pytest.mark.parametrize("omega0", [0.0, 1.0])  # 0: twin chains, equal spectra
    def test_pairs_equal_scattering_every_chain_pair(self, omega0, cutoff, k):
        # the reference packages every chain pair, scatters it and keeps the
        # k lowest by a stable sort; solve_chains packages only those k
        k = 2 * cutoff if k == "all" else min(k, 2 * cutoff)
        chains = full_fock_chains(ModelParams(omega0, 0.5, 0.2), cutoff)
        reference = []
        for indices, chain in chains:
            for pair in solve_tridiagonal(chain, min(k, chain.dimension)):
                vector = np.zeros(2 * cutoff)
                vector[indices] = pair.vector
                reference.append(EigenPair(pair.value, vector))
        reference = sorted(reference, key=lambda pair: pair.value)[:k]
        got = solve_chains(chains, k)
        assert [p.value for p in got] == [p.value for p in reference]
        for a, b in zip(got, reference):
            assert np.array_equal(a.vector, b.vector)

    @pytest.mark.parametrize("damage", [1.5, np.nan])
    def test_bad_column_outside_the_returned_pairs_raises(self, damage_last_column, damage):
        # every chain's last column lies above the 25 lowest values; a
        # column that is not unit-norm there still fails the solve, and a
        # sweep turns that into a failure row
        params = ModelParams(1.0, 0.5, 0.2)
        lowest = scipy.linalg.eigh_tridiagonal
        kept = max(p.value for p in solve_point(params, FULL, 128, 25).pairs)
        last = [
            lowest(c.diag, c.offdiag, select="i", select_range=(0, 24))[0][-1]
            for _, c in full_fock_chains(params, 128)
        ]
        assert kept < min(last)

        damage_last_column("eigh_tridiagonal", damage)
        with pytest.raises(ValueError, match=BAD_COLUMN):
            solve_point(params, FULL, 128, 25)
        config = SweepConfig((1.0,), (0.5,), (0.2,), (FULL,), 128)
        assert run_sweep(config).rows[0].converged_count == FAILURE_COUNT

    @pytest.mark.parametrize("subspace", [Q14P, FULL], ids=["sector", "full"])
    def test_bad_column_is_one_failure_row_for_sector_and_full(self, damage_last_column, subspace):
        damage_last_column("eigh_tridiagonal", 1.5)
        config = SweepConfig((1.0,), (0.5,), (0.2,), (subspace,), 128)
        row = tprabi.sweep._solve_point(config, 1.0, 0.5, 0.2, subspace)
        assert row.converged_count == FAILURE_COUNT
        assert re.match(f"ValueError: {BAD_COLUMN}", row.error)


class TestRefineIntegration:
    def test_refined_estimate_tightens_to_known_critical_point(self):
        config = SweepConfig(
            (1.0,), (0.5,), RelativeComb(steps=8, lo=0.0, hi=2.0), (Q14P,), 1024
        )
        coarse = detect_collapse(run_sweep(config), 1.0, 0.5)
        assert coarse.found and coarse.coupling == pytest.approx(0.25)
        refined = detect_collapse(run_sweep(refine_comb(config, coarse)), 1.0, 0.5)
        assert refined.found
        assert abs(refined.coupling - 0.25) < 2e-4
        assert refined.step < coarse.step

    def test_both_stages_bisect_through_locate_collapse(self, monkeypatch):
        probes = []
        solve = tprabi.sweep._solve_point

        def counted(*args):
            probes.append(args)
            return solve(*args)

        monkeypatch.setattr(tprabi.sweep, "_solve_point", counted)
        config = SweepConfig(
            (1.0,), (0.5,), RelativeComb(steps=8, lo=0.0, hi=2.0), (Q14P,), 1024
        )
        coarse = locate_collapse(config, 1.0, 0.5)
        assert coarse.found and coarse.coupling == pytest.approx(0.25)
        assert coarse.step == pytest.approx(0.0625)
        refined = locate_collapse(refine_comb(config, coarse), 1.0, 0.5)
        assert refined.found
        assert abs(refined.coupling - 0.25) < 2e-4
        assert refined.step < coarse.step
        # 9-point then 101-point comb: (2 + 3) + (2 + 7) solves at most
        assert len(probes) <= 14

    def test_refine_defaults_start_at_the_analytic_edge(self, monkeypatch):
        # scripts/refine_critical.py's defaults: 201 then 101 points, both
        # straddling g_c; the blind bisection took 10 + 9 solves
        probes = []
        solve = tprabi.sweep._solve_point

        def counted(*args):
            probes.append(args)
            return solve(*args)

        monkeypatch.setattr(tprabi.sweep, "_solve_point", counted)
        config = SweepConfig(
            (1.0,), (0.5,), RelativeComb(steps=200, lo=0.0, hi=2.0), (Q14P,), 1024
        )
        coarse = locate_collapse(config, 1.0, 0.5)
        assert coarse.coupling == pytest.approx(0.25)
        refined = locate_collapse(refine_comb(config, coarse), 1.0, 0.5)
        assert abs(refined.coupling - 0.25) < 2e-4
        assert len(probes) <= 4


class TestCollapseRule:
    """SweepRow.collapsed and exceptional_state follow from the count: a
    row's error and energies, and the verdicts of the spectrum it came from."""

    @pytest.mark.parametrize(
        "count,error,collapsed,exceptional",
        [
            (25, None, False, False),
            (2, None, False, False),
            (1, None, True, True),
            (0, None, True, False),
            (FAILURE_COUNT, "ValueError: boom", False, False),
        ],
    )
    def test_flags_follow_the_count(self, count, error, collapsed, exceptional):
        row = make_row(0.25, count, error=error)
        assert row.collapsed == collapsed
        assert row.converged_count == count
        # 25 pairs of which max(count, 0) converged; a failed solve has none
        pairs = tuple(EigenPair(0.1 * i, np.eye(64)[i]) for i in range(25))
        tails = np.where(np.arange(25) < count, 0.0, 1.0)
        spectrum = FilteredSpectrum(pairs, tails, 1e-6)
        state = exceptional_state(spectrum, ModelParams(1.0, 0.5, 0.25), Q14P, 64)
        assert (state is not None) == exceptional

    def test_flags_are_not_stored(self):
        names = [f.name for f in dataclasses.fields(SweepRow)]
        assert "collapsed" not in names and "exceptional" not in names
        assert "converged_count" not in names  # len(energies) is the count
        # the solve settings live on the sweep's SweepConfig, never on a row
        for setting in ("cutoff", "eigenpairs", "tail_fraction", "tolerance"):
            assert setting not in names


class TestBoundStatesAtCollapse:
    """At g2 = g_c with the qubit on, discrete levels sit below the
    continuum threshold E = 0 of every sector. At omega0 / omega = 6 they form
    a geometric tower: each 4x in cutoff uncovers one more level, and the
    deeper levels stay put. A collapse rule that counts every converged level
    must survive these; this pins the levels, not any verdict."""

    PARAMS = ModelParams(3.0, 0.5, 0.25)  # omega0 / omega = 6 at g_c = omega / 2

    @pytest.fixture(scope="class")
    def levels(self):
        return {
            (label, cutoff): solve_point(self.PARAMS, label, cutoff, 25).converged_values
            for label in ALL_SUBSPACES
            for cutoff in (4096, 16384)
        }

    def test_every_converged_level_is_bound(self, levels):
        for values in levels.values():
            assert len(values) > 0 and np.all(values < 0)

    def test_tower_grows_one_level_per_fourfold_cutoff(self, levels):
        coarse, fine = levels[Q14P, 4096], levels[Q14P, 16384]
        assert (len(coarse), len(fine)) == (2, 3)
        assert np.max(np.abs(fine[:2] - coarse)) < 1e-10
        assert fine[2] / fine[1] == pytest.approx(0.120, abs=0.002)


class TestExceptionalState:
    """exceptional_state judges a spectrum its caller solved: the lone
    converged pair, or None."""

    def test_critical_point_survivor(self):
        params = ModelParams(1.0, 0.5, 0.25)
        spectrum = solve_point(params, Q14P, 8192, 25)
        state = exceptional_state(spectrum, params, Q14P, 8192)
        assert state.pair is spectrum.converged_pairs[0]
        assert state.pair.value == pytest.approx(-0.010035201610, abs=1e-9)
        assert state.overlap == pytest.approx(0.7780010930, abs=1e-8)
        assert np.isclose(np.linalg.norm(state.pair.vector), 1.0)

    def test_none_unless_exactly_one_pair_converged(self, monkeypatch):
        # the free-particle point at g_c, and a full ladder below it
        points = [ModelParams(0.0, 0.5, 0.25), ModelParams(1.0, 0.5, 0.1)]
        spectra = [solve_point(params, Q14P, 1024, 25) for params in points]
        assert [s.converged_count for s in spectra] == [0, 25]
        solves = []
        monkeypatch.setattr(tprabi.sweep, "solve_point", lambda *a: solves.append(a))
        for params, spectrum in zip(points, spectra):
            assert exceptional_state(spectrum, params, Q14P, 1024) is None
        assert solves == []  # no ground state is solved for a verdict of None
