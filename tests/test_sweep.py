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
from hypothesis import given
from hypothesis import strategies as st

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
    critical_coupling,
    detect_collapse,
    exceptional_state,
    locate_collapse,
    refine_collapse,
    refine_comb,
    run_sweep,
    solve_hermitian,
    solve_point,
    solve_tridiagonal,
)
from tprabi.cli import _sweep_summary, parse_sweep_config, sweep_csv
from tprabi.model import full_fock_chains
from tprabi.solver import EigenPair, FilteredSpectrum, solve_chains
from tprabi.sweep import FAILURE_COUNT, PROBE_DEPTH, CollapseEstimate, SweepResult, SweepRow

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
        assert couplings[100] == critical_coupling(0.45)

    @pytest.mark.parametrize("steps", [200, 50])
    def test_critical_point_is_exact(self, steps):
        # linspace(0, 2 g_c, n) put it one ulp below omega / 2 for 0.4247 and
        # for 349 of the 2000 drawn omegas
        omegas = [0.4247, *np.round(np.random.default_rng(0).uniform(0.3, 1.0, 2000), 4)]
        comb = RelativeComb(steps=steps, lo=0.0, hi=2.0)
        assert [w for w in omegas if comb.couplings(w)[steps // 2] != critical_coupling(w)] == []

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


def probed(calls):
    """The points of the probes among recorded (point, depth) _solve_point
    calls, in probe order: a probe's first call solves PROBE_DEPTH levels."""
    return [point for point, depth in calls if depth == PROBE_DEPTH]


def resolved(calls):
    """The points that recorded (point, depth) calls solved again at all of
    more than PROBE_DEPTH requested levels."""
    return [point for point, depth in calls if depth > PROBE_DEPTH]


def crafted_comb(monkeypatch, counts, failed=(), edge=24, shallow=None, fine=None):
    """A comb whose _solve_point rows carry the given counts, capped at the
    levels each call requests (failed indices become failure rows). Returns
    the config, the scan's estimate over every row, and the list that records
    (index, requested levels) of every call from then on.

    The couplings are 0.01 apart, the one at index edge being
    critical_coupling(0.5) = 0.25; an edge off the comb leaves g_c outside.
    shallow maps an index to the count its PROBE_DEPTH-level solves give
    instead. With fine, every point off the comb (a refine comb's inner
    points) has that count, and its calls record the coupling for the index."""
    couplings = tuple(0.25 + 0.01 * (i - edge) for i in range(len(counts)))
    config = SweepConfig((1.0,), (0.5,), couplings, (Q14P,), 1024)
    calls = []

    def fake(cfg, omega0, omega, g2, subspace):
        levels = cfg.requested_eigenpairs
        if fine is not None and g2 not in couplings:
            calls.append((g2, levels))
            return make_row(g2, min(fine, levels))
        i = couplings.index(g2)
        calls.append((i, levels))
        if i in failed:
            return make_row(g2, FAILURE_COUNT, error="ValueError: boom")
        if levels == PROBE_DEPTH and i in (shallow or {}):
            return make_row(g2, shallow[i])
        return make_row(g2, min(counts[i], levels))

    monkeypatch.setattr(tprabi.sweep, "_solve_point", fake)
    rows = [fake(config, 1.0, 0.5, g, Q14P) for g in couplings]
    scan = detect_collapse(make_result(rows), 1.0, 0.5)
    calls.clear()
    return config, scan, calls


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
            # rising counts among collapsed probes, which are solved at all
            # k levels: 0 -> 1 hides the dip at index 1
            ([25, 0, 25, 25, 0, 25, 25, 25, 1], (), 1),
            ([25, 25, 25, 25, -1, 25, 0, 0, 0], (4,), 6),  # failed probe row
            ([-1, 0, 0, 0, 0], (0,), 1),  # failed first row
            ([25, 25, 25, -1], (3,), None),  # failed last row
            ([25, 24, 20, 12, 5], (), None),  # no collapse
            ([25, 25, 25, 25, 25, 25, 0], (), 6),  # hit only at the last point
        ],
    )
    def test_crafted_counts_give_scan_answer(self, monkeypatch, counts, failed, hit):
        config, scan, calls = crafted_comb(monkeypatch, counts, failed)
        assert scan.found == (hit is not None)
        if hit is not None:
            assert scan.coupling == config.coupling_spec[hit]
        assert locate_collapse(config, 1.0, 0.5) == scan
        assert len(calls) == len(set(calls))  # each row is solved once per depth
        # only a probe that is collapsed or failed at PROBE_DEPTH is solved at k
        assert set(resolved(calls)) == {
            i for i in probed(calls) if i in failed or counts[i] <= 1
        }

    def test_collapse_at_first_point_probes_once(self, monkeypatch):
        config, scan, calls = crafted_comb(monkeypatch, [1, 0, 0, 0])
        estimate = locate_collapse(config, 1.0, 0.5)
        assert estimate == scan and estimate.coupling == config.coupling_spec[0]
        assert estimate.step == pytest.approx(0.01)  # the leading step
        assert calls == [(0, PROBE_DEPTH), (0, 25)]  # one probe, collapsed: solved at k

    def test_unseen_dip_is_the_documented_limit(self, monkeypatch):
        config, scan, _ = crafted_comb(monkeypatch, [25, 0, 25, 25, 0])
        assert scan.coupling == config.coupling_spec[1]
        assert locate_collapse(config, 1.0, 0.5).coupling == config.coupling_spec[4]

    def test_rise_among_depth_limited_probes_is_the_documented_limit(self, monkeypatch):
        # the probes at 0, 2 and 3 read 10, 20, 20 at k levels, a rise that
        # sends the scan to the dip at 1; at PROBE_DEPTH each reads 3, and
        # only the collapsed probe at 4 has a count
        config, scan, calls = crafted_comb(monkeypatch, [10, 1, 20, 20, 0])
        assert scan.coupling == config.coupling_spec[1]
        assert locate_collapse(config, 1.0, 0.5).coupling == config.coupling_spec[4]
        assert probed(calls) == [0, 4, 2, 3] and resolved(calls) == [4]

    @pytest.mark.parametrize("hit", [1, 2, 57, 100, 199, 200])
    def test_monotone_comb_needs_logarithmic_solves(self, monkeypatch, hit):
        counts = [25] * (hit - 1) + [12] + [0] * (201 - hit)
        config, scan, calls = crafted_comb(monkeypatch, counts)
        assert locate_collapse(config, 1.0, 0.5) == scan
        assert scan.coupling == config.coupling_spec[hit]
        assert len(probed(calls)) <= 2 + math.ceil(math.log2(200))
        assert resolved(calls) == [i for i in probed(calls) if i >= hit]

    def test_analytic_start_keeps_scan_answer_and_budget(self, monkeypatch):
        # every comb length, monotone first hit (n: none) and edge position
        for n in range(2, 41):
            budget = 2 + math.ceil(math.log2(n - 1))
            for hit in range(n + 1):
                counts = ([2] * hit + [1] + [0] * n)[:n]
                for edge in range(-1, n + 2):
                    config, scan, calls = crafted_comb(monkeypatch, counts, edge=edge)
                    assert locate_collapse(config, 1.0, 0.5) == scan, (n, hit, edge)
                    assert len(calls) == len(set(calls)), (n, hit, edge)
                    probes = probed(calls)
                    if hit < n:
                        assert scan.coupling == config.coupling_spec[hit]
                        assert len(probes) <= budget, (n, hit, edge)
                    else:  # the last point has not collapsed: the scan solves every row
                        assert not scan.found and sorted(probes) == list(range(n))
                    if not 0 < edge < n:  # no edge inside the comb: the blind order
                        assert probes == bisection_probes(n, hit), (n, hit, edge)

    def test_edge_at_the_analytic_point_costs_two_solves(self, monkeypatch):
        counts = [25] * 100 + [0] * 101
        config, scan, calls = crafted_comb(monkeypatch, counts, edge=100)
        assert locate_collapse(config, 1.0, 0.5) == scan
        assert probed(calls) == [100, 99] and resolved(calls) == [100]

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
        # the bracket [c - step, c]: the coarse hit and the point before it
        assert len(couplings) == 51
        assert couplings[0] == c - step and couplings[-1] == c
        np.testing.assert_allclose(np.diff(couplings), step / 50, rtol=1e-9)

    def test_ends_are_the_coarse_points_of_every_interior_hit(self):
        # refine_collapse reuses the coarse rows of both bracket ends, so for
        # a hit at any point after the first of a [0, 2] comb, the refine
        # comb's ends are the coarse point before it and the hit, bit for bit
        rng = np.random.default_rng(26)
        for steps in (8, 50, 200):
            for omega in rng.uniform(1e-3, 10, 400):
                config = SweepConfig(
                    (1.0,), (omega,), RelativeComb(steps, 0.0, 2.0), (Q14P,), 64
                )
                couplings = [float(g) for g in config.couplings_for(omega)]
                for before, c in zip(couplings, couplings[1:]):
                    fine = refine_comb(config, CollapseEstimate(c, c - before)).coupling_spec
                    assert (fine[0], fine[-1]) == (before, c), (steps, omega, c)

    def test_other_settings_preserved(self):
        config = SweepConfig((1.0,), (0.5,), (0.1,), (Q14P,), 128, tolerance=1e-8)
        refined = refine_comb(config, CollapseEstimate(0.25, 0.0025))
        assert refined.cutoff == 128 and refined.tolerance == 1e-8

    def test_drops_points_below_zero(self):
        # a hit at the first point of a comb that starts above 0, with the
        # leading step: c - 16 * step / 50 is the lowest point at or above 0
        config = SweepConfig((1.0,), (0.5,), (0.1,), (Q14P,), 64)
        couplings = refine_comb(config, CollapseEstimate(0.01, 0.03)).couplings_for(0.5)
        assert len(couplings) == 17 and couplings[16] == 0.01
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


def counted_solves(monkeypatch):
    """The list that records (_solve_key, requested levels) of every
    _solve_point call from then on (the calls still solve)."""
    keys = []
    solve = tprabi.sweep._solve_point

    def counted(config, *point):
        key = tprabi.sweep._solve_key(tprabi.sweep.GridPoint(*point))
        keys.append((key, config.requested_eigenpairs))
        return solve(config, *point)

    monkeypatch.setattr(tprabi.sweep, "_solve_point", counted)
    return keys


@st.composite
def crafted_cases(draw):
    """crafted_comb's (counts, failed, edge, shallow, fine) and a
    requested_eigenpairs k: counts fall, or have rises, failed rows and
    depth-3-only collapses drawn in. edge stays below 25, so the first
    coupling is above 0, where refine_comb takes a hit."""
    n = draw(st.integers(2, 60))
    edge = draw(st.integers(-1, 24))
    # half the first hits lie next to the edge, where the coarse stage holds it
    near = st.integers(edge - 1, edge + 1).map(lambda i: min(max(i, 0), n))
    hit = draw(st.one_of(st.integers(0, n), near))
    index = st.integers(0, n - 1)
    counts = sorted(draw(st.lists(st.integers(2, 25), min_size=hit, max_size=hit)), reverse=True)
    counts += [draw(st.integers(0, 1))] * (n - hit)
    failed, shallow = (), {}
    if draw(st.booleans()):  # else the counts only fall
        for i, count in draw(st.dictionaries(index, st.integers(0, 25), max_size=2)).items():
            counts[i] = count
        failed = tuple(draw(st.sets(index, max_size=2)))
        shallow = draw(st.dictionaries(index, st.integers(0, 1), max_size=2))
    k = draw(st.sampled_from([2, 3, 25]))
    fine = draw(st.sampled_from([0, 1, 5, 25]))
    return counts, failed, edge, shallow, k, fine


def crafted_scan(config):
    """The rows the patched _solve_point gives every point of config's
    comb, and their scan's estimate; the calls are recorded too."""
    rows = [tprabi.sweep._solve_point(config, 1.0, 0.5, g, Q14P) for g in config.coupling_spec]
    return rows, detect_collapse(SweepResult(config, tuple(rows)), 1.0, 0.5)


def settles(rows, shallow_rows):
    """Whether a comb meets the search's assumptions: converged counts never
    rise (a failed row's FAILURE_COUNT included), the last row collapses,
    and every PROBE_DEPTH-level verdict is the k-level one."""
    counts = [row.converged_count for row in rows]
    return (
        all(b <= a for a, b in zip(counts, counts[1:]))
        and rows[-1].collapsed
        and all(s.collapsed == r.collapsed for r, s in zip(rows, shallow_rows))
    )


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
        calls = counted_solves(monkeypatch)
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
        # 9-point then 51-point comb: (2 + 3) + (2 + 6) probes at most
        assert len(probed(calls)) <= 13

    def test_refine_defaults_start_at_the_analytic_edge(self, monkeypatch):
        # scripts/refine_critical.py's defaults: 201 then 51 points, both
        # straddling g_c; the blind bisection took 10 + 9 probes
        calls = counted_solves(monkeypatch)
        config = SweepConfig(
            (1.0,), (0.5,), RelativeComb(steps=200, lo=0.0, hi=2.0), (Q14P,), 1024
        )
        coarse = locate_collapse(config, 1.0, 0.5)
        assert coarse.coupling == pytest.approx(0.25)
        refined = locate_collapse(refine_comb(config, coarse), 1.0, 0.5)
        assert abs(refined.coupling - 0.25) < 2e-4
        # the two chained searches solve the coarse hit twice; one store does not
        probes = probed(calls)
        assert len(probes) == 4 and len(set(probes)) == 3
        assert resolved(calls) == [probes[0], probes[0]]
        calls.clear()
        assert refine_collapse(config, 1.0, 0.5) == (coarse, refined)
        # 3 probes; only the collapsed coarse hit is solved at all k levels,
        # once, after the refine has closed on it
        c = probed(calls)[0]
        assert len(probed(calls)) == 3 and resolved(calls) == [c]
        assert c.g2 == refined.coupling == coarse.coupling and calls[-1] == (c, 25)

    @pytest.mark.parametrize("omega0", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("steps", [8, 200], ids=["9-point", "201-point"])
    def test_shared_store_keeps_both_answers(self, monkeypatch, steps, omega0):
        # cutoff 256 puts the refined drop below c on the 201-point comb, so
        # the refine search gallops down past the reused rows
        config = SweepConfig(
            (omega0,), (0.5,), RelativeComb(steps=steps, lo=0.0, hi=2.0), (Q14P,), 256
        )
        coarse = locate_collapse(config, omega0, 0.5)
        fine = refine_comb(config, coarse)
        chained = (coarse, locate_collapse(fine, omega0, 0.5))
        assert chained[1] == detect_collapse(run_sweep(fine), omega0, 0.5)
        calls = counted_solves(monkeypatch)
        assert refine_collapse(config, omega0, 0.5) == chained
        solved = probed(calls)
        assert len(solved) == len(set(solved))  # no point probed twice
        assert len(calls) == len(solved) + len(set(resolved(calls)))

    @pytest.mark.parametrize("steps,solves", [(8, 7), (200, 8)], ids=["9-point", "201-point"])
    def test_off_g_c_refine_solves_nothing_above_the_coarse_hit(self, monkeypatch, steps, solves):
        # at omega0 / omega = 8 the coarse hit lies one step above g_c; the
        # refine comb ends at it, so no solve lands past it
        config = SweepConfig(
            (4.0,), (0.5,), RelativeComb(steps=steps, lo=0.0, hi=2.0), (Q14P,), 256
        )
        calls = counted_solves(monkeypatch)
        coarse, refined = refine_collapse(config, 4.0, 0.5)
        assert coarse.coupling > critical_coupling(0.5)
        solved = probed(calls)
        assert max(key.g2 for key in solved) == coarse.coupling
        assert len(solved) == len(set(solved)) == solves
        assert len(calls) == len(set(calls))
        fine = refine_comb(config, coarse)
        assert refined == detect_collapse(run_sweep(fine), 4.0, 0.5)

    def test_failed_refine_probe_falls_back_to_the_scan(self, monkeypatch):
        config = SweepConfig(
            (1.0,), (0.5,), RelativeComb(steps=8, lo=0.0, hi=2.0), (Q14P,), 1024
        )
        fine = refine_comb(config, CollapseEstimate(0.25, 0.0625))
        couplings = fine.coupling_spec
        solved = []

        # collapsed from c = 0.25 up, plus a dip at couplings[10] that no
        # probe lands on; couplings[49], the refine's first probe, fails
        def fake(cfg, omega0, omega, g2, subspace):
            solved.append((g2, cfg.requested_eigenpairs))
            if g2 == couplings[49]:
                return make_row(g2, FAILURE_COUNT, error="ValueError: boom")
            count = 0 if g2 >= 0.25 else 1 if g2 == couplings[10] else 25
            return make_row(g2, min(count, cfg.requested_eigenpairs))

        rows = [fake(fine, 1.0, 0.5, g, Q14P) for g in couplings]
        scan = detect_collapse(SweepResult(fine, tuple(rows)), 1.0, 0.5)
        assert scan.coupling == couplings[10]
        solved.clear()
        monkeypatch.setattr(tprabi.sweep, "_solve_point", fake)
        assert refine_collapse(config, 1.0, 0.5) == (CollapseEstimate(0.25, 0.0625), scan)
        assert len(solved) == len(set(solved))
        assert (couplings[49], 25) in solved  # the failed probe is solved again at k

    def test_no_coarse_collapse_solves_no_refine_point(self, monkeypatch):
        config = SweepConfig(
            (1.0,), (0.5,), RelativeComb(steps=8, lo=0.0, hi=2.0), (Q14P,), 1024
        )
        solved = []

        def fake(cfg, omega0, omega, g2, subspace):
            solved.append((g2, cfg.requested_eigenpairs))
            return make_row(g2, min(25, cfg.requested_eigenpairs))

        monkeypatch.setattr(tprabi.sweep, "_solve_point", fake)
        assert refine_collapse(config, 1.0, 0.5) == (CollapseEstimate(), CollapseEstimate())
        # the coarse comb only, each point decided at PROBE_DEPTH levels
        assert sorted(probed(solved)) == list(config.couplings_for(0.5))
        assert resolved(solved) == []

    @pytest.mark.parametrize("omega0", [0.0, 1.0, 2.0])
    def test_refine_below_c_never_solves_c_at_k(self, monkeypatch, omega0):
        # the 201-point configs of test_shared_store_keeps_both_answers: the
        # refined drop lies below c, so that drop brackets it
        config = SweepConfig(
            (omega0,), (0.5,), RelativeComb(steps=200, lo=0.0, hi=2.0), (Q14P,), 256
        )
        coarse = locate_collapse(config, omega0, 0.5)
        chained = (coarse, locate_collapse(refine_comb(config, coarse), omega0, 0.5))
        assert chained[1].coupling < coarse.coupling
        calls = counted_solves(monkeypatch)
        assert refine_collapse(config, omega0, 0.5) == chained
        point = tprabi.sweep.GridPoint(omega0, 0.5, coarse.coupling, Q14P)
        c = tprabi.sweep._solve_key(point)
        assert c in probed(calls) and c not in resolved(calls)

    @pytest.mark.parametrize(
        "below,failed,above",
        [(25, (), 0), (25, (), 25), (0, (), 0), (25, (23,), 0)],
        ids=["refine-closes-on-c", "nothing-above-c", "collapsed-below", "failed-below"],
    )
    def test_held_hit_uncollapsed_at_k_gives_the_chained_pair(
        self, monkeypatch, below, failed, above
    ):
        # c, the edge at index 24, collapses at PROBE_DEPTH levels (count 1)
        # but not at k (count 5); the refine comb's inner points do not
        # collapse, so a refine of c closes on it
        counts = [25] * 23 + [below, 5] + [above] * 16
        config, _, calls = crafted_comb(monkeypatch, counts, failed, shallow={24: 1}, fine=25)
        coarse = locate_collapse(config, 1.0, 0.5)
        refined = locate_collapse(refine_comb(config, coarse), 1.0, 0.5) if coarse.found else None
        chained = (coarse, refined or CollapseEstimate())
        calls.clear()
        pair = refine_collapse(config, 1.0, 0.5)
        assert pair == chained
        assert pair[1].found == pair[0].found  # refine_critical.py formats both
        assert len(calls) == len(set(calls))
        # the held hit is solved at k right after a probe below it that
        # collapses or fails, else only once the refine has closed on it
        if below <= 1 or failed:
            assert calls[:4] == [(24, PROBE_DEPTH), (23, PROBE_DEPTH), (23, 25), (24, 25)]
        else:
            assert calls[:2] == [(24, PROBE_DEPTH), (23, PROBE_DEPTH)]
            assert isinstance(calls[calls.index((24, 25)) - 1][0], float)  # a refine point

    @pytest.mark.parametrize("edge", [-1, 0, 4])
    def test_no_edge_inside_the_comb_holds_nothing(self, monkeypatch, edge):
        # g_c below the 4-point comb, at its first point or past its last:
        # no point lies below an edge inside the comb to confirm it, so a
        # collapsed first probe is solved at k as locate_collapse solves it
        config, _, calls = crafted_comb(monkeypatch, [1, 0, 0, 0], edge=edge, fine=25)
        coarse = locate_collapse(config, 1.0, 0.5)
        chained = (coarse, locate_collapse(refine_comb(config, coarse), 1.0, 0.5))
        calls.clear()
        assert refine_collapse(config, 1.0, 0.5) == chained
        assert calls[:2] == [(0, PROBE_DEPTH), (0, 25)]

    @pytest.mark.parametrize("below", [25, 0])
    def test_search_restarted_past_a_held_edge_probes_as_locate_collapse(
        self, monkeypatch, below
    ):
        # every comb length, edge and first hit above the edge, whose row
        # collapses at PROBE_DEPTH levels only, the point below it collapsed
        # or not: past that point, the coarse probes are locate_collapse's,
        # in its order
        for n in range(3, 41):
            for edge in range(1, n):
                for hit in range(edge + 1, n + 1):
                    counts = [25] * (edge - 1) + [below, 5] + [25] * (hit - edge - 1)
                    counts += [0] * (n - hit)
                    config, _, calls = crafted_comb(
                        monkeypatch, counts, edge=edge, shallow={edge: 1}, fine=25
                    )
                    coarse = locate_collapse(config, 1.0, 0.5)
                    searched = probed(calls)
                    calls.clear()
                    assert refine_collapse(config, 1.0, 0.5)[0] == coarse, (n, edge, hit)
                    probes = [i for i in probed(calls) if isinstance(i, int)]
                    assert probes[:2] == [edge, edge - 1], (n, edge, hit)
                    assert probes[2:] == [i for i in searched[1:] if i != edge - 1], (
                        n, edge, hit
                    )

    def test_uncollapsed_c_over_a_collapsed_refine_point_is_the_documented_limit(
        self, monkeypatch
    ):
        # c, the edge at index 24, collapses at PROBE_DEPTH levels but not at
        # k, a rise from the refine points below it, which collapse: the
        # refine closes below c and never solves it at k, so c stays the
        # coarse hit where the chained searches move on to index 25
        counts = [25] * 24 + [5] + [0] * 16
        config, _, calls = crafted_comb(monkeypatch, counts, shallow={24: 1}, fine=0)
        assert locate_collapse(config, 1.0, 0.5).coupling == config.coupling_spec[25]
        calls.clear()
        coarse, refined = refine_collapse(config, 1.0, 0.5)
        assert coarse.coupling == config.coupling_spec[24] > refined.coupling
        assert (24, PROBE_DEPTH) in calls and (24, 25) not in calls

    @given(crafted_cases())
    def test_crafted_combs_solve_each_depth_once_and_settle_on_the_scans(self, case):
        counts, failed, edge, shallow, k, fine = case
        with pytest.MonkeyPatch.context() as monkeypatch:
            config, _, calls = crafted_comb(monkeypatch, counts, failed, edge, shallow, fine)
            config = dataclasses.replace(config, requested_eigenpairs=k)
            rows, scan = crafted_scan(config)
            shallow_rows, _ = crafted_scan(
                dataclasses.replace(config, requested_eigenpairs=min(k, PROBE_DEPTH))
            )
            fine_rows, fine_scan = ((), None)
            if scan.found:
                fine_rows, fine_scan = crafted_scan(refine_comb(config, scan))
            calls.clear()
            coarse, refined = refine_collapse(config, 1.0, 0.5)
        assert len(calls) == len(set(calls))
        assert refined.found == coarse.found
        if settles(rows, shallow_rows) and settles(fine_rows, fine_rows):
            assert (coarse, refined) == (scan, fine_scan)
            n = len(counts)
            solved = {i for i, _ in calls if isinstance(i, int)}  # the coarse points
            assert len(solved) <= 2 + math.ceil(math.log2(n - 1))


class TestSearchStore:
    """A stored row costs the search's probe budget as a solve does, except
    at the comb's two ends when the store holds them on entry."""

    def test_stored_inner_row_is_read_where_it_was_probed(self, monkeypatch):
        # every comb length, monotone first hit and edge; each inner probe
        # of the search over an empty store, stored alone, is read in its
        # place and charged: the other probes come in the same order
        for n in range(3, 34):
            for hit in range(1, n):
                counts = [25] * hit + [0] * (n - hit)
                for edge in (0, n // 2, n - 1):
                    config, scan, calls = crafted_comb(monkeypatch, counts, edge=edge)
                    store = {}
                    assert tprabi.sweep._search(config, 1.0, 0.5, None, store) == scan
                    probes = probed(calls)
                    points = tprabi.sweep._grid_points(config)
                    for i in (i for i in probes if 0 < i < n - 1):
                        key = tprabi.sweep._solve_key(points[i])
                        calls.clear()
                        estimate = tprabi.sweep._search(config, 1.0, 0.5, None, {key: store[key]})
                        assert estimate == scan, (n, hit, edge, i)
                        assert probed(calls) == [j for j in probes if j != i], (n, hit, edge, i)
                        assert i not in [j for j, _ in calls]

    def test_stored_refine_comb_ends_are_free(self, monkeypatch):
        # the 51-point refine comb of a coarse hit c = g_c, its ends (the
        # coarse bracket) stored: the search reads c, collapsed, then
        # gallops down from it, and may still solve 2 + ceil(log2(50)) = 8
        # points, as it does for the hit at 2
        coarse = SweepConfig((1.0,), (0.5,), (0.24, 0.25), (Q14P,), 1024)
        fine = refine_comb(coarse, CollapseEstimate(0.25, 0.01))
        couplings = fine.coupling_spec
        points = tprabi.sweep._grid_points(fine)
        for hit in range(1, 51):
            calls = []

            def fake(cfg, omega0, omega, g2, subspace):
                i = couplings.index(g2)
                calls.append((i, cfg.requested_eigenpairs))
                return make_row(g2, min(25 if i < hit else 0, cfg.requested_eigenpairs))

            monkeypatch.setattr(tprabi.sweep, "_solve_point", fake)
            ends = (points[0], points[50])
            store = {tprabi.sweep._solve_key(p): (fake(fine, *p), True) for p in ends}
            calls.clear()
            estimate = tprabi.sweep._search(fine, 1.0, 0.5, None, store)
            assert estimate.coupling == couplings[hit]
            assert {i for i, _ in calls}.isdisjoint({0, 50})
            assert len(probed(calls)) <= 8
            if hit == 2:
                assert probed(calls) == [49, 47, 31, 15, 7, 3, 1, 2]


def record_select_ranges(monkeypatch):
    """The list that records the select_range of every eigh_tridiagonal call
    from then on (the calls still solve)."""
    ranges = []
    solve = scipy.linalg.eigh_tridiagonal

    def recorded(*args, **kwargs):
        ranges.append(kwargs["select_range"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", recorded)
    return ranges


class TestProbeDepth:
    """A search probe solves its PROBE_DEPTH lowest levels first and all k
    only when those leave it collapsed or failed."""

    @pytest.mark.parametrize("subspace,chains", [(Q14P, 1), (FULL, 4)], ids=["q14+", "full"])
    def test_only_a_collapsed_probe_asks_for_all_k_levels(self, monkeypatch, subspace, chains):
        # at cutoff 1024 the search probes g_c (collapsed), then the point below
        config = SweepConfig(
            (1.0,), (0.5,), RelativeComb(steps=200, lo=0.0, hi=2.0), (subspace,), 1024
        )
        calls = counted_solves(monkeypatch)
        ranges = record_select_ranges(monkeypatch)
        assert locate_collapse(config, 1.0, 0.5).coupling == 0.25
        assert [key.g2 for key in probed(calls)] == [0.25, 0.2475]
        assert [key.g2 for key in resolved(calls)] == [0.25]
        assert ranges == [(0, 2)] * chains + [(0, 24)] * chains + [(0, 2)] * chains

    def test_failed_shallow_solve_stores_the_k_level_row(self, monkeypatch):
        config = SweepConfig(
            (1.0,), (0.5,), RelativeComb(steps=200, lo=0.0, hi=2.0), (Q14P,), 256
        )
        expected = locate_collapse(config, 1.0, 0.5)
        solve = scipy.linalg.eigh_tridiagonal

        def failing_shallow(*args, **kwargs):
            if kwargs["select_range"] == (0, PROBE_DEPTH - 1):
                raise np.linalg.LinAlgError("shallow solve failed")
            return solve(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", failing_shallow)
        store = {}
        assert tprabi.sweep._search(config, 1.0, 0.5, None, store) == expected
        assert store
        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", solve)
        for key, stored in store.items():
            assert stored == (tprabi.sweep._solve_point(config, *key), True)

    @pytest.mark.parametrize("k", [2, 3])
    def test_few_requested_levels_take_one_call_per_probe(self, monkeypatch, k):
        config = SweepConfig(
            (1.0,), (0.5,), RelativeComb(steps=40, lo=0.0, hi=2.0), (Q14P,), 256, k
        )
        scan = detect_collapse(run_sweep(config), 1.0, 0.5)
        calls = counted_solves(monkeypatch)
        assert refine_collapse(config, 1.0, 0.5)[0] == scan
        assert calls and all(depth == k for _, depth in calls)
        assert len(calls) == len(set(calls))


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
