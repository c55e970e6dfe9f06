"""Coupling-comb surveys, collapse detection, and the exceptional state."""

import dataclasses
import math
import os
import signal
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tprabi.sweep
from tprabi import (
    FAILURE_COUNT,
    FULL,
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
    full_fock_chains,
    locate_collapse,
    refine_comb,
    run_sweep,
    solve_hermitian,
    solve_point,
    solve_tridiagonal,
)
from tprabi.cli import parse_sweep_config

Q14P = SubspaceLabel(0.25, 1)
Q34P = SubspaceLabel(0.75, 1)
SHIPPED_CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.cfg"))


def make_row(g2, count, *, omega0=1.0, omega=0.5, subspace=Q14P, error=None):
    return SweepRow(omega0, omega, g2, subspace, count, (), error)


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


def crafted_comb(monkeypatch, counts, failed=()):
    """A comb whose _solve_point rows carry the given counts (failed indices
    become failure rows). Returns the config, the scan's estimate over every
    row, and the list that records each probed index from then on."""
    couplings = tuple(0.01 * (i + 1) for i in range(len(counts)))
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

    @pytest.mark.parametrize(
        "over,omega0,subspace,message",
        [
            ({}, 1.0, None, "pass one of"),
            ({}, 2.0, Q14P, "got 0"),
            (dict(coupling_spec=(0.1,)), 1.0, Q14P, "got 1"),
            (dict(coupling_spec=(0.2, 0.1)), 1.0, Q14P, "strictly increasing"),
            (dict(omega_grid=(0.5, 0.5)), 1.0, Q14P, "strictly increasing"),
        ],
    )
    def test_validation_matches_detect_collapse(self, over, omega0, subspace, message):
        base = SweepConfig((1.0,), (0.5,), (0.1, 0.2), (Q14P, Q34P), 64)
        config = dataclasses.replace(base, **over)
        with pytest.raises(ValueError, match=message):
            detect_collapse(run_sweep(config), omega0, 0.5, subspace)
        with pytest.raises(ValueError, match=message):
            locate_collapse(config, omega0, 0.5, subspace)


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

    # a nan center used to give an all-nan comb
    @pytest.mark.parametrize("center", [np.nan, np.inf])
    def test_rejects_non_finite_center(self, center):
        config = SweepConfig((1.0,), (0.5,), (0.1,), (Q14P,), 64)
        with pytest.raises(ValueError, match="finite"):
            refine_comb(config, center)


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
        assert "raised in sweep worker" in note
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
        with pytest.raises(RuntimeError, match="exited without sending its rows"):
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
            (SweepConfig((1.0,), (0.5,), (0.1,) * 31, (Q14P,), 64, 4), 3),  # 31 rows
            (FORKING_CONFIG, 1),
        ],
        ids=["31-rows", "one-cpu"],
    )
    def test_small_sweeps_never_fork(self, monkeypatch, no_fork, config, cpus):
        monkeypatch.setattr(tprabi.sweep, "_available_cpus", lambda: cpus)
        assert len(run_sweep(config).rows) == len(grid_points(config))

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
        assert (got.cutoff, got.tail_fraction, got.tolerance) == (128, tail_fraction, tolerance)

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
        assert (got.cutoff, got.tail_fraction, got.tolerance) == (cutoff, tail_fraction, tolerance)

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
        # (2 GB); the chains need four small eigenvector blocks
        tracemalloc.start()
        try:
            got = solve_point(ModelParams(1.0, 0.5, 0.2), FULL, 8192, 25)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert got.converged_count == 25


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
        refined = locate_collapse(refine_comb(config, coarse.coupling), 1.0, 0.5)
        assert refined.found
        assert abs(refined.coupling - 0.25) < 2e-4
        assert refined.step < coarse.step
        # 9-point then 200-point comb: (2 + 3) + (2 + 8) solves at most
        assert len(probes) <= 15


class TestCollapseRule:
    """SweepRow.collapsed and .exceptional follow from error and the count."""

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
        assert (row.collapsed, row.exceptional) == (collapsed, exceptional)

    def test_flags_are_not_stored(self):
        names = [f.name for f in dataclasses.fields(SweepRow)]
        assert "collapsed" not in names and "exceptional" not in names
        # the solve settings live on the sweep's SweepConfig, never on a row
        for setting in ("cutoff", "eigenpairs", "tail_fraction", "tolerance"):
            assert setting not in names


class TestExceptionalState:
    CONFIG = SweepConfig((1.0,), (0.5,), (0.1, 0.25), (Q14P,), 1024)

    def test_critical_point_survivor(self):
        config = dataclasses.replace(self.CONFIG, cutoff=8192)
        state = exceptional_state(config, make_row(0.25, 1))
        assert state.pair.value == pytest.approx(-0.010035201610, abs=1e-9)
        assert state.overlap == pytest.approx(0.7780010930, abs=1e-8)
        assert np.isclose(np.linalg.norm(state.pair.vector), 1.0)

    def test_rejects_non_exceptional_row(self):
        with pytest.raises(ValueError):
            exceptional_state(self.CONFIG, make_row(0.25, 0))
        with pytest.raises(ValueError):
            exceptional_state(self.CONFIG, make_row(0.25, 25))

    def test_rejects_failed_row(self):
        row = make_row(0.25, FAILURE_COUNT, error="ValueError: boom")
        with pytest.raises(ValueError):
            exceptional_state(self.CONFIG, row)

    def test_rejects_row_whose_resolve_disagrees(self):
        # claims one survivor but the re-solve finds a full ladder
        row = make_row(0.1, 1)
        with pytest.raises(ValueError, match="expected exactly 1"):
            exceptional_state(self.CONFIG, row)
