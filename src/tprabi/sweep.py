"""Parameter-space surveys: coupling combs, collapse detection, and the
exceptional state at the critical point.

A sweep solves and filters every grid point; collapse is operationalized as
the converged-state count dropping to at most one, a truncated-basis proxy
for the spectrum turning continuous. At omega0 = 0 both qubit branches of a
Bargmann sector are the same matrix, so a sweep solves each such pair once.
locate_collapse finds the same point by probing the comb from the analytic
edge g_c = omega/2 instead of solving all of it, each probe first at its
PROBE_DEPTH lowest levels; refine_collapse probes a coarse comb, then its
refine comb, probing no point twice and solving the coarse hit at all
levels only when the refine closes on it. map_forked is the one fork
path: sweeps of 8 or more distinct solves run them in forked processes and
get them back in grid order.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import threading
import traceback
from dataclasses import dataclass, replace
from typing import BinaryIO, Callable, Iterable, NamedTuple, NoReturn, Optional, Sequence, Union

import numpy as np

from .analytic import critical_coupling
from .model import (
    FullModel,
    ModelParams,
    Subspace,
    SubspaceLabel,
    build_subspace_tridiagonal,
    full_fock_chains,
    require_integer,
)
from .solver import (
    DEFAULT_TAIL_FRACTION,
    DEFAULT_TOLERANCE,
    EigenPair,
    FilteredSpectrum,
    check_filter_settings,
    convergence_filter,
    solve_chains,
    solve_tridiagonal,
)

FAILURE_COUNT = -1  # converged_count marker for rows whose solve failed
# a sweep forks one worker per this many distinct solves, up to the CPUs, so
# from 8 solves on; a fork costs ~1 ms (break-even table: README, "Sweeps")
ROWS_PER_WORKER = 4
# levels a g_c search probe solves first; only a collapsed or failed probe
# is solved again at all requested levels
PROBE_DEPTH = 3


class GridPoint(NamedTuple):
    """One point of a sweep grid; a SweepRow carries the same four fields."""

    omega0: float
    omega: float
    g2: float
    subspace: Subspace


@dataclass(frozen=True)
class RelativeComb:
    """Homogeneous coupling comb spanning [lo, hi] in multiples of g_c.

    steps counts intervals, so the comb has steps + 1 points and the
    critical coupling itself lands on the grid for spans like [0, 2].
    """

    steps: int
    lo: float
    hi: float

    def __post_init__(self) -> None:
        require_integer("steps", self.steps)
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not 0 <= self.lo < self.hi < np.inf:
            raise ValueError(f"need 0 <= lo < hi finite, got [{self.lo}, {self.hi}]")

    def couplings(self, omega: float) -> np.ndarray:
        # scaled after linspace, the unit comb's 1.0 lands on g_c exactly
        return critical_coupling(omega) * np.linspace(self.lo, self.hi, self.steps + 1)


@dataclass(frozen=True)
class SweepConfig:
    """Grids and solver settings for one survey."""

    omega0_grid: tuple[float, ...]
    omega_grid: tuple[float, ...]
    coupling_spec: Union[RelativeComb, tuple[float, ...]]
    subspaces: tuple[Subspace, ...]
    cutoff: int
    requested_eigenpairs: int = 25
    tail_fraction: float = DEFAULT_TAIL_FRACTION
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega0_grid", tuple(float(v) for v in self.omega0_grid))
        object.__setattr__(self, "omega_grid", tuple(float(v) for v in self.omega_grid))
        if not isinstance(self.coupling_spec, RelativeComb):
            object.__setattr__(
                self, "coupling_spec", tuple(float(v) for v in self.coupling_spec)
            )
        object.__setattr__(self, "subspaces", tuple(self.subspaces))
        if not self.omega0_grid or not self.omega_grid:
            raise ValueError("omega0 and omega grids must be non-empty")
        absolute = () if isinstance(self.coupling_spec, RelativeComb) else self.coupling_spec
        if isinstance(self.coupling_spec, tuple) and not self.coupling_spec:
            raise ValueError("coupling list must be non-empty")
        # negative values stay failure rows; nan and inf are no grid at all
        for name, values in (
            ("omega0", self.omega0_grid), ("omega", self.omega_grid), ("g2", absolute)
        ):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} values must be finite, got {values}")
        if isinstance(self.coupling_spec, RelativeComb) and min(self.omega_grid) <= 0:
            raise ValueError("a relative coupling comb needs every omega > 0")
        if not self.subspaces:
            raise ValueError("subspace list must be non-empty")
        for sub in self.subspaces:
            if not isinstance(sub, (SubspaceLabel, FullModel)):
                raise ValueError(f"subspace must be a SubspaceLabel or FULL, got {sub!r}")
        # a repeated value would list each of its rows twice; absolute g2
        # lists may repeat, the comb checks of collapse detection reject them
        for name, values in (
            ("omega0", self.omega0_grid),
            ("omega", self.omega_grid),
            ("subspace", tuple(sub.name for sub in self.subspaces)),
        ):
            if len(set(values)) < len(values):
                raise ValueError(f"{name} values must not repeat, got {values}")
        require_integer("cutoff", self.cutoff)
        require_integer("requested_eigenpairs", self.requested_eigenpairs)
        if self.cutoff < 64:
            raise ValueError(f"cutoff must be >= 64, got {self.cutoff}")
        if self.requested_eigenpairs < 2:
            raise ValueError(
                f"requested_eigenpairs must be >= 2, got {self.requested_eigenpairs}"
            )
        check_filter_settings(self.tail_fraction, self.tolerance)

    def couplings_for(self, omega: float) -> np.ndarray:
        if isinstance(self.coupling_spec, RelativeComb):
            return self.coupling_spec.couplings(omega)
        return np.asarray(self.coupling_spec)


@dataclass(frozen=True)
class SweepRow:
    """Collapse diagnostics at one grid point, solved with the settings of
    its sweep's SweepConfig.

    energies list only the converged values, ascending; a failed solve has
    none and names its failure in error.
    """

    omega0: float
    omega: float
    g2: float
    subspace: Subspace
    energies: tuple[float, ...]
    error: Optional[str] = None

    @property
    def converged_count(self) -> int:
        """FAILURE_COUNT when the solve failed, else the number of energies."""
        return FAILURE_COUNT if self.error is not None else len(self.energies)

    @property
    def collapsed(self) -> bool:
        """The collapse rule: a solved row with at most one converged energy.

        Failed rows never count as collapse evidence.
        """
        return self.error is None and len(self.energies) <= 1


@dataclass(frozen=True)
class SweepResult:
    """All rows of a sweep in lexicographic grid order."""

    config: SweepConfig
    rows: tuple[SweepRow, ...]


@dataclass(frozen=True)
class CollapseEstimate:
    """Estimated critical coupling with its one-sided comb-step uncertainty;
    both are None when no collapse was found."""

    coupling: Optional[float] = None
    step: Optional[float] = None

    @property
    def found(self) -> bool:
        return self.coupling is not None


@dataclass(frozen=True)
class ExceptionalState:
    """The single converged pair at collapse and its ground-state overlap."""

    pair: EigenPair
    overlap: float


def solve_point(
    params: ModelParams,
    subspace: Subspace,
    cutoff: int,
    k: int,
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
    tolerance: float = DEFAULT_TOLERANCE,
) -> FilteredSpectrum:
    """Build one sector (or the full model), solve its k lowest eigenpairs and
    judge them with the tail-norm filter.

    k is clamped to the matrix dimension. Sector ladders hold cutoff levels;
    the full model holds cutoff Fock levels per qubit state.
    """
    if isinstance(subspace, FullModel):
        pairs = solve_chains(full_fock_chains(params, cutoff), min(k, 2 * cutoff))
        qubit_dim = 2
    else:
        tridiag = build_subspace_tridiagonal(subspace, params, cutoff)
        pairs = solve_tridiagonal(tridiag, min(k, tridiag.dimension))
        qubit_dim = 1
    return convergence_filter(pairs, tail_fraction, tolerance, qubit_dim)


def _solve_point(
    config: SweepConfig, omega0: float, omega: float, g2: float, subspace: Subspace
) -> SweepRow:
    try:
        filtered = solve_point(
            ModelParams(omega0, omega, g2),
            subspace,
            config.cutoff,
            config.requested_eigenpairs,
            config.tail_fraction,
            config.tolerance,
        )
    except ValueError as exc:  # numerical failures, LAPACK's too, become rows
        error = f"{type(exc).__name__}: {exc}"
        return SweepRow(omega0, omega, g2, subspace, (), error)
    energies = tuple(float(v) for v in filtered.converged_values)
    return SweepRow(omega0, omega, g2, subspace, energies)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Solve and filter every grid point of the survey.

    Rows are ordered lexicographically by (omega0, omega, g2, subspace).
    Points with equal _solve_key build the same matrix, so only the first of
    them is solved and its row is copied to the others. A sweep of at least
    2 * ROWS_PER_WORKER (8) distinct solves runs them in forked shares by
    map_forked; the rows and their order are the serial ones.
    """
    points = _grid_points(config)
    keys = [_solve_key(p) for p in points]
    distinct: dict[tuple, GridPoint] = {}
    for key, point in zip(keys, points):
        distinct.setdefault(key, point)
    solved = map_forked(lambda p: _solve_point(config, *p), [*distinct.values()], ROWS_PER_WORKER)
    by_key = dict(zip(distinct, solved))
    rows = (replace(by_key[key], **point._asdict()) for key, point in zip(keys, points))
    return SweepResult(config, tuple(rows))


def _solve_key(point: GridPoint) -> tuple:
    """The solve a grid point needs; points with equal keys share one.

    A sector's branch multiplies only the (omega0/2)(-1)^m diagonal term; at
    omega0 = 0 that term is +-0.0, and +-0.0 + x == x for every x, so both
    branches of a Bargmann sector build the same matrix bit for bit and share
    one key. Every other key is the point itself.
    """
    if point.omega0 == 0 and isinstance(point.subspace, SubspaceLabel):
        return (point.omega0, point.omega, point.g2, point.subspace.bargmann_q)
    return point


def _grid_points(config: SweepConfig) -> list[GridPoint]:
    """Every point of the survey, ordered as run_sweep orders its rows."""
    return [
        GridPoint(w0, w, float(g), sub)
        for w0 in config.omega0_grid
        for w in config.omega_grid
        for g in config.couplings_for(w)
        for sub in config.subspaces
    ]


def map_forked(function: Callable, items: Sequence, per_worker: int) -> list:
    """[function(x) for x in items], computed in forked processes when that pays.

    items are cut into contiguous shares, one per worker (min(available CPUs,
    len(items) // per_worker)); the first share is mapped here, each of the
    others in a forked child that pickles its results back through a pipe.
    With fewer than two workers, without os.fork, or while other threads run,
    the map is serial. function is inherited by the children, so it need not
    pickle; its results must.
    """
    workers = min(_available_cpus(), len(items) // per_worker)
    # a forked child holds only the calling thread: a lock another thread
    # held at the fork would stay held there, so threaded callers stay serial
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [function(x) for x in items]
    bounds = [len(items) * i // workers for i in range(workers + 1)]
    return _map_shares(function, [items[a:b] for a, b in zip(bounds, bounds[1:])])


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _map_shares(function: Callable, shares: list[Sequence]) -> list:
    """Results of every share, in share order: the first mapped here, each of
    the others in a forked child.

    A child's exception is raised here with the child's traceback as a note.
    Every child is reaped before this returns or raises.
    """
    children: list[tuple[int, BinaryIO]] = []
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                for _, pipe in children:  # earlier children's pipes
                    pipe.close()
                _serve_share(function, share, write_fd)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        results = [function(x) for x in shares[0]]
        for pid, pipe in children:
            results.extend(_receive_share(pid, pipe))
        return results
    finally:
        for pid, pipe in children:
            pipe.close()  # a child still writing gets EPIPE and exits
            with contextlib.suppress(ChildProcessError):  # reaped already (SIGCHLD ignored)
                os.waitpid(pid, 0)


def _serve_share(function: Callable, share: Sequence, write_fd: int) -> NoReturn:
    """Child side: send (results, None) or (None, (exception, traceback text)).

    Leaves through os._exit whatever happens, so the child never returns into
    the caller's code and never flushes the stdio buffers it inherited.
    """
    status = 1
    try:
        try:
            outcome = ([function(x) for x in share], None)
        except Exception as exc:
            outcome = (None, (_picklable(exc), traceback.format_exc()))
        with open(write_fd, "wb") as pipe:
            pickle.dump(outcome, pipe)
        status = 0
    finally:
        os._exit(status)


def _picklable(exc: Exception) -> Exception:
    """exc if it survives a pickle round trip, else a RuntimeError naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _receive_share(pid: int, pipe: BinaryIO) -> list:
    try:
        results, failure = pickle.load(pipe)
    except EOFError:
        raise RuntimeError(f"forked worker {pid} exited without sending its results") from None
    if failure is not None:
        exc, child_traceback = failure
        exc.add_note(f"raised in forked worker {pid}:\n{child_traceback.rstrip()}")
        raise exc
    return results


def _estimate_at(couplings: Sequence[float], i: int) -> CollapseEstimate:
    """Collapse at comb point i, with the step to the previous point (the
    leading step when i is the first point)."""
    step = couplings[i] - couplings[i - 1] if i > 0 else couplings[1] - couplings[0]
    return CollapseEstimate(couplings[i], step)


def _first_collapse(couplings: Sequence[float], rows: Iterable[SweepRow]) -> CollapseEstimate:
    """Scan rows in comb order and stop at the first collapsed one."""
    for i, row in enumerate(rows):
        if row.collapsed:
            return _estimate_at(couplings, i)
    return CollapseEstimate()


def _comb_slice(
    config: SweepConfig, items: Iterable, omega0: float, omega: float, subspace: Optional[Subspace]
) -> tuple[list, list[float]]:
    """The rows (or grid points) of one slice of config's grid, in grid
    order, and their couplings, which must form a comb. Without a subspace
    the config must list only one."""
    if subspace is None:
        if len(config.subspaces) > 1:
            raise ValueError(
                f"slice holds {len(config.subspaces)} subspaces, pass one of "
                f"{sorted(s.name for s in config.subspaces)}"
            )
        subspace = config.subspaces[0]
    items = [x for x in items if (x.omega0, x.omega, x.subspace) == (omega0, omega, subspace)]
    couplings = [x.g2 for x in items]
    if len(couplings) < 2:
        raise ValueError(f"slice needs >= 2 comb points, got {len(couplings)}")
    if not all(a < b for a, b in zip(couplings, couplings[1:])):
        raise ValueError("coupling comb must be strictly increasing")
    return items, couplings


def detect_collapse(
    result: SweepResult,
    omega0: float,
    omega: float,
    subspace: Optional[Subspace] = None,
) -> CollapseEstimate:
    """Smallest comb coupling whose converged count has dropped to <= 1.

    Failed rows never count as collapse evidence.
    The returned step is the local comb spacing at the detection point.
    Without a subspace, the sweep's config must list only one.
    """
    rows, couplings = _comb_slice(result.config, result.rows, omega0, omega, subspace)
    return _first_collapse(couplings, rows)


def locate_collapse(
    config: SweepConfig,
    omega0: float,
    omega: float,
    subspace: Optional[Subspace] = None,
) -> CollapseEstimate:
    """detect_collapse(run_sweep(config), omega0, omega, subspace), found by
    probing comb indices from the analytic edge instead of solving every point.

    A probe solves nothing when a row store holds its row (empty here;
    refine_collapse's two stages share one). Otherwise it solves the point's
    min(PROBE_DEPTH, k) lowest levels (k = config.requested_eigenpairs): if
    that solve succeeds and its row is not collapsed (SweepRow.collapsed),
    all k levels could only add converged ones, so the probe stops there. A
    collapsed or failed probe is solved again at all k levels, which gives
    exactly the row run_sweep lists (refine_collapse's coarse stage may put
    this off for its first probe; see there). The search keeps lo
    uncollapsed and hi collapsed until they are adjacent, starting from the
    virtual bracket lo = -1 (before the comb), hi = n (past it). Its first probe
    is the analytic edge, the first point at or above critical_coupling(omega),
    when that lies past the first comb point; from there it gallops away from
    the verdict (1, 3, 7, ... points down from a collapsed probe, up from an
    uncollapsed one), then bisects what is left. A comb that does not straddle
    g_c is probed at both ends first, then at midpoints. Every probe is clamped
    so that the bracket it leaves still closes by bisection within the remaining
    budget: the search of an n-point comb never takes more than
    2 + ceil(log2(n - 1)) probes (10 for 201 points; the comb's ends are
    free when the store holds them on entry), and about two when the comb's
    edge sits at g_c. It falls back to the plain first-hit scan, reusing the
    probed rows, when a probe fails, when the last point has not collapsed,
    or when the counts of the probes solved at all k levels, read in
    coupling order, ever rise; a probe stopped at PROBE_DEPTH levels has no
    count to compare.

    The answer equals the scan's whenever converged counts never rise along
    the comb (failed rows aside), as on every shipped config. A dip below two
    that no probe lands on cannot be seen: with counts 25, 0, 25, 25, 0 the
    scan reports the second point and this search the last. Nor can a rise
    among probes stopped at PROBE_DEPTH levels: with counts 10, 1, 20, 20, 0
    the probes at 10, 20 and 20 each converge in all 3 levels they solve, so
    the search reports the last point where the scan reports the second.
    """
    return _search(config, omega0, omega, subspace, {})


def refine_collapse(
    config: SweepConfig, omega0: float, omega: float, subspace: Optional[Subspace] = None
) -> tuple[CollapseEstimate, CollapseEstimate]:
    """(coarse, refined): locate_collapse on config, then, if coarse is found, on
    refine_comb(config, coarse). Both stages share one row store keyed by
    _solve_key, which holds the refine comb's ends: no point is probed twice.

    The coarse stage may hold its hit c at c's PROBE_DEPTH-level row (see
    _search); c, the refine comb's last point, is then solved at all k
    levels only if the refine stage closes on it. Should c prove not
    collapsed there, both stages run again over the store, which gives the
    chained searches' pair. That adds one limit to locate_collapse's, from
    the same assumption that converged counts never rise along the comb:
    when c collapses at PROBE_DEPTH levels but not at k while a refine point
    below it collapses at k, this reports c where the chained searches move
    past it.
    """
    store: dict[tuple, tuple[SweepRow, bool]] = {}
    coarse = _search(config, omega0, omega, subspace, store, hold=True)
    while coarse.found:
        refined = _search(refine_comb(config, coarse), omega0, omega, subspace, store)
        # a held c is the one stored row that is collapsed and not deep
        held = [key for key, (row, deep) in store.items() if row.collapsed and not deep]
        if refined.coupling != coarse.coupling or not held:
            return coarse, refined
        (key,) = held  # the refine closed on c
        row = store[key][0]
        store[key] = _solve_point(config, row.omega0, row.omega, row.g2, row.subspace), True
        if store[key][0].collapsed:
            return coarse, refined
        coarse = _search(config, omega0, omega, subspace, store)
    return coarse, CollapseEstimate()


def _search(
    config: SweepConfig,
    omega0: float,
    omega: float,
    subspace: Optional[Subspace],
    store: dict,
    hold: bool = False,
) -> CollapseEstimate:
    """locate_collapse, probing a point only when store lacks its _solve_key.

    store maps a key to (row, deep): deep when the row was solved at all
    config.requested_eigenpairs levels, as _solve_point(config, ...) gives it.
    A stored row costs probe budget as a solve does, except at the comb's two
    ends when the store held them on entry: a refine comb's ends are its
    coarse bracket. With hold (refine_collapse's coarse stage, store empty),
    an analytic edge inside the comb is settled before the probe loop: when
    its PROBE_DEPTH-level row collapses and the point below it, probed, is
    solved and not collapsed, the edge is returned as the hit and stored as
    that shallow row, the one kind of row that is collapsed and not deep.
    Otherwise the edge is stored as any probe is, and the loop, which probes
    it first, reads it and the point below from store."""
    points, couplings = _comb_slice(config, _grid_points(config), omega0, omega, subspace)
    n = len(couplings)
    # the only stored rows that cost no budget: a refine comb's coarse bracket
    free = store.keys() & {_solve_key(points[0]), _solve_key(points[-1])}
    probed: dict[int, tuple[SweepRow, bool]] = {}
    whole = config.requested_eigenpairs <= PROBE_DEPTH  # the shallow solve holds all k
    shallow = config if whole else replace(config, requested_eigenpairs=PROBE_DEPTH)

    def probe(point: GridPoint, row: Optional[SweepRow] = None) -> tuple[SweepRow, bool]:
        # a solved row that is not collapsed stays so: more levels can only
        # add converged ones
        row = _solve_point(shallow, *point) if row is None else row
        if whole or (row.error is None and not row.collapsed):
            return row, whole
        return _solve_point(config, *point), True

    def row(i: int) -> SweepRow:
        key = _solve_key(points[i])
        if key not in store:
            store[key] = probe(points[i])
        probed[i] = store[key]
        return probed[i][0]

    def scan() -> CollapseEstimate:
        return _first_collapse(couplings, (row(i) for i in range(n)))

    budget = 2 + math.ceil(math.log2(n - 1))
    # an absolute comb may come with omega <= 0 (every row fails): no edge
    edge = int(np.searchsorted(couplings, critical_coupling(omega))) if omega > 0 else 0
    if hold and 0 < edge < n and not whole:
        top = _solve_point(shallow, *points[edge])
        if top.collapsed:
            below, _ = store[_solve_key(points[edge - 1])] = probe(points[edge - 1])
            if below.error is None and not below.collapsed:
                store[_solve_key(points[edge])] = top, False
                return _estimate_at(couplings, edge)
        store[_solve_key(points[edge])] = probe(points[edge], top)
    # the first target and gallop step; a step of n goes from the first point
    # straight to the last
    target, step = (edge, 1) if 0 < edge < n else (0, n)
    lo, hi = -1, n
    while hi - lo > 1:
        # the widest bracket the probes left after this one can bisect shut
        reach = 2 ** (budget - sum(_solve_key(points[i]) not in free for i in probed) - 1)
        target = min(max(target, hi - reach, lo + 1), lo + reach, hi - 1)
        verdict = row(target)
        if verdict.collapsed:
            hi = target
        else:
            lo = target
        # gallop while every verdict agrees (one bound still virtual), then bisect
        if lo < 0:
            target = hi - step
        elif hi == n:
            target = lo + step
        else:
            target = (lo + hi) // 2
        step *= 2
    # the bracket only means "first hit" if the last point collapsed, no probe
    # failed and counts fall; only rows solved at all k levels have a count
    seen = [probed[i] for i in sorted(probed)]
    counts = [len(r.energies) for r, deep in seen if deep]
    if hi == n or any(r.error is not None for r, _ in seen) or any(
        b > a for a, b in zip(counts, counts[1:])
    ):
        return scan()
    return _estimate_at(couplings, hi)


def refine_comb(config: SweepConfig, estimate: CollapseEstimate) -> SweepConfig:
    """Config whose comb is c + (j / 50) * step, j = -50 ... 0, for a coarse
    estimate (c, step), less points below 0: the bracket [c - step, c] of the
    drop, whose ends are the coarse points bit for bit at an interior hit."""
    if not all(x is not None and 0 < x < math.inf for x in (estimate.coupling, estimate.step)):
        raise ValueError(f"estimate must be found with finite coupling, step > 0, got {estimate}")
    points = (estimate.coupling + (j / 50) * estimate.step for j in range(-50, 1))
    return replace(config, coupling_spec=tuple(float(g) for g in points if g >= 0))


def exceptional_state(
    spectrum: FilteredSpectrum, params: ModelParams, subspace: Subspace, cutoff: int
) -> Optional[ExceptionalState]:
    """The lone converged pair of spectrum, solve_point(params, subspace,
    cutoff, ...)'s result, with its ground-state overlap; None unless exactly
    one pair converged.

    The overlap is the inner-product magnitude against the numeric ground
    state of the same subspace at 0.98 times the critical coupling.
    """
    survivors = spectrum.converged_pairs
    if len(survivors) != 1:
        return None
    lone = survivors[0]
    near = ModelParams(params.omega0, params.omega, 0.98 * critical_coupling(params.omega))
    ground = solve_point(near, subspace, cutoff, 1).pairs[0]
    return ExceptionalState(lone, float(abs(np.vdot(lone.vector, ground.vector))))
