"""Parameter-space surveys: coupling combs, collapse detection, and the
exceptional state at the critical point.

A sweep solves and filters every grid point; collapse is operationalized as
the converged-state count dropping to at most one, a truncated-basis proxy
for the spectrum turning continuous. locate_collapse finds the same point by
bisecting the comb instead of solving all of it. Large sweeps solve their
rows in forked processes and return them in grid order.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import threading
import traceback
from dataclasses import dataclass, replace
from typing import BinaryIO, Iterable, NamedTuple, NoReturn, Optional, Sequence, Union

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
    convergence_filter,
    solve_chains,
    solve_tridiagonal,
)

FAILURE_COUNT = -1  # converged_count marker for rows whose solve failed
ROWS_PER_WORKER = 16  # a sweep forks one worker per this many rows, up to the CPUs


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
        gc = critical_coupling(omega)
        return np.linspace(self.lo * gc, self.hi * gc, self.steps + 1)


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
        require_integer("cutoff", self.cutoff)
        require_integer("requested_eigenpairs", self.requested_eigenpairs)
        if self.cutoff < 64:
            raise ValueError(f"cutoff must be >= 64, got {self.cutoff}")
        if self.requested_eigenpairs < 2:
            raise ValueError(
                f"requested_eigenpairs must be >= 2, got {self.requested_eigenpairs}"
            )
        if not 0 < self.tail_fraction < 1:
            raise ValueError(f"tail_fraction must be in (0, 1), got {self.tail_fraction}")
        if not (np.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")

    def couplings_for(self, omega: float) -> np.ndarray:
        if isinstance(self.coupling_spec, RelativeComb):
            return self.coupling_spec.couplings(omega)
        return np.asarray(self.coupling_spec)


@dataclass(frozen=True)
class SweepRow:
    """Collapse diagnostics at one grid point, solved with the settings of
    its sweep's SweepConfig.

    converged_count is -1 when the solve failed (see error); energies list
    only the converged values, ascending.
    """

    omega0: float
    omega: float
    g2: float
    subspace: Subspace
    converged_count: int
    energies: tuple[float, ...]
    error: Optional[str] = None

    @property
    def collapsed(self) -> bool:
        """The collapse rule: a solved row whose converged count is <= 1.

        Failed rows (converged_count = -1) never count as collapse evidence.
        """
        return self.error is None and self.converged_count <= 1

    @property
    def exceptional(self) -> bool:
        """A solved row with exactly one converged pair."""
        return self.error is None and self.converged_count == 1


@dataclass(frozen=True)
class SweepResult:
    """All rows of a sweep in lexicographic grid order."""

    config: SweepConfig
    rows: tuple[SweepRow, ...]

    def slice_rows(
        self,
        omega0: float,
        omega: float,
        subspace: Optional[Subspace] = None,
    ) -> list[SweepRow]:
        return _select(self.rows, omega0, omega, subspace)


def _select(
    items: Iterable, omega0: float, omega: float, subspace: Optional[Subspace]
) -> list:
    """The rows (or grid points) of one slice, in grid order. Without a
    subspace the slice must hold only one."""
    items = [x for x in items if x.omega0 == omega0 and x.omega == omega]
    if subspace is not None:
        return [x for x in items if x.subspace == subspace]
    present = {x.subspace for x in items}
    if len(present) > 1:
        raise ValueError(
            f"slice holds {len(present)} subspaces, pass one of "
            f"{sorted(s.name for s in present)}"
        )
    return items


@dataclass(frozen=True)
class CollapseEstimate:
    """Estimated critical coupling with its one-sided comb-step uncertainty."""

    found: bool
    coupling: Optional[float] = None
    step: Optional[float] = None


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


def _solve_with(
    config: SweepConfig, params: ModelParams, subspace: Subspace
) -> FilteredSpectrum:
    """solve_point with the config's cutoff, eigenpair count and filter."""
    return solve_point(
        params,
        subspace,
        config.cutoff,
        config.requested_eigenpairs,
        config.tail_fraction,
        config.tolerance,
    )


def _solve_point(
    config: SweepConfig, omega0: float, omega: float, g2: float, subspace: Subspace
) -> SweepRow:
    try:
        filtered = _solve_with(config, ModelParams(omega0, omega, g2), subspace)
    except (ValueError, np.linalg.LinAlgError) as exc:  # numerical failures become rows
        error = f"{type(exc).__name__}: {exc}"
        return SweepRow(omega0, omega, g2, subspace, FAILURE_COUNT, (), error)
    energies = tuple(float(v) for v in filtered.converged_values)
    return SweepRow(omega0, omega, g2, subspace, filtered.converged_count, energies)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Solve and filter every grid point of the survey.

    Rows are ordered lexicographically by (omega0, omega, g2, subspace). A
    sweep of at least 2 * ROWS_PER_WORKER rows is cut into contiguous shares,
    one per worker (min(available CPUs, rows // ROWS_PER_WORKER)), solved in
    forked processes; the rows and their order are the serial ones. Without
    os.fork, or while other threads run, every sweep is serial.
    """
    points = _grid_points(config)
    workers = min(_available_cpus(), len(points) // ROWS_PER_WORKER)
    # a forked child holds only the calling thread: a lock another thread
    # held at the fork would stay held there, so threaded callers stay serial
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        rows = [_solve_point(config, *p) for p in points]
    else:
        bounds = [len(points) * i // workers for i in range(workers + 1)]
        shares = [points[a:b] for a, b in zip(bounds, bounds[1:])]
        rows = _solve_forked(config, shares)
    return SweepResult(config, tuple(rows))


def _grid_points(config: SweepConfig) -> list[GridPoint]:
    """Every point of the survey, ordered as run_sweep orders its rows."""
    return [
        GridPoint(w0, w, float(g), sub)
        for w0 in config.omega0_grid
        for w in config.omega_grid
        for g in config.couplings_for(w)
        for sub in config.subspaces
    ]


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _solve_forked(config: SweepConfig, shares: list[list[GridPoint]]) -> list[SweepRow]:
    """Rows of every share, in share order: the first solved here, each of the
    others in a forked child that pickles its rows back through a pipe.

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
                _serve_share(config, share, write_fd)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        rows = [_solve_point(config, *p) for p in shares[0]]
        for pid, pipe in children:
            rows.extend(_receive_share(pid, pipe))
        return rows
    finally:
        for pid, pipe in children:
            pipe.close()  # a child still writing gets EPIPE and exits
            with contextlib.suppress(ChildProcessError):  # reaped already (SIGCHLD ignored)
                os.waitpid(pid, 0)


def _serve_share(config: SweepConfig, share: list[GridPoint], write_fd: int) -> NoReturn:
    """Child side: send (rows, None) or (None, (exception, traceback text)).

    Leaves through os._exit whatever happens, so the child never returns into
    the caller's code and never flushes the stdio buffers it inherited.
    """
    status = 1
    try:
        try:
            outcome = ([_solve_point(config, *p) for p in share], None)
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


def _receive_share(pid: int, pipe: BinaryIO) -> list[SweepRow]:
    try:
        rows, failure = pickle.load(pipe)
    except EOFError:
        raise RuntimeError(f"sweep worker {pid} exited without sending its rows") from None
    if failure is not None:
        exc, child_traceback = failure
        exc.add_note(f"raised in sweep worker {pid}:\n{child_traceback.rstrip()}")
        raise exc
    return rows


def _estimate_at(couplings: Sequence[float], i: int) -> CollapseEstimate:
    """Collapse at comb point i, with the step to the previous point (the
    leading step when i is the first point)."""
    step = couplings[i] - couplings[i - 1] if i > 0 else couplings[1] - couplings[0]
    return CollapseEstimate(True, couplings[i], step)


def _first_collapse(couplings: Sequence[float], rows: Iterable[SweepRow]) -> CollapseEstimate:
    """Scan rows in comb order and stop at the first collapsed one."""
    for i, row in enumerate(rows):
        if row.collapsed:
            return _estimate_at(couplings, i)
    return CollapseEstimate(False)


def _check_comb(couplings: Sequence[float]) -> None:
    if len(couplings) < 2:
        raise ValueError(f"slice needs >= 2 comb points, got {len(couplings)}")
    if not all(a < b for a, b in zip(couplings, couplings[1:])):
        raise ValueError("coupling comb must be strictly increasing")


def detect_collapse(
    result: SweepResult,
    omega0: float,
    omega: float,
    subspace: Optional[Subspace] = None,
) -> CollapseEstimate:
    """Smallest comb coupling whose converged count has dropped to <= 1.

    Failed rows (converged_count = -1) never count as collapse evidence.
    The returned step is the local comb spacing at the detection point.
    """
    rows = result.slice_rows(omega0, omega, subspace)
    couplings = [r.g2 for r in rows]
    _check_comb(couplings)
    return _first_collapse(couplings, rows)


def locate_collapse(
    config: SweepConfig,
    omega0: float,
    omega: float,
    subspace: Optional[Subspace] = None,
) -> CollapseEstimate:
    """detect_collapse(run_sweep(config), omega0, omega, subspace), found by
    bisecting comb indices instead of solving every point.

    Each probe is one _solve_point call, cached for the call's lifetime. The
    search keeps lo uncollapsed and hi collapsed until they are adjacent, so
    a 201-point comb costs 2 + ceil(log2(200)) = 10 solves. It falls back to
    the plain first-hit scan, reusing the probed rows, when a probe fails,
    when the last point has not collapsed, or when the probed counts, read in
    coupling order, ever rise.

    The answer equals the scan's whenever converged counts never rise along
    the comb (failed rows aside), as on every shipped config. A dip below two
    that no probe lands on cannot be seen: with counts 25, 0, 25, 25, 0 the
    scan reports the second point and this search the last.
    """
    points = _select(_grid_points(config), omega0, omega, subspace)
    couplings = [p.g2 for p in points]
    _check_comb(couplings)
    probed: dict[int, SweepRow] = {}

    def row(i: int) -> SweepRow:
        if i not in probed:
            probed[i] = _solve_point(config, *points[i])
        return probed[i]

    def scan() -> CollapseEstimate:
        return _first_collapse(couplings, (row(i) for i in range(len(couplings))))

    lo, hi = 0, len(couplings) - 1
    if row(lo).collapsed:
        return _estimate_at(couplings, lo)
    if not row(hi).collapsed:
        return scan()
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if row(mid).collapsed:
            hi = mid
        else:
            lo = mid
    # the bracket only means "first hit" if no probe failed and counts fall
    seen = [probed[i] for i in sorted(probed)]
    if any(r.error is not None for r in seen) or any(
        b.converged_count > a.converged_count for a, b in zip(seen, seen[1:])
    ):
        return scan()
    return _estimate_at(couplings, hi)


def refine_comb(config: SweepConfig, center: float) -> SweepConfig:
    """Config with the coupling comb replaced by 200 homogeneous points
    spanning [0.98, 1.02] times center."""
    if not (np.isfinite(center) and center > 0):
        raise ValueError(f"center must be finite and > 0, got {center}")
    points = np.linspace(0.98 * center, 1.02 * center, 200)
    return replace(config, coupling_spec=tuple(float(g) for g in points))


def exceptional_state(config: SweepConfig, row: SweepRow) -> ExceptionalState:
    """Re-solve an exceptional row of a sweep of config, with the config's
    solve settings, and report the lone converged pair.

    The overlap is the inner-product magnitude against the numeric ground
    state of the same subspace at 0.98 times the critical coupling.
    """
    if not row.exceptional:
        raise ValueError("row is not flagged exceptional")

    params = ModelParams(row.omega0, row.omega, row.g2)
    survivors = _solve_with(config, params, row.subspace).converged_pairs
    if len(survivors) != 1:
        raise ValueError(
            f"re-solve found {len(survivors)} converged pairs, expected exactly 1"
        )
    lone = survivors[0]
    near = ModelParams(row.omega0, row.omega, 0.98 * critical_coupling(row.omega))
    ground = solve_point(near, row.subspace, config.cutoff, 1).pairs[0]
    overlap = float(abs(np.vdot(lone.vector, ground.vector)))
    return ExceptionalState(lone, overlap)
