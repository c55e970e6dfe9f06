"""Parameter-space surveys: coupling combs, collapse detection, and the
exceptional state at the critical point.

A sweep solves and filters every grid point; collapse is operationalized as
the converged-state count dropping to at most one, a truncated-basis proxy
for the spectrum turning continuous. locate_collapse finds the same point by
bisecting the comb instead of solving all of it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence, Union

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
    EigenPair,
    FilteredSpectrum,
    convergence_filter,
    solve_chains,
    solve_tridiagonal,
)

FAILURE_COUNT = -1  # converged_count marker for rows whose solve failed


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
    tail_fraction: float = 0.2
    tolerance: float = 1e-6

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
        if isinstance(self.coupling_spec, RelativeComb) and min(self.omega_grid) <= 0:
            raise ValueError("a relative coupling comb needs every omega > 0")
        if isinstance(self.coupling_spec, tuple) and not self.coupling_spec:
            raise ValueError("coupling list must be non-empty")
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
    """Collapse diagnostics at one grid point.

    converged_count is -1 when the solve failed (see error); energies list
    only the converged values, ascending.
    """

    omega0: float
    omega: float
    g2: float
    subspace: Subspace
    cutoff: int
    eigenpairs: int
    tail_fraction: float
    tolerance: float
    converged_count: int
    energies: tuple[float, ...]
    collapsed: bool
    exceptional: bool
    error: Optional[str] = None


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
        rows = [r for r in self.rows if r.omega0 == omega0 and r.omega == omega]
        if subspace is None:
            _require_one_subspace({r.subspace for r in rows})
        else:
            rows = [r for r in rows if r.subspace == subspace]
        return rows


def _require_one_subspace(present: set) -> None:
    if len(present) > 1:
        raise ValueError(
            f"slice holds {len(present)} subspaces, pass one of "
            f"{sorted(s.name for s in present)}"
        )


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
    tail_fraction: float = 0.2,
    tolerance: float = 1e-6,
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
    base = dict(
        omega0=omega0,
        omega=omega,
        g2=g2,
        subspace=subspace,
        cutoff=config.cutoff,
        eigenpairs=config.requested_eigenpairs,
        tail_fraction=config.tail_fraction,
        tolerance=config.tolerance,
    )
    try:
        filtered = solve_point(
            ModelParams(omega0, omega, g2),
            subspace,
            config.cutoff,
            config.requested_eigenpairs,
            config.tail_fraction,
            config.tolerance,
        )
    except (ValueError, np.linalg.LinAlgError) as exc:  # numerical failures become rows
        return SweepRow(
            converged_count=FAILURE_COUNT,
            energies=(),
            collapsed=False,
            exceptional=False,
            error=f"{type(exc).__name__}: {exc}",
            **base,
        )
    count = filtered.converged_count
    return SweepRow(
        converged_count=count,
        energies=tuple(float(v) for v in filtered.converged_values),
        collapsed=count <= 1,
        exceptional=count == 1,
        **base,
    )


def run_sweep(config: SweepConfig) -> SweepResult:
    """Solve and filter every grid point of the survey.

    Rows are ordered lexicographically by (omega0, omega, g2, subspace).
    """
    rows = tuple(
        _solve_point(config, w0, w, float(g), sub)
        for w0 in config.omega0_grid
        for w in config.omega_grid
        for g in config.couplings_for(w)
        for sub in config.subspaces
    )
    return SweepResult(config, rows)


def _collapsed(row: SweepRow) -> bool:
    """The collapse rule: a solved row whose converged count is <= 1.

    Failed rows (converged_count = -1) never count as collapse evidence.
    """
    return row.error is None and row.converged_count <= 1


def _estimate_at(couplings: Sequence[float], i: int) -> CollapseEstimate:
    """Collapse at comb point i, with the step to the previous point (the
    leading step when i is the first point)."""
    step = couplings[i] - couplings[i - 1] if i > 0 else couplings[1] - couplings[0]
    return CollapseEstimate(True, couplings[i], step)


def _first_collapse(couplings: Sequence[float], rows: Iterable[SweepRow]) -> CollapseEstimate:
    """Scan rows in comb order and stop at the first collapsed one."""
    for i, row in enumerate(rows):
        if _collapsed(row):
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


def _slice_couplings(
    config: SweepConfig, omega0: float, omega: float, subspace: Optional[Subspace]
) -> list[float]:
    """The couplings of the slice run_sweep(config) would hold, validated
    exactly as detect_collapse validates them."""
    copies = config.omega0_grid.count(omega0) * config.omega_grid.count(omega)
    if copies and subspace is None:
        _require_one_subspace(set(config.subspaces))
    copies *= len(config.subspaces) if subspace is None else config.subspaces.count(subspace)
    couplings = [float(g) for g in config.couplings_for(omega)] if copies else []
    # a grid value listed twice repeats the slice, which is then not increasing
    _check_comb(couplings * copies)
    return couplings


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
    couplings = _slice_couplings(config, omega0, omega, subspace)
    sub = subspace if subspace is not None else config.subspaces[0]
    probed: dict[int, SweepRow] = {}

    def row(i: int) -> SweepRow:
        if i not in probed:
            probed[i] = _solve_point(config, omega0, omega, couplings[i], sub)
        return probed[i]

    def scan() -> CollapseEstimate:
        return _first_collapse(couplings, (row(i) for i in range(len(couplings))))

    lo, hi = 0, len(couplings) - 1
    if _collapsed(row(lo)):
        return _estimate_at(couplings, lo)
    if not _collapsed(row(hi)):
        return scan()
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _collapsed(row(mid)):
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


def exceptional_state(row: SweepRow) -> ExceptionalState:
    """Re-solve an exceptional row and report the lone converged pair.

    The overlap is the inner-product magnitude against the numeric ground
    state of the same subspace at 0.98 times the critical coupling.
    """
    if row.error is not None or not row.exceptional:
        raise ValueError("row is not flagged exceptional")

    params = ModelParams(row.omega0, row.omega, row.g2)
    survivors = solve_point(
        params, row.subspace, row.cutoff, row.eigenpairs, row.tail_fraction, row.tolerance
    ).converged_pairs
    if len(survivors) != 1:
        raise ValueError(
            f"re-solve found {len(survivors)} converged pairs, expected exactly 1"
        )
    lone = survivors[0]
    near = ModelParams(row.omega0, row.omega, 0.98 * critical_coupling(row.omega))
    ground = solve_point(near, row.subspace, row.cutoff, 1).pairs[0]
    overlap = float(abs(np.vdot(lone.vector, ground.vector)))
    return ExceptionalState(lone, overlap)
