"""Parameter-space surveys: coupling combs, collapse detection, and the
exceptional state at the critical point.

A sweep solves and filters every grid point; collapse is operationalized as
the converged-state count dropping to at most one, a truncated-basis proxy
for the spectrum turning continuous.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .analytic import critical_coupling
from .model import (
    ModelParams,
    Subspace,
    SubspaceLabel,
    build_full_fock,
    build_subspace_tridiagonal,
    subspace_name,
)
from .solver import (
    EigenPair,
    FilteredSpectrum,
    convergence_filter,
    solve_hermitian,
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
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not 0 <= self.lo < self.hi:
            raise ValueError(f"need 0 <= lo < hi, got [{self.lo}, {self.hi}]")

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
            if not (isinstance(sub, SubspaceLabel) or sub == "full"):
                raise ValueError(f"subspace must be a SubspaceLabel or 'full', got {sub!r}")
        if self.cutoff < 64:
            raise ValueError(f"cutoff must be >= 64, got {self.cutoff}")
        if self.requested_eigenpairs < 2:
            raise ValueError(
                f"requested_eigenpairs must be >= 2, got {self.requested_eigenpairs}"
            )
        if not 0 < self.tail_fraction < 1:
            raise ValueError(f"tail_fraction must be in (0, 1), got {self.tail_fraction}")
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")

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
            present = {r.subspace for r in rows}
            if len(present) > 1:
                raise ValueError(
                    f"slice holds {len(present)} subspaces, pass one of "
                    f"{sorted(subspace_name(s) for s in present)}"
                )
        else:
            rows = [r for r in rows if r.subspace == subspace]
        return rows


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
    if subspace == "full":
        matrix = build_full_fock(params, cutoff)
        pairs = solve_hermitian(matrix, min(k, matrix.dimension))
        qubit_dim = matrix.qubit_dim
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
    if len(rows) < 2:
        raise ValueError(f"slice needs >= 2 comb points, got {len(rows)}")
    couplings = [r.g2 for r in rows]
    if not all(a < b for a, b in zip(couplings, couplings[1:])):
        raise ValueError("coupling comb must be strictly increasing")
    for i, row in enumerate(rows):
        if row.error is None and row.converged_count <= 1:
            step = couplings[i] - couplings[i - 1] if i > 0 else couplings[1] - couplings[0]
            return CollapseEstimate(True, couplings[i], step)
    return CollapseEstimate(False)


def refine_comb(config: SweepConfig, center: float) -> SweepConfig:
    """Config with the coupling comb replaced by 200 homogeneous points
    spanning [0.98, 1.02] times center."""
    if center <= 0:
        raise ValueError(f"center must be > 0, got {center}")
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
