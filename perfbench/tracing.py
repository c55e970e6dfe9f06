"""Spans around the calls into each tprabi layer, and the self-time arithmetic.

The traced job patches every reference to a layer's public functions in the
modules that call them (``tprabi.sweep.solve_tridiagonal``,
``tprabi.cli.solve_hermitian``, the names the study scripts imported, ...) and
the scipy eigen routines that ``tprabi.solver`` resolves at call time. Each call
becomes one span: name, kind, start, end and the index of the span it ran
inside. Spans stay in memory until the job ends; ``write_spans`` saves them and
``layer_metrics`` turns them into per-layer numbers.

A span's self time is its duration minus the durations of its direct
children. Every span kind belongs to exactly one layer metric, so the layer
self times plus ``unattributed_s`` (job time outside every root span) add up to
the job's wall time.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict, dataclass, field
from types import ModuleType
from typing import Callable


@dataclass
class Span:
    name: str
    kind: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root span
    counts: dict = field(default_factory=dict)


def _matrix_bytes(result, *args, **kwargs) -> dict:
    if hasattr(result, "diag"):
        return {"bytes": result.diag.nbytes + result.offdiag.nbytes}
    return {"bytes": result.data.nbytes}


def _pairs_built(result, *args, **kwargs) -> dict:
    return {"pairs": len(result)}


def _pairs_judged(result, *args, **kwargs) -> dict:
    return {"pairs": len(result.pairs), "converged": result.converged_count}


def _rows(result, *args, **kwargs) -> dict:
    failed = sum(1 for row in result.rows if row.converged_count == -1)  # FAILURE_COUNT
    return {"points": len(result.rows), "failed": failed}


def _text_bytes(result, path, text, *args, **kwargs) -> dict:
    return {"bytes": len(text.encode("utf-8"))}


def _lapack_counts(name: str) -> Callable[..., dict]:
    """Dimension solved and eigenvector bytes produced by one LAPACK routine call.

    eig_banded builds the full dim x dim Q internally even when a subset is
    selected, so its count adds dim^2 entries of the vectors' item size.
    """

    def counts(result, matrix, *args, **kwargs) -> dict:
        dim = len(matrix) if name == "eigh_tridiagonal" else matrix.shape[-1]
        if not isinstance(result, tuple):  # eigenvalues only
            return {"dim": dim, "bytes": 0}
        vectors = result[1]
        produced = vectors.nbytes
        if name == "eig_banded":
            produced += dim * dim * vectors.itemsize
        return {"dim": dim, "bytes": produced}

    return counts


# (defining module, function, span kind, counter)
TARGETS = (
    ("tprabi.model", "build_full_fock", "model.build", _matrix_bytes),
    ("tprabi.model", "build_phase_space", "model.build", _matrix_bytes),
    ("tprabi.model", "build_rotated_fock", "model.build", _matrix_bytes),
    ("tprabi.model", "build_subspace_tridiagonal", "model.build", _matrix_bytes),
    ("tprabi.solver", "solve_tridiagonal", "solver.solve", _pairs_built),
    ("tprabi.solver", "solve_hermitian", "solver.solve", _pairs_built),
    ("tprabi.solver", "convergence_filter", "solver.filter", _pairs_judged),
    ("scipy.linalg", "eigh_tridiagonal", "solver.lapack", _lapack_counts("eigh_tridiagonal")),
    ("scipy.linalg", "eigh", "solver.lapack", _lapack_counts("eigh")),
    ("scipy.linalg", "eig_banded", "solver.lapack", _lapack_counts("eig_banded")),
    ("tprabi.sweep", "run_sweep", "sweep.run", _rows),
    ("tprabi.sweep", "refine_comb", "sweep.run", None),
    ("tprabi.sweep", "detect_collapse", "sweep.detect", None),
    ("tprabi.analytic", "classify_regime", "analytic", None),
    ("tprabi.analytic", "critical_coupling", "analytic", None),
    ("tprabi.analytic", "degenerate_energies", "analytic", None),
    ("tprabi.analytic", "degenerate_spectrum", "analytic", None),
    ("tprabi.analytic", "fock_to_position", "analytic", None),
    ("tprabi.analytic", "general_solution", "analytic", None),
    ("tprabi.analytic", "hermite_gauss", "analytic", None),
    ("tprabi.analytic", "kummer_1f1", "analytic", None),
    ("tprabi.analytic", "plane_wave", "analytic", None),
    ("tprabi.cli", "main", "cli.main", None),
    ("tprabi.cli", "parse_sweep_config", "cli.parse", None),
    ("tprabi.cli", "sweep_csv", "cli.format", None),
    ("tprabi.cli", "_sweep_summary", "cli.format", None),
    ("tprabi.cli", "_write_atomic", "cli.write", _text_bytes),
)

# span kind -> the per-layer self-time metric it adds to
SELF_TIME_METRIC = {
    "model.build": "model.build_s",
    "solver.solve": "solver.package_s",
    "solver.filter": "solver.filter_s",
    "solver.lapack": "solver.lapack_s",
    "sweep.run": "sweep.self_s",
    "sweep.detect": "sweep.detect_s",
    "analytic": "analytic.s",
    "cli.main": "cli.other_s",
    "cli.parse": "cli.parse_s",
    "cli.format": "cli.format_s",
    "cli.write": "cli.write_s",
}


class Tracer:
    """Records spans for the patched layer functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[ModuleType, str, object]] = []

    def wrap(self, name: str, kind: str, func: Callable, counter=None) -> Callable:
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, kind, 0.0, 0.0, self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(result, *args, **kwargs)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self, callers: tuple[ModuleType, ...] = ()) -> None:
        """Patch every target in the tprabi modules, scipy.linalg and callers."""
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "tprabi" or name.startswith("tprabi.")
        ]
        modules += [sys.modules["scipy.linalg"], *callers]
        for home, attr, kind, counter in TARGETS:
            original = getattr(sys.modules[home], attr)
            wrapper = self.wrap(f"{home}.{attr}", kind, original, counter)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def write_spans(spans: list[Span], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([asdict(span) for span in spans], handle)


def read_spans(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(**entry) for entry in json.load(handle)]


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


def layer_metrics(spans: list[Span], wall_s: float, gc_located: int) -> dict[str, float]:
    """Per-layer counts and self times of one traced job.

    wall_s is the job's traced wall time; gc_located the number of critical
    couplings the job's answer located (0 when the workload locates none).
    """
    out = {metric: 0.0 for metric in SELF_TIME_METRIC.values()}
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, own in zip(spans, self_times(spans)):
        out[SELF_TIME_METRIC[span.kind]] += own
        calls[span.kind] = calls.get(span.kind, 0) + 1
        for key, value in span.counts.items():
            totals[f"{span.kind}.{key}"] = totals.get(f"{span.kind}.{key}", 0) + value
    roots = sum(span.end - span.start for span in spans if span.parent < 0)
    judged = totals.get("solver.filter.pairs", 0)
    points = totals.get("sweep.run.points", 0)
    out.update(
        {
            "model.build_calls": calls.get("model.build", 0),
            "model.matrix_bytes": totals.get("model.build.bytes", 0),
            "solver.lapack_calls": calls.get("solver.lapack", 0),
            "solver.lapack_dim_sum": totals.get("solver.lapack.dim", 0),
            "solver.eigvec_bytes": totals.get("solver.lapack.bytes", 0),
            "solver.pairs_built": totals.get("solver.solve.pairs", 0),
            "solver.pairs_judged": judged,
            "solver.converged_ratio": (
                totals.get("solver.filter.converged", 0) / judged if judged else 0.0
            ),
            "sweep.points_solved": points,
            "sweep.points_per_gc": points / gc_located if gc_located else 0.0,
            "sweep.rows_failed": totals.get("sweep.run.failed", 0),
            "analytic.calls": calls.get("analytic", 0),
            "cli.csv_bytes": totals.get("cli.write.bytes", 0),
            "unattributed_s": wall_s - roots,
        }
    )
    return out


def attributed_total(metrics: dict[str, float]) -> float:
    """Sum of the layer self times and unattributed_s; equals the job's wall_s."""
    return sum(metrics[name] for name in SELF_TIME_METRIC.values()) + metrics[
        "unattributed_s"
    ]

