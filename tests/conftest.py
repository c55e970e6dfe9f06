"""Shared fixtures: cached coarse sweeps and the acceptance-criteria report."""

from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, settings

from tprabi import RelativeComb, SubspaceLabel, SweepConfig, run_sweep
from tprabi.sweep import SweepResult

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# one line per acceptance criterion, printed in the terminal summary
_ACCEPTANCE_LINES: list[tuple[str, bool, str]] = []


@pytest.fixture
def criterion_report():
    def record(name: str, passed: bool, detail: str) -> None:
        _ACCEPTANCE_LINES.append((name, passed, detail))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in _ACCEPTANCE_LINES:
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{verdict}  {name}: {detail}")


COARSE_COMB = RelativeComb(steps=200, lo=0.0, hi=2.0)
Q14P = SubspaceLabel(0.25, 1)

_SWEEP_CACHE: dict[SweepConfig, tuple[SweepResult, float]] = {}


def _sweep(config: SweepConfig) -> tuple[SweepResult, float]:
    """Cached run_sweep(config) with its wall-clock duration in seconds."""
    if config not in _SWEEP_CACHE:
        start = time.monotonic()
        result = run_sweep(config)
        _SWEEP_CACHE[config] = (result, time.monotonic() - start)
    return _SWEEP_CACHE[config]


def _coarse_slice(omega0: float, omega: float) -> tuple[SweepResult, float]:
    """Cached 200-step coupling comb at cutoff 2^10 on the q=1/4,+ subspace.

    Returns the sweep result and its wall-clock duration in seconds.
    """
    config = SweepConfig(
        omega0_grid=(omega0,),
        omega_grid=(omega,),
        coupling_spec=COARSE_COMB,
        subspaces=(Q14P,),
        cutoff=2**10,
    )
    return _sweep(config)


@pytest.fixture(scope="session")
def coarse_sweeps():
    return _coarse_slice


@pytest.fixture(scope="session")
def cached_sweeps():
    """run_sweep through the session cache that coarse_sweeps also fills."""
    return lambda config: _sweep(config)[0]
