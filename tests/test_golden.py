"""Byte-for-byte CLI output on a fixed set of commands.

Each case runs one ``tprabi`` command or study script and compares
everything it writes (stdout, and the ``--out`` file when there is one) with
the files under ``tests/golden/``. Refactors must keep these bytes; a change that means to
alter output rewrites the files with ``python tests/test_golden.py`` and
says why.

The commands run in a child process with BLAS held to one thread: the dense
full-model solve moves last digits with the BLAS thread count, so the bytes
are only defined for a fixed count.

The sweeps of the shipped ``configs/*.cfg`` are pinned by digest instead, in
``configs.sha256``: the SHA-256 of the CSV and of the collapse summary that
``tprabi sweep`` prints for each. They are computed in-process from one-slice
sweeps, which the session cache shares with the collapse-location tests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import tprabi
from tprabi import run_sweep
from tprabi.cli import _sweep_summary, parse_sweep_config, sweep_csv
from tprabi.sweep import SweepResult

GOLDEN = Path(__file__).parent / "golden"
SCRIPTS = Path(__file__).parents[1] / "scripts"
SHIPPED_CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.cfg"))
CONFIG_DIGESTS = GOLDEN / "configs.sha256"
TPRABI = ["-m", "tprabi"]

# name -> (interpreter argv, whether the command writes its table through --out)
CASES = {
    "sweep_mixed": ([*TPRABI, "sweep", str(GOLDEN / "mixed_sweep.cfg")], True),
    "spectrum_q14p": (
        TPRABI
        + "spectrum --omega0 1 --omega 0.5 --g2 0.24 --cutoff 256 --subspace q14+".split(),
        False,
    ),
    "spectrum_full": (
        TPRABI
        + "spectrum --omega0 1 --omega 0.5 --g2 0.2 --cutoff 128 --subspace full"
        " --count 30 --tail-fraction 0.3 --tol 1e-8".split(),
        False,
    ),
    # the benchmark's full_spectrum size, 0.998 g_c: 15 of 25 pairs converge
    "spectrum_full_1024": (
        TPRABI
        + "spectrum --omega0 0.7 --omega 0.6 --g2 0.2995 --cutoff 1024 --subspace full".split(),
        False,
    ),
    # omega0 = 0: the twin chains tie pair by pair (131 ties), and the odd
    # cutoff gives chains of unequal length; pins the order of tied values
    "spectrum_full_ties": (
        TPRABI
        + "spectrum --omega0 0 --omega 0.5 --g2 0.2 --cutoff 131 --count 262"
        " --subspace full".split(),
        False,
    ),
    "modes_harmonic": (
        TPRABI
        + "modes --omega 0.5 --g2 0.1 --subspace q14+ --level 1 --cutoff 256"
        " --points 101".split(),
        False,
    ),
    "modes_free": (
        TPRABI
        + "modes --omega 0.45 --g2 0.225 --subspace q34+ --cutoff 512 --points 101".split(),
        False,
    ),
    "oracle_seed7": ([*TPRABI, "oracle", "--seed", "7"], False),
    # few converged values per sector: the trimmed prefix and its smallest sizes
    "oracle_cutoff32": ([*TPRABI, "oracle", "--cutoff", "32", "--seed", "1"], False),
    "refine_critical": (
        [str(SCRIPTS / "refine_critical.py"), *"--omega0 1 --omega 0.5 --cutoff 256".split()],
        False,
    ),
    "exceptional_overlap": ([str(SCRIPTS / "exceptional_overlap.py")], False),
    # no --out: the script's "wrote ... to PATH" line would hold a temp path
    "collapse_survey": (
        [str(SCRIPTS / "collapse_survey.py"), *"--omega0 0 1 --cutoff 256 --steps 40".split()],
        False,
    ),
}


def render(name: str) -> dict[str, bytes]:
    """Stdout and --out file of one case, keyed by golden file name."""
    argv, writes_file = CASES[name]
    src = str(Path(tprabi.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        proc = subprocess.run(
            [sys.executable, *argv, *(["--out", str(out)] if writes_file else [])],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0, f"{name} exited {proc.returncode}: {proc.stderr!r}"
        files = {f"{name}.stdout": proc.stdout}
        if writes_file:
            files[f"{name}.csv"] = out.read_bytes()
    return files


def assembled_sweep(sweep, config):
    """run_sweep(config), assembled in grid order from the one-slice sweeps
    sweep(single) returns for each (omega0, omega, subspace)."""
    rows = []
    for w0 in config.omega0_grid:
        for w in config.omega_grid:
            slices = [
                sweep(
                    dataclasses.replace(
                        config, omega0_grid=(w0,), omega_grid=(w,), subspaces=(sub,)
                    )
                ).rows
                for sub in config.subspaces
            ]
            rows.extend(row for point in zip(*slices) for row in point)
    return SweepResult(config, tuple(rows))


def config_digests(sweep) -> str:
    """sha256sum-style lines for the CSV and the summary of each shipped sweep."""
    lines = []
    for path in SHIPPED_CONFIGS:
        result = assembled_sweep(sweep, parse_sweep_config(path.read_text()))
        for suffix, text in ((".csv", sweep_csv(result)), (".summary", _sweep_summary(result))):
            lines.append(f"{hashlib.sha256(text.encode()).hexdigest()}  {path.stem}{suffix}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(name):
    for filename, produced in render(name).items():
        assert produced == (GOLDEN / filename).read_bytes(), filename


def test_shipped_config_sweeps_match_golden_digests(cached_sweeps):
    assert config_digests(cached_sweeps).splitlines() == CONFIG_DIGESTS.read_text().splitlines()


if __name__ == "__main__":
    for case in CASES:
        for filename, produced in render(case).items():
            (GOLDEN / filename).write_bytes(produced)
    CONFIG_DIGESTS.write_text(config_digests(run_sweep))
