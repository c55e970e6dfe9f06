"""The benchmark's workloads: inputs from a seed, the calls that answer them,
and the checks on the answers.

- survey_table: ``tprabi sweep --out`` on a generated config with omega0 in
  {0, drawn}, one drawn omega, all four sectors and a 51-point g2_rel comb
  over [0, 2] g_c at cutoff 1024 (408 rows). Every row is solved, so it is
  bound by per-row tridiagonal solves.
- locate_gc: ``scripts/refine_critical.py`` (coarse [0, 2] g_c comb, then a
  +-2% refine) on one generated slice per job. Only the estimate matters.
- full_spectrum: ``tprabi spectrum --subspace full --cutoff 1024`` (banded
  storage, eig_banded) plus a short ``full`` sweep at cutoff 384, whose matrix
  is below the dense-storage limit (eigh).
- oracle: ``tprabi oracle --cutoff 128`` for three generated ``--seed``
  values: all eigenpairs of dense real and complex matrices, and the only
  workload that runs the closed forms.

The program sees the inputs only as config files and flags. Checks run after
the timed region; each returns one message per wrong answer.
"""

from __future__ import annotations

import contextlib
import csv
import importlib.util
import io
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import tprabi.cli
from tprabi import (
    ALL_SUBSPACES,
    ModelParams,
    SubspaceLabel,
    build_full_fock,
    build_subspace_tridiagonal,
    convergence_filter,
    degenerate_spectrum,
    solve_hermitian,
    solve_tridiagonal,
)

SECTORS = tuple(label.name for label in ALL_SUBSPACES)
SECTOR_CUTOFF = 1024
SURVEY_POINTS = 51  # comb points over [0, 2] g_c; g_c itself is point 25
FULL_CUTOFF = 1024  # 2048 x 2048 matrix: banded storage
COMB_CUTOFF = 384  # 768 x 768 matrix: below the dense-storage limit
COMB_POINTS = 11
ORACLE_SEEDS = 3
EIGENPAIRS = 25
ENERGY_TOL = 1e-8


# ---------------------------------------------------------------------------
# inputs


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _survey_inputs(rng: random.Random) -> dict:
    return {"omega0": [0.0, _draw(rng, 0.2, 1.5)], "omega": _draw(rng, 0.3, 1.0)}


def _locate_inputs(rng: random.Random) -> dict:
    sectors = list(SECTORS)
    rng.shuffle(sectors)
    # one omega from each quarter of [0.3, 1.0], so every run spans the range
    slices = [
        {
            "omega0": _draw(rng, 0.2, 1.5),
            "omega": round(0.3 + 0.175 * (i + rng.random()), 4),
            "subspace": sectors[i],
        }
        for i in range(4)
    ]
    return {"slices": slices}


def _full_inputs(rng: random.Random) -> dict:
    omega = _draw(rng, 0.3, 1.0)
    return {
        "omega0": _draw(rng, 0.2, 1.5),
        "omega": omega,
        "g2": round(rng.uniform(0.2, 0.8) * omega / 2.0, 6),
    }


def _oracle_inputs(rng: random.Random) -> dict:
    return {"seeds": [rng.randrange(2**31) for _ in range(ORACLE_SEEDS)]}


# ---------------------------------------------------------------------------
# calls: (entry point, argv) pairs written for one job


def _config_text(omega0: list, omega: float, points: int, subspaces, cutoff: int) -> str:
    return (
        f"omega0 = {', '.join(repr(v) for v in omega0)}\n"
        f"omega = {omega!r}\n"
        f"g2_rel = grid(0, 2, {points})\n"
        f"subspaces = {', '.join(subspaces)}\n"
        f"cutoff = {cutoff}\n"
    )


def _survey_calls(inputs: dict, job: int, workdir: Path) -> list:
    config = workdir / f"job{job}-survey.cfg"
    config.write_text(
        _config_text(inputs["omega0"], inputs["omega"], SURVEY_POINTS, SECTORS, SECTOR_CUTOFF)
    )
    return [("tprabi", ["sweep", str(config), "--out", str(workdir / f"job{job}-survey.csv")])]


def _locate_calls(inputs: dict, job: int, workdir: Path) -> list:
    piece = inputs["slices"][job % len(inputs["slices"])]
    argv = [
        "--omega0", repr(piece["omega0"]),
        "--omega", repr(piece["omega"]),
        "--subspace", piece["subspace"],
        "--cutoff", str(SECTOR_CUTOFF),
        "--steps", "200",
    ]
    return [("refine_critical", argv)]


def _full_calls(inputs: dict, job: int, workdir: Path) -> list:
    config = workdir / f"job{job}-comb.cfg"
    config.write_text(
        _config_text([inputs["omega0"]], inputs["omega"], COMB_POINTS, ["full"], COMB_CUTOFF)
    )
    spectrum = [
        "spectrum",
        "--omega0", repr(inputs["omega0"]),
        "--omega", repr(inputs["omega"]),
        "--g2", repr(inputs["g2"]),
        "--cutoff", str(FULL_CUTOFF),
        "--subspace", "full",
        "--count", str(EIGENPAIRS),
        "--out", str(workdir / f"job{job}-spectrum.csv"),
    ]
    return [
        ("tprabi", spectrum),
        ("tprabi", ["sweep", str(config), "--out", str(workdir / f"job{job}-comb.csv")]),
    ]


def _oracle_calls(inputs: dict, job: int, workdir: Path) -> list:
    return [("tprabi", ["oracle", "--cutoff", "128", "--seed", str(s)]) for s in inputs["seeds"]]


# ---------------------------------------------------------------------------
# checks


@dataclass
class Verdict:
    """Wrong answers of one job, and the critical couplings it located as
    (omega / 2, estimate) pairs."""

    failures: list[str] = field(default_factory=list)
    located: list[tuple[float, float]] = field(default_factory=list)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _energies(row: dict) -> list[float]:
    return [float(row[f"e{i}"]) for i in range(EIGENPAIRS) if row.get(f"e{i}")]


def _exit_failures(outputs: list) -> list[str]:
    return [
        f"call {i} exited with {code}: {text[-200:]!r}"
        for i, (code, text) in enumerate(outputs)
        if code != 0
    ]


def check_survey(inputs: dict, rows: list[dict], verdict: Verdict) -> None:
    """Row count, no failed rows, g_c within one comb step, degenerate closed forms."""
    expected = len(inputs["omega0"]) * len(SECTORS) * SURVEY_POINTS
    if len(rows) != expected:
        verdict.failures.append(f"table has {len(rows)} rows, expected {expected}")
    slices: dict[tuple, list[dict]] = {}
    for row in rows:
        if int(row["converged_count"]) == -1:
            verdict.failures.append(f"failed row at g2={row['g2']} {row['subspace']}")
        slices.setdefault((row["omega0"], row["omega"], row["subspace"]), []).append(row)
    for (omega0, omega, subspace), piece in slices.items():
        gc = float(omega) / 2.0
        couplings = [float(r["g2"]) for r in piece]
        hit = next(
            (i for i, r in enumerate(piece) if 0 <= int(r["converged_count"]) <= 1), None
        )
        if hit is None or hit == 0:
            verdict.failures.append(f"no collapse located for {omega0},{omega},{subspace}")
        else:
            step = couplings[hit] - couplings[hit - 1]
            if abs(couplings[hit] - gc) > step * (1 + 1e-9):
                verdict.failures.append(
                    f"g_c {couplings[hit]} off omega/2 = {gc} by more than {step}"
                )
            verdict.located.append((gc, couplings[hit]))
        if float(omega0) != 0.0:
            continue
        label = SubspaceLabel.from_name(subspace)
        for row in piece:
            g2, values = float(row["g2"]), _energies(row)
            if not values or float(omega) - 2.0 * g2 <= 0:
                continue
            exact = degenerate_spectrum(ModelParams(0.0, float(omega), g2), label, len(values))
            worst = float(np.max(np.abs(np.array(values) - exact)))
            if worst > ENERGY_TOL:
                verdict.failures.append(
                    f"omega0=0 {subspace} g2={g2}: energies off closed form by {worst:.2e}"
                )


_ESTIMATE_RE = re.compile(r"^(coarse|refined):\s+g_c ~= (\S+) \+- (\S+)$", re.MULTILINE)


def check_locate(piece: dict, stdout: str, verdict: Verdict) -> None:
    """The script's final estimate lies within its comb step of omega / 2.

    The step is printed with two digits, so it is widened by 5%.
    """
    found = _ESTIMATE_RE.findall(stdout)
    if not found:
        verdict.failures.append(f"no estimate printed: {stdout[-200:]!r}")
        return
    _, estimate, step = found[-1]
    gc = piece["omega"] / 2.0
    if abs(float(estimate) - gc) > 1.05 * float(step):
        verdict.failures.append(f"g_c {estimate} off omega/2 = {gc} by more than {step}")
    verdict.located.append((gc, float(estimate)))


def sector_reference(omega0: float, omega: float, g2: float, fock_cutoff: int) -> np.ndarray:
    """Converged union of the four sector spectra, shifted onto the full model.

    Each sector holds every other Fock level, so fock_cutoff / 2 ladder states
    span the same truncation as the full model at fock_cutoff.
    """
    params = ModelParams(omega0, omega, g2)
    ladder = fock_cutoff // 2
    values = [
        convergence_filter(
            solve_tridiagonal(build_subspace_tridiagonal(label, params, ladder), EIGENPAIRS)
        ).converged_values
        for label in ALL_SUBSPACES
    ]
    return np.sort(np.concatenate(values)) - omega / 2.0


def prefix_error(full: list[float], reference: np.ndarray) -> Optional[float]:
    """Largest deviation over the low converged prefix, None when it is too short.

    The top of a converged set straddles the filter threshold, which two
    truncation geometries can judge differently, so the top tenth (at least
    two values) is left out.
    """
    common = min(len(full), len(reference))
    keep = common - max(2, math.ceil(common / 10))
    if keep < 3:
        return None
    return float(np.max(np.abs(np.array(full[:keep]) - reference[:keep])))


def check_full(inputs: dict, spectrum: list[dict], comb: list[dict], verdict: Verdict) -> None:
    """Full-model converged prefixes equal the shifted sector union."""
    omega0, omega = inputs["omega0"], inputs["omega"]
    full = [float(r["energy"]) for r in spectrum if r["converged"] == "1"]
    error = prefix_error(full, sector_reference(omega0, omega, inputs["g2"], FULL_CUTOFF))
    if error is None or error > ENERGY_TOL:
        verdict.failures.append(f"cutoff {FULL_CUTOFF} spectrum off sector union: {error}")
    if len(comb) != COMB_POINTS:
        verdict.failures.append(f"full comb has {len(comb)} rows, expected {COMB_POINTS}")
    for row in comb:
        if int(row["converged_count"]) == -1:
            verdict.failures.append(f"failed full row at g2={row['g2']}")
            continue
        g2 = float(row["g2"])
        error = prefix_error(_energies(row), sector_reference(omega0, omega, g2, COMB_CUTOFF))
        if error is not None and error > ENERGY_TOL:
            verdict.failures.append(f"full row g2={g2} off sector union by {error:.2e}")


def check_oracle(stdout: str, verdict: Verdict) -> None:
    lines = [line for line in stdout.splitlines() if line.startswith("check ")]
    if len(lines) != 4 or not all(": PASS " in line for line in lines):
        verdict.failures.append(f"oracle verdicts: {lines}")


def _check_survey_job(inputs: dict, job: int, workdir: Path, outputs: list) -> Verdict:
    verdict = Verdict(_exit_failures(outputs))
    if not verdict.failures:
        check_survey(inputs, _read_csv(workdir / f"job{job}-survey.csv"), verdict)
    return verdict


def _check_locate_job(inputs: dict, job: int, workdir: Path, outputs: list) -> Verdict:
    verdict = Verdict(_exit_failures(outputs))
    if not verdict.failures:
        piece = inputs["slices"][job % len(inputs["slices"])]
        check_locate(piece, outputs[0][1], verdict)
    return verdict


def _check_full_job(inputs: dict, job: int, workdir: Path, outputs: list) -> Verdict:
    verdict = Verdict(_exit_failures(outputs))
    if not verdict.failures:
        spectrum = _read_csv(workdir / f"job{job}-spectrum.csv")
        check_full(inputs, spectrum, _read_csv(workdir / f"job{job}-comb.csv"), verdict)
    return verdict


def _check_oracle_job(inputs: dict, job: int, workdir: Path, outputs: list) -> Verdict:
    verdict = Verdict(_exit_failures(outputs))
    for _, text in outputs:
        check_oracle(text, verdict)
    return verdict


# ---------------------------------------------------------------------------
# registry and the programs driven


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[random.Random], dict]
    calls: Callable[[dict, int, Path], list]
    check: Callable[[dict, int, Path, list], Verdict]


WORKLOADS = {
    "survey_table": Workload(_survey_inputs, _survey_calls, _check_survey_job),
    "locate_gc": Workload(_locate_inputs, _locate_calls, _check_locate_job),
    "full_spectrum": Workload(_full_inputs, _full_calls, _check_full_job),
    "oracle": Workload(_oracle_inputs, _oracle_calls, _check_oracle_job),
}


def generate(name: str, seed: int) -> dict:
    """Inputs of one run; the same (name, seed) always gives the same inputs."""
    return WORKLOADS[name].inputs(random.Random(f"{name}:{seed}"))


class Programs:
    """The entry points a job calls: the tprabi CLI and the refine script."""

    def __init__(self, root: Path) -> None:
        path = root / "scripts" / "refine_critical.py"
        spec = importlib.util.spec_from_file_location("refine_critical", path)
        self.refine = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.refine)

    def call(self, entry: str, argv: list[str]) -> tuple[object, str]:
        """Exit code and captured stdout of one in-process call."""
        # looked up per call so a traced run sees the patched tprabi.cli.main
        main = tprabi.cli.main if entry == "tprabi" else self.refine.main
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # the job is recorded as failed, the run goes on
                return f"raised {type(exc).__name__}: {exc}", out.getvalue()
        return code, out.getvalue()


def warm_up() -> None:
    """One small tridiagonal and one small dense solve, so LAPACK is loaded."""
    params = ModelParams(1.0, 0.5, 0.1)
    solve_tridiagonal(build_subspace_tridiagonal(ALL_SUBSPACES[0], params, 64), 5)
    solve_hermitian(build_full_fock(params, 16), 4)
