"""Command-line front end: single-point spectra, parameter sweeps, oracle
cross-checks, and eigenfunction tables, all emitted as deterministic CSV.

Exit codes: 0 success, 1 computational failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile
from typing import Optional, Sequence

import numpy as np

from .analytic import (
    Regime,
    SpectralCollapseError,
    classify_regime,
    critical_coupling,
    degenerate_spectrum,
    fock_to_position,
    hermite_gauss,
    plane_wave,
)
from .model import (
    ALL_SUBSPACES,
    SUBSPACES_BY_NAME,
    ModelParams,
    SubspaceLabel,
    build_full_fock,
    build_phase_space,
    build_rotated_fock,
    build_subspace_tridiagonal,
    subspace_from_name,
)
from .solver import (
    DEFAULT_TAIL_FRACTION,
    DEFAULT_TOLERANCE,
    align_spectra,
    convergence_filter,
    solve_hermitian,
    solve_tridiagonal,
)
from .sweep import (
    RelativeComb,
    SweepConfig,
    detect_collapse,
    run_sweep,
    solve_point,
)

SUBSPACE_CHOICES = tuple(SUBSPACES_BY_NAME)


class UsageError(Exception):
    """Bad flag values or config contents; maps to exit code 2."""


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _write_atomic(path: str, text: str) -> None:
    """Write through a temp file so failures never leave partial output. The
    file gets the mode open(path, "w") gives a new file, not mkstemp's 0600."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tprabi-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(out: Optional[str], text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(out, text)


# ---------------------------------------------------------------------------
# Sweep config file format: line-based "key = value", # comments, commas for
# lists, grid(start, stop, count) for homogeneous combs. g2 gives absolute
# couplings, g2_rel multiples of g_c (requires grid with count >= 2).


class ConfigError(UsageError):
    def __init__(self, message: str, lineno: Optional[int] = None, line: str = ""):
        where = f" (line {lineno}: {line.strip()!r})" if lineno is not None else ""
        super().__init__(message + where)


_GRID_RE = re.compile(r"^grid\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)$")

_CONFIG_KEYS = (
    "omega0",
    "omega",
    "g2",
    "g2_rel",
    "subspaces",
    "cutoff",
    "eigenpairs",
    "tail_fraction",
    "tolerance",
)


def _parse_float(token: str, lineno: int, line: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ConfigError(f"expected a number, got {token!r}", lineno, line) from None


def _parse_int(token: str, lineno: int, line: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ConfigError(f"expected an integer, got {token!r}", lineno, line) from None


def _parse_grid(value: str, lineno: int, line: str) -> Optional[tuple[float, float, int]]:
    match = _GRID_RE.match(value)
    if match is None:
        return None
    start = _parse_float(match.group(1), lineno, line)
    stop = _parse_float(match.group(2), lineno, line)
    count = _parse_int(match.group(3), lineno, line)
    if count < 1:
        raise ConfigError(f"grid count must be >= 1, got {count}", lineno, line)
    return start, stop, count


def _parse_float_list(value: str, lineno: int, line: str) -> tuple[float, ...]:
    grid = _parse_grid(value, lineno, line)
    if grid is not None:
        start, stop, count = grid
        return tuple(float(v) for v in np.linspace(start, stop, count))
    return tuple(_parse_float(tok.strip(), lineno, line) for tok in value.split(","))


def parse_sweep_config(text: str) -> SweepConfig:
    """Parse the line-based sweep config format into a SweepConfig."""
    seen: dict[str, tuple[int, str, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno, raw)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno, raw)
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno, raw)
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}", lineno, raw)
        seen[key] = (lineno, raw, value)

    for required in ("omega0", "omega", "subspaces", "cutoff"):
        if required not in seen:
            raise ConfigError(f"missing required key {required!r}")
    if ("g2" in seen) == ("g2_rel" in seen):
        raise ConfigError("exactly one of 'g2' or 'g2_rel' is required")

    def value_of(key: str) -> tuple[str, int, str]:
        lineno, raw, value = seen[key]
        return value, lineno, raw

    omega0 = _parse_float_list(*value_of("omega0"))
    omega = _parse_float_list(*value_of("omega"))

    if "g2" in seen:
        coupling = _parse_float_list(*value_of("g2"))
    else:
        value, lineno, raw = value_of("g2_rel")
        grid = _parse_grid(value, lineno, raw)
        if grid is None:
            raise ConfigError("g2_rel requires grid(lo, hi, count)", lineno, raw)
        lo, hi, count = grid
        if count < 2:
            raise ConfigError(f"g2_rel grid needs count >= 2, got {count}", lineno, raw)
        try:
            coupling = RelativeComb(steps=count - 1, lo=lo, hi=hi)
        except ValueError as exc:
            raise ConfigError(str(exc), lineno, raw) from None

    value, lineno, raw = value_of("subspaces")
    try:
        subspaces = tuple(subspace_from_name(tok.strip()) for tok in value.split(","))
    except ValueError as exc:
        raise ConfigError(str(exc), lineno, raw) from None

    kwargs = {}
    if "eigenpairs" in seen:
        kwargs["requested_eigenpairs"] = _parse_int(*value_of("eigenpairs"))
    if "tail_fraction" in seen:
        kwargs["tail_fraction"] = _parse_float(*value_of("tail_fraction"))
    if "tolerance" in seen:
        kwargs["tolerance"] = _parse_float(*value_of("tolerance"))

    try:
        return SweepConfig(
            omega0_grid=omega0,
            omega_grid=omega,
            coupling_spec=coupling,
            subspaces=subspaces,
            cutoff=_parse_int(*value_of("cutoff")),
            **kwargs,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def serialize_sweep_config(config: SweepConfig) -> str:
    """Canonical text form; parse(serialize(c)) reproduces c exactly."""
    lines = [
        "omega0 = " + ", ".join(repr(v) for v in config.omega0_grid),
        "omega = " + ", ".join(repr(v) for v in config.omega_grid),
    ]
    if isinstance(config.coupling_spec, RelativeComb):
        comb = config.coupling_spec
        lines.append(f"g2_rel = grid({comb.lo!r}, {comb.hi!r}, {comb.steps + 1})")
    else:
        lines.append("g2 = " + ", ".join(repr(v) for v in config.coupling_spec))
    lines.append("subspaces = " + ", ".join(s.name for s in config.subspaces))
    lines.append(f"cutoff = {config.cutoff}")
    lines.append(f"eigenpairs = {config.requested_eigenpairs}")
    lines.append(f"tail_fraction = {config.tail_fraction!r}")
    lines.append(f"tolerance = {config.tolerance!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(args: argparse.Namespace) -> int:
    try:
        params = ModelParams(args.omega0, args.omega, args.g2)
        if args.count < 1:
            raise ValueError(f"count must be >= 1, got {args.count}")
        filtered = solve_point(
            params,
            subspace_from_name(args.subspace),
            args.cutoff,
            args.count,
            args.tail_fraction,
            args.tol,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    lines = ["index,energy,tail_norm,converged"]
    for index, (pair, tail, ok) in enumerate(
        zip(filtered.pairs, filtered.tails, filtered.converged)
    ):
        lines.append(f"{index},{_fmt(pair.value)},{_fmt(tail)},{int(ok)}")
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# sweep


def sweep_csv(result) -> str:
    k = result.config.requested_eigenpairs
    header = "omega0,omega,g2,cutoff,subspace,converged_count,collapsed," + ",".join(
        f"e{i}" for i in range(k)
    )
    lines = [header]
    for row in result.rows:
        energies = [_fmt(e) for e in row.energies] + [""] * (k - len(row.energies))
        lines.append(
            ",".join(
                [
                    _fmt(row.omega0),
                    _fmt(row.omega),
                    _fmt(row.g2),
                    str(result.config.cutoff),
                    row.subspace.name,
                    str(row.converged_count),
                    str(int(row.collapsed)),
                ]
                + energies
            )
        )
    return "\n".join(lines) + "\n"


def _sweep_summary(result) -> str:
    lines = []
    config = result.config
    for w0 in config.omega0_grid:
        for w in config.omega_grid:
            for sub in config.subspaces:
                prefix = f"omega0={_fmt(w0)} omega={_fmt(w)} subspace={sub.name}:"
                try:
                    estimate = detect_collapse(result, w0, w, sub)
                except ValueError as exc:
                    lines.append(f"{prefix} detection unavailable ({exc})")
                    continue
                if estimate.found:
                    lines.append(
                        f"{prefix} g_c ~= {_fmt(estimate.coupling)}"
                        f" (one-sided step {_fmt(estimate.step)})"
                    )
                else:
                    lines.append(f"{prefix} no collapse in range")
    return "\n".join(lines) + "\n"


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        with open(args.config, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read config {args.config!r}: {exc}") from None
    result = run_sweep(parse_sweep_config(text))
    csv_text = sweep_csv(result)
    summary = _sweep_summary(result)
    if args.out is None:
        sys.stdout.write(csv_text)
        sys.stderr.write(summary)
    else:
        _write_atomic(args.out, csv_text)
        sys.stdout.write(summary)
    return 0


# ---------------------------------------------------------------------------
# oracle


def _oracle_point(rng: np.random.Generator) -> tuple[float, float, float]:
    """Random (omega0, omega, g2) below collapse. The draws run omega, omega0,
    then the g2 factor; that order fixes the points each --seed checks."""
    omega = float(rng.uniform(0.35, 1.0))
    omega0 = float(rng.uniform(0.2, 1.2))
    return omega0, omega, float(rng.uniform(0.1, 0.7)) * critical_coupling(omega)


def _oracle_alignment(cutoff: int, rng: np.random.Generator) -> float:
    points = [(1.0, 0.5, 0.0), (1.0, 0.5, 0.1), (1.0, 0.5, 0.2), _oracle_point(rng)]
    worst = 0.0
    for omega0, omega, g2 in points:
        params = ModelParams(omega0, omega, g2)
        # every eigenpair of the unsplit matrix: solve_point's chains are the sectors
        full = convergence_filter(
            solve_hermitian(build_full_fock(params, 2 * cutoff), 4 * cutoff), qubit_dim=2
        )
        subs = [solve_point(params, lbl, cutoff, cutoff) for lbl in ALL_SUBSPACES]
        try:
            alignments = align_spectra(full, subs)
        except ValueError:
            return float("inf")
        worst = max(worst, *(a.residual for a in alignments))
    return worst


def _oracle_degenerate(cutoff: int) -> float:
    worst = 0.0
    for g2 in (0.0, 0.1, 0.2):
        params = ModelParams(0.0, 0.45, g2)
        for label in ALL_SUBSPACES:
            values = solve_point(params, label, 8 * cutoff, 12).converged_values[:5]
            if len(values) < 5:
                return float("inf")
            exact = degenerate_spectrum(params, label, 5)
            worst = max(worst, float(np.max(np.abs(values - exact) / exact)))
    return worst


def _oracle_hermite_gauss(cutoff: int) -> float:
    params = ModelParams(0.0, 0.5, 0.1)
    label = SubspaceLabel(0.25, 1)
    tridiag = build_subspace_tridiagonal(label, params, 8 * cutoff)
    ground = solve_tridiagonal(tridiag, 1)[0]
    x = np.linspace(-10.0, 10.0, 1001)
    numeric = fock_to_position(ground.vector, x, label)
    exact = hermite_gauss(0, classify_regime(params), x)
    err = np.sqrt(np.trapezoid((numeric - exact) ** 2, x))
    err_flipped = np.sqrt(np.trapezoid((numeric + exact) ** 2, x))
    return float(min(err, err_flipped))


def _oracle_chain(cutoff: int, rng: np.random.Generator) -> float:
    points = [(1.0, 0.5, 0.2), _oracle_point(rng)]
    worst = 0.0
    for omega0, omega, g2 in points:
        params = ModelParams(omega0, omega, g2)
        k = 20
        full = [p.value for p in solve_hermitian(build_full_fock(params, 2 * cutoff), k)]
        phase = [p.value for p in solve_hermitian(build_phase_space(params, 2 * cutoff), k)]
        rotated = [p.value for p in solve_hermitian(build_rotated_fock(params, 2 * cutoff), k)]
        shifted = np.array(full) + omega / 2.0
        worst = max(
            worst,
            float(np.max(np.abs(shifted - phase))),
            float(np.max(np.abs(shifted - rotated))),
        )
    return worst


def cmd_oracle(args: argparse.Namespace) -> int:
    # below 32 too few pairs pass the filter at the alignment point, and that
    # check reads inf (FAIL) on every seed
    if args.cutoff < 32:
        raise UsageError(f"cutoff must be >= 32, got {args.cutoff}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    tolerance = 1e-8 if args.cutoff >= 128 else 1e-6
    rng = np.random.default_rng(args.seed)
    checks = (
        ("alignment", _oracle_alignment(args.cutoff, rng), tolerance),
        ("degenerate-spectrum", _oracle_degenerate(args.cutoff), tolerance),
        ("hermite-gauss", _oracle_hermite_gauss(args.cutoff), tolerance),
        ("rotation-chain", _oracle_chain(args.cutoff, rng), tolerance),
    )
    all_pass = True
    for name, deviation, tol in checks:
        passed = deviation < tol
        all_pass = all_pass and passed
        verdict = "PASS" if passed else "FAIL"
        print(f"check {name}: {verdict} (max deviation {deviation:.3e}, tolerance {tol:.0e})")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# modes


def cmd_modes(args: argparse.Namespace) -> int:
    try:
        if args.omega0 != 0:
            raise ValueError("analytic modes require omega0 = 0")
        params = ModelParams(args.omega0, args.omega, args.g2)
        label = subspace_from_name(args.subspace)
        if args.level < 0:
            raise ValueError(f"level must be >= 0, got {args.level}")
        if args.points < 2 or args.xmax <= args.xmin:
            raise ValueError("need points >= 2 and xmax > xmin")
        if args.level + 1 > args.cutoff:
            raise ValueError(f"level {args.level} needs cutoff > {args.level}")
        tridiag = build_subspace_tridiagonal(label, params, args.cutoff)
        data = classify_regime(params)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    if data.regime is Regime.INVERTED:
        raise SpectralCollapseError("regime III closed forms out of scope")

    x = np.linspace(args.xmin, args.xmax, args.points)
    pair = solve_tridiagonal(tridiag, args.level + 1)[args.level]
    numeric = fock_to_position(pair.vector, x, label)

    fock_level = 2 * args.level + (0 if label.bargmann_q == 0.25 else 1)
    if data.regime is Regime.HARMONIC:
        analytic_wave = hermite_gauss(fock_level, data, x)
    else:
        analytic_wave = plane_wave(max(pair.value, 0.0), 1, x)
    # global sign is not physical; match the numeric state to the analytic one
    if np.isrealobj(analytic_wave) and float(np.trapezoid(analytic_wave * numeric, x)) < 0:
        numeric = -numeric

    analytic_wave = analytic_wave.astype(complex)
    numeric_c = numeric.astype(complex)
    lines = ["x,analytic_re,analytic_im,numeric_re,numeric_im,absdiff"]
    for i in range(len(x)):
        lines.append(
            ",".join(
                [
                    _fmt(x[i]),
                    _fmt(analytic_wave[i].real),
                    _fmt(analytic_wave[i].imag),
                    _fmt(numeric_c[i].real),
                    _fmt(numeric_c[i].imag),
                    _fmt(abs(analytic_wave[i] - numeric_c[i])),
                ]
            )
        )
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tprabi",
        description="Spectral collapse in the two-photon quantum Rabi model.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    spectrum = commands.add_parser(
        "spectrum", help="eigenvalues and filter verdicts at one parameter point"
    )
    spectrum.add_argument("--omega0", type=float, required=True)
    spectrum.add_argument("--omega", type=float, required=True)
    spectrum.add_argument("--g2", type=float, required=True)
    spectrum.add_argument("--cutoff", type=int, required=True)
    spectrum.add_argument("--subspace", choices=SUBSPACE_CHOICES, required=True)
    spectrum.add_argument("--count", type=int, default=25)
    spectrum.add_argument(
        "--tail-fraction", type=float, default=DEFAULT_TAIL_FRACTION, dest="tail_fraction"
    )
    spectrum.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
    spectrum.add_argument("--out", default=None)
    spectrum.set_defaults(func=cmd_spectrum)

    sweep = commands.add_parser("sweep", help="run a survey from a config file")
    sweep.add_argument("config", help="line-based config file path")
    sweep.add_argument("--out", default=None, help="CSV destination (default stdout)")
    sweep.set_defaults(func=cmd_sweep)

    oracle = commands.add_parser(
        "oracle", help="cross-representation and analytic consistency checks"
    )
    oracle.add_argument("--cutoff", type=int, default=128, help="subspace cutoff (full is 2x)")
    oracle.add_argument("--seed", type=int, default=0, help="seed for extra random points")
    oracle.set_defaults(func=cmd_oracle)

    modes = commands.add_parser(
        "modes", help="analytic vs numeric eigenfunction table on a grid"
    )
    modes.add_argument("--omega0", type=float, default=0.0)
    modes.add_argument("--omega", type=float, required=True)
    modes.add_argument("--g2", type=float, required=True)
    modes.add_argument("--cutoff", type=int, default=2048)
    modes.add_argument("--subspace", choices=SUBSPACE_CHOICES[:4], required=True)
    modes.add_argument("--level", type=int, default=0, help="subspace ladder index")
    modes.add_argument("--xmin", type=float, default=-10.0)
    modes.add_argument("--xmax", type=float, default=10.0)
    modes.add_argument("--points", type=int, default=2001)
    modes.add_argument("--out", default=None)
    modes.set_defaults(func=cmd_modes)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SpectralCollapseError, OSError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
