"""Command-line front end: single-point spectra, parameter sweeps, oracle
cross-checks, and eigenfunction tables, all emitted as deterministic CSV.

Exit codes: 0 success, 1 computational failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import errno
import operator
import os
import re
import stat
import sys
import tempfile
from functools import partial
from typing import Any, Callable, Iterable, Optional, Sequence

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
    FULL,
    SUBSPACES_BY_NAME,
    ModelParams,
    Subspace,
    SubspaceLabel,
    _check_cutoff,
    rotation_gauge_deviation,
    subspace_from_name,
)
from .solver import (
    DEFAULT_TAIL_FRACTION,
    DEFAULT_TOLERANCE,
    align_spectra,
    check_filter_settings,
)
from .sweep import (
    RelativeComb,
    SweepConfig,
    detect_collapse,
    map_forked,
    run_sweep,
    solve_point,
)

SUBSPACE_CHOICES = tuple(SUBSPACES_BY_NAME)


class UsageError(Exception):
    """Bad flag values or config contents; maps to exit code 2."""


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _write_atomic(path: str, text: str) -> None:
    """Write through a temp file so failures never leave partial output. As
    open(path, "w") would, a symlink's target is written (the link stays),
    and the file keeps an existing file's own mode, else gets the umask's
    mode for a new file, not mkstemp's 0600. An OSError names path as given."""
    target, tmp = os.path.realpath(path), None
    if os.path.isdir(target):  # refused before a temp file lands in its parent
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tprabi-", suffix=".tmp")
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        try:
            mode = stat.S_IMODE(os.stat(target).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)  # reading the umask means setting it
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp, mode)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # not the temp file's name
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _emit(out: Optional[str], text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(out, text)


def _table(header: str, rows: Iterable[Sequence[str]]) -> str:
    """CSV text: the header line, then each row's fields joined by commas."""
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n"


# ---------------------------------------------------------------------------
# Sweep config file format: line-based "key = value", # comments, commas for
# lists, grid(start, stop, count) for homogeneous combs. g2 gives absolute
# couplings, g2_rel multiples of g_c (requires grid with count >= 2).


class ConfigError(UsageError):
    def __init__(self, message: str, lineno: Optional[int] = None, line: str = ""):
        where = f" (line {lineno}: {line.strip()!r})" if lineno is not None else ""
        super().__init__(message + where)


_GRID_RE = re.compile(r"^grid\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)$")


def _number(token: str, kind: type = float):
    try:
        return kind(token)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"expected {noun}, got {token!r}") from None


def _int(token: str) -> int:
    return _number(token, int)


def _grid(value: str) -> Optional[tuple[float, float, int]]:
    """(start, stop, count) of a grid(start, stop, count) value, else None."""
    match = _GRID_RE.match(value)
    if match is None:
        return None
    start, stop, count = _number(match[1]), _number(match[2]), _int(match[3])
    if count < 1:
        raise ValueError(f"grid count must be >= 1, got {count}")
    return start, stop, count


def _values(value: str) -> tuple[float, ...]:
    grid = _grid(value)
    if grid is not None:
        return tuple(float(v) for v in np.linspace(*grid))
    return tuple(_number(tok.strip()) for tok in value.split(","))


def _relative_comb(value: str) -> RelativeComb:
    grid = _grid(value)
    if grid is None:
        raise ValueError("g2_rel requires grid(lo, hi, count)")
    lo, hi, count = grid
    if count < 2:
        raise ValueError(f"g2_rel grid needs count >= 2, got {count}")
    return RelativeComb(steps=count - 1, lo=lo, hi=hi)


def _subspaces(value: str) -> tuple[Subspace, ...]:
    return tuple(subspace_from_name(tok.strip()) for tok in value.split(","))


# config key -> (the SweepConfig field it sets, the parser of its value)
_CONFIG_KEYS: dict[str, tuple[str, Callable[[str], Any]]] = {
    "omega0": ("omega0_grid", _values),
    "omega": ("omega_grid", _values),
    "g2": ("coupling_spec", _values),
    "g2_rel": ("coupling_spec", _relative_comb),
    "subspaces": ("subspaces", _subspaces),
    "cutoff": ("cutoff", _int),
    "eigenpairs": ("requested_eigenpairs", _int),
    "tail_fraction": ("tail_fraction", _number),
    "tolerance": ("tolerance", _number),
}


def parse_sweep_config(text: str) -> SweepConfig:
    """Parse the line-based sweep config format into a SweepConfig.

    Faults are reported in line order; missing keys and the g2/g2_rel choice
    are checked after the last line."""
    parsed: dict[str, Any] = {}
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
        if key in parsed:
            raise ConfigError(f"duplicate key {key!r}", lineno, raw)
        try:
            parsed[key] = _CONFIG_KEYS[key][1](value)
        except ValueError as exc:
            raise ConfigError(str(exc), lineno, raw) from None

    for required in ("omega0", "omega", "subspaces", "cutoff"):
        if required not in parsed:
            raise ConfigError(f"missing required key {required!r}")
    if ("g2" in parsed) == ("g2_rel" in parsed):
        raise ConfigError("exactly one of 'g2' or 'g2_rel' is required")
    try:
        return SweepConfig(**{_CONFIG_KEYS[key][0]: v for key, v in parsed.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(args: argparse.Namespace) -> int:
    try:  # each input checked by its owner; a ValueError of the solve exits 1
        params = ModelParams(args.omega0, args.omega, args.g2)
        subspace = subspace_from_name(args.subspace)
        if args.count < 1:
            raise ValueError(f"count must be >= 1, got {args.count}")
        _check_cutoff(args.cutoff)
        check_filter_settings(args.tail_fraction, args.tol)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    filtered = solve_point(params, subspace, args.cutoff, args.count, args.tail_fraction, args.tol)

    rows = (
        [str(index), _fmt(pair.value), _fmt(tail), str(int(ok))]
        for index, (pair, tail, ok) in enumerate(
            zip(filtered.pairs, filtered.tails, filtered.converged)
        )
    )
    _emit(args.out, _table("index,energy,tail_norm,converged", rows))
    return 0


# ---------------------------------------------------------------------------
# sweep


def sweep_csv(result) -> str:
    k = result.config.requested_eigenpairs
    header = "omega0,omega,g2,cutoff,subspace,converged_count,collapsed," + ",".join(
        f"e{i}" for i in range(k)
    )
    rows = (
        [_fmt(row.omega0), _fmt(row.omega), _fmt(row.g2), str(result.config.cutoff)]
        + [row.subspace.name, str(row.converged_count), str(int(row.collapsed))]
        + [_fmt(e) for e in row.energies]
        + [""] * (k - len(row.energies))
        for row in result.rows
    )
    return _table(header, rows)


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
    _emit(args.out, sweep_csv(result))
    (sys.stderr if args.out is None else sys.stdout).write(_sweep_summary(result))
    return 0


# ---------------------------------------------------------------------------
# oracle


def _oracle_point(rng: np.random.Generator) -> tuple[float, float, float]:
    """Random (omega0, omega, g2) below collapse. The draws run omega, omega0,
    then the g2 factor; that order fixes the points each --seed checks."""
    omega = float(rng.uniform(0.35, 1.0))
    omega0 = float(rng.uniform(0.2, 1.2))
    return omega0, omega, float(rng.uniform(0.1, 0.7)) * critical_coupling(omega)


def _oracle_alignment(cutoff: int, point: tuple[float, float, float]) -> float:
    params = ModelParams(*point)
    full = solve_point(params, FULL, 2 * cutoff, 4 * cutoff)  # every eigenpair
    subs = [solve_point(params, lbl, cutoff, cutoff) for lbl in ALL_SUBSPACES]
    try:
        return align_spectra(full, subs).residual
    except ValueError:
        return float("inf")


def _oracle_degenerate(cutoff: int) -> list:
    # run_sweep solves each pair of twin branches once (6 solves)
    config = SweepConfig((0.0,), (0.45,), (0.0, 0.1, 0.2), ALL_SUBSPACES, 8 * cutoff, 12)
    deviations = []  # each row's relative deviations from the closed form
    for row in run_sweep(config).rows:
        if len(row.energies) < 5:  # a failed solve has no energies
            return [float("inf")]
        exact = degenerate_spectrum(ModelParams(row.omega0, row.omega, row.g2), row.subspace, 5)
        deviations.append(np.abs(row.energies[:5] - exact) / exact)
    return deviations


def _oracle_hermite_gauss(cutoff: int) -> float:
    x = np.linspace(-10.0, 10.0, 1001)
    exact, numeric = _closed_form_and_numeric(
        ModelParams(0.0, 0.5, 0.1), SubspaceLabel(0.25, 1), 8 * cutoff, 0, x
    )
    return float(np.sqrt(np.trapezoid((numeric - exact) ** 2, x)))


def cmd_oracle(args: argparse.Namespace) -> int:
    # below 32 too few pairs pass the filter at the alignment point: inf on every seed
    if args.cutoff < 32:
        raise UsageError(f"cutoff must be >= 32, got {args.cutoff}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    cutoff, rng = args.cutoff, np.random.default_rng(args.seed)
    tol = 1e-8 if cutoff >= 128 else 1e-6
    a0, a1, a2, a3 = (
        partial(_oracle_alignment, cutoff, p)
        for p in [(1.0, 0.5, 0.0), (1.0, 0.5, 0.1), (1.0, 0.5, 0.2), _oracle_point(rng)]
    )
    chained = [(1.0, 0.5, 0.2), _oracle_point(rng)]
    dg, hg = partial(_oracle_degenerate, cutoff), partial(_oracle_hermite_gauss, cutoff)

    def gauge():  # the full-Fock, phase-space and rotated forms, by their exact gauges
        return [rotation_gauge_deviation(ModelParams(*p), 2 * cutoff) for p in chained]

    # seven independent tasks through the sweep's fork path, in contiguous shares
    # of equal count, listed to even out the shares' work on 2, 3 and 4 CPUs (cutoff
    # 128, one BLAS thread, best of 15 serial runs: an alignment 16-18 ms, 6 at g2 = 0,
    # the degenerate ladders 23 ms, Hermite-Gauss 13 ms, the gauge 0.4 ms; shares
    # 46 | 48, 23 | 36 | 35 and 18 | 29 | 29 | 18 ms); the gauge, whose complex
    # arithmetic raised the peak RSS of the process that ran it, is in a child's share
    tasks = [a1, a0, dg, hg, a2, a3, gauge]
    r = dict(zip(tasks, map_forked(operator.call, tasks, per_worker=1)))
    checks = {  # a check reads the max of its values, NaN if any is NaN
        "alignment": [r[a0], r[a1], r[a2], r[a3]],
        "degenerate-spectrum": r[dg],
        "hermite-gauss": r[hg],
        "rotation-chain": r[gauge],
    }
    verdicts = []
    for name, values in checks.items():
        deviation = np.max(values)
        verdicts.append("PASS" if deviation < tol else "FAIL")
        print(f"check {name}: {verdicts[-1]} (max deviation {deviation:.3e}, tolerance {tol:.0e})")
    return int("FAIL" in verdicts)


# ---------------------------------------------------------------------------
# modes


def _closed_form_and_numeric(
    params: ModelParams, label: SubspaceLabel, cutoff: int, level: int, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form mode of a sector's ladder level on the grid x (Hermite-Gauss
    of Fock level 2*level + fock_parity below g_c, the plane wave at g_c) and
    the numeric eigenvector mapped there, its unphysical global sign set by a
    non-negative overlap with a real closed form. SpectralCollapseError past g_c."""
    data = classify_regime(params)
    if data.regime is Regime.INVERTED:
        raise SpectralCollapseError("regime III closed forms out of scope")
    pair = solve_point(params, label, cutoff, level + 1).pairs[level]
    numeric = fock_to_position(pair.vector, x, label)
    if data.regime is Regime.HARMONIC:
        exact = hermite_gauss(2 * level + label.fock_parity, data, x)
    else:
        exact = plane_wave(max(pair.value, 0.0), 1, x)
    if np.isrealobj(exact) and float(np.trapezoid(exact * numeric, x)) < 0:
        numeric = -numeric
    return exact, numeric


def cmd_modes(args: argparse.Namespace) -> int:
    try:  # as in cmd_spectrum, inputs first, then the solve
        params = ModelParams(0.0, args.omega, args.g2)
        label = subspace_from_name(args.subspace)
        if args.level < 0:
            raise ValueError(f"level must be >= 0, got {args.level}")
        if not np.all(np.isfinite([args.xmin, args.xmax])):
            raise ValueError(f"xmin and xmax must be finite, got {args.xmin}, {args.xmax}")
        if args.points < 2 or args.xmax <= args.xmin:
            raise ValueError("need points >= 2 and xmax > xmin")
        if args.level + 1 > args.cutoff:
            raise ValueError(f"level {args.level} needs cutoff > {args.level}")
        _check_cutoff(args.cutoff)
        classify_regime(params)  # omega > 0
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    x = np.linspace(args.xmin, args.xmax, args.points)
    exact, numeric = _closed_form_and_numeric(params, label, args.cutoff, args.level, x)
    exact, numeric = exact.astype(complex), numeric.astype(complex)
    rows = (
        [_fmt(xi), _fmt(e.real), _fmt(e.imag), _fmt(n.real), _fmt(n.imag), _fmt(abs(e - n))]
        for xi, e, n in zip(x, exact, numeric)
    )
    _emit(args.out, _table("x,analytic_re,analytic_im,numeric_re,numeric_im,absdiff", rows))
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
    spectrum.add_argument("--tail-fraction", type=float, default=DEFAULT_TAIL_FRACTION)
    spectrum.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
    spectrum.add_argument("--out")
    spectrum.set_defaults(func=cmd_spectrum)

    sweep = commands.add_parser("sweep", help="run a survey from a config file")
    sweep.add_argument("config", help="line-based config file path")
    sweep.add_argument("--out", help="CSV destination (default stdout)")
    sweep.set_defaults(func=cmd_sweep)

    oracle = commands.add_parser(
        "oracle", help="cross-representation and analytic consistency checks"
    )
    oracle.add_argument("--cutoff", type=int, default=128, help="subspace cutoff (full is 2x)")
    oracle.add_argument("--seed", type=int, default=0, help="seed for extra random points")
    oracle.set_defaults(func=cmd_oracle)

    modes = commands.add_parser(
        "modes", help="closed-form vs numeric eigenfunction table, qubit off (omega0 = 0)"
    )
    modes.add_argument("--omega", type=float, required=True)
    modes.add_argument("--g2", type=float, required=True)
    modes.add_argument("--cutoff", type=int, default=2048)
    modes.add_argument("--subspace", choices=[s.name for s in ALL_SUBSPACES], required=True)
    modes.add_argument("--level", type=int, default=0, help="subspace ladder index")
    modes.add_argument("--xmin", type=float, default=-10.0)
    modes.add_argument("--xmax", type=float, default=10.0)
    modes.add_argument("--points", type=int, default=2001)
    modes.add_argument("--out")
    modes.set_defaults(func=cmd_modes)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SpectralCollapseError, OSError, ValueError) as exc:  # numpy's LAPACK errors too
        print(f"error: {exc}", file=sys.stderr)
        return 1
