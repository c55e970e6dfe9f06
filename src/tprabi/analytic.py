"""Closed-form degenerate-regime results and eigenfunction evaluation.

With the qubit frequency at zero the model reduces to the quadratic boson
Hamiltonian H0 = (alpha_+ p^2 + alpha_- q^2)/2 with alpha_pm = omega +/- 2 g2.
Its character switches at the critical coupling g_c = omega/2: harmonic
oscillator below, free particle at, inverted oscillator above.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .model import ModelParams, SubspaceLabel

_SERIES_DOMAIN = 50.0  # |z| limit for the Kummer power series


class Regime(enum.Enum):
    HARMONIC = "Harmonic"
    FREE_PARTICLE = "FreeParticle"
    INVERTED = "Inverted"


class SpectralCollapseError(Exception):
    """Requested a discrete-spectrum result at or past the collapse point."""


@dataclass(frozen=True)
class RegimeData:
    """Auxiliary parameters of H0 and the regime they imply.

    alpha is the ratio sqrt(alpha_minus / alpha_plus) entering the
    closed-form solution; Omega = sqrt(omega^2 - 4 g2^2) is the effective
    oscillator frequency. Both exist only while alpha_minus >= 0 (alpha only
    strictly below the critical point).
    """

    alpha_plus: float
    alpha_minus: float
    alpha: Optional[float]
    Omega: Optional[float]
    regime: Regime


def classify_regime(params: ModelParams) -> RegimeData:
    """Classify H0 by the sign of alpha_minus = omega - 2 g2.

    alpha_minus = 0 exactly is the free particle, whose Omega is 0.
    """
    if params.omega <= 0:
        raise ValueError(f"omega must be > 0, got {params.omega}")
    alpha_plus = params.omega + 2.0 * params.g2
    alpha_minus = params.omega - 2.0 * params.g2
    if alpha_minus == 0:
        return RegimeData(alpha_plus, alpha_minus, None, 0.0, Regime.FREE_PARTICLE)
    if alpha_minus > 0:
        return RegimeData(
            alpha_plus,
            alpha_minus,
            math.sqrt(alpha_minus / alpha_plus),
            math.sqrt(alpha_plus * alpha_minus),
            Regime.HARMONIC,
        )
    return RegimeData(alpha_plus, alpha_minus, None, None, Regime.INVERTED)


def critical_coupling(omega: float) -> float:
    """The collapse point g_c = omega / 2."""
    if omega <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    return omega / 2.0


def degenerate_energies(
    alpha_plus: float, alpha_minus: float, bargmann_q: float, count: int
) -> np.ndarray:
    """Energies Omega*(2m + 2q), m = 0..count-1, for H0 split by Fock parity."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    omega_eff = math.sqrt(alpha_plus * alpha_minus)
    m = np.arange(count, dtype=float)
    return omega_eff * (2.0 * m + 2.0 * bargmann_q)


def degenerate_spectrum(
    params: ModelParams, label: SubspaceLabel, count: int
) -> np.ndarray:
    """Closed-form subspace spectrum of the degenerate (omega0 = 0) model.

    The even sector (q = 1/4) carries Omega*(2m + 1/2) and the odd sector
    (q = 3/4) Omega*(2m + 3/2): the parity split of Omega*(n + 1/2).
    """
    if params.omega0 != 0:
        raise ValueError(f"degenerate spectrum requires omega0 = 0, got {params.omega0}")
    data = classify_regime(params)
    if data.regime is not Regime.HARMONIC:
        raise SpectralCollapseError(
            f"spectrum is continuous for g2 >= omega/2 (regime {data.regime.value})"
        )
    return degenerate_energies(data.alpha_plus, data.alpha_minus, label.bargmann_q, count)


def _hermite_ladder(u: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """Unit-normalized oscillator eigenfunctions phi_0, ..., phi_{n-1} on the grid u.

    The (2^k k!)^(-1/2) normalization is carried inside the three-term
    recurrence, which stays bounded for k in the thousands.
    """
    phi_prev, phi = 0.0, np.pi ** -0.25 * np.exp(-(u**2) / 2.0)
    for k in range(n):
        yield phi
        phi, phi_prev = (
            math.sqrt(2.0 / (k + 1)) * u * phi - math.sqrt(k / (k + 1.0)) * phi_prev,
            phi,
        )


def hermite_gauss(n: int, regime: RegimeData, x: Sequence[float]) -> np.ndarray:
    """Hermite-Gauss eigenfunction of H0 with width beta = (a_-/a_+)^(1/4).

    Unit L2 normalization: psi_n(x) = sqrt(beta) * phi_n(beta x).
    """
    if regime.regime is not Regime.HARMONIC:
        raise SpectralCollapseError(f"no bound modes in regime {regime.regime.value}")
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    beta = (regime.alpha_minus / regime.alpha_plus) ** 0.25
    grid = np.asarray(x, dtype=float)
    phi_n = next(itertools.islice(_hermite_ladder(beta * grid, n + 1), n, None))
    return math.sqrt(beta) * phi_n


def plane_wave(lam: float, sign: int, x: Sequence[float]) -> np.ndarray:
    """Free-particle mode (2 pi)^(-1/2) exp(+/- i sqrt(lambda) x)."""
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    grid = np.asarray(x, dtype=float)
    return (2.0 * np.pi) ** -0.5 * np.exp(sign * 1j * math.sqrt(lam) * grid)


def kummer_1f1(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric 1F1(a; b; z) by power series.

    Terminates exactly for non-positive-integer a; otherwise sums until the
    running term drops below 1e-14 of the total. Negative arguments route
    through the Kummer transform 1F1(a;b;z) = e^z 1F1(b-a;b;-z) to avoid
    alternating-series cancellation.
    """
    if not all(map(math.isfinite, (a, b, z))):
        raise ValueError(f"arguments must be finite, got {(a, b, z)}")
    if b <= 0 and b == int(b):
        raise ValueError(f"b must not be a non-positive integer, got {b}")
    if abs(z) > _SERIES_DOMAIN:
        raise ValueError(f"|z| must be <= {_SERIES_DOMAIN}, got {z}")
    terminating = a <= 0 and a == int(a)
    if not terminating and z < 0:
        return math.exp(z) * kummer_1f1(b - a, b, -z)
    total = 1.0
    term = 1.0
    k = 0
    while True:
        if terminating and k >= -int(a):
            return total
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        total += term
        k += 1
        if not terminating and abs(term) <= 1e-14 * abs(total):
            return total
        if k > 100000:
            raise ValueError(f"series failed to converge for {(a, b, z)}")


def general_solution(
    nu: float,
    regime: RegimeData,
    c1: float,
    c2: float,
    x: Sequence[float],
) -> np.ndarray:
    """Closed-form solution branch pair of H0 below the critical point.

    Evaluates c1*e^(-a x^2/4)*1F1(-nu-1/4; 1/2; a x^2/2)
            + c2*x*e^(-a x^2/4)*1F1(-nu+1/4; 3/2; a x^2/2)
    with a = sqrt(alpha_minus/alpha_plus).
    """
    if regime.regime is not Regime.HARMONIC:
        raise SpectralCollapseError(f"no closed-form solution in regime {regime.regime.value}")
    grid = np.asarray(x, dtype=float)
    a = regime.alpha
    assert a is not None
    u = a * grid**2 / 2.0
    even = np.array([kummer_1f1(-nu - 0.25, 0.5, ui) for ui in u])
    odd = np.array([kummer_1f1(-nu + 0.25, 1.5, ui) for ui in u])
    envelope = np.exp(-a * grid**2 / 4.0)
    return c1 * envelope * even + c2 * grid * envelope * odd


def fock_to_position(
    coefficients: Sequence[float],
    x: Sequence[float],
    label: Optional[SubspaceLabel] = None,
) -> np.ndarray:
    """Position-space wavefunction of a Fock-basis coefficient vector.

    Returns sum_n c_n phi_n(x) over the bare (beta = 1) oscillator functions.
    With a subspace label the coefficients live on the parity ladder and are
    first spread onto Fock levels 2m (q = 1/4) or 2m + 1 (q = 3/4).
    """
    coeffs = np.asarray(coefficients)
    grid = np.asarray(x, dtype=float)
    if grid.size == 0:
        raise ValueError("position grid is empty")
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ValueError("coefficients must be a non-empty vector")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficients must be finite")
    norm = float(np.linalg.norm(coeffs))
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"coefficient norm {norm} is not 1 within 1e-8")
    if label is not None:
        spread = np.zeros(2 * coeffs.size, dtype=coeffs.dtype)
        spread[label.fock_parity :: 2] = coeffs
        coeffs = spread
    out = np.zeros(grid.shape, dtype=np.result_type(coeffs.dtype, float))
    for c, phi in zip(coeffs, _hermite_ladder(grid, coeffs.size)):
        out += c * phi
    return out
