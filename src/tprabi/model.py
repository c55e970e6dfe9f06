"""Truncated-basis Hamiltonians of the two-photon quantum Rabi model.

The full model couples a qubit to a boson mode through two-photon
exchange, H = (omega0/2) sigma_z + omega a^dag a + g2 (a^dag^2 + a^2) sigma_x.
Builders return the full Fock-basis form, its quadrature (phase-space) and
rotated equivalents, and the four SU(1,1) subspace tridiagonals obtained by
diagonalizing in the qubit basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np


@dataclass(frozen=True)
class ModelParams:
    """Frequencies and coupling, all dimensionless in a common unit."""

    omega0: float
    omega: float
    g2: float

    def __post_init__(self) -> None:
        vals = (self.omega0, self.omega, self.g2)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError(f"parameters must be finite, got {vals}")
        if self.omega0 < 0:
            raise ValueError(f"omega0 must be >= 0, got {self.omega0}")
        if self.omega < 0:
            raise ValueError(f"omega must be >= 0, got {self.omega}")
        if self.g2 < 0:
            raise ValueError(f"g2 must be >= 0, got {self.g2}")


@dataclass(frozen=True)
class SubspaceLabel:
    """Bargmann index q in {1/4, 3/4} and the qubit-diagonalization branch.

    q = 1/4 labels the even Fock sector |2m>, q = 3/4 the odd sector |2m+1>.
    """

    bargmann_q: float
    branch: int

    def __post_init__(self) -> None:
        if self.bargmann_q not in (0.25, 0.75):
            raise ValueError(f"bargmann_q must be 1/4 or 3/4, got {self.bargmann_q}")
        if self.branch not in (1, -1):
            raise ValueError(f"branch must be +1 or -1, got {self.branch}")

    @property
    def fock_parity(self) -> int:
        """Parity of the Fock levels the ladder spans: 0 for |2m>, 1 for |2m+1>."""
        return 0 if self.bargmann_q == 0.25 else 1

    @property
    def name(self) -> str:
        sector = ("q14", "q34")[self.fock_parity]
        return sector + ("+" if self.branch == 1 else "-")

    @classmethod
    def from_name(cls, name: str) -> "SubspaceLabel":
        """Sector called name. Only perfbench/workloads.py still calls this;
        everything else uses subspace_from_name, which also knows "full"."""
        label = subspace_from_name(name)
        if not isinstance(label, cls):
            raise ValueError(f"{name!r} is not a sector")
        return label


ALL_SUBSPACES = (
    SubspaceLabel(0.25, 1),
    SubspaceLabel(0.25, -1),
    SubspaceLabel(0.75, 1),
    SubspaceLabel(0.75, -1),
)


@dataclass(frozen=True)
class FullModel:
    """The unsplit model: both qubit states times the Fock ladder."""

    name: ClassVar[str] = "full"

    def __reduce__(self) -> str:
        return "FULL"  # unpickles to the module singleton, so `is FULL` holds


FULL = FullModel()

Subspace = Union[SubspaceLabel, FullModel]

# every subspace under its config and CSV name, the four sectors first
SUBSPACES_BY_NAME = {s.name: s for s in (*ALL_SUBSPACES, FULL)}


def subspace_from_name(name: str) -> Subspace:
    """Subspace called name ("q14+", ..., "full"); raises ValueError for an unknown name."""
    try:
        return SUBSPACES_BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown subspace {name!r}, expected one of {sorted(SUBSPACES_BY_NAME)}"
        ) from None


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Real symmetric tridiagonal matrix (diagonal plus one off-diagonal)."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self) -> None:
        diag = np.asarray(self.diag, dtype=float)
        offdiag = np.asarray(self.offdiag, dtype=float)
        if diag.ndim != 1 or offdiag.ndim != 1:
            raise ValueError("diag and offdiag must be one-dimensional")
        if len(offdiag) != len(diag) - 1:
            raise ValueError(
                f"offdiag length {len(offdiag)} != diag length {len(diag)} - 1"
            )
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(offdiag))):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", offdiag)

    @property
    def dimension(self) -> int:
        return len(self.diag)


@dataclass(frozen=True)
class HermitianMatrix:
    """Dense Hermitian matrix, checked exactly Hermitian on construction."""

    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.data)
        if not np.all(np.isfinite(data)):
            raise ValueError("matrix entries must be finite")
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError(f"matrix must be square, got shape {data.shape}")
        if not np.array_equal(data, data.conj().T):
            raise ValueError("matrix entries must be exactly Hermitian")
        object.__setattr__(self, "data", data)

    @property
    def dimension(self) -> int:
        return self.data.shape[0]


# interleaved indices 2n + s of a block of the full model, and the block
Chain = tuple[np.ndarray, TridiagonalMatrix]


def require_integer(name: str, value: int) -> None:
    """Reject anything but an int or numpy integer (a bool is not a count)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_cutoff(cutoff: int) -> None:
    require_integer("cutoff", cutoff)
    if cutoff < 2:
        raise ValueError(f"cutoff {cutoff} too small, need at least 2")


def _hermitian(lower: np.ndarray) -> HermitianMatrix:
    """The Hermitian matrix whose lower triangle is lower's; the upper
    triangle is the conjugate of the lower."""
    return HermitianMatrix(lower + np.triu(lower.conj().T, 1))


def _quadrature_bands(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and second off-diagonal of q^2 truncated elementwise.

    q^2 = (2n+1)/2 on the diagonal and sqrt((n+1)(n+2))/2 two steps off it;
    p^2 shares the diagonal and negates the off-diagonal.
    """
    n = np.arange(cutoff, dtype=float)
    diag = n + 0.5
    off2 = np.sqrt((n[: cutoff - 2] + 1.0) * (n[: cutoff - 2] + 2.0)) / 2.0
    return diag, off2


def build_full_fock(params: ModelParams, cutoff: int) -> HermitianMatrix:
    """Full model in the interleaved |n> (x) |up/down> product basis.

    Matrix elements: omega*n +/- omega0/2 on the diagonal and
    g2*sqrt((n+1)(n+2)) between |n, s> and |n+2, flip(s)>.
    """
    _check_cutoff(cutoff)
    N = cutoff
    h = np.zeros((2 * N, 2 * N))
    n = np.arange(N, dtype=float)
    up = 2 * np.arange(N)  # |n, up> sits at 2n, |n, down> at 2n + 1
    lo = up[: N - 2]  # |m, up> for every m whose m + 2 is in the basis
    h[up, up] = params.omega * n + params.omega0 / 2.0
    h[up + 1, up + 1] = params.omega * n - params.omega0 / 2.0
    m = np.arange(N - 2, dtype=float)
    pair = params.g2 * np.sqrt((m + 1.0) * (m + 2.0))
    h[lo + 5, lo] = pair  # <m+2, down|H|m, up>
    h[lo + 4, lo + 1] = pair  # <m+2, up|H|m, down>
    return _hermitian(h)


def full_fock_chains(params: ModelParams, cutoff: int) -> list[Chain]:
    """build_full_fock split into its four parity chains: the coupling joins
    only |n, s> and |n+2, flip(s)>, so the chain started at |n0, s0> visits
    n = n0, n0+2, ... with alternating s. Chain c starts at n0 = the Fock
    parity of ALL_SUBSPACES[c] and s0 = 0 on its + branch, so it is that
    sector's ladder: (n0, s0) = (0, 0), (0, 1), (1, 0), (1, 1)."""
    _check_cutoff(cutoff)
    chains = []
    for label in ALL_SUBSPACES:
        n = np.arange(label.fock_parity, cutoff, 2)
        s = (np.arange(len(n)) + (0 if label.branch == 1 else 1)) % 2
        diag = params.omega * n + np.where(s == 0, 0.5, -0.5) * params.omega0
        offdiag = params.g2 * np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0))
        chains.append((2 * n + s, TridiagonalMatrix(diag, offdiag)))
    return chains


def build_phase_space(params: ModelParams, cutoff: int) -> HermitianMatrix:
    """Quadrature form H_y; its spectrum is the full model's plus omega/2.

    Spin-up block (alpha_+ p^2 + alpha_- q^2)/2, spin-down with the alphas
    swapped, and (omega0/2) sigma_x across the qubit.
    """
    _check_cutoff(cutoff)
    N = cutoff
    diag, off2 = _quadrature_bands(N)
    h = np.zeros((2 * N, 2 * N))
    up = 2 * np.arange(N)
    lo = up[: N - 2]
    # (alpha_+ + alpha_-)/2 = omega for both spin blocks on the diagonal
    h[up, up] = params.omega * diag
    h[up + 1, up + 1] = params.omega * diag
    h[up + 1, up] = params.omega0 / 2.0
    h[lo + 4, lo] = -2.0 * params.g2 * off2
    h[lo + 5, lo + 1] = 2.0 * params.g2 * off2
    return _hermitian(h)


def build_rotated_fock(params: ModelParams, cutoff: int) -> HermitianMatrix:
    """Rotated form: common boson block (alpha_+ p^2 + alpha_- q^2)/2 and
    qubit coupling (omega0/2) through the diagonal Fock-space rotation with
    phases exp(-i pi (n + 1/2) / 2).
    """
    _check_cutoff(cutoff)
    N = cutoff
    diag, off2 = _quadrature_bands(N)
    h = np.zeros((2 * N, 2 * N), dtype=complex)
    up = 2 * np.arange(N)
    lo = up[: N - 2]
    h[up, up] = params.omega * diag
    h[up + 1, up + 1] = params.omega * diag
    h[lo + 4, lo] = -2.0 * params.g2 * off2
    h[lo + 5, lo + 1] = -2.0 * params.g2 * off2
    n = np.arange(N, dtype=float)
    phases = np.exp(-1j * np.pi * (n + 0.5) / 2.0)
    # upper block <2n|H|2n+1> = (omega0/2) * phase; the lower triangle
    # carries its conjugate
    h[up + 1, up] = (params.omega0 / 2.0) * np.conj(phases)
    return _hermitian(h)


def build_subspace_tridiagonal(
    label: SubspaceLabel, params: ModelParams, cutoff: int
) -> TridiagonalMatrix:
    """SU(1,1) sector Hamiltonian H_{q,branch} on the ladder |q; m>.

    diag[m] = branch*(omega0/2)*(-1)^m + 2*omega*(q + m),
    offdiag[m] = -2*g2*sqrt((m+1)(m+2q)).
    """
    _check_cutoff(cutoff)
    M = cutoff
    q = label.bargmann_q
    m = np.arange(M, dtype=float)
    diag = label.branch * (params.omega0 / 2.0) * (-1.0) ** m + 2.0 * params.omega * (q + m)
    head = m[: M - 1]
    offdiag = -2.0 * params.g2 * np.sqrt((head + 1.0) * (head + 2.0 * q))
    return TridiagonalMatrix(diag, offdiag)
