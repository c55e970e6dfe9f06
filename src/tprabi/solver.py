"""Eigensolvers, the tail-norm convergence filter, and spectrum alignment.

Truncated-basis eigenvectors are trusted only when almost no amplitude has
reached the top of the basis; the filter formalizes that as an l2 norm over
the last fraction of Fock amplitudes compared against a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .model import Chain, HermitianMatrix, TridiagonalMatrix

_SIGNIFICANT = 1e-8  # amplitude magnitude that fixes the canonical sign

# the filter's settings wherever a caller gives none
DEFAULT_TAIL_FRACTION = 0.2
DEFAULT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with its unit-norm eigenvector."""

    value: float
    vector: np.ndarray

    def __post_init__(self) -> None:
        vector = np.asarray(self.vector)
        norm = float(np.linalg.norm(vector))
        # written so that a nan norm (a non-finite vector) fails as well
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"eigenvector norm {norm} is not 1 within 1e-12")
        if not np.isfinite(self.value):
            raise ValueError(f"value must be finite, got {self.value}")
        object.__setattr__(self, "vector", vector)


@dataclass(frozen=True)
class FilteredSpectrum:
    """Eigenpairs sorted by value, the tail norm of each, and the tolerance
    that judged them."""

    pairs: tuple[EigenPair, ...]
    tails: np.ndarray
    tolerance: float

    @property
    def converged(self) -> np.ndarray:
        """The verdict of each pair: its tail norm is below the tolerance."""
        return self.tails < self.tolerance

    @property
    def converged_pairs(self) -> tuple[EigenPair, ...]:
        return tuple(p for p, ok in zip(self.pairs, self.converged) if ok)

    @property
    def converged_values(self) -> np.ndarray:
        return np.array([p.value for p in self.converged_pairs])

    @property
    def converged_count(self) -> int:
        return int(np.count_nonzero(self.converged))


class Alignment(NamedTuple):
    """Shift onto the reference and the largest compared deviation."""

    offset: float
    residual: float


def tail_norm_of(
    vector: np.ndarray, tail_fraction: float = DEFAULT_TAIL_FRACTION, qubit_dim: int = 1
) -> float:
    """l2 norm of the last ceil(tail_fraction * N) Fock levels of a vector.

    For qubit-tensored vectors in interleaved ordering the tail spans those
    Fock levels across every qubit component.
    """
    if not 0 < tail_fraction < 1:
        raise ValueError(f"tail_fraction must be in (0, 1), got {tail_fraction}")
    fock_len = len(vector) // qubit_dim
    take = math.ceil(tail_fraction * fock_len) * qubit_dim
    if take <= 0 or take > len(vector):
        raise ValueError(f"tail of length {take} invalid for vector of length {len(vector)}")
    return float(np.linalg.norm(vector[len(vector) - take :]))


def _canonical_sign(vector: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first significant amplitude is positive."""
    significant = np.flatnonzero(np.abs(vector) > _SIGNIFICANT)
    pivot = vector[significant[0]] if significant.size else vector[np.argmax(np.abs(vector))]
    if np.iscomplexobj(vector):
        return vector * (np.conj(pivot) / abs(pivot))
    return -vector if pivot < 0 else vector


def _to_pairs(values: np.ndarray, vectors: np.ndarray) -> list[EigenPair]:
    """Pairs in ascending value order (stable), each vector in canonical sign."""
    return [
        EigenPair(float(values[i]), _canonical_sign(vectors[:, i]))
        for i in np.argsort(values, kind="stable")
    ]


def _lowest(matrix: TridiagonalMatrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k lowest eigenvalues and eigenvector columns of a real symmetric tridiagonal matrix."""
    dim = matrix.dimension
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in [1, {dim}], got {k}")
    return scipy.linalg.eigh_tridiagonal(
        matrix.diag, matrix.offdiag, select="i", select_range=(0, k - 1)
    )


def solve_tridiagonal(matrix: TridiagonalMatrix, k: int) -> list[EigenPair]:
    """k lowest eigenpairs of a real symmetric tridiagonal matrix."""
    return _to_pairs(*_lowest(matrix, k))


def solve_chains(chains: Sequence[Chain], k: int) -> list[EigenPair]:
    """k lowest eigenpairs of a qubit (x) Fock matrix split into tridiagonal
    chains whose indices partition its own (model.full_fock_chains). Each
    chain is solved once, the k lowest values of the union are picked (equal
    values keep chain order), and only those k get a canonical sign and a
    vector scattered back onto the unsplit matrix's indices. Every solved
    column is checked as an EigenPair would check it, picked or not."""
    dim = sum(chain.dimension for _, chain in chains)
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in [1, {dim}], got {k}")
    solved = [(indices, *_lowest(chain, min(k, chain.dimension))) for indices, chain in chains]
    for _, values, vectors in solved:
        norms = np.linalg.norm(vectors, axis=0)
        # written so that a nan norm (a non-finite column) fails as well
        if not (np.all(np.abs(norms - 1.0) <= 1e-12) and np.all(np.isfinite(values))):
            raise ValueError(f"chain norms off 1 by {np.max(abs(norms - 1))} or values not finite")
    union = np.concatenate([values for _, values, _ in solved])
    where = [(c, j) for c, (_, values, _) in enumerate(solved) for j in range(len(values))]
    pairs = []
    for c, j in (where[i] for i in np.argsort(union, kind="stable")[:k]):
        indices, values, vectors = solved[c]
        vector = np.zeros(dim)
        vector[indices] = _canonical_sign(vectors[:, j])
        pairs.append(EigenPair(float(values[j]), vector))
    return pairs


def solve_hermitian(matrix: HermitianMatrix, k: int) -> list[EigenPair]:
    """k lowest eigenpairs of a Hermitian matrix."""
    dim = matrix.dimension
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in [1, {dim}], got {k}")
    values, vectors = scipy.linalg.eigh(matrix.data, subset_by_index=[0, k - 1])
    return _to_pairs(values, vectors)


def convergence_filter(
    pairs: Sequence[EigenPair],
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
    tolerance: float = DEFAULT_TOLERANCE,
    qubit_dim: int = 1,
) -> FilteredSpectrum:
    """Judge a batch of eigenpairs by their tail norms, sorted by value.

    A pair converges when the norm of the last ceil(tail_fraction * N) Fock
    amplitudes of its vector is below tolerance; ties in value are ordered
    by tail norm.
    """
    if not 0 < tail_fraction < 1:
        raise ValueError(f"tail_fraction must be in (0, 1), got {tail_fraction}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")
    tails = np.array([tail_norm_of(p.vector, tail_fraction, qubit_dim) for p in pairs])
    order = np.lexsort((tails, [p.value for p in pairs]))
    return FilteredSpectrum(tuple(pairs[i] for i in order), tails[order], tolerance)


def align_spectra(
    reference: FilteredSpectrum, others: Sequence[FilteredSpectrum]
) -> Alignment:
    """One constant shift mapping the union of others onto the reference.

    Only converged values participate. The shift is anchored on the ground
    states, reference[0] - union[0]; the sorted union is then compared entry
    by entry with the reference over the common length less its top
    max(2, ceil(common / 10)) entries. The top of the converged set straddles
    the verdict threshold, which lands on different Fock levels in two
    truncation geometries, so it is trimmed; a systematic misalignment would
    corrupt low entries as well. The residual is the largest deviation among
    the compared entries.

    Raises ValueError when a spectrum has no converged value or fewer than 3
    entries would be compared.
    """
    ref = reference.converged_values
    values = [spectrum.converged_values for spectrum in others]
    if not values or any(len(v) == 0 for v in values):
        raise ValueError("every spectrum to align needs a converged value")
    union = np.sort(np.concatenate(values))
    common = min(len(union), len(ref))
    keep = common - max(2, -(-common // 10))
    if keep < 3:
        raise ValueError(f"{keep} entries to compare, need >= 3")
    offset = float(ref[0] - union[0])
    return Alignment(offset, float(np.max(np.abs(union[:keep] + offset - ref[:keep]))))
