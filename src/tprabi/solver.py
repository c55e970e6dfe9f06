"""Eigensolvers, the tail-norm convergence filter, and spectrum alignment.

Truncated-basis eigenvectors are trusted only when almost no amplitude has
reached the top of the basis; the filter formalizes that as an l2 norm over
the last fraction of Fock amplitudes compared against a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .model import Chain, HermitianMatrix, TridiagonalMatrix

_SIGNIFICANT = 1e-8  # amplitude magnitude that fixes the canonical sign


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with its unit-norm eigenvector and filter verdict."""

    value: float
    vector: np.ndarray
    tail_norm: float
    converged: bool = False

    def __post_init__(self) -> None:
        vector = np.asarray(self.vector)
        norm = float(np.linalg.norm(vector))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"eigenvector norm {norm} is not 1 within 1e-12")
        if not (np.isfinite(self.value) and np.isfinite(self.tail_norm)):
            raise ValueError("value and tail_norm must be finite")
        if self.tail_norm < 0:
            raise ValueError(f"tail_norm must be >= 0, got {self.tail_norm}")
        object.__setattr__(self, "vector", vector)


@dataclass(frozen=True)
class FilteredSpectrum:
    """Eigenpairs sorted by value, with the filter settings that judged them."""

    pairs: tuple[EigenPair, ...]
    cutoff: int
    tail_fraction: float
    tolerance: float

    @property
    def converged_pairs(self) -> tuple[EigenPair, ...]:
        return tuple(p for p in self.pairs if p.converged)

    @property
    def converged_values(self) -> np.ndarray:
        return np.array([p.value for p in self.pairs if p.converged])

    @property
    def converged_count(self) -> int:
        return sum(1 for p in self.pairs if p.converged)


class Alignment(NamedTuple):
    """Shift onto the reference and the largest deviation of one spectrum."""

    offset: float
    residual: float


def tail_norm_of(vector: np.ndarray, tail_fraction: float = 0.2, qubit_dim: int = 1) -> float:
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


def _to_pairs(values: np.ndarray, vectors: np.ndarray, qubit_dim: int) -> list[EigenPair]:
    tails = np.array(
        [tail_norm_of(vectors[:, i], 0.2, qubit_dim) for i in range(vectors.shape[1])]
    )
    # ascending by value, ties broken by ascending tail norm
    order = np.lexsort((tails, values))
    return [
        EigenPair(
            value=float(values[i]),
            vector=_canonical_sign(vectors[:, i]),
            tail_norm=float(tails[i]),
            converged=False,
        )
        for i in order
    ]


def solve_tridiagonal(matrix: TridiagonalMatrix, k: int) -> list[EigenPair]:
    """k lowest eigenpairs of a real symmetric tridiagonal matrix."""
    dim = matrix.dimension
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in [1, {dim}], got {k}")
    if dim == 1:
        vector = np.ones(1)
        return [EigenPair(float(matrix.diag[0]), vector, tail_norm_of(vector))]
    values, vectors = scipy.linalg.eigh_tridiagonal(
        matrix.diag, matrix.offdiag, select="i", select_range=(0, k - 1)
    )
    return _to_pairs(values, vectors, qubit_dim=1)


def solve_chains(chains: Sequence[Chain], k: int) -> list[EigenPair]:
    """k lowest eigenpairs of a qubit (x) Fock matrix split into tridiagonal
    chains whose indices partition its own (model.full_fock_chains); chain
    vectors are scattered back, so the pairs are the unsplit matrix's."""
    dim = sum(chain.dimension for _, chain in chains)
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in [1, {dim}], got {k}")
    values, vectors = [], []
    for indices, chain in chains:
        take = min(k, chain.dimension)
        vals, vecs = scipy.linalg.eigh_tridiagonal(
            chain.diag, chain.offdiag, select="i", select_range=(0, take - 1)
        )
        full = np.zeros((dim, take))
        full[indices] = vecs
        values.append(vals)
        vectors.append(full)
    return _to_pairs(np.concatenate(values), np.hstack(vectors), qubit_dim=2)[:k]


def solve_hermitian(matrix: HermitianMatrix, k: int) -> list[EigenPair]:
    """k lowest eigenpairs of a Hermitian matrix."""
    dim = matrix.dimension
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in [1, {dim}], got {k}")
    values, vectors = scipy.linalg.eigh(matrix.data, subset_by_index=[0, k - 1])
    return _to_pairs(values, vectors, matrix.qubit_dim)


def convergence_filter(
    pairs: Sequence[EigenPair],
    tail_fraction: float = 0.2,
    tolerance: float = 1e-6,
    qubit_dim: int = 1,
) -> FilteredSpectrum:
    """Recompute tail norms and verdicts for a batch of eigenpairs.

    A pair converges when the norm of the last ceil(tail_fraction * N) Fock
    amplitudes of its vector is below tolerance.
    """
    if not 0 < tail_fraction < 1:
        raise ValueError(f"tail_fraction must be in (0, 1), got {tail_fraction}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")
    if not pairs:
        return FilteredSpectrum((), 0, tail_fraction, tolerance)
    judged = []
    for pair in pairs:
        tail = tail_norm_of(pair.vector, tail_fraction, qubit_dim)
        judged.append(replace(pair, tail_norm=tail, converged=tail < tolerance))
    judged.sort(key=lambda p: (p.value, p.tail_norm))
    cutoff = len(judged[0].vector) // qubit_dim
    return FilteredSpectrum(tuple(judged), cutoff, tail_fraction, tolerance)


def align_spectra(
    reference: FilteredSpectrum, others: Sequence[FilteredSpectrum]
) -> list[Alignment]:
    """One constant shift mapping the union of others onto the reference.

    Only converged values participate. The shift is anchored on the ground
    states, reference[0] - union[0]; the sorted union is then compared entry
    by entry with the reference over the common length less its top
    max(2, ceil(common / 10)) entries. The top of the converged set straddles
    the verdict threshold, which lands on different Fock levels in two
    truncation geometries, so it is trimmed; a systematic misalignment would
    corrupt low entries as well. Every Alignment carries the shared offset;
    its residual is the largest deviation among that spectrum's own compared
    values (0 when none is compared).

    Raises ValueError when a spectrum has no converged value or fewer than 3
    entries would be compared.
    """
    ref = reference.converged_values
    values = [spectrum.converged_values for spectrum in others]
    if not values or any(len(v) == 0 for v in values):
        raise ValueError("every spectrum to align needs a converged value")
    merged = np.concatenate(values)
    common = min(len(merged), len(ref))
    keep = common - max(2, -(-common // 10))
    if keep < 3:
        raise ValueError(f"{keep} entries to compare, need >= 3")
    order = np.argsort(merged, kind="stable")
    union = merged[order]
    owner = np.repeat(np.arange(len(values)), [len(v) for v in values])[order[:keep]]
    offset = float(ref[0] - union[0])
    deviation = np.abs(union[:keep] + offset - ref[:keep])
    return [
        Alignment(offset, float(np.max(deviation[owner == i], initial=0.0)))
        for i in range(len(values))
    ]
