"""Eigensolvers, the tail-norm convergence filter, and spectrum alignment.

Truncated-basis eigenvectors are trusted only when almost no amplitude has
reached the top of the basis; the filter formalizes that as an l2 norm over
the last fraction of Fock amplitudes compared against a tolerance.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .model import HermitianMatrix, TridiagonalMatrix

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


def _checked_pair(value: float, vector: np.ndarray) -> EigenPair:
    """An EigenPair whose finite value and unit-norm vector the caller has checked."""
    pair = object.__new__(EigenPair)  # fields set as __init__ sets them: no dict per pair
    object.__setattr__(pair, "value", value)
    object.__setattr__(pair, "vector", vector)
    return pair


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
        return tuple(compress(self.pairs, self.converged.tolist()))

    @property
    def converged_values(self) -> np.ndarray:
        return np.array([p.value for p in self.pairs])[self.converged]

    @property
    def converged_count(self) -> int:
        return int(np.count_nonzero(self.converged))


class Alignment(NamedTuple):
    """Shift onto the reference and the largest compared deviation."""

    offset: float
    residual: float


def check_filter_settings(tail_fraction: float, tolerance: float = DEFAULT_TOLERANCE) -> None:
    """The filter's rules: tail_fraction in (0, 1), tolerance finite and > 0."""
    if not 0 < tail_fraction < 1:
        raise ValueError(f"tail_fraction must be in (0, 1), got {tail_fraction}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")


def tail_norm_of(
    vector: np.ndarray, tail_fraction: float = DEFAULT_TAIL_FRACTION, qubit_dim: int = 1
) -> float:
    """l2 norm of the last ceil(tail_fraction * N) Fock levels of a vector.

    For qubit-tensored vectors in interleaved ordering the tail spans those
    Fock levels across every qubit component; after a full-spectrum solve, a
    tail below ~1e-16 may read exactly 0."""
    check_filter_settings(tail_fraction)
    return _tail_norm(vector, tail_fraction, qubit_dim)


def _tail_norm(vector: np.ndarray, tail_fraction: float, qubit_dim: int) -> float:
    """tail_norm_of under checked settings, by np.linalg.norm's reduction, bit for bit."""
    take = math.ceil(tail_fraction * (len(vector) // qubit_dim)) * qubit_dim
    if take <= 0 or take > len(vector):
        raise ValueError(f"tail of length {take} invalid for vector of length {len(vector)}")
    tail = vector[len(vector) - take :].ravel(order="K")  # contiguous; dots real, imag apart
    if tail.dtype.kind == "c":
        return float(np.sqrt(tail.real.dot(tail.real) + tail.imag.dot(tail.imag)))
    return float(np.sqrt(tail.dot(tail)))


def _check_k(k: int, dim: int) -> None:
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in [1, {dim}], got {k}")


def _package(blocks: Sequence[tuple], k: int) -> list[EigenPair]:
    """The k lowest eigenpairs of solved blocks (indices or None, values, vector columns) by
    a stable sort in block order. Every column is checked at once, picked or not, so pairs
    skip EigenPair's check; the k picked get a canonical sign and, given indices, a scatter.
    A block of one-row columns is 1 x 1 blocks, its column j the unit vector at indices[j]."""
    values = np.concatenate([block_values for _, block_values, _ in blocks])
    off = np.abs(np.concatenate([np.linalg.norm(v, axis=0) for *_, v in blocks]) - 1.0)
    # written so that a nan norm (a non-finite column) fails as well
    if not (np.all(off <= 1e-12) and np.all(np.isfinite(values))):
        raise ValueError(f"eigenvector norms off 1 by {np.max(off)} or eigenvalues not finite")
    dim = sum(len(indices) for indices, *_ in blocks if indices is not None)
    starts = np.cumsum([0, *(v.shape[1] for *_, v in blocks)]).tolist()  # of their columns
    turns = [_turns(v) for *_, v in blocks]  # before any vector: under the norm check's peak
    pairs = []
    for i in np.argsort(values, kind="stable")[:k].tolist():
        b = bisect.bisect_right(starts, i) - 1  # the last block starting at or before i
        indices, _, vectors = blocks[b]
        j = i - starts[b]
        vector, turn = vectors[:, j], turns[b][j]
        if turn is not False:  # True: a real column's negative pivot; else a complex phase
            vector = -vector if turn is True else vector * turn
        if indices is not None:
            scattered = np.zeros(dim, dtype=vector.dtype)
            scattered[indices if len(vectors) > 1 else indices[j : j + 1]] = vector
            vector = scattered
        pairs.append(_checked_pair(float(values[i]), vector))
    return pairs


def _turns(columns: np.ndarray) -> list:
    """Per column, what makes its first amplitude above 1e-8 (a unit column of under 1e16
    rows has one) positive: for a real block whether to negate it, else the phase."""
    (m, w), real = columns.shape, not np.iscomplexobj(columns)
    # two comparisons for a real block: no float temporary of the block's size
    significant = (columns > _SIGNIFICANT) | (columns < -_SIGNIFICANT) if real else (
        np.abs(columns) > _SIGNIFICANT
    )
    masks = significant.T.tobytes()  # searched by bytes.find: argmax's code raised RSS 0.1 MB
    first = [masks.find(1, c * m, c * m + m) - c * m for c in range(w)]
    pivots = columns[np.array(first, np.intp), np.arange(w)]  # as a list, [] loads more code
    # complex phases one at a time: dividing the arrays rounds some of them otherwise
    return (pivots < 0).tolist() if real else [np.conj(p) / abs(p) for p in pivots]


def _lowest(d: np.ndarray, e: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k lowest eigenvalues and eigenvector columns of the real symmetric tridiagonal
    matrix with diagonal d and off-diagonal e: all by MRRR (stemr, named as SciPy's
    default varies) when k is its dimension, which may report a tail below ~1e-16 as
    exactly 0; else bisection."""
    if k == len(d):
        return scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stemr")
    return scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))


def solve_tridiagonal(matrix: TridiagonalMatrix, k: int) -> list[EigenPair]:
    """k lowest eigenpairs of a real symmetric tridiagonal matrix."""
    _check_k(k, matrix.dimension)
    values, vectors = _lowest(matrix.diag, matrix.offdiag, k)
    # all pairs copied: pairs viewing LAPACK's own buffer raised peak RSS 0.3 MB
    return _package([(None, values, vectors.copy() if k == matrix.dimension else vectors)], k)


def _band_blocks(band: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Ascending indices of a lower band's 1 x 1 blocks, and of each larger irreducible
    block, the connected components of its nonzero entries below the diagonal, in
    order of first index."""
    dim = band.shape[1]
    # entry (d, j) inside the matrix joins j and j + d
    cols = [np.flatnonzero(band[d, : dim - d]) for d in range(1, len(band))]
    a = np.concatenate([np.zeros(0, dtype=np.intp), *cols])
    b = np.concatenate([np.zeros(0, dtype=np.intp), *(j + d for d, j in enumerate(cols, 1))])
    joined = np.zeros(dim, dtype=bool)  # every index not in a 1 x 1 block
    joined[a] = joined[b] = True
    root = np.arange(dim)  # an index's least known block-mate; root[root] == root
    # nonzero differences, not !=: a first integer comparison added 0.13 MB to peak RSS
    while np.count_nonzero((ra := root[a]) - (rb := root[b])):
        np.minimum.at(root, ra, rb)  # hook each root onto a lesser root it touches
        np.minimum.at(root, rb, ra)
        for _ in range(dim.bit_length()):  # a jump halves each path to a root; none is dim long
            root = root[root]
    order = np.flatnonzero(joined)
    order = order[np.argsort(root[order], kind="stable")]
    cuts = [0, *(np.flatnonzero(np.diff(root[order])) + 1).tolist(), len(order)]
    return np.flatnonzero(~joined), [order[i:j] for i, j in zip(cuts, cuts[1:]) if i < j]


def _solve_block(rows: np.ndarray, indices: np.ndarray, k: int) -> tuple:
    """min(k, size) lowest eigenpairs of the block over two or more indices of a lower
    band whose last row, past the band, is zero, on the block's own band, read as far as
    its index gaps reach inside the band and narrowed to its last nonzero row: a real
    one of one off-diagonal by _lowest, any other by ?sbevd/?hbevd for all its pairs,
    else by ?sbevx/?hbevx."""
    m, width, k = len(indices), rows.shape[0] - 2, min(k, len(indices))
    # entries d block indices apart lie at least d times the least gap apart in the band
    reach = min(m - 1, width // int((indices[1:] - indices[:-1]).min()))
    sub = [rows[0, indices]] + [
        rows[np.minimum(indices[d:] - indices[: m - d], width + 1), indices[: m - d]]
        for d in range(1, reach + 1)  # past the band: the zero row
    ]
    while not sub[-1].any():
        sub.pop()
    if len(sub) == 2 and not np.iscomplexobj(rows):
        return _lowest(*sub, k)
    band = np.array([np.pad(row, (0, d)) for d, row in enumerate(sub)])
    return scipy.linalg.eig_banded(
        band, lower=True, select="a" if k == m else "i", select_range=(0, k - 1)
    )


def solve_band(band: np.ndarray, k: int) -> list[EigenPair]:
    """k lowest eigenpairs of a Hermitian matrix from its lower band rows, row d holding
    <j + d|H|j> at column j. Each irreducible block, read from the band's nonzero entries,
    is solved on its own (model.full_fock_band: its four parity chains); the 1 x 1 blocks,
    every entry at g2 = 0, are their entries with unit columns and need no LAPACK call."""
    _check_k(k, band.shape[1])
    rows = np.vstack([band, np.zeros_like(band[:1])])
    lone, blocks = _band_blocks(band)
    solved = [(indices, *_solve_block(rows, indices, k)) for indices in blocks]
    units = np.ones((1, len(lone)), dtype=band.dtype)
    return _package([*solved, (lone, band[0, lone].real, units)], k)


def solve_hermitian(matrix: HermitianMatrix, k: int) -> list[EigenPair]:
    """k lowest eigenpairs of a dense Hermitian matrix, by solve_band on its nonzero band
    (real or complex; the phase-space and rotated forms split by Fock parity)."""
    width = np.max(np.subtract(*np.nonzero(matrix.data)), initial=0)
    band = [np.pad(np.diagonal(matrix.data, -d), (0, d)) for d in range(width + 1)]
    return solve_band(np.array(band), k)


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
    check_filter_settings(tail_fraction, tolerance)
    tails = np.array([_tail_norm(p.vector, tail_fraction, qubit_dim) for p in pairs])
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
