"""Coordinate (COO) sparse tensor.

The COO layout is the interchange format of the library: tensors are read
from disk or generated into COO, and the compute kernels either consume it
directly (:mod:`repro.kernels.mttkrp_coo`) or compress it into CSF trees
(:class:`repro.tensor.csf.CSFTensor`).

Coordinates are stored as a single ``(nmodes, nnz)`` ``int64`` array; values
as a ``(nnz,)`` ``float64`` array.  Storing one row per mode (instead of one
row per non-zero) keeps each mode's indices contiguous, which is what the
sort and segment kernels want.

Lexicographic orders are computed on *packed keys* (:func:`pack_lex_keys`):
a non-zero's coordinates, most significant mode first, are concatenated
bit-wise into as few ``int64`` words as hold them — one word on every
Table-I shape up to full NELL, Reddit and Patents — so ordering a tensor
is one stable sort over one array instead of an ``N``-key lexsort (the
linearization idea of ALTO, Laukemann et al.).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..types import INDEX_DTYPE, VALUE_DTYPE, SeedLike, as_generator
from ..validation import (
    check_coords,
    check_mode,
    check_shape,
    check_values,
    require,
)


#: Bits available to the fields of one packed key word (the sign bit of
#: ``int64`` stays clear, so packed words order like the tuples they hold).
KEY_WORD_BITS = 63


def pack_lex_keys(coords: np.ndarray, shape: Sequence[int],
                  mode_order: Sequence[int]) -> list[np.ndarray]:
    """Pack coordinates into order-preserving ``int64`` key words.

    Mode ``mode_order[l]`` takes ``int(extent - 1).bit_length()`` bits
    (zero for an extent of 1); fields are laid out most significant
    first, and a new word starts whenever the next field would pass
    :data:`KEY_WORD_BITS`.  Comparing the word lists lexicographically
    therefore compares the coordinate tuples lexicographically, and equal
    words mean equal coordinates.  *coords* are validated against *shape*
    first (:func:`~repro.validation.check_coords`): an index out of its
    field would corrupt its neighbours' bits.

    Returns the ``(nnz,)`` words, most significant first.
    """
    coords = check_coords(coords, shape)
    bits = [int(shape[m] - 1).bit_length() for m in mode_order]
    # Group the levels into words, then lay each word's fields out from
    # its most significant end.
    groups: list[list[int]] = [[]]
    used = 0
    for level, nbits in enumerate(bits):
        if used + nbits > KEY_WORD_BITS:
            groups.append([])
            used = 0
        groups[-1].append(level)
        used += nbits
    words: list[np.ndarray] = []
    for levels in groups:
        shift = sum(bits[l] for l in levels)
        word = np.zeros(coords.shape[1], dtype=INDEX_DTYPE)
        for level in levels:
            shift -= bits[level]
            word |= coords[mode_order[level]] << shift
        words.append(word)
    return words


class COOTensor:
    """A sparse tensor in coordinate format.

    Parameters
    ----------
    coords:
        ``(nmodes, nnz)`` integer array; ``coords[m, p]`` is the mode-``m``
        index of the ``p``-th non-zero.
    vals:
        ``(nnz,)`` array of non-zero values.
    shape:
        Extent of each mode.

    Notes
    -----
    The constructor validates bounds but does **not** deduplicate repeated
    coordinates; call :meth:`deduplicate` when the provenance of the data
    does not guarantee uniqueness (e.g. after random sampling).
    """

    __slots__ = ("coords", "vals", "shape")

    def __init__(self, coords: np.ndarray, vals: np.ndarray,
                 shape: Sequence[int]):
        self.shape = check_shape(shape)
        self.coords = check_coords(coords, self.shape)
        self.vals = check_values(vals, self.coords.shape[1])

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def nmodes(self) -> int:
        """Number of modes (tensor order)."""
        return len(self.shape)

    @property
    def nnz(self) -> int:
        """Number of stored non-zeros."""
        return self.coords.shape[1]

    @property
    def density(self) -> float:
        """nnz divided by the product of the extents."""
        total = 1.0
        for extent in self.shape:
            total *= float(extent)
        return self.nnz / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"COOTensor(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.3e})"
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(cls, mode_indices: Iterable[np.ndarray],
                    vals: np.ndarray,
                    shape: Sequence[int] | None = None) -> "COOTensor":
        """Build from per-mode index arrays.

        When *shape* is omitted it is inferred as ``max(index) + 1`` per mode.
        """
        cols = [np.asarray(ix, dtype=INDEX_DTYPE) for ix in mode_indices]
        require(len(cols) >= 1, "need at least one mode of indices")
        coords = np.vstack(cols)
        if shape is None:
            if coords.shape[1] == 0:
                raise ValueError("cannot infer shape from an empty tensor")
            shape = tuple(int(c.max()) + 1 for c in coords)
        return cls(coords, np.asarray(vals, dtype=VALUE_DTYPE), shape)

    @classmethod
    def from_dense(cls, dense: np.ndarray, tol: float = 0.0) -> "COOTensor":
        """Extract the entries of a dense array with ``|value| > tol``."""
        dense = np.asarray(dense, dtype=VALUE_DTYPE)
        mask = np.abs(dense) > tol
        coords = np.vstack([ix.astype(INDEX_DTYPE) for ix in np.nonzero(mask)])
        return cls(coords, dense[mask], dense.shape)

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (small tensors / tests only).

        Duplicate coordinates are summed, matching :meth:`deduplicate`.
        """
        out = np.zeros(self.shape, dtype=VALUE_DTYPE)
        np.add.at(out, tuple(self.coords), self.vals)
        return out

    def copy(self) -> "COOTensor":
        """Deep copy."""
        return COOTensor(self.coords.copy(), self.vals.copy(), self.shape)

    # ------------------------------------------------------------------
    # Reorganization
    # ------------------------------------------------------------------
    def sort_lex(self, mode_order: Sequence[int] | None = None) -> "COOTensor":
        """Return a tensor sorted lexicographically by *mode_order*.

        ``mode_order[0]`` is the primary (slowest varying) key.  The default
        order is ``(0, 1, ..., N-1)``.  The sort is stable: duplicate
        coordinates keep their input order (see :meth:`permutation_lex`).
        """
        perm = self.permutation_lex(mode_order)
        return COOTensor(self.coords[:, perm], self.vals[perm], self.shape)

    def permutation_lex(self, mode_order: Sequence[int] | None = None
                        ) -> np.ndarray:
        """Return the permutation that :meth:`sort_lex` would apply.

        A stable sort of the packed keys (:func:`pack_lex_keys`): it is
        the same permutation as ``np.lexsort`` over the coordinate rows,
        ties (duplicate coordinates) included, in one key on every
        Table-I shape.
        """
        order = self._normalize_order(mode_order)
        words = pack_lex_keys(self.coords, self.shape, order)
        # np.lexsort sorts by the LAST key first, so feed words reversed.
        return np.lexsort(words[::-1])

    def _normalize_order(self, mode_order: Sequence[int] | None
                         ) -> tuple[int, ...]:
        if mode_order is None:
            return tuple(range(self.nmodes))
        order = tuple(check_mode(m, self.nmodes) for m in mode_order)
        require(
            sorted(order) == list(range(self.nmodes)),
            f"mode order {order} is not a permutation of all modes",
        )
        return order

    def deduplicate(self) -> "COOTensor":
        """Sum values at repeated coordinates; result is lex-sorted."""
        if self.nnz == 0:
            return self.copy()
        words = pack_lex_keys(self.coords, self.shape,
                              tuple(range(self.nmodes)))
        perm = np.lexsort(words[::-1])
        # Equal packed words mean equal coordinates.
        changed = np.zeros(self.nnz, dtype=bool)
        changed[0] = True
        for word in words:
            ordered = word[perm]
            changed[1:] |= ordered[1:] != ordered[:-1]
        starts = np.flatnonzero(changed)
        summed = np.add.reduceat(self.vals[perm], starts)
        return COOTensor(self.coords[:, perm[starts]], summed, self.shape)

    def permute_modes(self, mode_order: Sequence[int]) -> "COOTensor":
        """Reorder the tensor's modes (a transpose)."""
        order = self._normalize_order(mode_order)
        coords = self.coords[list(order)]
        shape = tuple(self.shape[m] for m in order)
        return COOTensor(coords, self.vals.copy(), shape)

    def drop_zeros(self, tol: float = 0.0) -> "COOTensor":
        """Remove stored entries with ``|value| <= tol``."""
        keep = np.abs(self.vals) > tol
        return COOTensor(self.coords[:, keep], self.vals[keep], self.shape)

    # ------------------------------------------------------------------
    # Reductions and queries
    # ------------------------------------------------------------------
    def norm(self) -> float:
        """Frobenius norm ``sqrt(sum of squared values)``."""
        return float(np.sqrt(self.norm_squared()))

    def norm_squared(self) -> float:
        """Squared Frobenius norm.

        Summed by NumPy's own loop, not BLAS ``ddot``, whose sum depends
        on the BLAS thread count.
        """
        return float(np.einsum("i,i->", self.vals, self.vals))

    def mode_slice_counts(self, mode: int) -> np.ndarray:
        """Non-zero count of every slice along *mode* (length = extent)."""
        mode = check_mode(mode, self.nmodes)
        return np.bincount(self.coords[mode], minlength=self.shape[mode])

    def nonempty_slices(self, mode: int) -> np.ndarray:
        """Sorted unique indices with at least one non-zero along *mode*."""
        mode = check_mode(mode, self.nmodes)
        return np.unique(self.coords[mode])

    def __eq__(self, other: object) -> bool:
        """Exact structural equality after deduplication and sorting."""
        if not isinstance(other, COOTensor):
            return NotImplemented
        if self.shape != other.shape:
            return False
        a, b = self.deduplicate(), other.deduplicate()
        return (
            a.nnz == b.nnz
            and bool(np.array_equal(a.coords, b.coords))
            and bool(np.allclose(a.vals, b.vals))
        )

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("COOTensor is mutable and unhashable")

    # ------------------------------------------------------------------
    # Randomized helpers
    # ------------------------------------------------------------------
    def sample_nonzeros(self, count: int, seed: SeedLike = None
                        ) -> "COOTensor":
        """Uniformly subsample *count* stored non-zeros (without replacement)."""
        require(0 <= count <= self.nnz, "sample size out of range")
        rng = as_generator(seed)
        pick = rng.choice(self.nnz, size=count, replace=False)
        pick.sort()
        return COOTensor(self.coords[:, pick], self.vals[pick], self.shape)
