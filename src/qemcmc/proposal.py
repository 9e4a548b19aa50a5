"""Proposal kernels Q(x|y) and their validation certificates.

Orientation convention: the second argument is the source state, so a dense
kernel is column-indexed by the current configuration and every column is a
probability distribution over proposed configurations.

A kernel invariant under permutations of the spins about the marked state k
is carried as its table over (d, w_x, w_y), with d = |x^y| and w_x = |x^k|,
w_y = |y^k|; its certificate is measured on that table in O(N^3).

Every large array of the package keeps one size rule, :func:`_check_entries`:
no more than 2^24 float64 entries (128 MiB).  So N <= 12 for a 2^N x 2^N
matrix (a dense kernel, the dense Hamiltonian, the dense gap), N <= 24 for a
2^N vector (a column, a Gibbs vector), N <= 255 for a four-value or
single-flip kernel table, and N <= 202, 75 and 30 for the transverse kernel
table, the block coefficients and the mixing-time gather.
The binomials C(a, b), a, b <= N, are one cached float64 table,
:func:`_binomials`, read by the pair classes, the Dicke sector, the
marked-state bound and the lumped chain behind the gap and the mixing time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetExceeded, MismatchedDimensions, NegativeProbability

# Entries above this negative floor are treated as rounding noise and clamped.
_CLAMP_FLOOR = -1e-14
# most float64 entries of one array the size rule admits (128 MiB)
_ENTRIES_MAX = 1 << 24


def _check_entries(what: str, n_spins: int, entries: int) -> None:
    """BudgetExceeded, naming ``what`` and N, when an array would hold more
    than ``_ENTRIES_MAX`` float64 entries: called before it is allocated."""
    if entries > _ENTRIES_MAX:
        raise BudgetExceeded(
            f"{what} refused at N = {n_spins}: {entries} entries, "
            f"above the cap of {_ENTRIES_MAX}")


def _check_table(n_spins: int, floats: int = 1) -> None:
    """The size rule of an (N+1)^3 kernel table of ``floats`` float64 per
    entry."""
    _check_entries("kernel table", n_spins, floats * (n_spins + 1) ** 3)


def _clamped(a: np.ndarray, n_spins: int) -> np.ndarray:
    """``a`` with entries in [_CLAMP_FLOOR, 0) set to 0; below the floor,
    NegativeProbability."""
    if np.min(a) < _CLAMP_FLOOR:
        raise NegativeProbability(
            f"kernel entry {np.min(a):.3e} below clamp floor at N = {n_spins}")
    return np.clip(a, 0.0, None)


@dataclass(frozen=True)
class KernelCertificate:
    """Measured deviations from column/row stochasticity and symmetry."""

    max_column_deviation: float
    max_row_deviation: float
    max_asymmetry: float


class ProposalKernel:
    """Base class: a stochastic map from source configurations to proposals."""

    def __init__(self, n_spins: int):
        if n_spins < 1:
            raise ValueError(f"n_spins must be >= 1, got {n_spins}")
        self.n_spins = n_spins
        self._dense = None

    @property
    def dim(self) -> int:
        return 1 << self.n_spins

    def _build_dense(self) -> np.ndarray:
        raise NotImplementedError

    def dense(self) -> np.ndarray:
        """Dense matrix q[x, y] = Q(x|y), built once and cached."""
        if self._dense is None:
            self._dense = _clamped(np.asarray(self._build_dense(), dtype=float),
                                   self.n_spins)
        return self._dense


class DenseKernel(ProposalKernel):
    def __init__(self, matrix: np.ndarray, n_spins: int | None = None):
        matrix = np.asarray(matrix, dtype=float)
        if n_spins is None:
            n_spins = int(matrix.shape[0]).bit_length() - 1
        super().__init__(n_spins)
        if matrix.shape != (self.dim, self.dim):
            raise MismatchedDimensions(
                f"expected {(self.dim, self.dim)} matrix, got {matrix.shape}"
            )
        self._matrix = matrix

    def _build_dense(self):
        return self._matrix


@lru_cache(maxsize=None)
def _binomials(n_spins: int) -> np.ndarray:
    """Read-only C(a, b) over a, b in [0, N], each the nearest float64."""
    w = range(n_spins + 1)
    table = np.array([[float(math.comb(a, b)) for b in w] for a in w])
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def weight_classes(n_spins: int):
    """Pair classes about the marked state, over (i, j, t).

    For x at distance i from the marked state, ``count[i, j, t]`` is the
    number C(i, t) C(N - i, j - t) of states y at distance j that differ
    from the marked state in t of the i spins where x does, and
    ``distance[i, j, t]`` is |x^y| = i + j - 2t (clipped into range where
    the count is 0).
    """
    n = n_spins
    w = np.arange(n + 1)
    i, j, t = w[:, None, None], w[None, :, None], w[None, None, :]
    binom = _binomials(n)
    count = np.where(t <= j, binom[i, t] * binom[n - i, np.maximum(j - t, 0)],
                     0.0)
    distance = np.clip(i + j - 2 * t, 0, n)
    count.flags.writeable = distance.flags.writeable = False
    return count, distance


class PermutationInvariantKernel(ProposalKernel):
    """Kernel invariant under permutations of the spins about a marked state k.

    Q(x|y) = T[d, w_x, w_y] depends only on d = |x^y| and the distances
    w_x = |x^k|, w_y = |y^k|, so the (N+1)^3 table T holds every entry.
    """

    def __init__(self, n_spins, marked, table):
        super().__init__(n_spins)
        if not 0 <= marked < self.dim:
            raise IndexError(f"marked index {marked} out of range")
        self.marked = marked
        self._raw_table = table
        self._table = None

    def table(self) -> np.ndarray:
        """T[d, w_x, w_y], checked once.  Classes no pair of states realizes
        read 0, and entries are clamped as :meth:`dense` clamps them."""
        if self._table is None:
            n = self.n_spins
            table = np.asarray(self._raw_table, dtype=float)
            if table.shape != (n + 1,) * 3:
                raise MismatchedDimensions(
                    f"expected {(n + 1,) * 3} table, got {table.shape}"
                )
            count, distance = weight_classes(n)
            i, j, _ = np.nonzero(count)
            realized = np.zeros(table.shape, dtype=bool)
            realized[distance[count > 0], i, j] = True
            self._table = _clamped(np.where(realized, table, 0.0), self.n_spins)
        return self._table

    def column(self, y):
        """Q(.|y), gathered from the table in O(2^N)."""
        _check_entries("proposal column", self.n_spins, self.dim)
        if not 0 <= y < self.dim:
            raise IndexError(f"configuration {y} out of range")
        x = np.arange(self.dim, dtype=np.int32)
        table = self.table()[:, :, int(y ^ self.marked).bit_count()]
        return table[np.bitwise_count(x ^ y), np.bitwise_count(x ^ self.marked)]

    def _build_dense(self):
        """Gather the table in blocks of about 2^20 entries: the one place a
        table kernel densifies."""
        n, dim = self.n_spins, self.dim
        _check_entries("dense kernel", n, dim * dim)
        table = self.table().ravel()
        x = np.arange(dim, dtype=np.int32)
        w = np.bitwise_count(x ^ self.marked).astype(np.int32)
        w_row = w * (n + 1)
        q = np.empty((dim, dim))
        rows = max(1, (1 << 20) // dim)
        for x0 in range(0, dim, rows):
            block = slice(x0, x0 + rows)
            # flat table index d*(n+1)^2 + w_x*(n+1) + w_y
            idx = np.multiply(np.bitwise_count(x[block, None] ^ x), (n + 1) ** 2,
                              dtype=np.int32)
            idx += w_row[block, None]
            idx += w
            np.take(table, idx, out=q[block])
        return q


class StructuredMarkedKernel(PermutationInvariantKernel):
    """Kernel with the marked-state orbit structure: four distinct values.

    ``off_marked`` is Q(k|x) = Q(x|k) for any unmarked x, ``off_unmarked`` is
    Q(x|y) for distinct unmarked x, y, and the two ``stay`` values sit on the
    diagonal; the table alone holds them (T[1, 1, 0] is ``off_marked``).
    """

    def __init__(self, n_spins, marked, off_marked, off_unmarked,
                 stay_marked, stay_unmarked):
        _check_table(n_spins)
        table = np.full((n_spins + 1,) * 3, float(off_unmarked))
        table[:, 0, :] = table[:, :, 0] = off_marked
        table[0] = stay_unmarked
        table[0, 0, 0] = stay_marked
        super().__init__(n_spins, marked, table)


def uniform_kernel(n_spins: int) -> ProposalKernel:
    """Uniform proposal Q(x|y) = 2**-N for all x, y, self-proposal included."""
    dim = 1 << n_spins
    return StructuredMarkedKernel(n_spins, 0, 1.0 / dim, 1.0 / dim,
                                  1.0 / dim, 1.0 / dim)


def single_flip_kernel(n_spins: int) -> PermutationInvariantKernel:
    """Local proposal: flip one uniformly chosen spin.

    Invariant under permutations of the spins about every state; carried
    about state 0 as the table T[1, w_x, w_y] = 1/N, 0 elsewhere.
    """
    _check_table(n_spins)
    table = np.zeros((n_spins + 1,) * 3)
    table[1] = 1.0 / n_spins
    return PermutationInvariantKernel(n_spins, 0, table)


def affine_combination(weights, kernels) -> DenseKernel:
    """Pointwise affine combination of kernels with weights summing to 1.

    Weights may be negative, but the combined kernel must be entrywise
    nonnegative to be usable: NegativeProbability if any entry falls below
    -1e-10 (the combination is then not realizable as a stochastic
    proposal); entries above that are clipped to 0.
    """
    if len(weights) != len(kernels) or not kernels:
        raise MismatchedDimensions("need one weight per kernel")
    n = kernels[0].n_spins
    if any(k.n_spins != n for k in kernels):
        raise MismatchedDimensions("kernels act on different spin counts")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ValueError(f"affine weights must sum to 1, got {sum(weights)!r}")
    q = np.zeros((1 << n, 1 << n))
    for w, k in zip(weights, kernels):
        q += float(w) * k.dense()
    low = float(np.min(q))
    if low < -1e-10:
        raise NegativeProbability(
            f"affine combination has entry {low:.3e} below tolerance"
        )
    return DenseKernel(np.clip(q, 0.0, None), n)


def validate_kernel(kernel: ProposalKernel) -> KernelCertificate:
    """Measure stochasticity and symmetry deviations; never raises on violation.

    A :class:`PermutationInvariantKernel` is measured on its table: each
    column or row sum is a sum over the pair classes of one distance from the
    marked state, and the asymmetry is that of T[d, w_x, w_y] in w_x, w_y.
    """
    if isinstance(kernel, PermutationInvariantKernel):
        table = kernel.table()
        count, distance = weight_classes(kernel.n_spins)
        w = np.arange(kernel.n_spins + 1)
        i, j = w[:, None, None], w[None, :, None]
        # source (column) at distance i, proposals at j; and the transpose
        col_sums = (count * table[distance, j, i]).sum(axis=(1, 2))
        row_sums = (count * table[distance, i, j]).sum(axis=(1, 2))
        return KernelCertificate(
            float(np.max(np.abs(col_sums - 1.0))),
            float(np.max(np.abs(row_sums - 1.0))),
            float(np.max(np.abs(table - table.transpose(0, 2, 1)))),
        )
    q = kernel.dense()
    col_dev = float(np.max(np.abs(q.sum(axis=0) - 1.0)))
    row_dev = float(np.max(np.abs(q.sum(axis=1) - 1.0)))
    asym = float(np.max(np.abs(q - q.T)))
    return KernelCertificate(col_dev, row_dev, asym)
