"""Proposal kernels Q(x|y) and their validation certificates.

Orientation convention: the second argument is the source state, so a dense
kernel is column-indexed by the current configuration and every column is a
probability distribution over proposed configurations.

A kernel invariant under permutations of the spins about the marked state k
is carried as its table over the pair classes (i, j, t) of
:func:`weight_classes`: Q(y|x) for x at distance i from k, y at distance j,
and t spins where both differ from k.  The chain, the certificate (in
O(N^3)) and the marked-state bound read it as stored; only the two 2^N
gathers, a column and the dense matrix, form |x^y| = i + j - 2t to find
each state pair's class.

Every large array of the package keeps one size rule, :func:`_check_entries`:
no more than 2^24 float64 entries (128 MiB).  So N <= 12 for a 2^N x 2^N
matrix (a dense kernel, the dense Hamiltonian, the dense gap), N <= 24 for a
2^N vector (a column, a Gibbs vector), N <= 255 for a four-value or
single-flip kernel table, and N <= 202 and 139 for the transverse kernel
table and the six (N+1)^3 arrays of the symmetry-block routes (the gap and
the mixing time) together.
The binomials C(n, b) are exact rows, :func:`_binomial_row`, which the
cached :func:`_binomials` stacks.  The pair counts C(i, t) C(m - i, j - t)
have one construction, :func:`_pair_factors`, for the pair classes and the
weights of the symmetry blocks and of their inverse.
"""

from __future__ import annotations

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


def _clamped(a: np.ndarray, n_spins: int, out=None) -> np.ndarray:
    """``a`` with entries in [_CLAMP_FLOOR, 0) set to 0, written to ``out``
    (``a`` itself to clamp in place); below the floor, NegativeProbability."""
    if np.min(a) < _CLAMP_FLOOR:
        raise NegativeProbability(
            f"kernel entry {np.min(a):.3e} below clamp floor at N = {n_spins}")
    return np.clip(a, 0.0, None, out=out)


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
            self._dense = self._build_dense()
        return self._dense


class DenseKernel(ProposalKernel):
    """A kernel given as its matrix, kept as one array clamped when built."""

    def __init__(self, matrix: np.ndarray, n_spins: int):
        matrix = np.asarray(matrix, dtype=float)
        super().__init__(n_spins)
        if matrix.shape != (self.dim, self.dim):
            raise MismatchedDimensions(
                f"expected {(self.dim, self.dim)} matrix, got {matrix.shape}"
            )
        self._dense = _clamped(matrix, n_spins)


def _binomial_row(n: int) -> np.ndarray:
    """C(n, b) over b in [0, n], each the nearest float64, by the exact
    integer recurrence C(n, b + 1) = C(n, b) (n - b) / (b + 1)."""
    row, c = [1.0], 1
    for b in range(n):
        c = c * (n - b) // (b + 1)
        row.append(float(c))
    return np.array(row)


@lru_cache(maxsize=None)
def _binomials(n_spins: int) -> np.ndarray:
    """Read-only C(a, b) over a, b in [0, N]: the rows of
    :func:`_binomial_row`, 0 past b = a."""
    table = np.zeros((n_spins + 1, n_spins + 1))
    for a in range(n_spins + 1):
        table[a, :a + 1] = _binomial_row(a)
    table.flags.writeable = False
    return table


def _pair_factors(binom: np.ndarray, m: int):
    """The two factors of the pair counts of m spins over (i, j, t) in
    [0, m]^3, read from ``binom``, a table of :func:`_binomials` of order at
    least m: C(i, t), shape (m + 1, 1, m + 1), and C(m - i, j - t), 0 at
    j < t, a read-only (m + 1)^3 strided view of m + 1 padded rows."""
    # padded[a, c] = C(a, m - c), 0 past c = m: C(m - i, j - t) sits at
    # [m - i, m - j + t], so one view, contiguous along t, holds it
    padded = np.zeros((m + 1, 2 * m + 1))
    padded[:, :m + 1] = binom[:m + 1, m::-1]
    row, col = padded.strides
    # from padded[m, m]; np.ndarray forms the view without as_strided's cost
    rest = np.ndarray((m + 1,) * 3, padded.dtype, padded, m * (row + col),
                      (-row, -col, col))
    rest.flags.writeable = False
    return binom[:m + 1, None, :m + 1], rest


@lru_cache(maxsize=1)
def weight_classes(n_spins: int) -> np.ndarray:
    """Pair classes about the marked state, over (i, j, t).

    For x at distance i from the marked state, ``count[i, j, t]`` is the
    number C(i, t) C(N - i, j - t) of states y at distance j that differ
    from the marked state in t of the i spins where x does; a class no pair
    realizes counts 0.  Every pair of the class is |x^y| = i + j - 2t apart.
    Only the table of the last N asked for is kept.
    """
    inside, outside = _pair_factors(_binomials(n_spins), n_spins)
    count = inside * outside
    count.flags.writeable = False
    return count


class PermutationInvariantKernel(ProposalKernel):
    """Kernel invariant under permutations of the spins about a marked state k.

    Q(y|x) depends only on the pair class (i, j, t) of x and y (see
    :func:`weight_classes`), so the (N+1)^3 table ``table[i, j, t]`` = Q(y|x)
    holds every entry.
    """

    def __init__(self, n_spins, marked, table):
        super().__init__(n_spins)
        if not 0 <= marked < self.dim:
            raise IndexError(f"marked index {marked} out of range")
        self.marked = marked
        self._raw = table
        self._table = None

    def _raw_table(self):
        """The table as given, read once by :meth:`table`."""
        return self._raw

    def table(self) -> np.ndarray:
        """table[i, j, t] = Q(y|x), checked once.  Classes no pair of states
        realizes read 0, and entries are clamped, so a column or the dense
        matrix gathered from it needs no clamp of its own; once it is built,
        the kernel keeps no reference to the raw table."""
        if self._table is None:
            n = self.n_spins
            table = np.asarray(self._raw_table(), dtype=float)
            if table.shape != (n + 1,) * 3:
                raise MismatchedDimensions(
                    f"expected {(n + 1,) * 3} table, got {table.shape}"
                )
            table = np.where(weight_classes(n) > 0, table, 0.0)
            self._table = _clamped(table, n, out=table)
            self._raw = None
        return self._table

    def column(self, y):
        """Q(.|y), gathered from the table in O(2^N)."""
        _check_entries("proposal column", self.n_spins, self.dim)
        if not 0 <= y < self.dim:
            raise IndexError(f"configuration {y} out of range")
        x = np.arange(self.dim, dtype=np.int32)
        i = int(y ^ self.marked).bit_count()
        j = np.bitwise_count(x ^ self.marked)
        # 2t = i + j - |x^y|
        return self.table()[i, j, (i + j - np.bitwise_count(x ^ y)) >> 1]

    def _build_dense(self):
        """Gather the table in blocks of about 2^20 entries: the one place a
        table kernel densifies."""
        n, dim = self.n_spins, self.dim
        _check_entries("dense kernel", n, dim * dim)
        table = self.table().ravel()
        x = np.arange(dim, dtype=np.int32)
        w = np.bitwise_count(x ^ self.marked).astype(np.int32)
        # the source y (a column) at i, the proposal x (a row) at j
        i_part, j_part = w * (n + 1) ** 2, w * (n + 1)
        q = np.empty((dim, dim))
        rows = max(1, (1 << 20) // dim)
        for x0 in range(0, dim, rows):
            block = slice(x0, x0 + rows)
            # flat table index i*(n+1)^2 + j*(n+1) + t, 2t = i + j - |x^y|
            idx = w[block, None] + w
            idx -= np.bitwise_count(x[block, None] ^ x)
            idx >>= 1
            idx += j_part[block, None]
            idx += i_part
            # every index is in range: "clip" writes into q unbuffered
            np.take(table, idx, out=q[block], mode="clip")
        return q


class StructuredMarkedKernel(PermutationInvariantKernel):
    """Kernel with the marked-state orbit structure: four distinct values.

    ``off_marked`` is Q(k|x) = Q(x|k) for any unmarked x, ``off_unmarked`` is
    Q(x|y) for distinct unmarked x, y, and the two ``stay`` values sit on the
    diagonal.  The table's size rule is checked here, and the table alone
    holds them once :meth:`table` first fills it (table[0, 1, 0] is
    ``off_marked``).
    """

    def __init__(self, n_spins, marked, off_marked, off_unmarked,
                 stay_marked, stay_unmarked):
        _check_table(n_spins)
        super().__init__(n_spins, marked, None)
        self._values = (off_marked, off_unmarked, stay_marked, stay_unmarked)

    def _raw_table(self):
        off_marked, off_unmarked, stay_marked, stay_unmarked = self._values
        w = np.arange(self.n_spins + 1)
        table = np.full((self.n_spins + 1,) * 3, float(off_unmarked))
        table[0] = table[:, 0] = off_marked       # x = k or y = k
        table[w, w, w] = stay_unmarked            # y = x
        table[0, 0, 0] = stay_marked
        return table


def uniform_kernel(n_spins: int) -> ProposalKernel:
    """Uniform proposal Q(x|y) = 2**-N for all x, y, self-proposal included."""
    dim = 1 << n_spins
    return StructuredMarkedKernel(n_spins, 0, 1.0 / dim, 1.0 / dim,
                                  1.0 / dim, 1.0 / dim)


def single_flip_kernel(n_spins: int) -> PermutationInvariantKernel:
    """Local proposal: flip one uniformly chosen spin.

    Invariant under permutations of the spins about every state; carried
    about state 0 on the classes |x^y| = 1 apart: y one spin further from
    state 0 than x (table[i, i + 1, i]) or one nearer (table[i + 1, i, i]),
    each 1/N, and 0 elsewhere.
    """
    _check_table(n_spins)
    table = np.zeros((n_spins + 1,) * 3)
    w = np.arange(n_spins)
    table[w, w + 1, w] = table[w + 1, w, w] = 1.0 / n_spins
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

    A :class:`PermutationInvariantKernel` is measured on its table: a column
    sum (source x at distance i) is a sum over the pair classes (i, j, t),
    and a row sum over the same classes of the transposed table, whose entry
    (i, j, t) is Q(x|y) for y at distance j; the asymmetry is that of the
    table against its transpose.
    """
    if isinstance(kernel, PermutationInvariantKernel):
        table = kernel.table()
        count = weight_classes(kernel.n_spins)
        reverse = table.transpose(1, 0, 2)
        col_sums = (count * table).sum(axis=(1, 2))
        row_sums = (count * reverse).sum(axis=(1, 2))
        asym = table - reverse
        return KernelCertificate(
            float(np.max(np.abs(col_sums - 1.0))),
            float(np.max(np.abs(row_sums - 1.0))),
            float(np.max(np.abs(asym, out=asym))),
        )
    q = kernel.dense()
    col_dev = float(np.max(np.abs(q.sum(axis=0) - 1.0)))
    row_dev = float(np.max(np.abs(q.sum(axis=1) - 1.0)))
    asym = float(np.max(np.abs(q - q.T)))
    return KernelCertificate(col_dev, row_dev, asym)
