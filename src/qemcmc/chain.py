"""Metropolis-Hastings chains: transition matrices, sampling, and exact
total-variation mixing times.

Transition matrices use the row orientation p[y, x] = Pr(y -> x).  Diagonals
are always completed from row stochasticity rather than any closed-form
expression, so rejection mass is absorbed exactly; this dense matrix serves
the cross-checks.  A chain whose kernel is invariant under permutations of
the spins about the marked state is also assembled once on its pair classes
(:func:`_class_chain`, with the same kernel checks), with no 2^N object, and
lumped about the marked state and a start by one builder
(:func:`_lumped_chain`): the exact gap
(:func:`qemcmc.spectral.spectral_gap_blocks`, block 0 at a start on the
marked state), the exact mixing time (every start) and the sampled chain
(:func:`sample_chain`, O(N) per move, not per step) read them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricKernel,
    MismatchedDimensions,
    NegativeDiagonal,
    NoConvergence,
    NotStochastic,
)
from .model import GibbsMeasure
from .proposal import (
    PermutationInvariantKernel,
    ProposalKernel,
    _binomials,
    _check_entries,
    validate_kernel,
    weight_classes,
)

# most moves whose uniforms sample_chain draws at once; its blocks double up
# to this from 1, so a chain that rarely moves draws few rows
_DRAW_BLOCK = 4096
# largest kernel asymmetry a chain is assembled from; the pair-class assembly
# holds the kernel's column sums to it as well
SYMMETRY_TOL = 1e-9
# the step cap of exact_mixing_time: how far its integer t_mix is reproducible
_MAX_STEPS = 10_000_000


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    p: np.ndarray
    stationary: GibbsMeasure
    n_spins: int

    @property
    def dim(self) -> int:
        return 1 << self.n_spins


@dataclass
class ChainState:
    current: int
    step_count: int
    rng_stream: np.random.Generator


def make_chain(start: int, seed: int) -> ChainState:
    """Fresh chain with a counter-based (Philox) stream keyed by seed."""
    return ChainState(current=start, step_count=0,
                      rng_stream=np.random.Generator(np.random.Philox(seed)))


def _check_kernel(kernel: ProposalKernel, measure: GibbsMeasure) -> None:
    """The checks both chain assemblies make before they read the kernel:
    it acts on the measure's states, and its certificate holds symmetry and
    column sums to ``SYMMETRY_TOL`` (a NaN fails both)."""
    n = kernel.n_spins
    if kernel.dim != measure.dim:
        raise MismatchedDimensions(
            f"kernel dim {kernel.dim} does not match measure dim {measure.dim}"
        )
    cert = validate_kernel(kernel)
    if not cert.max_asymmetry <= SYMMETRY_TOL:
        raise AsymmetricKernel(
            f"kernel asymmetry {cert.max_asymmetry:.3e} exceeds "
            f"{SYMMETRY_TOL:.1e} at N = {n}"
        )
    if not cert.max_column_deviation <= SYMMETRY_TOL:
        raise NotStochastic(
            f"kernel column sums deviate by {cert.max_column_deviation:.3e}, "
            f"more than {SYMMETRY_TOL:.1e}, at N = {n}"
        )


def build_transition_matrix(kernel: ProposalKernel,
                            measure: GibbsMeasure) -> TransitionMatrix:
    """Assemble P(y,x) = Q(x|y) * A(x|y) with the diagonal fixed by row sums.

    The kernel must be symmetric and stochastic (:func:`_check_kernel`) so
    that acceptance reduces to the energy ratio and detailed balance holds by
    construction.
    """
    _check_kernel(kernel, measure)
    lw = measure.log_weights
    # acceptance[y, x] = min(1, pi(x)/pi(y)) via log weights
    accept = np.exp(np.minimum(0.0, lw[None, :] - lw[:, None]))
    p = kernel.dense().T * accept
    np.fill_diagonal(p, 0.0)
    off_mass = p.sum(axis=1)
    diag = 1.0 - off_mass
    if np.min(diag) < -1e-10:
        raise NegativeDiagonal(
            f"rejection mass {np.min(diag):.3e} negative: defective kernel"
        )
    np.fill_diagonal(p, np.clip(diag, 0.0, None))
    return TransitionMatrix(p=p, stationary=measure, n_spins=measure.n_spins)


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Half the l1 distance, clamped to 1: for disjoint supports the rounded
    sum can land a few ulps above it.  The absolute value is taken in place
    on the difference, so a 2^N pair holds one temporary."""
    diff = p - q
    return min(1.0, 0.5 * float(np.abs(diff, out=diff).sum()))


# ---------------------------------------------------------------------------
# the chain on its pair classes

def _class_chain(kernel: PermutationInvariantKernel, measure: GibbsMeasure):
    """The Metropolis-Hastings chain of ``kernel`` on its pair classes, the
    class twin of :func:`build_transition_matrix`.

    For x at distance i from the marked state and y != x at distance j, with
    overlap t, ``move[i, j, t]`` is P(x,y) = Q(y|x) min(1, pi_j/pi_i); it is 0
    on the class y = x, whose rejection mass is ``stay[i]``.  ``x`` holds the
    entries x^t_{i,j} of L = D^1/2 (I - P) D^-1/2 over (i, j, t): off the
    diagonal -Q(y|x) exp(-|lw_i - lw_j|/2), which cannot overflow; on it, the
    off-diagonal row mass; lw_i is the measure's class log weight at distance
    i.  The checks of :func:`build_transition_matrix` hold here on the
    classes, and the measure must be about the kernel's marked state.
    """
    if not isinstance(kernel, PermutationInvariantKernel):
        raise TypeError("the class route needs a PermutationInvariantKernel, "
                        f"not {type(kernel).__name__}")
    n = kernel.n_spins
    _check_kernel(kernel, measure)
    if measure.marked != kernel.marked:
        raise ValueError(f"measure marks state {measure.marked}, the kernel "
                         f"state {kernel.marked}")
    lw = measure.class_log_weights
    count, distance = weight_classes(n)
    w = np.arange(n + 1)
    i, j = w[:, None, None], w[None, :, None]
    moves = count > 0
    moves[w, w, w] = False                       # y = x
    q = np.where(moves, kernel.table()[distance, j, i], 0.0)   # Q(y|x)
    step = lw[None, :] - lw[:, None]
    move = q * np.exp(np.minimum(0.0, step))[:, :, None]
    off_mass = np.einsum("ijt,ijt->ij", count, move).sum(axis=1)
    rejection = 1.0 - off_mass
    if np.min(rejection) < -1e-10:
        raise NegativeDiagonal(
            f"rejection mass {np.min(rejection):.3e} negative: defective kernel"
        )
    x = -q * np.exp(-0.5 * np.abs(step))[:, :, None]
    x[w, w, w] = off_mass
    return move, np.clip(rejection, 0.0, None), x


def sample_chain(state: ChainState, kernel: ProposalKernel,
                 measure: GibbsMeasure, n_steps: int) -> np.ndarray:
    """Run the chain n_steps and return the visited configurations, a path
    that keeps the size rule (checked before any draw).  The chain is the
    one :func:`_class_chain` assembles, drawn one move at a time.  From x at
    distance i from the marked state k, the number of rejections before the
    next move is geometric with P(stay) = stay[i]: one uniform u draws the
    whole run by inversion, floor(log(1-u) / log stay[i]), capped at the
    steps left.  The move then draws the pair class (j, t) of the next state
    from the masses count[i, j, t] * move[i, j, t], and y uniformly inside
    its class: t of the i spins where x differs from k keep differing, and
    j - t of the other N - i spins flip.  A distance with no move mass is
    absorbing.  Rejected moves count as steps.
    """
    n = kernel.n_spins
    _check_entries("sample path", n, n_steps)
    move, _, _ = _class_chain(kernel, measure)
    # (i, j * (N+1) + t); the class y = x holds no move mass
    mass = (weight_classes(n)[0] * move).reshape(n + 1, -1)
    cdf = np.cumsum(mass, axis=1).tolist()
    # a uniform rounded onto the total mass still lands on a positive class
    last = [int(row.nonzero()[0][-1]) if row.any() else -1 for row in mass]
    off = [row[-1] for row in cdf]              # 1 - stay[i]
    # log stay[i], accurate when stay[i] is close to 1; 0 marks an absorbing
    # distance.  A distance with off >= 1 always moves and never reads it.
    log_stay = [math.log1p(-o) if o < 1.0 else -math.inf for o in off]
    rng = state.rng_stream
    z = int(state.current ^ kernel.marked)     # the spins where x differs from k
    i = z.bit_count()
    # the path as runs: values[r] held for counts[r] steps; z has held for
    # `held` steps so far
    values, counts = [], []
    left, held, block = n_steps, 0, 1
    while left:
        for u in rng.random((min(block, left), n + 2)).tolist():
            # the rejections before the next move, by inversion; there are
            # none when u < 1 - stay[i], which needs no logarithm
            if u[0] < off[i]:
                run = 0
            elif log_stay[i] == 0.0:
                run = left
            else:
                run = int(min(left, math.log1p(-u[0]) / log_stay[i]))
            if run == left:
                held += left
                left = 0
                break
            values.append(z)
            counts.append(held + run)
            left -= run + 1
            held = 1
            j, t = divmod(bisect_right(cdf[i], u[1] * off[i], 0, last[i]),
                          n + 1)
            # selection sampling, one uniform per spin: j - t of the spins
            # outside supp(z) flip in, i - t of those inside out; once both
            # are placed no later spin can flip
            need, remaining = [j - t, i - t], [n - i, i]
            for b in range(n):
                inside = z >> b & 1
                if u[b + 2] * remaining[inside] < need[inside]:
                    z ^= 1 << b
                    need[inside] -= 1
                    if not (need[0] or need[1]):
                        break
                remaining[inside] -= 1
            i = j
        block = min(2 * block, _DRAW_BLOCK)
    values.append(z)
    counts.append(held)
    visited = np.repeat(np.array(values, dtype=np.int64), counts)
    visited ^= kernel.marked
    state.current = int(z ^ kernel.marked)
    state.step_count += n_steps
    return visited


# ---------------------------------------------------------------------------
# exact mixing time

def _squaring(squarings: list, j: int) -> np.ndarray:
    """p^(2^j) from the cache [p, p^2, p^4, ...], squared up to j on first
    use."""
    while len(squarings) <= j:
        squarings.append(squarings[-1] @ squarings[-1])
    return squarings[j]


def _first_crossing(p: np.ndarray, rows: np.ndarray, tv, epsilon: float,
                    max_steps: int, t: int = 0) -> int:
    """First integer t' >= t with tv(rows @ p^t') <= epsilon, using the
    monotonicity of d(t): max(t, the first crossing).  NoConvergence if that
    exceeds ``max_steps``.

    Binary lifting over cached squarings p^(2^j).  The held row starts at
    step t, formed over t's binary digits, and one probe there settles a
    crossing at or before t.  While d(t) > epsilon the held row then
    advances by the largest power of two not above t (steps 1, 1, 2, 4, ...
    from t = 0), and from the last held row each lower power of two is taken
    when d stays above epsilon.  Every probe is one product of the held row
    with one squaring.
    """
    squarings = [p]
    for k in range(t.bit_length() - 1, -1, -1):
        if t >> k & 1:
            rows = rows @ _squaring(squarings, k)
    if tv(rows) <= epsilon:
        return t
    while t < max_steps:             # d(t) > epsilon at the held row
        j = max(t.bit_length() - 1, 0)
        row = rows @ _squaring(squarings, j)
        if tv(row) <= epsilon:       # crossed within 2^j steps
            for k in range(j - 1, -1, -1):
                row = rows @ squarings[k]
                if tv(row) > epsilon:
                    rows, t = row, t + (1 << k)
            if t < max_steps:
                return t + 1
            break
        rows, t = row, t + (1 << j)
    raise NoConvergence(
        f"total variation still above {epsilon} after {max_steps} steps"
    )


def _lumped_chain(move: np.ndarray, stay: np.ndarray, measure: GibbsMeasure,
                  w: int):
    """The chain of :func:`_class_chain` (its ``move`` and ``stay``) lumped
    about the marked state k and a start x at distance w, and its log pi, over
    the classes (a, b) in row order: the states that differ from k in a of
    the w spins where x does and in b of the others.  The chain is invariant
    under the permutations that fix k and x, so the lumping is exact; at
    w = 0 or N the classes are the N+1 distances from k."""
    n = move.shape[0] - 1
    # hankel[i, j, t1, t2] = move[i, j, t1 + t2] over t1 <= w, t2 <= N - w:
    # a strided view, every read inside move as t1 + t2 <= N
    hankel = np.lib.stride_tricks.as_strided(
        move, (n + 1, n + 1, w + 1, n - w + 1), move.strides + move.strides[2:],
        writeable=False)
    a, b = np.arange(w + 1), np.arange(n - w + 1)
    dist = a[:, None] + b[None, :]               # distance of class (a, b)
    # move over (a, b, a', b', t1, t2), with overlap t1 inside supp(x^k)
    # and t2 outside it
    pair = hankel[dist[:, :, None, None], dist]
    lumped = np.einsum("act,bds,abcdts->abcd", weight_classes(w)[0],
                       weight_classes(n - w)[0], pair).reshape(dist.size, -1)
    lumped.flat[::dist.size + 1] += stay[dist].ravel()
    binom = _binomials(n)
    log_size = np.log(np.outer(binom[w, :w + 1], binom[n - w, :n - w + 1]))
    log_pi = measure.class_log_weights - measure.log_partition
    return lumped, (log_size + log_pi[dist]).ravel()


def exact_mixing_time(kernel: ProposalKernel, measure: GibbsMeasure,
                      epsilon: float) -> int:
    """Worst-start mixing time, max over starts x of min{t : d_x(t) <= epsilon},
    of the MH chain of a permutation-invariant kernel, with no 2^N x 2^N matrix.

    d_x(t) is the total variation of the chain lumped about the marked state
    k and x (:func:`_lumped_chain`), which depends on x only through
    w = |x^k|.  One search (:func:`_first_crossing`) runs in full from
    w = N, each probe one vector-matrix product with a cached squaring of
    the lumped chain, and gives the running worst T.  Every other start's
    search begins at T: d_w is non-increasing, so d_w(T) <= epsilon settles
    t_w <= T with one total variation, and only otherwise does the search
    lift past T and raise it; the order of the starts decides only how many
    searches run.  The largest gather, (w+1)^3 (N-w+1)^3 entries at
    w = N/2, limits N to 30.

    A chain that has not mixed within ``_MAX_STEPS`` raises NoConvergence:
    the cap marks how far the integer t_mix is reproducible, as each route
    rounds its powers its own way.  Within 10^7 steps this route and the
    dense rows of P^t (the tests' reference) agree on every chain the tests
    draw; past it a grover chain at N = 8 gives 318 958 889 here and
    318 958 621 there.
    """
    if not 0 < epsilon:
        raise ValueError("epsilon must be positive")
    n = kernel.n_spins
    _check_entries("mixing-time gather", n,
                   ((n // 2 + 1) * (n - n // 2 + 1)) ** 3)
    move, stay, _ = _class_chain(kernel, measure)
    worst = 0
    for w in range(n, -1, -1):
        lumped, log_pi = _lumped_chain(move, stay, measure, w)
        pi = np.exp(log_pi)
        start = np.zeros(pi.size)
        start[w * (n - w + 1)] = 1.0             # the class (w, 0) of x
        # d_w is non-increasing: one probe at the running worst settles
        # t_w <= worst, and only a later crossing runs the search past it
        worst = _first_crossing(
            lumped, start, lambda row: total_variation(row, pi), epsilon,
            _MAX_STEPS, worst)
    return worst
