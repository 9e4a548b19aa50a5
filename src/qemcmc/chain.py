"""Metropolis-Hastings chains: transition matrices, sampling, and exact
total-variation mixing times.

Transition matrices use the row orientation p[y, x] = Pr(y -> x).  Diagonals
are always completed from row stochasticity rather than any closed-form
expression, so rejection mass is absorbed exactly.  A chain whose kernel is
invariant under permutations of the spins about the marked state is also
assembled on its pair classes (:func:`_class_chain`) from the measure's
log weights on the N+1 distances, with no 2^N object: the exact gap
(:func:`qemcmc.spectral.spectral_gap_blocks`), the exact mixing time
(:func:`exact_mixing_time`) and the sampled chain (:func:`sample_chain`) all
read that one assembly.  The sampled chain costs O(N) per move, not per
step: a run of rejections is geometric and takes one draw.  Each mixing-time
search carries its row from probe to probe and advances it by cached
squarings.  The dense matrix serves the dense gap and mixing-time
cross-checks.  Both assemblies check the kernel the same way
(:func:`_check_kernel`).
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
    validate_kernel,
    weight_classes,
)

# most moves whose uniforms sample_chain draws at once; its blocks double up
# to this from 1, so a chain that rarely moves draws few rows
_DRAW_BLOCK = 4096
# largest kernel asymmetry a chain is assembled from; the pair-class assembly
# holds the kernel's column sums to it as well
SYMMETRY_TOL = 1e-9


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
    sum can land a few ulps above it."""
    return min(1.0, 0.5 * float(np.abs(p - q).sum()))


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
    classes: :func:`_check_kernel` (read off the table), the clamp, and the
    rejection mass; the measure must be about the kernel's marked state.  No
    2^N object is formed.
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
    """Run the chain n_steps and return the visited configurations.

    The chain is the one :func:`_class_chain` assembles, drawn one move at a
    time.  From x at distance i from the marked state k, the number of
    rejections before the next move is geometric with P(stay) = stay[i]: one
    uniform u draws the whole run by inversion, floor(log(1-u) / log stay[i]),
    capped at the steps left.  The move then draws the pair class (j, t) of
    the next state from the masses count[i, j, t] * move[i, j, t], and y
    uniformly inside its class: t of the i spins where x differs from k keep
    differing, and j - t of the other N - i spins flip.  A distance with no
    move mass is absorbing.  Rejected moves count as steps.
    """
    n = kernel.n_spins
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
            # outside supp(z) flip in, i - t of those inside out
            need, remaining = [j - t, i - t], [n - i, i]
            for b in range(n):
                inside = z >> b & 1
                if u[b + 2] * remaining[inside] < need[inside]:
                    z ^= 1 << b
                    need[inside] -= 1
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

def _first_crossing(tv_at, epsilon, max_steps):
    """First integer t with tv_at(t) <= epsilon, using the monotonicity of d(t)."""
    if tv_at(0) <= epsilon:
        return 0
    lo, t = 0, 1
    while True:
        if tv_at(t) <= epsilon:
            hi = t
            break
        lo = t
        if t >= max_steps:
            raise NoConvergence(
                f"total variation still above {epsilon} after {max_steps} steps"
            )
        t = min(2 * t, max_steps)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tv_at(mid) <= epsilon:
            hi = mid
        else:
            lo = mid
    return hi


def _row_powers(p: np.ndarray, rows: np.ndarray):
    """rows @ p^t as a function of t, for the probes of :func:`_first_crossing`.

    A probe advances the row at the largest t already probed below it by the
    bits of the difference: one product with a cached squaring p^(2^j) per
    set bit, where powering p^t afresh costs about 2 log2(t) matrix products.
    Two rows are carried, the last probe and its base.  A doubling or
    bisection search probes next either above its last probe or between that
    probe and its base, so the next base is one of the two; a probe below
    both would restart from ``rows``.
    """
    squarings = [p]
    carried = {0: rows}

    def at(t):
        nonlocal carried
        base = max((s for s in carried if s <= t), default=0)
        row = carried.get(base, rows)
        carried = {base: row}
        step, j = t - base, 0
        while step:
            if j == len(squarings):
                squarings.append(squarings[-1] @ squarings[-1])
            if step & 1:
                row = row @ squarings[j]
            step >>= 1
            j += 1
        carried[t] = row
        return row

    return at


def exact_mixing_time(kernel: ProposalKernel, measure: GibbsMeasure,
                      epsilon: float, max_steps: int = 10_000_000) -> int:
    """Worst-start mixing time, max over starts x of min{t : d_x(t) <= epsilon},
    of the MH chain of a permutation-invariant kernel, with no 2^N x 2^N matrix.

    The chain is invariant under the permutations of the spins that fix both
    the marked state k and the start x, so its law after t steps from x is
    uniform on each class (a, b) of states y that differ from k in a of the
    w = |x^k| spins where x does and in b of the others.  d_x(t) is then the
    total variation of the chain lumped onto these (w+1)(N-w+1) classes,
    which :func:`_class_chain` gives, and one search runs per distance w.
    Its probes carry the lumped row from one to the next and advance it by
    cached squarings of the lumped chain (:func:`_row_powers`), so a probe
    costs one vector-matrix product per set bit of the step between them.

    The search is O(log t), so ``max_steps`` guards no cost; it marks how
    far the integer t_mix is reproducible.  Each route rounds its powers its
    own way, and the crossing of epsilon moves with that rounding: within
    10^7 steps this route and the dense rows of P^t (the tests' reference)
    agree on every chain the tests draw, while past it a grover chain at
    N = 8 gives 318 958 889 here and 318 958 621 there.
    """
    if not 0 < epsilon:
        raise ValueError("epsilon must be positive")
    move, stay, _ = _class_chain(kernel, measure)
    if epsilon >= 1.0:
        return 0
    n = kernel.n_spins
    log_pi = measure.class_log_weights - measure.log_partition
    worst = 0
    for w in range(n + 1):
        inside, _ = weight_classes(w)
        outside, _ = weight_classes(n - w)
        a, b = np.arange(w + 1), np.arange(n - w + 1)
        dist = a[:, None] + b[None, :]           # distance of class (a, b)
        # move over (a, b, a', b', t1, t2), with overlap t1 inside supp(x^k)
        # and t2 outside it; the total overlap t1 + t2 is dist over (t1, t2)
        pair = move[dist[:, :, None, None, None, None],
                    dist[None, None, :, :, None, None], dist]
        lumped = np.einsum("act,bds,abcdts->abcd", inside, outside, pair)
        size = (w + 1) * (n - w + 1)
        lumped = lumped.reshape(size, size)
        lumped[np.arange(size), np.arange(size)] += stay[dist].ravel()
        log_size = np.log([[math.comb(w, u) * math.comb(n - w, v) for v in b]
                           for u in a])
        pi = np.exp(log_size + log_pi[dist]).ravel()
        start = np.zeros(size)
        start[w * (n - w + 1)] = 1.0             # the class (w, 0) of x
        row_at = _row_powers(lumped, start)

        def tv_at(t):
            return total_variation(row_at(t), pi)

        worst = max(worst, _first_crossing(tv_at, epsilon, max_steps))
    return worst
