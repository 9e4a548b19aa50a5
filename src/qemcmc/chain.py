"""Metropolis-Hastings chains: transition matrices, sampling, and exact
total-variation mixing times.

Transition matrices use the row orientation p[y, x] = Pr(y -> x).  Diagonals
are always completed from row stochasticity rather than any closed-form
expression, so rejection mass is absorbed exactly; this dense matrix serves
the cross-checks.  A chain whose kernel is invariant under permutations of
the spins about the marked state is also assembled once on its pair classes
(:func:`_class_chain`, with the same kernel checks), from the kernel's table
over those classes as stored and with no 2^N object, with the distance
chain, its lumping onto the N+1 distances from the marked state: the exact
gap (:func:`qemcmc.spectral.spectral_gap_blocks`, block 0's Dirichlet
forms), the exact mixing time (every start, from the distance chain; a cut
of w >= 1 spins lumped by :func:`_lumped_chain` only where that chain's
bound leaves its two starts open) and the sampled chain
(:func:`sample_chain`, O(N) per move, not per step) read them.  The mixing
time powers a chain from its row-rescaled squarings (:func:`_squaring`).
The sampled chain draws its uniforms one at a time, as it uses them, from
the standard library's seeded Mersenne Twister (``random.Random``).
"""

from __future__ import annotations

import math
import operator
import random
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
    _pair_factors,
    validate_kernel,
    weight_classes,
)

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
    rng_stream: random.Random


def make_chain(start: int, seed: int) -> ChainState:
    """Fresh chain with the stream ``random.Random(seed)``, whose sequence
    Python keeps across versions for an integer seed; a negative seed, which
    the stream would read as -seed, is a ValueError."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"chain seed must be non-negative, not {seed}")
    return ChainState(current=start, step_count=0,
                      rng_stream=random.Random(seed))


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
    """Half the l1 distance, clamped to 1 (for disjoint supports the rounded
    sum can land a few ulps above it); of a stack of rows p, the largest.
    |p - q| is taken in place, so a 2^N pair holds one temporary."""
    diff = p - q
    return min(1.0, 0.5 * float(np.abs(diff, out=diff).sum(-1).max()))


# ---------------------------------------------------------------------------
# the chain on its pair classes

def _class_chain(kernel: PermutationInvariantKernel, measure: GibbsMeasure):
    """The Metropolis-Hastings chain of ``kernel`` on its pair classes, the
    class twin of :func:`build_transition_matrix`.

    For x at distance i from the marked state and y != x at distance j, with
    overlap t, ``move[i, j, t]`` is P(x,y) = Q(y|x) min(1, pi_j/pi_i); it is 0
    on the class y = x, whose rejection mass is ``stay[i]``.  ``distance`` is
    the chain lumped onto the N+1 distances, sum_t count[i, j, t] move[i, j, t]
    plus ``stay`` on its diagonal, and ``log_pi`` its log C(N, i) + (lw_i -
    log Z).  ``x`` holds the entries x^t_{i,j} of L = D^1/2 (I - P) D^-1/2
    over (i, j, t): off the diagonal -Q(y|x) exp(-|lw_i - lw_j|/2), which
    cannot overflow; on it, the off-diagonal row mass; lw_i is the measure's
    class log weight at distance i.  The checks of
    :func:`build_transition_matrix` hold here on the classes, and the measure
    must be about the kernel's marked state.
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
    w = np.arange(n + 1)
    q = kernel.table().copy()                    # Q(y|x)
    q[w, w, w] = 0.0                             # y = x
    step = lw[None, :] - lw[:, None]
    move = q * np.exp(np.minimum(0.0, step))[:, :, None]
    distance = np.einsum("ijt,ijt->ij", weight_classes(n), move)
    off_mass = distance.sum(axis=1)
    stay = 1.0 - off_mass
    if np.min(stay) < -1e-10:
        raise NegativeDiagonal(
            f"rejection mass {np.min(stay):.3e} negative: defective kernel"
        )
    distance[w, w] += np.clip(stay, 0.0, None, out=stay)
    log_pi = np.log(_binomials(n)[n]) + (lw - measure.log_partition)
    x = np.negative(q, out=q)                   # q's buffer holds x
    x *= np.exp(-0.5 * np.abs(step))[:, :, None]
    x[w, w, w] = off_mass
    return move, stay, x, distance, log_pi


def sample_chain(state: ChainState, kernel: ProposalKernel,
                 measure: GibbsMeasure, n_steps: int) -> np.ndarray:
    """Run the chain n_steps and return the visited configurations, a path
    that keeps the size rule (checked before any draw).  The chain is the
    one :func:`_class_chain` assembles, drawn one move at a time.  From x at
    distance i from the marked state k, the number of rejections before the
    next move is geometric with P(stay) = stay[i]: one uniform u draws the
    whole run by inversion, floor(log(1-u) / log stay[i]), capped at the
    steps left.  The move then draws the pair class (j, t) of the next state
    from the masses count[i, j, t] * move[i, j, t], with a second uniform,
    and y uniformly inside its class, with one uniform per spin examined:
    t of the i spins where x differs from k keep differing, and j - t of the
    other N - i spins flip.  Each uniform is drawn from the chain's
    ``random.Random`` stream as it is used.  A distance with no move mass is
    absorbing.  Rejected moves count as steps.
    """
    n = kernel.n_spins
    _check_entries("sample path", n, n_steps)
    move, *_ = _class_chain(kernel, measure)
    # (i, j * (N+1) + t); the class y = x holds no move mass
    mass = (weight_classes(n) * move).reshape(n + 1, -1)
    cdf = np.cumsum(mass, axis=1).tolist()
    # a uniform rounded onto the total mass still lands on a positive class
    last = [int(row.nonzero()[0][-1]) if row.any() else -1 for row in mass]
    off = [row[-1] for row in cdf]              # 1 - stay[i]
    # log stay[i], accurate when stay[i] is close to 1; 0 marks an absorbing
    # distance.  A distance with off >= 1 always moves and never reads it.
    log_stay = [math.log1p(-o) if o < 1.0 else -math.inf for o in off]
    uniform = state.rng_stream.random
    z = int(state.current ^ kernel.marked)     # the spins where x differs from k
    i = z.bit_count()
    # the path as runs: values[r] held for counts[r] steps; z has held for
    # `held` steps so far
    values, counts = [], []
    left, held = n_steps, 0
    while left:
        # the rejections before the next move, by inversion; there are none
        # when u < 1 - stay[i], which needs no logarithm
        u = uniform()
        if u < off[i]:
            run = 0
        elif log_stay[i] == 0.0:
            run = left
        else:
            run = int(min(left, math.log1p(-u) / log_stay[i]))
        if run == left:
            held += left
            break
        values.append(z)
        counts.append(held + run)
        left -= run + 1
        held = 1
        j, t = divmod(bisect_right(cdf[i], uniform() * off[i], 0, last[i]),
                      n + 1)
        # selection sampling, one uniform per spin: j - t of the spins
        # outside supp(z) flip in, i - t of those inside out; once both are
        # placed no later spin can flip
        need, remaining = [j - t, i - t], [n - i, i]
        for b in range(n):
            inside = z >> b & 1
            if uniform() * remaining[inside] < need[inside]:
                z ^= 1 << b
                need[inside] -= 1
                if not (need[0] or need[1]):
                    break
            remaining[inside] -= 1
        i = j
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
    use, each square's rows scaled back to sum 1 as the exact power's are."""
    while len(squarings) <= j:
        squarings.append(squarings[-1] @ squarings[-1])
        squarings[-1] /= squarings[-1].sum(1, keepdims=True)
    return squarings[j]


def _power_rows(squarings: list, rows: np.ndarray, t: int) -> np.ndarray:
    """rows @ p^t over t's binary digits, from :func:`_squaring`'s cache."""
    for k in range(t.bit_length() - 1, -1, -1):
        if t >> k & 1:
            rows = rows @ _squaring(squarings, k)
    return rows


def _first_crossing(squarings: list, rows: np.ndarray, pi: np.ndarray,
                    epsilon: float, t: int = 0) -> int:
    """First integer t' >= t with d(t') = total_variation(rows @ p^t', pi)
    <= epsilon, p the chain of the cache ``squarings`` (:func:`_squaring`):
    max(t, the first crossing), as d is non-increasing.  NoConvergence if
    that exceeds ``_MAX_STEPS``.

    Binary lifting.  The held rows start at step t (:func:`_power_rows`),
    and one probe there settles a crossing at or before t.  While d > epsilon
    they then advance by the largest power of two not above t (steps 1, 1,
    2, 4, ... from t = 0), and from the last held rows each lower power of
    two is taken when d stays above epsilon.  Every probe is one product of
    the held rows with one cached squaring.
    """
    rows = _power_rows(squarings, rows, t)
    if total_variation(rows, pi) <= epsilon:
        return t
    while t < _MAX_STEPS:            # d(t) > epsilon at the held rows
        j = max(t.bit_length() - 1, 0)
        row = rows @ _squaring(squarings, j)
        if total_variation(row, pi) <= epsilon:   # crossed within 2^j steps
            for k in range(j - 1, -1, -1):
                row = rows @ squarings[k]
                if total_variation(row, pi) > epsilon:
                    rows, t = row, t + (1 << k)
            if t < _MAX_STEPS:
                return t + 1
            break
        rows, t = row, t + (1 << j)
    raise NoConvergence(
        f"total variation still above {epsilon} after {_MAX_STEPS} steps"
    )


def _lumped_chain(move: np.ndarray, stay: np.ndarray, measure: GibbsMeasure,
                  w: int):
    """The chain of :func:`_class_chain` (its ``move`` and ``stay``) lumped
    about the marked state k and a cut of the spins into w and N - w, and its
    log pi, over the classes (a, b) in row order: the states that differ
    from k in a of the w spins and in b of the others.  The chain is
    invariant under the permutations that fix k and the cut, so the lumping
    is exact; the cut at N - w is the same chain with (a, b) read as (b, a),
    and the cut at 0 or N is the distance chain of :func:`_class_chain`."""
    n = move.shape[0] - 1
    # hankel[i, j, t1, t2] = move[i, j, t1 + t2] over t1 <= w, t2 <= N - w:
    # a strided view of the contiguous move, every read inside it as
    # t1 + t2 <= N
    hankel = np.ndarray((n + 1, n + 1, w + 1, n - w + 1), move.dtype, move,
                        0, move.strides + move.strides[2:])
    hankel.flags.writeable = False
    dist = np.add.outer(np.arange(w + 1), np.arange(n - w + 1))   # a + b
    # move over (a, b, a', b', t1, t2), with overlap t1 inside the w spins
    # and t2 outside them
    pair = hankel[dist[:, :, None, None], dist]
    binom = _binomials(n)
    # the cached weight_classes is N's alone: a cut's counts are formed here
    counts = [np.multiply(*_pair_factors(binom, m)) for m in (w, n - w)]
    lumped = np.einsum("act,bds,abcdts->abcd", *counts, pair)
    lumped.flat[::dist.size + 1] += stay[dist].ravel()
    log_size = np.log(np.outer(binom[w, :w + 1], binom[n - w, :n - w + 1]))
    log_pi = measure.class_log_weights - measure.log_partition
    return lumped.reshape(dist.size, -1), (log_size + log_pi[dist]).ravel()


def _distance_bound(squarings: list, pi: np.ndarray, t: int):
    """U_x(t) >= d_x(t) for a start x at each distance from the marked state
    k, from the distance chain's cache of :func:`_squaring` and its pi
    (both of :func:`_class_chain`): d = sum_y (pi_y - P^t(x, y))^+ is read
    exactly on the one-state classes k and its antipode, and every other y
    adds at most pi_y."""
    p_t = _power_rows(squarings, np.eye(pi.size), t)
    return (np.maximum(pi[0] - p_t[:, 0], 0.0)
            + np.maximum(pi[-1] - p_t[:, -1], 0.0) + pi[1:-1].sum())


def exact_mixing_time(kernel: ProposalKernel, measure: GibbsMeasure,
                      epsilon: float) -> int:
    """Worst-start mixing time, max over starts x of min{t : d_x(t) <= epsilon},
    of the MH chain of a permutation-invariant kernel, with no 2^N x 2^N matrix.

    d_x(t) is the total variation of the chain lumped about the marked state
    k and the cut {supp(x^k), its complement} (:func:`_lumped_chain`; at
    w = 0, the distance chain); the starts at distance w and N - w share that
    chain, so the cuts w = 0..N/2 cover every start.  One search
    (:func:`_first_crossing`) runs in full on cut 0 (distances 0 and N), each
    probe one product of the two start rows with a cached squaring, d the
    larger of their total variations, and gives the running worst T.  d is
    non-increasing, so a start with d(T) <= epsilon is settled at T.  Every
    other cut is first bounded at T from the distance chain's squarings
    (:func:`_distance_bound`, formed again whenever T rises): when both its
    starts' bounds are within epsilon it is settled and never built.
    Otherwise its chain is built and its search begins at T, where one probe
    settles both starts, and only a later crossing lifts the search past T
    and raises it.  The bound decides only which cuts are built, and the
    order of the cuts only how many searches run.  Any cut may be built, so
    the largest gather, (w+1)^3 (N-w+1)^3 entries at w = N/2, limits N to 30,
    checked first.

    A chain that has not mixed within ``_MAX_STEPS`` raises NoConvergence:
    a chain that never mixes needs the cap to end its search.  The tests
    hold this route to the dense rows of P^t, their reference and powered
    from the same kind of cache, up to the cap and on one chain past it.
    """
    if not 0 < epsilon:
        raise ValueError("epsilon must be positive")
    n = kernel.n_spins
    _check_entries("mixing-time gather", n,
                   ((n // 2 + 1) * (n - n // 2 + 1)) ** 3)
    move, stay, _, distance, log_pi = _class_chain(kernel, measure)
    distance_powers, pi_distance = [distance], np.exp(log_pi)
    worst, formed = 0, None
    for w in range(n // 2 + 1):
        squarings, pi = distance_powers, pi_distance
        if w:
            # a cut whose two starts are bounded within epsilon at the running
            # worst is settled there, without its chain
            if formed != worst:
                formed, bound = worst, _distance_bound(distance_powers,
                                                       pi_distance, worst)
            if max(bound[w], bound[n - w]) <= epsilon:
                continue
            lumped, log_pi = _lumped_chain(move, stay, measure, w)
            squarings, pi = [lumped], np.exp(log_pi)
        # the point masses on the classes (w, 0) and (0, N - w): the starts
        # at distance w and N - w (mirror images at w = N/2, both kept)
        starts = np.zeros((2, pi.size))
        starts[0, w * (n - w + 1)] = starts[1, n - w] = 1.0
        # d, the larger of the two starts' total variations, is
        # non-increasing: one probe at the running worst settles both starts'
        # t <= worst, and only a later crossing runs the search past it
        worst = _first_crossing(squarings, starts, pi, epsilon, worst)
    return worst
