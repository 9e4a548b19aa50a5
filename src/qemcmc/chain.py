"""Metropolis-Hastings chains: transition matrices, sampling, and exact
total-variation mixing times.

Transition matrices use the row orientation p[y, x] = Pr(y -> x).  Diagonals
are always completed from row stochasticity rather than any closed-form
expression, so rejection mass is absorbed exactly; this dense matrix serves
the cross-checks.  A chain whose kernel is invariant under permutations of
the spins about the marked state is also assembled once on its pair classes
(:func:`class_chain`, with the same kernel checks), from the kernel's table
over those classes as stored and with no 2^N object, with the distance
chain, its lumping onto the N+1 distances from the marked state, and the
class entries of L = D^1/2 (I - P) D^-1/2.  Those entries give the
floor(N/2)+1 symmetry blocks of L (:func:`_symmetry_blocks`), and the blocks
give them back (:func:`_class_entries`, the block map's adjoint).  The exact
gap (:func:`qemcmc.spectral.spectral_gap_blocks`, block 0's Dirichlet forms
on the distance chain), the exact mixing time (every start: the marked
state and its antipode on the distance chain, any other from the blocks of
S^t = D^1/2 P^t D^-1/2 taken back to classes, only where the distance
chain's bound leaves it open) and the sampled chain (:func:`sample_chain`,
O(N) per move, not per step) read them; a caller that samples the chain and
reads its mixing time passes one assembly to both.  The mixing time powers
the distance chain from its row-rescaled squarings (:func:`_squaring`).
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
    NotReversible,
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
_REVERSIBILITY_TOL = 1e-9    # largest relative detailed-balance deviation
_ROUTE_ARRAYS = 6            # (N+1)^3 arrays the block routes hold at once


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

def class_chain(kernel: PermutationInvariantKernel, measure: GibbsMeasure):
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
                 measure: GibbsMeasure, n_steps: int, *,
                 chain=None) -> np.ndarray:
    """Run the chain n_steps and return the visited configurations, a path
    that keeps the size rule (checked before any draw).  The chain is the
    one :func:`class_chain` assembles (``chain``, when a caller that also
    reads the mixing time has assembled it), drawn one move at a time.
    From x at distance i from the marked state k, the number of rejections
    before the next move is geometric with P(stay) = stay[i]: one uniform u
    draws the whole run by inversion, floor(log(1-u) / log stay[i]), capped
    at the steps left.  The move then draws the pair class (j, t) of the
    next state from the masses count[i, j, t] * move[i, j, t], with a second
    uniform, and y uniformly inside its class, with one uniform per spin
    examined: t of the i spins where x differs from k keep differing, and
    j - t of the other N - i spins flip.  Each uniform is drawn from the
    chain's ``random.Random`` stream as it is used.  A distance with no move
    mass is absorbing.  Rejected moves count as steps.
    """
    n = kernel.n_spins
    _check_entries("sample path", n, n_steps)
    move, *_ = chain or class_chain(kernel, measure)
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
# the symmetry blocks and their inverse

def _block_weights(binom: np.ndarray, m: int) -> np.ndarray:
    """W[l, l', r] = C(m,l) C(l,r) C(m-l,l'-r) / sqrt(C(m,l) C(m,l')) over
    [0, m]^3, the weights of a block with m unpaired spins: positive,
    symmetric in l and l', and built from the pair counts of those m spins
    (:func:`_pair_factors`), read from ``binom``, a table of
    :func:`_binomials` of order at least m."""
    c_lr, c_rest = _pair_factors(binom, m)
    size = binom[m, :m + 1, None, None]
    weight = size * c_lr * c_rest
    weight /= np.sqrt(size * size[:, 0])
    return weight


def _symmetry_blocks(x: np.ndarray):
    """Blocks B_k of L from its class entries x^t_{i,j}, k = 0..floor(N/2),
    by the difference form of :mod:`qemcmc.spectral`'s docstring.

    Block k reads the k-th forward difference of x along t, weighted by
    :func:`_block_weights` at m = N - 2k, built for that block alone.
    Block 0, the symmetrized distance chain, stays one case of that formula.
    The blocks' asymmetry is the reversibility certificate, block 0's too;
    the blocks returned are symmetrized.
    """
    n = x.shape[0] - 1
    binom = _binomials(n)
    blocks, d = [], x
    for k in range(n // 2 + 1):
        m = n - 2 * k
        if k:   # D^k x at t <= m, all that this and later blocks read
            d = d[1:-1, 1:-1, 1:m + 2] - d[1:-1, 1:-1, :m + 1]
        weight = _block_weights(binom, m)
        blocks.append(np.einsum("ijr,ijr->ij", weight, d))
        del weight   # freed before the next difference is formed
    scale = max(max(float(np.max(np.abs(b))) for b in blocks), 1e-300)
    asym = max(float(np.max(np.abs(b - b.T))) for b in blocks) / scale
    if not asym <= _REVERSIBILITY_TOL:   # NaN fails too
        raise NotReversible(
            f"block asymmetry {asym:.3e} exceeds {_REVERSIBILITY_TOL:.1e}"
        )
    return [0.5 * (b + b.T) for b in blocks]


def _class_entries(blocks) -> np.ndarray:
    """The symmetric class function x^t_{i,j} over (i, j, t) whose blocks
    (:func:`_symmetry_blocks`) are ``blocks``, B_k over [0, N - 2k]^2.

    The block map is an isometry: sum_c size_c x_c y_c =
    sum_k mult_k <B_k(x), B_k(y)>, with size_c = C(N,i) count[i,j,t] the
    ordered state pairs of class c (:func:`weight_classes`) and
    mult_k = C(N,k) - C(N,k-1) the multiplicity of block k.  So its inverse
    is its adjoint, x = size^-1 F^T (mult B).  F^T weights each block as F
    does; the adjoint of the k-th forward difference is
    sum_s (-1)^(k-s) C(k,s) shifts along t, taken from the last block to
    block 0 as one shift of the sum so far per block (Horner's scheme).
    Classes no pair realizes hold 0.
    """
    n = blocks[0].shape[0] - 1
    binom = _binomials(n)
    mult = np.diff(binom[n], prepend=0.0)
    x = None
    for k in range(len(blocks) - 1, -1, -1):
        m = n - 2 * k
        term = _block_weights(binom, m)
        term *= mult[k] * blocks[k][:, :, None]
        if x is not None:   # the adjoint of block k + 1's difference
            term[1:-1, 1:-1, 1:m] += x
            term[1:-1, 1:-1, :m - 1] -= x
        x = term
    x /= binom[n, :, None, None]
    count = weight_classes(n)
    return np.divide(x, count, out=x, where=count > 0)


def check_block_route(n_spins: int) -> None:
    """BudgetExceeded unless ``_ROUTE_ARRAYS`` (N+1)^3 arrays, a bound on
    those either symmetry-block route holds at once (tracemalloc's peak,
    with the kernel's table and the pair counts: 4.95 for the gap,
    :func:`qemcmc.spectral.spectral_gap_blocks`, and up to 5.33 for the
    mixing time, :func:`exact_mixing_time`, at N = 60 and 100), keep the
    size rule together (N <= 139): a caller checks it before it builds a
    table for those routes."""
    _check_entries("symmetry-block route", n_spins,
                   _ROUTE_ARRAYS * (n_spins + 1) ** 3)


# ---------------------------------------------------------------------------
# exact mixing time

def _squaring(squarings: list, j: int) -> np.ndarray:
    """p^(2^j) from the cache [p, p^2, p^4, ...], squared up to j on first
    use, each square's rows scaled back to sum 1 as the exact power's are."""
    while len(squarings) <= j:
        squarings.append(squarings[-1] @ squarings[-1])
        squarings[-1] /= squarings[-1].sum(1, keepdims=True)
    return squarings[j]


def _advanced(step, held, t: int):
    """``held`` advanced t steps over t's binary digits, ``step(held, j)``
    advancing it 2^j steps."""
    for k in range(t.bit_length() - 1, -1, -1):
        if t >> k & 1:
            held = step(held, k)
    return held


def _lifted_crossing(step, distance, held, epsilon: float, t: int) -> int:
    """First integer t' >= t with distance(held advanced t' steps) <=
    epsilon, ``step`` as in :func:`_advanced`: max(t, the first crossing),
    for a non-increasing distance.  NoConvergence if that exceeds
    ``_MAX_STEPS``.

    Binary lifting.  ``held``, the state at step 0, is first advanced to
    step t, and one probe there settles a crossing at or before t.  While
    d > epsilon it then advances by the largest power of two not above t
    (steps 1, 1, 2, 4, ... from t = 0), and from the last held state each
    lower power of two is taken when d stays above epsilon.  Every probe
    is one step of the held state.
    """
    held = _advanced(step, held, t)
    if distance(held) <= epsilon:
        return t
    while t < _MAX_STEPS:            # d(t) > epsilon at the held state
        j = max(t.bit_length() - 1, 0)
        ahead = step(held, j)
        if distance(ahead) <= epsilon:   # crossed within 2^j steps
            for k in range(j - 1, -1, -1):
                ahead = step(held, k)
                if distance(ahead) > epsilon:
                    held, t = ahead, t + (1 << k)
            if t < _MAX_STEPS:
                return t + 1
            break
        held, t = ahead, t + (1 << j)
    raise NoConvergence(
        f"total variation still above {epsilon} after {_MAX_STEPS} steps"
    )


def _rows_step(squarings: list):
    """step(rows, j) = rows @ p^(2^j), p the chain of the cache
    ``squarings`` (:func:`_squaring`)."""
    return lambda rows, j: rows @ _squaring(squarings, j)


def _first_crossing(squarings: list, rows: np.ndarray, pi: np.ndarray,
                    epsilon: float, t: int = 0) -> int:
    """First integer t' >= t with d(t') = total_variation(rows @ p^t', pi)
    <= epsilon, p the chain of the cache ``squarings`` (:func:`_squaring`),
    by :func:`_lifted_crossing`: each probe one product of the held rows
    with one cached squaring."""
    return _lifted_crossing(_rows_step(squarings),
                            lambda rows: total_variation(rows, pi),
                            rows, epsilon, t)


def _distance_bound(rows: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """U_x(t) >= d_x(t) for a start x at each distance from the marked state
    k, from the distance chain's P^t (``rows``) and its pi (both of
    :func:`class_chain`): d = sum_y (pi_y - P^t(x, y))^+ is read exactly on
    the one-state classes k and its antipode, and every other y adds at most
    pi_y."""
    return (np.maximum(pi[0] - rows[:, 0], 0.0)
            + np.maximum(pi[-1] - rows[:, -1], 0.0) + pi[1:-1].sum())


def _start_distances(rows: np.ndarray, powers: list, log_pi: np.ndarray,
                     log_state: np.ndarray) -> np.ndarray:
    """d_x(t) for a start x at each distance 1..N-1 from the marked state k,
    from the distance chain's P^t (``rows``, its log pi ``log_pi``) and the
    blocks (I - B_k)^t, k >= 1 (``powers``), of S^t = D^1/2 P^t D^-1/2;
    ``log_state`` is log pi of one state at each distance.

    Block 0 of S^t is the distance chain's own D^1/2 P^t D^-1/2, each entry
    taken from the side whose factor is at most 1, as S^t is symmetric.
    :func:`_class_entries` gives S^t on the classes, and
    P^t(x, y) = sqrt(pi_j / pi_i) S^t(x, y) (Levin, Peres and Wilmer, ch.
    12).  The two one-state targets, k and its antipode, are read off the
    distance chain, where that factor would scale up an entry far below the
    inverse's rounding.
    """
    half = 0.5 * log_pi
    order = half[:, None] <= half
    s0 = np.where(order, rows, rows.T) * np.exp(-np.abs(half[:, None] - half))
    entries = _class_entries([s0, *powers])
    inner = log_state[1:-1]
    p_t = entries[1:-1, 1:-1]
    p_t *= np.exp(0.5 * (inner - inner[:, None]))[:, :, None]
    p_t -= np.exp(inner)[None, :, None]
    n = rows.shape[0] - 1
    pi = np.exp(log_pi)
    return 0.5 * (np.einsum("ijt,ijt->i", weight_classes(n)[1:-1, 1:-1],
                            np.abs(p_t, out=p_t))
                  + np.abs(rows[1:-1, 0] - pi[0])
                  + np.abs(rows[1:-1, -1] - pi[-1]))


def exact_mixing_time(kernel: ProposalKernel, measure: GibbsMeasure,
                      epsilon: float, *, chain=None) -> int:
    """Worst-start mixing time, max over starts x of min{t : d_x(t) <= epsilon},
    of the MH chain of a permutation-invariant kernel, with no 2^N x 2^N
    matrix; ``chain``, when given, is :func:`class_chain` of ``kernel`` and
    ``measure``, assembled by a caller that also samples the chain.

    The blocks' size rule (:func:`check_block_route`) is checked first.  One
    search (:func:`_first_crossing`) on the distance chain from the marked
    state and its antipode, the two starts that are single distances, gives
    the running worst T; d is non-increasing, so a start with d(T) <=
    epsilon is settled at T.  The other starts are bounded at T from the
    distance chain's P^T (:func:`_distance_bound`), and when every bound is
    within epsilon T is returned.  Otherwise one block probe at T reads
    every start's d_x(T) from the blocks of S^T (:func:`_start_distances`):
    block 0 from the distance chain's cache, and (I - B_k)^T, k >= 1, by
    repeated squaring with no rescale (they hold no stationary vector),
    formed afresh at each probe, as a cache of their squares held about 3.4
    more (N+1)^3 arrays at N = 60 and t_mix ~ 6.5e6.  Only while a start the
    bound left open stays above epsilon does the same binary lifting
    (:func:`_lifted_crossing`) run on from T.  The bound decides only
    whether the probe runs.

    A chain that has not mixed within ``_MAX_STEPS`` raises NoConvergence:
    a chain that never mixes needs the cap to end its search.  The tests
    hold this route to the dense rows of P^t, their reference and powered
    from the same kind of cache, up to the cap and on one chain past it.
    """
    if not 0 < epsilon:
        raise ValueError("epsilon must be positive")
    n = kernel.n_spins
    check_block_route(n)
    _, _, x, distance, log_pi = chain or class_chain(kernel, measure)
    squarings, pi = [distance], np.exp(log_pi)
    worst = _first_crossing(squarings, np.eye(n + 1)[[0, n]], pi, epsilon)
    rows_step = _rows_step(squarings)
    rows = _advanced(rows_step, np.eye(n + 1), worst)
    open_starts = _distance_bound(rows, pi)[1:-1] > epsilon
    if not open_starts.any():
        return worst
    blocks = [np.eye(len(b)) - b for b in _symmetry_blocks(x)[1:]]
    del x
    log_state = measure.class_log_weights - measure.log_partition

    def step(held, j):
        rows, t = held
        return rows_step(rows, j), t + (1 << j)

    def probe(held):
        rows, t = held
        powers = [np.linalg.matrix_power(b, t) for b in blocks]
        d = _start_distances(rows, powers, log_pi, log_state)
        return float(np.max(d[open_starts]))

    return _lifted_crossing(step, probe, (np.eye(n + 1), 0), epsilon, worst)
