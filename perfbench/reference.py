"""Reference values for the benchmark's output checks, computed apart from
qemcmc.

Nothing here imports the package.  Every quantity is rebuilt from the model's
definition (marked state k = 0 with energy -alpha*N, proposals
Q(x|y) = |<x|e^{-iHt}|y>|^2, Metropolis-Hastings acceptance) with scipy
routines the program does not use for the same job: Pade ``expm`` and
``expm_multiply`` instead of eigendecompositions and Lanczos, ``eigvalsh`` on
the symmetrised chain, and plain dense powering for mixing times.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply


def resonance_field(alpha: float, n: int) -> float:
    """h = -alpha / (1 - 2^-N), where the grover two-level frequency collapses."""
    return -alpha / (1.0 - 2.0 ** -n)


def log_pi(n: int, alpha: float, beta: float) -> tuple[float, float]:
    """(log pi(k), log pi(x)) for the marked state k and any unmarked x."""
    g = 2.0 ** n - 1.0
    log_z = beta * alpha * n + math.log1p(g * math.exp(-beta * alpha * n))
    return beta * alpha * n - log_z, -log_z


def stationary(n: int, alpha: float, beta: float) -> np.ndarray:
    lk, lx = log_pi(n, alpha, beta)
    pi = np.full(1 << n, math.exp(lx))
    pi[0] = math.exp(lk)
    return pi


# ---------------------------------------------------------------------------
# transverse field: H = h * sum_i sigma^x_i - alpha*N |k><k|

def transverse_sparse(n: int, alpha: float, h: float) -> sp.csr_matrix:
    dim = 1 << n
    rows = np.tile(np.arange(dim), n)
    cols = np.concatenate([np.arange(dim) ^ (1 << i) for i in range(n)])
    ham = sp.csr_matrix((np.full(rows.size, float(h)), (rows, cols)),
                        shape=(dim, dim))
    return (ham + sp.csr_matrix(([-alpha * n], ([0], [0])), shape=(dim, dim))).tocsr()


def transverse_marked_column(n: int, alpha: float, h: float, t: float) -> np.ndarray:
    """Q(.|k) from ``expm_multiply`` on the sparse Hamiltonian."""
    psi0 = np.zeros(1 << n, dtype=complex)
    psi0[0] = 1.0
    psi = expm_multiply(-1j * t * transverse_sparse(n, alpha, h), psi0)
    return np.abs(psi) ** 2


def transverse_marked_escape(n: int, alpha: float, h: float, t: float) -> float:
    """sum_{x != k} Q(x|k) from the (N+1)-dimensional symmetric sector.

    |k> is the weight-0 Dicke state, and H keeps the span of the Dicke states
    |D_w> invariant: sum sigma^x moves weight w to w +- 1 with amplitude
    sqrt((w+1)(N-w)).  The escape mass is the weight of the evolved state
    outside w = 0, summed directly so that nothing cancels.
    """
    w = np.arange(n)
    hop = h * np.sqrt((w + 1.0) * (n - w))
    ham = np.diag(hop, 1) + np.diag(hop, -1)
    ham[0, 0] = -alpha * n
    psi = sla.expm(-1j * t * ham)[:, 0]
    return float(np.sum(np.abs(psi[1:]) ** 2))


def marked_state_bound(escape: float, n: int, alpha: float, beta: float) -> float:
    """Flow out of {k} over pi(k) pi(not k): escape * (1 + e^{-N beta alpha} g) / g."""
    g = 2.0 ** n - 1.0
    return escape * (1.0 + math.exp(-n * beta * alpha) * g) / g


def transverse_kernel(n: int, alpha: float, h: float, t: float) -> np.ndarray:
    """Dense Q = |e^{-iHt}|^2 by Pade ``expm`` (symmetric: H is real symmetric)."""
    u = sla.expm(-1j * t * transverse_sparse(n, alpha, h).toarray())
    return np.abs(u) ** 2


# ---------------------------------------------------------------------------
# grover mixer: H = h*N |s><s| - alpha*N |k><k| on span{|k>, |u>}

def grover_block(n: int, alpha: float, h: float, t: float) -> tuple[float, float]:
    """(q_marked, q_unmarked) from ``expm`` of H on span{|k>, |u>}, |u> the
    uniform state over unmarked configurations.

    |s> = (|k> + sqrt(g)|u>) / 2^{N/2} with g = 2^N - 1.  On the complement of
    the block H vanishes, so for unmarked x != y:
    <k|U|x> = <k|U|u> / sqrt(g) and <x|U|y> = (<u|U|u> - 1) / g.
    """
    dim = 2.0 ** n
    g = dim - 1.0
    c = h * n / dim
    ham = np.array([[c - alpha * n, c * math.sqrt(g)],
                    [c * math.sqrt(g), c * g]])
    u2 = sla.expm(-1j * t * ham)
    return abs(u2[0, 1]) ** 2 / g, abs(u2[1, 1] - 1.0) ** 2 / g ** 2


def grover_block_gaps(n: int, alpha: float, beta: float,
                      q_marked: float, q_unmarked: float) -> tuple[float, float]:
    """1 - lambda for the chain's two nontrivial eigenvalues.

    The lumped two-state chain {k, rest} moves k -> rest with probability
    g q_m e^{-N beta alpha} and rest -> k with q_m: 1 - lambda is their sum.
    On unmarked vectors summing to zero, P acts as its diagonal minus q_u:
    1 - lambda = q_m + g q_u.
    """
    g = 2.0 ** n - 1.0
    return (q_marked * (1.0 + g * math.exp(-n * beta * alpha)),
            q_marked + g * q_unmarked)


def gap_from_blocks(*deltas: float) -> float:
    """1 - max |lambda| over eigenvalues given as 1 - lambda."""
    return min(min(d, 2.0 - d) for d in deltas)


def grover_averaged_gap(n: int, alpha: float, beta: float, h: float,
                        ts) -> float:
    """Gap of the chain driven by the grover kernel averaged over times ``ts``.

    Averaging keeps the orbit structure, and both block gaps are linear in
    (q_m, q_u), so the block gaps are averaged before the minimum is taken.
    """
    blocks = np.array([grover_block_gaps(n, alpha, beta, *grover_block(n, alpha, h, t))
                       for t in ts])
    return gap_from_blocks(*blocks.mean(axis=0))


def grover_kernel(n: int, q_marked: float, q_unmarked: float) -> np.ndarray:
    """Dense Q with the marked-orbit structure, diagonal from column sums."""
    q = np.full((1 << n, 1 << n), q_unmarked)
    q[0, :] = q[:, 0] = q_marked
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, 1.0 - q.sum(axis=0))
    return q


# ---------------------------------------------------------------------------
# chains built from a symmetric dense Q

def metropolis(q: np.ndarray, n: int, alpha: float, beta: float) -> np.ndarray:
    """P[y, x] = Q(x|y) min(1, pi(x)/pi(y)) off the diagonal, rows summing to 1."""
    lw = np.zeros(q.shape[0])
    lw[0] = beta * alpha * n
    p = q.T * np.exp(np.minimum(0.0, lw[None, :] - lw[:, None]))
    np.fill_diagonal(p, 0.0)
    np.fill_diagonal(p, 1.0 - p.sum(axis=1))
    return p


def absolute_gap(q: np.ndarray, n: int, alpha: float, beta: float) -> float:
    """1 - max |lambda_i|, i > 1, from ``eigvalsh`` of D^1/2 P D^-1/2.

    Off the diagonal that matrix is Q(x|y) exp(-|log pi(x) - log pi(y)|/2),
    symmetric by construction, with no exponential that can overflow.
    """
    lw = np.zeros(q.shape[0])
    lw[0] = beta * alpha * n
    s = q * np.exp(-0.5 * np.abs(lw[:, None] - lw[None, :]))
    np.fill_diagonal(s, np.diag(metropolis(q, n, alpha, beta)))
    lam = sla.eigvalsh(s)
    return 1.0 - max(abs(lam[0]), abs(lam[-2]))


def mixing_time(p: np.ndarray, pi: np.ndarray, epsilon: float = 0.01,
                max_steps: int = 10 ** 8) -> int:
    """Worst-start t_mix(epsilon) = min{t : max_x TV(P^t(x, .), pi) <= epsilon}.

    d(t) does not increase with t, so t is bracketed by doubling and then
    found by bisection, each probe a fresh ``matrix_power``.
    """
    def d(t):
        rows = np.linalg.matrix_power(p, t)
        return float(np.max(0.5 * np.abs(rows - pi).sum(axis=1)))

    if d(0) <= epsilon:
        return 0
    lo, hi = 0, 1
    while d(hi) > epsilon:
        if hi >= max_steps:
            raise RuntimeError(f"d(t) above {epsilon} after {max_steps} steps")
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if d(mid) <= epsilon:
            hi = mid
        else:
            lo = mid
    return hi


def relaxation_sandwich(gap: float, log_pi_min: float,
                        epsilon: float = 0.01) -> tuple[float, float]:
    """(t_rel - 1) log(1/(2 eps)) <= t_mix(eps) <= t_rel log(1/(eps pi_min))."""
    t_rel = 1.0 / gap
    return ((t_rel - 1.0) * math.log(1.0 / (2.0 * epsilon)),
            t_rel * (math.log(1.0 / epsilon) - log_pi_min))
