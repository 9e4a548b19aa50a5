"""Equilibrium flows and the bottleneck upper bound on the spectral gap.

The marked-state specialization needs only the proposal mass that leaves
the marked configuration.  A kernel invariant under permutations of the
spins about the marked state carries it in the N+1 entries T[w, w, 0] of its
table (one per distance w, each shared by C(N, w) states), so the bound costs
O(N) for both mixers and no 2^N column is formed; a 2^N column is still
accepted, as the dense cross-checks pass one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MeasureTooLarge
from .chain import TransitionMatrix
from .model import logsumexp
from .proposal import PermutationInvariantKernel, ProposalKernel, _binomials


def flow(p: TransitionMatrix, s1, s2) -> float:
    """Equilibrium flow sum_{x in S1, y in S2} pi(x) P(x, y), accumulated in
    log space."""
    s1 = np.asarray(sorted(set(s1)), dtype=np.intp)
    s2 = np.asarray(sorted(set(s2)), dtype=np.intp)
    if s1.size == 0 or s2.size == 0:
        raise ValueError("flow requires nonempty sets")
    log_pi = p.stationary.log_probabilities()
    sub = p.p[np.ix_(s1, s2)]
    with np.errstate(divide="ignore"):
        terms = log_pi[s1][:, None] + np.log(sub)
    finite = terms[np.isfinite(terms)]
    if finite.size == 0:
        return 0.0
    return math.exp(logsumexp(finite))


def _log_measure(p: TransitionMatrix, s) -> float:
    return logsumexp(p.stationary.log_probabilities()[np.asarray(s, dtype=np.intp)])


def bottleneck_bound(p: TransitionMatrix, s1) -> float:
    """Flow out of S1 over pi(S1) pi(S1^c), 0.0 when none leaves; requires
    pi(S1) <= 1/2."""
    s1 = sorted(set(s1))
    complement = sorted(set(range(p.dim)) - set(s1))
    if not s1 or not complement:
        raise ValueError("S1 must be a nonempty proper subset")
    log_m1 = _log_measure(p, s1)
    if log_m1 > math.log(0.5) + 1e-12:
        raise MeasureTooLarge(
            f"pi(S1) = {math.exp(log_m1):.6f} exceeds 1/2"
        )
    out_flow = flow(p, s1, complement)
    if out_flow == 0.0:
        return 0.0
    return math.exp(math.log(out_flow) - log_m1 - _log_measure(p, complement))


def marked_state_bound(q_k, n_spins: int, alpha: float, beta: float,
                       marked: int = 0) -> float:
    """Gap upper bound from the marked-state cut, Q symmetric assumed.

    ``q_k`` is either a :class:`~qemcmc.proposal.PermutationInvariantKernel`
    carried about ``marked`` or the 2^N proposal column out of the marked
    state.  Moves into the marked state are always downhill, so the
    acceptance factor is 1 and the escape mass is the off-marked column sum,
    summed directly to avoid the 1 - Q(k|k) cancellation.  From a kernel the
    column is read as C(N, w) * T[w, w, 0] per distance w, in O(N).
    """
    if isinstance(q_k, PermutationInvariantKernel):
        if (q_k.n_spins, q_k.marked) != (n_spins, marked):
            raise ValueError(
                f"kernel on N = {q_k.n_spins} about state {q_k.marked}, "
                f"expected N = {n_spins} about state {marked}")
        # Q(x|k) = T[w, w, 0] for each of the C(N, w) states x at distance w
        col = _binomials(n_spins)[n_spins] * np.diagonal(q_k.table()[:, :, 0])
        escape = math.fsum(col[1:])
    else:
        col = np.asarray(q_k, dtype=float)
        dim = 1 << n_spins
        if col.shape != (dim,):
            raise ValueError(f"column has shape {col.shape}, expected ({dim},)")
        escape = float(np.delete(col, marked).sum())
    if np.min(col) < -1e-12 or abs(col.sum() - 1.0) > 1e-8:
        raise ValueError("the marked column is not a probability distribution")
    g = 2.0 ** n_spins - 1.0
    factor = 1.0 + math.exp(-n_spins * beta * alpha) * g
    return escape * factor / g


def sum_qa_certificate(kernel: ProposalKernel, marked: int) -> float:
    """Total accepted proposal mass into the marked state from elsewhere.

    Moves into the marked state are downhill (acceptance 1), so this is the
    off-diagonal marked-row sum; unital kernels keep it at most 1.
    """
    row = kernel.dense()[marked, :]
    return float(row.sum() - row[marked])
