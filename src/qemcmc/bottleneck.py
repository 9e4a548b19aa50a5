"""Equilibrium flows and the bottleneck upper bound on the spectral gap.

The marked-state specialization needs only the proposal mass that leaves
the marked configuration.  A kernel invariant under permutations of the
spins about the marked state carries it in N+1 values, one per distance w
(each shared by C(N, w) states): its table's table[0, w, 0], or the
transverse sector's marked column with no table.  :func:`marked_state_bound`
takes those N+1 values, so the bound costs O(N) and no 2^N column is formed;
the dense cross-checks read the same cut as :func:`bottleneck_bound` of the
dense chain.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MeasureTooLarge
from .chain import TransitionMatrix
from .proposal import ProposalKernel, _binomial_row


def flow(p: TransitionMatrix, s1, s2) -> float:
    """Equilibrium flow sum_{x in S1, y in S2} pi(x) P(x, y), accumulated in
    log space."""
    # a dense cross-check, so scipy stays off every experiment's import path
    from scipy.special import logsumexp

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
    from scipy.special import logsumexp   # dense cross-check only, as in flow

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


def marked_state_bound(column, n_spins: int, alpha: float,
                       beta: float) -> float:
    """Gap upper bound from the marked-state cut, Q symmetric assumed.

    ``column`` holds the N+1 values Q(x|k) of the proposal column out of the
    marked state k, one per distance w = 0..N of x from k, each shared by
    C(N, w) states: a permutation-invariant kernel's table[0, :, 0], or
    :func:`~qemcmc.quantum.transverse_marked_column`.  Moves into the
    marked state are always downhill, so the acceptance factor is 1 and the
    escape mass is the off-marked column sum, sum_{w >= 1} C(N, w) Q(x|k),
    summed directly to avoid the 1 - Q(k|k) cancellation, in O(N).  From
    N = 1024, where 2^N and then C(N, w) overflow a double, it raises
    ValueError naming N.
    """
    col = np.asarray(column, dtype=float)
    if col.shape != (n_spins + 1,):
        raise ValueError(f"column has shape {col.shape}, "
                         f"expected ({n_spins + 1},)")
    if n_spins >= 1024:
        raise ValueError(f"marked-state bound not finite at N = {n_spins}: "
                         "2^N overflows a double")
    # Q(x|k) = col[w] for each of the C(N, w) states x at distance w
    col = _binomial_row(n_spins) * col
    if np.min(col) < -1e-12 or abs(col.sum() - 1.0) > 1e-8:
        raise ValueError("the marked column is not a probability distribution")
    g = 2.0 ** n_spins - 1.0
    factor = 1.0 + math.exp(-n_spins * beta * alpha) * g
    return math.fsum(col[1:]) * factor / g


def sum_qa_certificate(kernel: ProposalKernel, marked: int) -> float:
    """Total accepted proposal mass into the marked state from elsewhere.

    Moves into the marked state are downhill (acceptance 1), so this is the
    off-diagonal marked-row sum; unital kernels keep it at most 1.
    """
    row = kernel.dense()[marked, :]
    return float(row.sum() - row[marked])
