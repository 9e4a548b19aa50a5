"""Equilibrium flows and the bottleneck upper bound on the spectral gap.

The marked-state specialization needs only the proposal column out of the
marked configuration.  For both mixers that column comes from a small
invariant subspace (a rank-2 block for grover, the (N+1)-dimensional
symmetric sector for the transverse field), so the bound scales to N = 24.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, MeasureTooLarge
from .chain import TransitionMatrix
from .model import logsumexp
from .proposal import ProposalKernel

_EXHAUSTIVE_BUDGET = 4


@dataclass(frozen=True)
class BottleneckReport:
    set_measure: float
    flow: float
    bound: float
    set_descriptor: str


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


def bottleneck_bound(p: TransitionMatrix, s1, descriptor: str | None = None) -> BottleneckReport:
    """Flow out of S1 over pi(S1) pi(S1^c); requires pi(S1) <= 1/2."""
    s1 = sorted(set(s1))
    complement = sorted(set(range(p.dim)) - set(s1))
    if not s1 or not complement:
        raise ValueError("S1 must be a nonempty proper subset")
    log_m1 = _log_measure(p, s1)
    if log_m1 > math.log(0.5) + 1e-12:
        raise MeasureTooLarge(
            f"pi(S1) = {math.exp(log_m1):.6f} exceeds 1/2"
        )
    log_m2 = _log_measure(p, complement)
    out_flow = flow(p, s1, complement)
    bound = math.exp(math.log(max(out_flow, 5e-324)) - log_m1 - log_m2) \
        if out_flow > 0 else 0.0
    if descriptor is None:
        marked = int(np.argmax(p.stationary.log_weights))
        all_but = complement == [marked]
        descriptor = "all-but-marked" if all_but else f"set({len(s1)} states)"
    return BottleneckReport(set_measure=math.exp(log_m1), flow=out_flow,
                            bound=bound, set_descriptor=descriptor)


def min_bottleneck_exhaustive(p: TransitionMatrix) -> BottleneckReport:
    """Exact minimizer of the bound over all S1 with pi(S1) <= 1/2 (N <= 4)."""
    if p.n_spins > _EXHAUSTIVE_BUDGET:
        raise BudgetExceeded(
            f"exhaustive minimization limited to N <= {_EXHAUSTIVE_BUDGET}"
        )
    dim = p.dim
    pi = p.stationary.probabilities()
    equilibrium = pi[:, None] * p.p
    best = None
    best_mask = 0
    for mask in range(1, (1 << dim) - 1):
        members = [x for x in range(dim) if mask >> x & 1]
        m1 = float(pi[members].sum())
        if m1 > 0.5 + 1e-12:
            continue
        others = [x for x in range(dim) if not mask >> x & 1]
        e = float(equilibrium[np.ix_(members, others)].sum())
        bound = e / (m1 * (1.0 - m1))
        if best is None or bound < best:
            best, best_mask = bound, mask
    members = [x for x in range(dim) if best_mask >> x & 1]
    return bottleneck_bound(p, members)


def marked_state_bound(q_col_k: np.ndarray, n_spins: int, alpha: float,
                       beta: float, marked: int = 0) -> float:
    """Gap upper bound from the marked-state cut, Q symmetric assumed.

    ``q_col_k`` is the proposal distribution out of the marked state; moves
    into the marked state are always downhill, so the acceptance factor is 1
    and the escape mass is the off-marked column sum (computed directly,
    avoiding the 1 - Q(k|k) cancellation).
    """
    q_col_k = np.asarray(q_col_k, dtype=float)
    dim = 1 << n_spins
    if q_col_k.shape != (dim,):
        raise ValueError(f"column has shape {q_col_k.shape}, expected ({dim},)")
    if np.min(q_col_k) < -1e-12 or abs(q_col_k.sum() - 1.0) > 1e-8:
        raise ValueError("q_col_k is not a probability distribution")
    escape = float(np.delete(q_col_k, marked).sum())
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
