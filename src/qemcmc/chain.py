"""Metropolis-Hastings chains: acceptance, transition matrices, stepping, and
exact total-variation mixing diagnostics.

Transition matrices use the row orientation p[y, x] = Pr(y -> x).  Diagonals
are always completed from row stochasticity rather than any closed-form
expression, so rejection mass is absorbed exactly.  The dense matrix serves
chain sampling experiments, the mixing-time search and the dense gap
cross-check; the exact-gap experiments assemble the chain on its pair
classes instead (:func:`qemcmc.spectral.spectral_gap_blocks`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricKernel,
    BudgetExceeded,
    NegativeDiagonal,
    NoConvergence,
)
from .model import GibbsMeasure
from .proposal import ProposalKernel, validate_kernel

_POWERING_BUDGET = 12  # max n_spins for dense matrix powering
_ORBIT_ROWS = 256      # rows per block of the orbit-structure scan
# largest kernel asymmetry a chain is assembled from; the pair-class assembly
# (qemcmc.spectral) holds the kernel's column sums to it as well
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


def mh_acceptance(delta_e: float, beta: float, log_q_ratio: float = 0.0) -> float:
    """min(1, exp(-beta*delta_e) * Q(y|x)/Q(x|y)) with the ratio in log space."""
    exponent = -beta * delta_e + log_q_ratio
    if not math.isfinite(exponent) and exponent > 0:
        return 1.0
    return 1.0 if exponent >= 0 else math.exp(exponent)


def build_transition_matrix(kernel: ProposalKernel, measure: GibbsMeasure,
                            symmetry_tol: float = SYMMETRY_TOL) -> TransitionMatrix:
    """Assemble P(y,x) = Q(x|y) * A(x|y) with the diagonal fixed by row sums.

    The kernel must be symmetric (certificate checked) so that acceptance
    reduces to the energy ratio and detailed balance holds by construction.
    """
    if kernel.dim != measure.dim:
        raise AsymmetricKernel(
            f"kernel dim {kernel.dim} does not match measure dim {measure.dim}"
        )
    cert = validate_kernel(kernel)
    if cert.max_asymmetry > symmetry_tol:
        raise AsymmetricKernel(
            f"kernel asymmetry {cert.max_asymmetry:.3e} exceeds {symmetry_tol:.1e}"
        )
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


def chain_step(state: ChainState, kernel: ProposalKernel,
               measure: GibbsMeasure) -> ChainState:
    """One propose/accept step; rejected moves count as a step."""
    rng = state.rng_stream
    y = state.current
    col = np.clip(kernel.column(y), 0.0, None)
    col = col / col.sum()
    x = int(rng.choice(col.shape[0], p=col))
    if x != y:
        log_accept = min(0.0, measure.log_weights[x] - measure.log_weights[y])
        if math.log(rng.random()) >= log_accept:
            x = y
    state.current = x
    state.step_count += 1
    return state


def sample_chain(state: ChainState, kernel: ProposalKernel,
                 measure: GibbsMeasure, n_steps: int) -> np.ndarray:
    """Run the chain n_steps and return the visited configurations."""
    visited = np.empty(n_steps, dtype=np.int64)
    for i in range(n_steps):
        chain_step(state, kernel, measure)
        visited[i] = state.current
    return visited


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Half the l1 distance, clamped to 1: for disjoint supports the rounded
    sum can land a few ulps above it."""
    return min(1.0, 0.5 * float(np.abs(p - q).sum()))


def tv_distance_curve(p: TransitionMatrix, start: int, max_t: int) -> np.ndarray:
    """d(t) for t = 0..max_t from a point start, by dense row evolution."""
    if p.n_spins > _POWERING_BUDGET:
        raise BudgetExceeded(f"dense powering limited to N <= {_POWERING_BUDGET}")
    pi = p.stationary.probabilities()
    row = np.zeros(p.dim)
    row[start] = 1.0
    curve = np.empty(max_t + 1)
    curve[0] = total_variation(row, pi)
    for t in range(1, max_t + 1):
        row = row @ p.p
        curve[t] = total_variation(row, pi)
    return curve


# ---------------------------------------------------------------------------
# exact mixing time

def _orbit_values(p: TransitionMatrix, atol: float = 1e-12):
    """Detect the five-value marked-orbit structure; return its values or None.

    The marked row, the marked column, the unmarked diagonal and the
    off-diagonal unmarked entries must each span at most ``atol`` (a NaN
    fails).  The last set is scanned in blocks of rows through one small
    buffer, with the entries outside it overwritten by one inside, which
    leaves its range unchanged.
    """
    mat = p.p
    dim = p.dim
    if dim < 3:
        return None
    m = int(np.argmax(p.stationary.log_weights))
    un = np.arange(dim) != m
    row_m = mat[m, un]
    col_m = mat[un, m]
    diag = np.diag(mat)[un]
    for vals in (row_m, col_m, diag):
        if not np.ptp(vals) <= atol:
            return None
    u0, u1 = np.flatnonzero(un)[:2]
    p_xy = mat[u0, u1]
    low = high = p_xy
    buf = np.empty((min(_ORBIT_ROWS, dim), dim))
    for r0 in range(0, dim, _ORBIT_ROWS):
        rows = buf[:min(_ORBIT_ROWS, dim - r0)]
        np.copyto(rows, mat[r0:r0 + _ORBIT_ROWS])
        rows[:, m] = p_xy
        at = np.arange(rows.shape[0])
        rows[at, r0 + at] = p_xy
        if r0 <= m < r0 + rows.shape[0]:
            rows[m - r0] = p_xy
        low, high = np.minimum(low, rows.min()), np.maximum(high, rows.max())
        if not high - low <= atol:
            return None
    return {
        "marked": m,
        "p_kk": float(mat[m, m]),
        "p_kx": float(row_m[0]),
        "p_xk": float(col_m[0]),
        "p_xx": float(diag[0]),
        "p_xy": float(p_xy),
    }


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


def _lumped_mixing_time(p, orbit, epsilon, max_steps):
    dim = p.dim
    pi = p.stationary.probabilities()
    m = orbit["marked"]
    pi_k = pi[m]
    pi_x = pi[0 if m != 0 else 1]
    p_kk, p_kx = orbit["p_kk"], orbit["p_kx"]
    p_xk, p_xx, p_xy = orbit["p_xk"], orbit["p_xx"], orbit["p_xy"]

    # start at the marked state: classes (marked, rest)
    m2 = np.array([[p_kk, 1.0 - p_kk],
                   [p_xk, 1.0 - p_xk]])

    def tv_marked(t):
        row = np.linalg.matrix_power(m2, t)[0]
        return 0.5 * (abs(row[0] - pi_k)
                      + (dim - 1) * abs(row[1] / (dim - 1) - pi_x))

    # start at an unmarked state: classes (start, marked, rest)
    m3 = np.array([
        [p_xx, p_xk, (dim - 2) * p_xy],
        [p_kx, p_kk, (dim - 2) * p_kx],
        [p_xy, p_xk, p_xx + (dim - 3) * p_xy],
    ])

    def tv_unmarked(t):
        row = np.linalg.matrix_power(m3, t)[0]
        return 0.5 * (abs(row[0] - pi_x) + abs(row[1] - pi_k)
                      + (dim - 2) * abs(row[2] / (dim - 2) - pi_x))

    t_marked = _first_crossing(tv_marked, epsilon, max_steps)
    t_unmarked = _first_crossing(tv_unmarked, epsilon, max_steps)
    return max(t_marked, t_unmarked)


def _dense_mixing_time(p, epsilon, max_steps):
    if p.n_spins > _POWERING_BUDGET:
        raise BudgetExceeded(f"dense powering limited to N <= {_POWERING_BUDGET}")
    pi = p.stationary.probabilities()
    squarings = [p.p]

    def power(t):
        result = None
        j = 0
        while t:
            while j >= len(squarings):
                squarings.append(squarings[-1] @ squarings[-1])
            if t & 1:
                result = squarings[j] if result is None else result @ squarings[j]
            t >>= 1
            j += 1
        return np.eye(p.dim) if result is None else result

    def tv_at(t):
        rows = power(t)
        return float(np.max(0.5 * np.abs(rows - pi).sum(axis=1)))

    return _first_crossing(tv_at, epsilon, max_steps)


def exact_mixing_time(p: TransitionMatrix, epsilon: float,
                      max_steps: int = 10_000_000) -> int:
    """Worst-start mixing time: max over starts of min{t : d(t) <= epsilon}.

    Chains with the marked-orbit symmetry are lumped onto two or three state
    classes, which makes the search cost logarithmic in the answer; other
    chains fall back to dense matrix powering (N <= 12).
    """
    if epsilon >= 1.0:
        return 0
    if not 0 < epsilon:
        raise ValueError("epsilon must be positive")
    orbit = _orbit_values(p)
    if orbit is not None:
        return _lumped_mixing_time(p, orbit, epsilon, max_steps)
    return _dense_mixing_time(p, epsilon, max_steps)
