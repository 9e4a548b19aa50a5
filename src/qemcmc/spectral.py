"""Spectral gaps of reversible chains: the symmetry-block route, the dense
eigensolve that cross-checks it, closed forms for the uniform and grover
proposals, mixing-time bounds, and time-averaged kernels.  Every gap route
returns delta = 1 - |lambda_2| as a float; the relaxation-time bounds on the
mixing time are a separate function of delta and log pi_min.  The grover gaps,
single and time-averaged, come from the two block gaps of one helper, and
the time-averaged grover kernel is one mean: all read the four proposal
probabilities of the one grover closed form of :mod:`qemcmc.quantum`, in one
array pass over a run's whole (N, h, t) grid; the reductions keep the
rounding of the per-N, per-sample loop, so they equal it to the bit.  The
two-level weight factor exp(logaddexp(0, u)) stays one scalar math.exp per N
(numpy's exp on an array rounds some inputs differently).  The averaged gap
is np.mean of the per-sample block gaps along the sample axis, not the mean
proposal times that factor, which rounds differently.  The averaged table is
an axis-0 sum over one N's samples, in sample order, as a sum of tables.

A chain on the marked model whose kernel is invariant under permutations of
the spins about the marked state k (every kernel the experiments build) has
L = D^1/2 (I - P) D^-1/2 in the Terwilliger algebra of the hypercube, so its
whole spectrum comes from floor(N/2)+1 symmetric blocks of order at most N+1
(Schrijver, IEEE Trans. Inf. Theory 51, 2859 (2005)).  Block k has
multiplicity C(N,k) - C(N,k-1) and, with m = N - 2k, entries

    B_k[l,l'] = sqrt(C(m,l)/C(m,l')) sum_r C(l,r) C(m-l,l'-r) (D^k x)[k+l,k+l',r]

over l, l' in [0, m], where x^t_{i,j} is the entry of L between states at
distances i and j from k whose moves away from k overlap in t spins, and
D^k is the k-th forward difference along t.  Over k disjoint spin pairs
(p, q) and the m other spins R, the functions
f_l(z) = prod (z_p - z_q) [|z_R| = l] of the moves z away from k span the
multiplicity space of the (N-k, k) irrep of S_N, and <f_l, L f_l'> counts
state pairs by the spin pairs they agree on (each disagreement flips the
sign: the difference) and by their overlap r on R (the weights: the pair
counts of R, as in :func:`~qemcmc.proposal.weight_classes`).  Every
weight is positive; the only signed step differences the entries of x,
which are at most 1, so no float cancels a large binomial.  Block 0 is the
symmetrized distance chain, the chain lumped onto the N+1 distances that
:func:`~qemcmc.chain._class_chain` forms and the exact mixing time reads.

An eigenvalue read off a float64 eigensolver is good only to about
eps * |I - P|, the largest eigenvalue, however small the gap.  So the dense
solve, and block 0 of the block route, take each end of the spectrum instead
as the Rayleigh quotient of its Ritz vector, written as a Dirichlet form: a
sum of nonnegative terms, whose accuracy scales with the gap itself rather
than with 1, down to the rounding of its terms: each squares a difference of
two rounded numbers.  That rounding is estimated with the form, and a gap
keeping fewer than half its digits raises ImpreciseGap.  The dense solve
works on I - P (diagonal rebuilt from off-diagonal row sums) and is the
cross-check of the block route, used by the acceptance checks and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EigensolverFailure, ImpreciseGap, NotReversible
from .model import GibbsMeasure, MarkedStateHamiltonian, _log_pow2m1
from .proposal import (
    ProposalKernel,
    StructuredMarkedKernel,
    _binomials,
    _check_entries,
    _clamped,
    _pair_factors,
)
from .quantum import (
    GroverClosedForm,
    _grover_values,
    _per_n,
    quantum_kernel,  # perfbench traces this name here
    resonance_field,
)
from .chain import TransitionMatrix, _class_chain

_LN2 = math.log(2.0)
_REVERSIBILITY_TOL = 1e-9    # largest relative detailed-balance deviation
_GAP_RTOL = math.sqrt(np.finfo(float).eps)   # half the digits of a double
_ROUTE_ARRAYS = 6            # (N+1)^3 arrays the block route holds at once
_GRID_ARRAYS = 23            # (N, sample) arrays the averaging pass holds


def mixing_time_bounds(delta: float, log_pi_min: float, epsilon: float):
    """Relaxation-time sandwich on the worst-start mixing time, from the log
    of the smallest stationary probability (which underflows as a float long
    before its log does)."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not log_pi_min <= 0.0:   # NaN fails too
        raise ValueError(f"log_pi_min must be <= 0, got {log_pi_min}")
    lower = (1.0 / delta - 1.0) * math.log(1.0 / (2.0 * epsilon))
    upper = (1.0 / delta) * (math.log(1.0 / epsilon) - log_pi_min)
    return lower, upper


def spectral_gap_dense(p: TransitionMatrix) -> float:
    """Gap 1 - |lambda_2| of P by a symmetric eigensolve (scipy's LAPACK
    tridiagonal reduction and bisection): the O(8^N) cross-check of
    :func:`spectral_gap_blocks`.

    The asymmetry of P conjugated with sqrt(pi(x)/pi(y)) is the
    reversibility certificate; the solve itself works on the cospectral
    symmetric matrix with off-diagonal entries -sqrt(P(x,y) P(y,x)).  Each
    end of the spectrum is then read as the Rayleigh quotient of its Ritz
    vector in Dirichlet form (see :func:`_dirichlet_forms`), not as a
    computed eigenvalue.
    """
    _check_entries("dense eigensolve", p.n_spins, p.p.size)
    off = p.p.copy()
    np.fill_diagonal(off, 0.0)
    diag = off.sum(axis=1)
    lw = p.stationary.log_weights
    # the factor overflows once the log weights differ by about 1420; taken
    # only where P(x,y) > 0, no 0 * inf can put NaN into the certificate
    conj = np.zeros_like(off)
    with np.errstate(over="ignore"):
        np.multiply(off, np.exp(0.5 * (lw[:, None] - lw[None, :])), out=conj,
                    where=off > 0)
    scale = max(float(np.max(conj)), float(np.max(diag)), 1e-300)
    asym = float(np.max(np.abs(conj - conj.T))) / scale
    del conj
    if not asym <= _REVERSIBILITY_TOL:   # NaN fails too
        raise NotReversible(
            f"detailed-balance deviation {asym:.3e} exceeds {_REVERSIBILITY_TOL:.1e}"
        )
    sym = off * off.T
    np.sqrt(sym, out=sym)
    np.negative(sym, out=sym)
    np.fill_diagonal(sym, diag)
    low, top = _extreme_ritz_vectors(sym)  # Ritz vectors of I - P
    return _checked_gap(_dirichlet_forms(
        p.p, p.stationary.log_probabilities(), low, top))


def _extreme_ritz_vectors(a: np.ndarray):
    """Unit eigenvectors of the symmetric matrix ``a`` for its two lowest
    eigenvalues (columns of the first array) and its highest one.  ``a`` is
    overwritten.

    One Householder tridiagonalization, bisection for the three wanted
    eigenvalues of the tridiagonal, inverse iteration for their vectors, and
    the back-transform: the O(n^3) work of an eigenvalue-only solve plus
    O(n^2).
    """
    # Only the dense cross-checks (validate and the tests) use scipy;
    # importing it here keeps it off every experiment's import path.
    from scipy.linalg import lapack

    n = a.shape[0]
    lwork = int(lapack.dsytrd_lwork(n, lower=1)[0])
    # a is symmetric, so its transpose is the same matrix in Fortran order
    c, d, e, tau, info = lapack.dsytrd(a.T, lower=1, lwork=lwork,
                                       overwrite_a=1)
    if info != 0:
        raise EigensolverFailure(f"dsytrd returned info={info}")
    shifts = _lowest_tridiagonal_eigenvalues(d, e, 2)
    if n > 2:
        # the top one as the lowest of -T: dstebz can miss an index-n
        # eigenvalue that sits on the Gershgorin bound
        shifts.append(-_lowest_tridiagonal_eigenvalues(-d, e, 1)[0])
    # inverse iteration treating T as one unsplit block
    z, info = lapack.dstein(d, e, shifts, np.ones(n, dtype=np.int32),
                            np.full(n, n, dtype=np.int32))
    if info != 0:
        raise EigensolverFailure(f"dstein returned info={info}")
    # Q = diag(1, Q'), with Q' the QR-style reflectors stored below the
    # subdiagonal of c (what LAPACK's dormtr does for the lower triangle)
    z[1:], _, info = lapack.dormqr("L", "N", c[1:, :-1], tau, z[1:],
                                   lwork=max(1, 64 * z.shape[1]))
    if info != 0:
        raise EigensolverFailure(f"dormqr returned info={info}")
    return z[:, :2], z[:, -1]


def _lowest_tridiagonal_eigenvalues(d, e, count: int) -> list:
    """The ``count`` lowest eigenvalues of the tridiagonal (d, e), by bisection."""
    from scipy.linalg import lapack   # dense route only, as in _extreme_ritz_vectors

    m, w, *_, info = lapack.dstebz(d, e, 2, 0.0, 0.0, 1, count, 0.0, "E")
    if info != 0 or m != count:
        raise EigensolverFailure(f"dstebz returned info={info}, {m} of {count}")
    return list(w[:count])


def _dirichlet_forms(p: np.ndarray, log_pi: np.ndarray, low: np.ndarray,
                     top: np.ndarray):
    """phi^T (I - S) phi / |phi|^2 and psi^T (I + S) psi / |psi|^2 for a
    reversible P with stationary law pi = exp(log_pi), S = D^1/2 P D^-1/2
    and D = diag(pi): two (form, rounding estimate) pairs.

    ``low`` holds the Ritz vectors of I - S for its two lowest eigenvalues,
    which span {sqrt(pi), phi_1} up to rounding: phi is their leading
    direction once sqrt(pi) is projected out.  psi = ``top`` is the Ritz
    vector for the highest.  Each form is 1/2 sum_{x,y} (a -+ b)^2 with
    a = sqrt(P(x,y)) v_x and b = sqrt(P(y,x)) v_y, a sum of nonnegative
    terms; with g = phi/sqrt(pi) the first is the Dirichlet form
    1/2 sum pi(x) P(x,y) (g_x - g_y)^2, blind to any sqrt(pi) component of
    phi.  No term cancels, but each squares a difference whose a and b carry
    about 2 eps of relative rounding: the estimate is the shift that allows,
    2 eps sum |a -+ b| (|a| + |b|) / |v|^2.  It leaves out the Ritz
    vector's own error, yet on the marked model it tracked the whole error
    within a factor 4 against 50-digit references.  Rows are taken in
    blocks to bound the temporaries.
    """
    sqrt_pi = np.exp(0.5 * log_pi)
    phi = np.linalg.svd(low - np.outer(sqrt_pi, sqrt_pi @ low),
                        full_matrices=False)[0][:, 0]
    block = 256
    form_low = form_high = err_low = err_high = 0.0
    for lo in range(0, p.shape[0], block):
        hi = lo + block
        rows, cols = np.sqrt(p[lo:hi]), np.sqrt(p[:, lo:hi].T)
        a, b = rows * phi[lo:hi, None], cols * phi[None, :]
        d = a - b
        form_low += float(np.einsum("ij,ij->", d, d))
        err_low += float(np.einsum("ij,ij->", np.abs(d), np.abs(a) + np.abs(b)))
        a, b = rows * top[lo:hi, None], cols * top[None, :]
        d = a + b
        form_high += float(np.einsum("ij,ij->", d, d))
        err_high += float(np.einsum("ij,ij->", np.abs(d), np.abs(a) + np.abs(b)))
    eps = np.finfo(float).eps
    norm_low, norm_high = float(phi @ phi), float(top @ top)
    return ((0.5 * form_low / norm_low, 2.0 * eps * err_low / norm_low),
            (0.5 * form_high / norm_high, 2.0 * eps * err_high / norm_high))


def _checked_gap(ends) -> float:
    """1 - |lambda_2| from (value, rounding estimate) pairs for the ends of
    the spectrum, clipped into [0, 1]: ImpreciseGap when the end that sets
    it has an estimate above sqrt(eps) of its value."""
    value, err = min(ends, key=lambda end: end[0])
    if err > _GAP_RTOL * max(value, 0.0):
        raise ImpreciseGap(f"gap {value:.3e} has a rounding-error estimate of "
                           f"{err:.1e}, above {_GAP_RTOL:.1e} of it")
    return min(max(value, 0.0), 1.0)


# ---------------------------------------------------------------------------
# symmetry blocks

def _symmetry_blocks(x: np.ndarray):
    """Blocks B_k of L from its class entries x^t_{i,j}, k = 0..floor(N/2),
    by the difference form of the module docstring.

    Block k reads the k-th forward difference of x along t.  Its weights,
    each the positive C(m,l) C(l,r) C(m-l,l'-r) / sqrt(C(m,l) C(m,l')) of
    that formula and symmetric in l and l', are built for that block alone
    from the pair counts of its m unpaired spins (:func:`_pair_factors`).
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
        c_lr, c_rest = _pair_factors(binom, m)
        size = binom[m, :m + 1, None, None]
        weight = size * c_lr * c_rest
        weight /= np.sqrt(size * size[:, 0])
        blocks.append(np.einsum("ijr,ijr->ij", weight, d))
        del weight   # freed before the next difference is formed
    scale = max(max(float(np.max(np.abs(b))) for b in blocks), 1e-300)
    asym = max(float(np.max(np.abs(b - b.T))) for b in blocks) / scale
    if not asym <= _REVERSIBILITY_TOL:   # NaN fails too
        raise NotReversible(
            f"block asymmetry {asym:.3e} exceeds {_REVERSIBILITY_TOL:.1e}"
        )
    return [0.5 * (b + b.T) for b in blocks]


def check_block_route(n_spins: int) -> None:
    """BudgetExceeded unless ``_ROUTE_ARRAYS`` (N+1)^3 arrays, a bound on
    those :func:`spectral_gap_blocks` holds at once, keep the size rule
    together (N <= 139): a caller checks it before it builds a table for
    that route."""
    _check_entries("symmetry-block route", n_spins,
                   _ROUTE_ARRAYS * (n_spins + 1) ** 3)


def spectral_gap_blocks(kernel: ProposalKernel,
                        measure: GibbsMeasure) -> float:
    """Gap 1 - |lambda_2| of the MH chain of a permutation-invariant kernel,
    from the chain's floor(N/2)+1 symmetry blocks, with no 2^N x 2^N matrix.

    Block 0 is the distance chain of :func:`~qemcmc.chain._class_chain`,
    lumped onto the distances from the marked state; as in
    :func:`spectral_gap_dense`, each end of its spectrum is the Rayleigh
    quotient of its Ritz vector in Dirichlet form on that chain, so a gap
    far below the rest of the spectrum keeps the relative accuracy of the
    form's terms.  Their rounding grows as the gap shrinks: past sqrt(eps)
    of the gap (:func:`_checked_gap`; on the marked model at beta = 5, past
    about N = 70 for the transverse chain at h = t = 1 and N = 95 for the
    averaged grover one) the route raises ImpreciseGap.  Blocks k >= 1 give
    their extreme eigenvalues directly, good to about eps * |B_k| <= 2 eps
    in absolute terms only, which is their estimate: a gap set there
    (nearly periodic transverse chains, h t near pi/2) raises below about
    3e-8.

    The route holds up to five (N+1)^3 float64 arrays at once (the kernel's
    table, the pair counts, and move and x, or x and two differences of x or
    a difference and a block's weights); the one size rule counts six
    together (:func:`check_block_route`), checked before the kernel's table
    is read or filled.
    """
    check_block_route(kernel.n_spins)
    _, _, x, distance, log_pi = _class_chain(kernel, measure)   # move freed
    block0, *rest = _symmetry_blocks(x)
    _, vec = np.linalg.eigh(block0)
    ends = list(_dirichlet_forms(distance, log_pi, vec[:, :2], vec[:, -1]))
    for block in rest:
        lam = np.linalg.eigvalsh(block)
        err = np.finfo(float).eps * float(np.max(np.abs(lam)))
        ends += [(float(lam[0]), err), (2.0 - float(lam[-1]), err)]
    return _checked_gap(ends)


def uniform_gap_closed_form(n_spins: int, alpha: float, beta: float) -> float:
    """Exact gap of the uniform-proposal MH chain on the marked-state model.

    Evaluated in log space; the radicand is a perfect square, so this is
    2^-N * (1 + e^{-N beta alpha} (2^N - 1)).
    """
    if n_spins < 1:
        raise ValueError("n_spins must be >= 1")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    u = _log_pow2m1(n_spins) - n_spins * beta * alpha
    return math.exp(np.logaddexp(0.0, u) - n_spins * _LN2)


def _grover_gaps(n_spins, alpha: float, beta: float, cf: GroverClosedForm):
    """1 - lambda for the nontrivial eigenvalues of the grover chain whose
    proposal probabilities ``cf`` holds at N = ``n_spins``: floats, or
    arrays.

    The two-level block {marked, uniform-unmarked} gives
    q_marked * (1 + (2^N - 1) e^{-N beta alpha}), the weight factor taken in
    log space; the (2^N - 2)-fold unmarked bulk gives
    q_marked + (2^N - 1) * q_unmarked.  Both are sums of nonnegative terms.
    At N = 1 the bulk is empty, and :func:`_gap_per_n` drops its value.
    """
    n = np.asarray(n_spins)
    weight = _per_n(n, lambda k: math.exp(
        np.logaddexp(0.0, _log_pow2m1(k) - k * beta * alpha)))
    return (cf.q_marked * weight,
            cf.q_marked + _per_n(n, lambda k: 2.0 ** k - 1.0) * cf.q_unmarked)


def _gap_from_blocks(*deltas: float) -> float:
    """1 - max|lambda| given the values 1 - lambda of the nontrivial eigenvalues."""
    return min(min(d, 2.0 - d) for d in deltas)


def _gap_per_n(n_spins, two_level, bulk):
    """:func:`_gap_from_blocks` at each N (a float at one N, else a list)."""
    rows = zip(*(np.ravel(v).tolist() for v in (n_spins, two_level, bulk)))
    gaps = [_gap_from_blocks(*((a,) if n == 1 else (a, b)))
            for n, a, b in rows]
    return gaps if np.ndim(n_spins) else gaps[0]


def grover_gap_closed_form(n_spins, alpha: float, beta: float, h, t: float):
    """Exact gap 1 - max|lambda| of the grover-mixed chain, over the two-level
    block and the unmarked bulk (empty at N = 1), at one N or, as a list,
    over an array of N (with h one field or one per N)."""
    cf = _grover_values(n_spins, alpha, h, t)
    return _gap_per_n(n_spins, *_grover_gaps(n_spins, alpha, beta, cf))


# ---------------------------------------------------------------------------
# time-averaged kernels

@dataclass(frozen=True)
class AveragingScheme:
    """(h, t) randomization used when parameters are redrawn each MCMC step:
    ``h`` is a fixed field, ``"resonance"`` or an (lo, hi) range of fields."""

    h: float | str | tuple
    t_range: tuple
    sample_count: int = 64

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        h_ends = (self.h if isinstance(self.h, tuple) else
                  () if self.h == "resonance" else (self.h,))
        ends = [*self.t_range, *h_ends]
        if not all(math.isfinite(v) for v in ends):
            raise ValueError(f"h and t must be finite, not {ends}")
        if (isinstance(self.h, tuple)
                and math.isqrt(self.sample_count) ** 2 != self.sample_count):
            raise ValueError("an h range averages over a square grid: "
                             f"sample count {self.sample_count} is not a "
                             "perfect square")

    def grid(self, n_spins, alpha: float):
        """h and t of the samples at each N, broadcasting over (N, sample):
        ``sample_count`` times on ``t_range`` at a fixed h (at resonance, that
        of each N), or a square grid over the h range x ``t_range``."""
        t0, t1 = self.t_range
        if isinstance(self.h, tuple):
            side = math.isqrt(self.sample_count)
            hh, tt = np.meshgrid(np.linspace(*self.h, side),
                                 np.linspace(t0, t1, side), indexing="ij")
            return hh.ravel(), tt.ravel()
        ts = np.linspace(t0, t1, self.sample_count)
        if self.h != "resonance":
            return self.h, ts
        n = np.expand_dims(n_spins, -1)
        return _per_n(n, lambda k: resonance_field(alpha, k)), ts

    def values(self, n_spins, alpha: float) -> GroverClosedForm:
        """The closed form over the (N, sample) grid in one pass, under the
        size rule: (sample_count,) arrays at one N, a row per N of an array,
        ``_GRID_ARRAYS`` of them at once (tracemalloc's peak: 20.2 at
        N = 10..20, 22.2 at one N with an h range)."""
        _check_entries("averaging grid", np.max(n_spins),
                       _GRID_ARRAYS * np.size(n_spins) * self.sample_count)
        return _grover_values(np.expand_dims(n_spins, -1), alpha,
                              *self.grid(n_spins, alpha))


def time_averaged_kernel(h_c: MarkedStateHamiltonian,
                         values: GroverClosedForm) -> StructuredMarkedKernel:
    """Mean grover proposal kernel over one N's samples, whose closed-form
    ``values`` are a row of :meth:`AveragingScheme.values`, hence symmetric
    and doubly stochastic: each sample's values clamped as a kernel table
    clamps them and summed in sample order, so it equals the mean of the
    per-sample tables to the bit.
    """
    n = h_c.n_spins
    stack = np.stack(values, axis=-1)   # shape (samples, 4)
    # an axis-0 reduction adds the rows in order, as a sum of tables does
    mean = (1.0 / len(stack)) * _clamped(stack, n).sum(axis=0)
    return StructuredMarkedKernel(n, h_c.marked, *mean)


def averaged_grover_gap(n_spins, alpha: float, beta: float,
                        values: GroverClosedForm):
    """Gap of the chain driven by the averaged grover kernel, from
    :meth:`AveragingScheme.values` at ``n_spins``, one N or an array of N.

    Both block gaps are linear in the proposal probabilities, so each is
    averaged over the samples before the smaller is taken; this equals the
    gap of the chain driven by the averaged kernel.
    """
    blocks = _grover_gaps(np.expand_dims(n_spins, -1), alpha, beta, values)
    return _gap_per_n(n_spins, *(np.mean(b, axis=-1) for b in blocks))


def scaling_fit(points) -> float:
    """Least-squares slope of log2(delta) against N."""
    points = list(points)
    if len(points) < 4:
        raise ValueError("need at least 4 points for a scaling fit")
    ns = np.array([n for n, _ in points], dtype=float)
    deltas = np.array([d for _, d in points], dtype=float)
    if np.any(deltas <= 0):
        raise ValueError("all gaps must be positive")
    return float(np.polyfit(ns, np.log2(deltas), 1)[0])
