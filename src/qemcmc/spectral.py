"""Spectral gaps of reversible chains: the symmetry-block route, the dense
eigensolve that cross-checks it, closed forms for the uniform and grover
proposals, mixing-time bounds, and time-averaged kernels.  Every gap route
returns delta = 1 - |lambda_2| as a float; the relaxation-time bounds on the
mixing time are a separate function of delta and log pi_min.  The grover gaps,
single and time-averaged, come from the two block gaps of one helper, and
the time-averaged grover kernel is one mean: all read the four proposal
probabilities of the one grover closed form of :mod:`qemcmc.quantum`.  The
averaged routes evaluate it over the scheme's whole (h, t) grid in one array
pass, and their reductions keep the rounding of the per-sample loop, so
they equal it to the bit.  The two-level weight factor exp(logaddexp(0, u))
depends only on N, alpha and beta, so it stays one scalar math.exp (numpy's
exp on an array rounds some inputs differently).  The averaged gap is
np.mean of the per-sample block gaps, not the mean proposal times that
factor, which rounds differently.  The averaged table is an axis-0 sum,
which adds the per-sample rows in sample order, as a sum of tables does.

A chain on the marked model whose kernel is invariant under permutations of
the spins about the marked state k (every kernel the experiments build) has
L = D^1/2 (I - P) D^-1/2 in the Terwilliger algebra of the hypercube, so its
whole spectrum comes from floor(N/2)+1 symmetric blocks of order at most N+1
(Schrijver, IEEE Trans. Inf. Theory 51, 2859 (2005)).  Block k has
multiplicity C(N,k) - C(N,k-1) and entries

    B_k[i,j] = sum_t beta^t_{i,j,k} x^t_{i,j} / sqrt(C(N-2k,i-k) C(N-2k,j-k))

over i, j in [k, N-k], where x^t_{i,j} is the entry of L between states at
distances i and j from k whose moves away from k overlap in t spins.  The
integers beta^t_{i,j,k} come from one batched product of two binomial tables
(:func:`_schrijver_beta`), exact: in int64 while a float64 bound certifies
that no partial sum overflows (through N = 26), on Python ints beyond; only
the quotient by the square root is rounded.  Block 0 is the symmetrized
chain lumped onto the N+1 distances: the one lumped chain of
:mod:`qemcmc.chain`, which the exact mixing time reads at every cut.

An eigenvalue read off a float64 eigensolver is good only to about
eps * |I - P|, the largest eigenvalue, however small the gap.  So the dense
solve, and block 0 of the block route, take each end of the spectrum instead
as the Rayleigh quotient of its Ritz vector, written as a Dirichlet form: a
sum of nonnegative terms, whose accuracy scales with the gap itself rather
than with 1.  The dense solve works on I - P (diagonal rebuilt from
off-diagonal row sums) and is the cross-check of the block route, used by the
acceptance checks and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EigensolverFailure, NotReversible
from .model import GibbsMeasure, MarkedStateHamiltonian, _log_pow2m1
from .proposal import (
    ProposalKernel,
    StructuredMarkedKernel,
    _binomials,
    _check_entries,
    _clamped,
)
from .quantum import (
    GroverClosedForm,
    _grover_values,
    quantum_kernel,  # perfbench traces this name here
)
from .chain import TransitionMatrix, _class_chain, _lumped_chain

_LN2 = math.log(2.0)
_REVERSIBILITY_TOL = 1e-9    # largest relative detailed-balance deviation


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
    """Gap 1 - |lambda_2| of P by a symmetric eigensolve: the O(8^N)
    cross-check of :func:`spectral_gap_blocks`, and the package's only route
    through scipy (its LAPACK tridiagonal reduction and bisection).

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
    gap_low, gap_high = _dirichlet_forms(
        p.p, p.stationary.log_probabilities(), low, top)
    return min(max(min(gap_low, gap_high), 0.0), 1.0)


def _extreme_ritz_vectors(a: np.ndarray):
    """Unit eigenvectors of the symmetric matrix ``a`` for its two lowest
    eigenvalues (columns of the first array) and its highest one.  ``a`` is
    overwritten.

    One Householder tridiagonalization, bisection for the three wanted
    eigenvalues of the tridiagonal, inverse iteration for their vectors, and
    the back-transform: the O(n^3) work of an eigenvalue-only solve plus
    O(n^2).
    """
    # This dense route (validate and the tests) is the package's only scipy
    # user; importing scipy here keeps it off every experiment's import path.
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
    and D = diag(pi).

    ``low`` holds the Ritz vectors of I - S for its two lowest eigenvalues,
    which span {sqrt(pi), phi_1} up to rounding: phi is their leading
    direction once sqrt(pi) is projected out.  psi = ``top`` is the Ritz
    vector for the highest.  Each form is written as
    1/2 sum_{x,y} (sqrt(P(x,y)) v_x -+ sqrt(P(y,x)) v_y)^2, a sum of
    nonnegative terms.  With g = phi/sqrt(pi) the first is the Dirichlet
    form 1/2 sum pi(x) P(x,y) (g_x - g_y)^2, blind to any sqrt(pi) component
    of phi.  No term cancels, so a small result keeps the relative accuracy
    of P's entries.  Rows are taken in blocks to bound the temporaries.
    """
    sqrt_pi = np.exp(0.5 * log_pi)
    phi = np.linalg.svd(low - np.outer(sqrt_pi, sqrt_pi @ low),
                        full_matrices=False)[0][:, 0]
    block = 256
    form_low = form_high = 0.0
    for lo in range(0, p.shape[0], block):
        hi = lo + block
        rows, cols = np.sqrt(p[lo:hi]), np.sqrt(p[:, lo:hi].T)
        d = rows * phi[lo:hi, None] - cols * phi[None, :]
        form_low += float(np.einsum("ij,ij->", d, d))
        d = rows * top[lo:hi, None] + cols * top[None, :]
        form_high += float(np.einsum("ij,ij->", d, d))
    return 0.5 * form_low / float(phi @ phi), 0.5 * form_high / float(top @ top)


# ---------------------------------------------------------------------------
# symmetry blocks

def _schrijver_factors(binomials: np.ndarray, n: int):
    """The two factors of beta^t_{i,j,k} = sum_u A[k,u,t] B[k,i,j,u],

        A[k,u,t]   = (-1)^(u-t) C(u,t) C(N-2k,u-k),
        B[k,i,j,u] = C(N-k-u,i-u) C(N-k-u,j-u),

    read in the dtype of ``binomials``, the table C(a,b) over a, b in [0, N]
    (0 for b > a); a binomial with a negative argument is 0.
    """
    def comb(a, b):
        return np.where((a >= 0) & (b >= 0),
                        binomials[np.maximum(a, 0), np.maximum(b, 0)], 0)

    r = np.arange(n + 1)
    k, u, t = np.arange(n // 2 + 1)[:, None, None], r[:, None], r
    a = (1 - 2 * ((u - t) & 1)) * comb(u, t) * comb(n - 2 * k, u - k)
    k, i, j, u = k[..., None], r[:, None, None], r[:, None], r
    b = comb(n - k - u, i - u) * comb(n - k - u, j - u)
    return a, b


def _schrijver_beta(n: int):
    """Schrijver's beta^t_{i,j,k} over (k, i, j, t) and the norms
    C(N-2k,i-k) C(N-2k,j-k) over (k, i, j), as exact integers: zero outside
    k <= i, j <= N-k and t <= min(i, j).

    beta = B @ A (see :func:`_schrijver_factors`) runs in int64 when a
    float64 bound on the factors and on sum_u |A| |B| shows that no entry and
    no partial sum can reach 2^62, and on Python ints otherwise.
    """
    _check_entries("block coefficients", n, (n // 2 + 1) * (n + 1) ** 3)
    # Python ints, not the float table proposal._binomials: beta here and the
    # block multiplicities of _symmetry_blocks are exact integers
    binomials = np.array([[math.comb(a, b) for b in range(n + 1)]
                          for a in range(n + 1)], dtype=object)
    a, b = _schrijver_factors(_binomials(n), n)
    bound = max(float(np.max(np.abs(b) @ np.abs(a)[:, None])),
                float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    # 2^62 leaves int64 a factor 2 over the bound's float64 rounding
    a, b = _schrijver_factors(
        binomials.astype(np.int64 if bound < 2.0 ** 62 else object), n)
    k = np.arange(n // 2 + 1)
    # B at u = k is C(N-2k,i-k) C(N-2k,j-k)
    return b @ a[:, None], b[k, :, :, k]


@lru_cache(maxsize=None)
def _block_coefficients(n_spins: int) -> np.ndarray:
    """beta^t_{i,j,k} / sqrt(C(N-2k,i-k) C(N-2k,j-k)) over (k, i, j, t), zero
    outside k <= i, j <= N-k; only this quotient is rounded."""
    beta, norm = _schrijver_beta(n_spins)
    coef = np.zeros(beta.shape)
    np.divide(beta.astype(float), np.sqrt(norm.astype(float))[..., None],
              out=coef, where=(norm > 0)[..., None])
    coef.flags.writeable = False
    return coef


def _symmetry_blocks(x: np.ndarray, coef: np.ndarray):
    """Blocks B_k of L from its class entries x^t_{i,j}, k = 0..floor(N/2),
    each with its multiplicity C(N,k) - C(N,k-1); ``coef`` is
    :func:`_block_coefficients` at N.

    Their asymmetry is the reversibility certificate; the blocks returned
    are symmetrized.
    """
    n = x.shape[0] - 1
    full = np.einsum("kijt,ijt->kij", coef, x)
    blocks = [full[k, k:n - k + 1, k:n - k + 1] for k in range(n // 2 + 1)]
    scale = max(max(float(np.max(np.abs(b))) for b in blocks), 1e-300)
    asym = max(float(np.max(np.abs(b - b.T))) for b in blocks) / scale
    if not asym <= _REVERSIBILITY_TOL:   # NaN fails too
        raise NotReversible(
            f"block asymmetry {asym:.3e} exceeds {_REVERSIBILITY_TOL:.1e}"
        )
    return [(0.5 * (b + b.T), math.comb(n, k) - (math.comb(n, k - 1) if k else 0))
            for k, b in enumerate(blocks)]


def spectral_gap_blocks(kernel: ProposalKernel,
                        measure: GibbsMeasure) -> float:
    """Gap 1 - |lambda_2| of the MH chain of a permutation-invariant kernel,
    from the chain's floor(N/2)+1 symmetry blocks, with no 2^N x 2^N matrix.

    Block 0 is the chain lumped onto the distances from the marked state
    (:func:`~qemcmc.chain._lumped_chain` at w = 0); as in
    :func:`spectral_gap_dense`, each end of its spectrum is the Rayleigh
    quotient of its Ritz vector in Dirichlet form on that chain, so a gap
    far below the rest of the spectrum keeps its relative accuracy.
    Blocks k >= 1 give their extreme eigenvalues directly, good to about
    eps * |B_k| <= 2 eps in absolute terms only.  So the relative accuracy
    holds only when the extreme mode lies in block 0; a tiny gap set by
    block k >= 1 (nearly periodic transverse chains, h t near pi/2) keeps
    about eps / delta of it.
    """
    n = kernel.n_spins
    coef = _block_coefficients(n)   # its size rule before any assembly
    move, stay, x = _class_chain(kernel, measure)
    lumped, log_pi = _lumped_chain(move, stay, measure, 0)
    (block0, _), *rest = _symmetry_blocks(x, coef)
    _, vec = np.linalg.eigh(block0)
    ends = list(_dirichlet_forms(lumped, log_pi, vec[:, :2], vec[:, -1]))
    for block, _ in rest:
        lam = np.linalg.eigvalsh(block)
        ends += [float(lam[0]), 2.0 - float(lam[-1])]
    return min(max(min(ends), 0.0), 1.0)


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


def _grover_gaps(n_spins: int, alpha: float, beta: float,
                 cf: GroverClosedForm):
    """1 - lambda for the two nontrivial eigenvalues of the grover chain
    whose proposal probabilities ``cf`` holds: floats, or arrays over the
    samples of a grid.

    The two-level block {marked, uniform-unmarked} gives
    q_marked * (1 + (2^N - 1) e^{-N beta alpha}), the weight factor taken in
    log space; the (2^N - 2)-fold unmarked bulk gives
    q_marked + (2^N - 1) * q_unmarked.  Both are sums of nonnegative terms.
    """
    u = _log_pow2m1(n_spins) - n_spins * beta * alpha
    two_level = cf.q_marked * math.exp(np.logaddexp(0.0, u))
    bulk = cf.q_marked + (2.0 ** n_spins - 1.0) * cf.q_unmarked
    return two_level, bulk


def _gap_from_blocks(*deltas: float) -> float:
    """1 - max|lambda| given the values 1 - lambda of the nontrivial eigenvalues."""
    return min(min(d, 2.0 - d) for d in deltas)


def grover_gap_closed_form(n_spins: int, alpha: float, beta: float,
                           h: float, t: float) -> float:
    """Exact gap 1 - max|lambda| of the grover-mixed chain, over the two-level
    block and the unmarked bulk."""
    cf = _grover_values(n_spins, alpha, h, t)
    return float(_gap_from_blocks(*_grover_gaps(n_spins, alpha, beta, cf)))


# ---------------------------------------------------------------------------
# time-averaged kernels

@dataclass(frozen=True)
class AveragingScheme:
    """(h, t) randomization used when parameters are redrawn each MCMC step."""

    t_range: tuple
    h_fixed: float | None = None
    h_range: tuple | None = None
    sample_count: int = 64

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        ends = [*self.t_range, *(self.h_range or ()), self.h_fixed or 0.0]
        if not all(math.isfinite(v) for v in ends):
            raise ValueError(f"h and t must be finite, not {ends}")
        if (self.h_fixed is None) == (self.h_range is None):
            raise ValueError("exactly one of h_fixed/h_range must be set")
        if (self.h_range is not None
                and math.isqrt(self.sample_count) ** 2 != self.sample_count):
            raise ValueError("an h range averages over a square grid: "
                             f"sample count {self.sample_count} is not a "
                             "perfect square")

    def samples(self) -> np.ndarray:
        """The (h, t) grid, shape (sample_count, 2): ``sample_count`` times
        on ``t_range`` at a fixed h, or a square grid over ``h_range`` x
        ``t_range``."""
        t0, t1 = self.t_range
        if self.h_fixed is not None:
            ts = np.linspace(t0, t1, self.sample_count)
            return np.column_stack([np.full_like(ts, self.h_fixed), ts])
        side = math.isqrt(self.sample_count)
        hs = np.linspace(*self.h_range, side)
        ts = np.linspace(t0, t1, side)
        hh, tt = np.meshgrid(hs, ts, indexing="ij")
        return np.column_stack([hh.ravel(), tt.ravel()])


def time_averaged_kernel(h_c: MarkedStateHamiltonian,
                         scheme: AveragingScheme) -> StructuredMarkedKernel:
    """Mean grover proposal kernel over the scheme's (h, t) samples, hence
    symmetric and doubly stochastic: the mean of the four closed-form values,
    evaluated over the samples in one array pass, each clamped as a kernel
    table clamps it and summed in sample order, so it equals the mean of the
    per-sample tables to the bit.
    """
    n = h_c.n_spins
    # the values over the samples, shape (samples, 4)
    values = np.stack(_grover_values(n, h_c.alpha, *scheme.samples().T),
                      axis=-1)
    # an axis-0 reduction adds the rows in order, as a sum of tables does
    mean = (1.0 / len(values)) * _clamped(values, n).sum(axis=0)
    return StructuredMarkedKernel(n, h_c.marked, *mean)


def averaged_grover_gap(n_spins: int, alpha: float, beta: float,
                        scheme: AveragingScheme) -> float:
    """Gap of the chain driven by the averaged grover kernel.

    Both block gaps are linear in the proposal probabilities, so each is
    averaged over the scheme's (h, t) samples before the smaller is taken;
    this equals the gap of the chain driven by the averaged kernel.
    """
    cf = _grover_values(n_spins, alpha, *scheme.samples().T)
    two_level, bulk = _grover_gaps(n_spins, alpha, beta, cf)
    return _gap_from_blocks(float(np.mean(two_level)), float(np.mean(bulk)))


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
