"""Statevector evolution under H = H_c + h*H_mix and quantum proposal kernels.

Two mixing terms are supported: the rank-1 "grover" mixer N|s><s| (|s> the
uniform superposition) and the "transverse" mixer sum_i sigma^x_i.  For both,
H leaves the span S of the N+1 Dicke states about the marked state k
invariant (|k> and |s> lie in it) and acts off S as its free part: zero for
grover, the free mixer for transverse.  So e^{-iHt} is the free evolution
plus a correction of order N+1 on S, and one sector propagator
(:func:`_sector_propagator`) serves both the transverse kernel table and
statevector evolution (:func:`evolve`), exactly and with no iteration.  With
the grover mixer, H leaves span{|k>, |u>} invariant (|u> the uniform state
over unmarked configurations), so one closed form,
:func:`grover_closed_form`, gives its four distinct proposal probabilities,
and every grover kernel and column is built from it.  A transverse kernel
costs two eigensolves of order N+1 for its (N+1)^3 table over (|x^y|, |x^k|,
|y^k|); a column is an O(2^N) gather from that table, and only a dense
matrix asks for the O(4^N) fill.  Dense diagonalization is the independent
cross-check of every structured route.
The dense Hamiltonian, a dense kernel, a column and the kernel table keep the
one size rule of :mod:`qemcmc.proposal`: N <= 12 for a matrix, N <= 24 for a
column, N <= 202 for the table.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import MismatchedDimensions
from .model import MarkedStateHamiltonian
from .proposal import (
    DenseKernel,
    PermutationInvariantKernel,
    ProposalKernel,
    StructuredMarkedKernel,
    _check_entries,
)

GROVER = "grover"
TRANSVERSE = "transverse"


@dataclass(frozen=True)
class MixerSpec:
    """Mixing Hamiltonian choice and its signed field strength h."""

    variant: str
    field_strength: float

    def __post_init__(self):
        if self.variant not in (GROVER, TRANSVERSE):
            raise ValueError(f"unknown mixer variant {self.variant!r}")
        if not math.isfinite(self.field_strength):
            raise ValueError("field strength must be finite")


def apply_hamiltonian(h_c: MarkedStateHamiltonian, mixer: MixerSpec,
                      psi: np.ndarray) -> np.ndarray:
    """Return H |psi> (unnormalized). Cost O(N 2^N) transverse, O(2^N) grover.

    No propagator calls it; it is the matrix-free H of the tests' large-N
    reference evolution, and ``perfbench/spans.py`` wraps it by name."""
    n = h_c.n_spins
    dim = h_c.dim
    if psi.shape != (dim,):
        raise MismatchedDimensions(f"state has shape {psi.shape}, expected ({dim},)")
    h = mixer.field_strength
    out = np.zeros(dim, dtype=np.result_type(psi, np.float64))
    if mixer.variant == GROVER:
        # h * N |s><s| psi: every amplitude receives h*N*mean(psi)
        out += h * n * psi.sum() / dim
    else:
        arr = psi.reshape((2,) * n)
        acc = np.zeros_like(arr)
        for axis in range(n):
            acc += np.flip(arr, axis=axis)   # sigma^x on one site = bit toggle
        out += h * acc.reshape(-1)
    out[h_c.marked] += -h_c.alpha * n * psi[h_c.marked]
    return out


def dense_hamiltonian(h_c: MarkedStateHamiltonian, mixer: MixerSpec) -> np.ndarray:
    n = h_c.n_spins
    dim = h_c.dim
    _check_entries("dense Hamiltonian", n, dim * dim)
    h = mixer.field_strength
    if mixer.variant == GROVER:
        ham = np.full((dim, dim), h * n / dim)
    else:
        ham = np.zeros((dim, dim))
        rows = np.arange(dim)
        for i in range(n):
            ham[rows, rows ^ (1 << i)] = h
    ham[h_c.marked, h_c.marked] += -h_c.alpha * n
    return ham


# ---------------------------------------------------------------------------
# propagators


def _eigendecomposition(h_c, mixer):
    ham = dense_hamiltonian(h_c, mixer)
    return np.linalg.eigh(ham)


def _dense_evolve(h_c, mixer, psi, t):
    lam, vec = _eigendecomposition(h_c, mixer)
    return vec @ (np.exp(-1j * lam * t) * (vec.T @ psi))


def _sector_hamiltonian(n, variant, h, marked_energy):
    """H on the Dicke states |D_w> about the marked state, w = 0..n.

    h*sum(sigma^x) is tridiagonal there with hops h*sqrt((w+1)(n-w)), and
    h*N|s><s| is h*N s s^T with s_w = sqrt(C(n,w)/2^n); the marked term adds
    ``marked_energy`` at w = 0.
    """
    if variant == GROVER:
        s = np.sqrt([math.comb(n, w) / 2.0 ** n for w in range(n + 1)])
        ham = h * n * np.outer(s, s)
    else:
        w = np.arange(n)
        hop = h * np.sqrt((w + 1.0) * (n - w))
        ham = np.diag(hop, 1) + np.diag(hop, -1)
    ham[0, 0] += marked_energy
    return ham


def _sector_propagator(ham, t):
    """e^{-i ham t} for a sector Hamiltonian of order N+1."""
    lam, vec = np.linalg.eigh(ham)
    return (vec * np.exp(-1j * lam * t)) @ vec.T


def _sector_evolve(h_c, mixer, psi, t):
    """e^{-iHt} psi from the Dicke sector S about the marked state k.

    H leaves S invariant (|k> and |s> lie in it) and acts off S as its free
    part: 0 for grover, h*sum(sigma^x) for transverse.  So
    e^{-iHt} = F + B (U_S - F_S) B^T exactly, with B the Dicke basis about k
    and F = I (grover) or (cos ht I - i sin ht X)^{(x)N} (transverse), in
    O(N 2^N) with no iteration.
    """
    n = h_c.n_spins
    h = mixer.field_strength
    weight = np.bitwise_count(np.arange(h_c.dim) ^ h_c.marked)
    scale = 1.0 / np.sqrt([float(math.comb(n, w)) for w in range(n + 1)])
    coef = scale * (np.bincount(weight, psi.real, n + 1)
                    + 1j * np.bincount(weight, psi.imag, n + 1))
    u_s = _sector_propagator(
        _sector_hamiltonian(n, mixer.variant, h, -h_c.alpha * n), t)
    if mixer.variant == GROVER:
        free, f_s = psi.astype(complex), np.eye(n + 1)
    else:
        c, s = math.cos(h * t), math.sin(h * t)
        free = psi.astype(complex).reshape((2,) * n)
        for axis in range(n):
            free = c * free - 1j * s * np.flip(free, axis=axis)
        free = free.reshape(-1)
        f_s = _sector_propagator(_sector_hamiltonian(n, TRANSVERSE, h, 0.0), t)
    return free + (scale * ((u_s - f_s) @ coef))[weight]


def evolve(h_c: MarkedStateHamiltonian, mixer: MixerSpec, psi0: np.ndarray,
           t: float, method: str = "auto") -> np.ndarray:
    """Return e^{-iHt} |psi0> from the Dicke sector about the marked state
    (``auto``, the default: see :func:`_sector_evolve`) or by dense
    diagonalization (``dense``, its independent cross-check).  Any other
    method raises ValueError."""
    if method not in ("auto", "dense"):
        raise ValueError("evolve takes method 'auto' or 'dense', "
                         f"not {method!r}")
    if not math.isfinite(t):
        raise ValueError("evolution time must be finite")
    if psi0.shape != (h_c.dim,):
        raise MismatchedDimensions(
            f"state has shape {psi0.shape}, expected ({h_c.dim},)"
        )
    norm = np.linalg.norm(psi0)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"initial state norm {norm} is not 1")
    if t == 0.0:
        return psi0.astype(complex)
    if method == "dense":
        return _dense_evolve(h_c, mixer, psi0.astype(complex), t)
    return _sector_evolve(h_c, mixer, psi0, t)


# ---------------------------------------------------------------------------
# transverse kernel table

def _transverse_table(h_c, h, t):
    """Transverse-mixer Q(x|y) as a table over (d, w_x, w_y): d = |x^y| and
    w_x, w_y the Hamming distances of x and y from the marked state k.

    H leaves the symmetric sector S spanned by the Dicke states around k
    invariant and equals the free mixer on its complement, so
    U = U0 + B (U_S - U0_S) B^T with U0 = (cos ht I - i sin ht X)^{(x)N} and
    B the Dicke basis.  Hence <x|U|y> = cos^{N-d}(ht) (-i sin ht)^d
    + (U_S - U0_S)(w_x, w_y) / sqrt(C(N,w_x) C(N,w_y)).  Entries with x = k
    or y = k are read off U_S alone, so the marked column carries no
    cancellation against U0.
    """
    n = h_c.n_spins
    _check_entries("kernel table", n, 2 * (n + 1) ** 3)   # amp, complex
    u_s = _sector_propagator(
        _sector_hamiltonian(n, TRANSVERSE, h, -h_c.alpha * n), t)
    u_0 = _sector_propagator(_sector_hamiltonian(n, TRANSVERSE, h, 0.0), t)
    w = np.arange(n + 1)
    # float() first: numpy keeps binomials above 2^64 (N >= 68) as objects
    scale = 1.0 / np.sqrt([float(math.comb(n, j)) for j in w])
    c, s = math.cos(h * t), math.sin(h * t)
    free = c ** (n - w) * s ** w * np.array([1, -1j, -1, 1j])[w % 4]
    amp = free[:, None, None] + ((u_s - u_0) * scale * scale[:, None])[None]
    amp[w, w, 0] = u_s[:, 0] * scale
    amp[w, 0, w] = u_s[0, :] * scale
    return amp.real ** 2 + amp.imag ** 2


# ---------------------------------------------------------------------------
# proposal kernels

def quantum_kernel(h_c: MarkedStateHamiltonian, mixer: MixerSpec, t: float,
                   method: str = "auto") -> ProposalKernel:
    """Proposal kernel Q(x|y) = |<x| e^{-iHt} |y>|^2.

    ``auto`` builds it on the mixer's invariant subspace: the grover closed
    form (:func:`structured_grover_kernel`), or the transverse symmetric
    sector's (d, w_x, w_y) table, which densifies in O(4^N) only on demand.
    ``dense`` is the independent cross-check of both, an O(8^N)
    diagonalization of H.  Any other method raises ValueError.
    """
    if method not in ("auto", "dense"):
        raise ValueError("quantum_kernel takes method 'auto' or 'dense', "
                         f"not {method!r}")
    n = h_c.n_spins
    if not math.isfinite(t):
        raise ValueError("evolution time must be finite")
    if method == "auto":
        if mixer.variant == GROVER:
            return structured_grover_kernel(h_c, mixer.field_strength, t)
        return PermutationInvariantKernel(
            n, h_c.marked, _transverse_table(h_c, mixer.field_strength, t))
    lam, vec = _eigendecomposition(h_c, mixer)
    re = (vec * np.cos(lam * t)) @ vec.T
    im = (vec * np.sin(lam * t)) @ vec.T
    return DenseKernel(re * re + im * im, n)


def quantum_proposal_column(h_c: MarkedStateHamiltonian, mixer: MixerSpec,
                            t: float, y: int) -> np.ndarray:
    """Measurement distribution after one evolution from basis state y,
    gathered from the table of :func:`quantum_kernel` in O(2^N)."""
    return quantum_kernel(h_c, mixer, t).column(y)


# ---------------------------------------------------------------------------
# grover two-level closed form

def resonance_field(alpha: float, n_spins: int) -> float:
    """Field at which the two-level frequency collapses to O(2^{-N/2})."""
    if n_spins < 1:
        raise ValueError("n_spins must be >= 1")
    return -alpha / (1.0 - 2.0 ** -n_spins)


def two_level_frequency(n_spins: int, alpha: float, h: float) -> float:
    """omega = gamma / N, with gamma half the level splitting of H on
    span{|k>, |u>} (|u> the uniform state over unmarked configurations)."""
    radicand = (alpha + h) ** 2 - alpha * h * 2.0 ** (2 - n_spins)
    return 0.5 * math.sqrt(max(radicand, 0.0))


@dataclass(frozen=True)
class GroverClosedForm:
    """The four distinct grover proposal probabilities on span{|k>, |u>}, in
    the argument order of :class:`~qemcmc.proposal.StructuredMarkedKernel`."""

    q_marked: float
    q_unmarked: float
    q_marked_stay: float
    q_unmarked_stay: float


def grover_closed_form(n_spins: int, alpha: float, h: float,
                       t: float) -> GroverClosedForm:
    """Exact proposal probabilities of the grover-mixed evolution.

    ``q_marked`` is the probability of proposing the marked state from any
    other state (and vice versa), ``q_unmarked`` the probability of moving
    between two distinct unmarked states; the stay values follow from
    normalization.  With e^{-iHt} = e^{-i phi t}(cos gamma t - i sin gamma t
    n.sigma) on the two levels, each q value is a sum of squares of terms
    that vanish with t, so no term of order one cancels as t -> 0, and every
    sin(gamma t)/gamma goes through sinc, so the gamma -> 0 limit is the
    removable one.
    """
    dim = 2.0 ** n_spins
    gamma_t = n_spins * two_level_frequency(n_spins, alpha, h) * t
    # sin(gamma t)/gamma = t*sinc(gamma t/pi); h*N*that/2^N = sqrt(q_marked)
    sinc = np.sinc(gamma_t / math.pi)
    base = h * n_spins * t * sinc * 2.0 ** -n_spins
    # (2^N - 1)^2 q_unmarked = |1 - <u|e^{-iHt}|u>|^2
    #   = (cos phi t - cos gamma t)^2 + (sin phi t + n_z sin gamma t)^2
    phi_t = 0.5 * n_spins * (h - alpha) * t
    cos_diff = -2.0 * math.sin(0.5 * (phi_t + gamma_t)) * math.sin(0.5 * (phi_t - gamma_t))
    n_z_sin = n_spins * (0.5 * (h + alpha) - h * 2.0 ** -n_spins) * t * sinc
    q_marked = float(base * base)
    q_unmarked = float(cos_diff ** 2 + (math.sin(phi_t) + n_z_sin) ** 2) / (dim - 1.0) ** 2
    return GroverClosedForm(
        q_marked=q_marked,
        q_unmarked=q_unmarked,
        q_marked_stay=1.0 - (dim - 1.0) * q_marked,
        q_unmarked_stay=1.0 - q_marked - (dim - 2.0) * q_unmarked,
    )


def structured_grover_kernel(h_c: MarkedStateHamiltonian, h: float,
                             t: float) -> StructuredMarkedKernel:
    """The grover proposal kernel, assembled from :func:`grover_closed_form`:
    the one grover kernel and column of the ``auto`` routes."""
    cf = grover_closed_form(h_c.n_spins, h_c.alpha, h, t)
    return StructuredMarkedKernel(h_c.n_spins, h_c.marked, *astuple(cf))
