"""Statevector evolution under H = H_c + h*H_mix and quantum proposal kernels.

Two mixing terms are supported: the rank-1 "grover" mixer N|s><s| (|s> the
uniform superposition) and the "transverse" mixer sum_i sigma^x_i.  Proposal
kernels and columns come from the invariant subspaces of each mixer.  With
the grover mixer, H leaves span{|k>, |u>} invariant (|u> the uniform state
over unmarked configurations) and vanishes on its complement, so one closed
form, :func:`grover_closed_form`, gives its two-level frequency and its four
distinct proposal probabilities, and every grover kernel and column is built
from it.  The transverse mixer has an (N+1)-dimensional
invariant subspace on the Dicke states around the marked configuration,
outside of which H is the free mixer.  A kernel then costs two tridiagonal
eigensolves of order N+1 for its (N+1)^3 table over (|x^y|, |x^k|, |y^k|);
a column is an O(2^N) gather from that table, and only a dense matrix asks
for the O(4^N) fill.  Dense diagonalization and an adaptive Lanczos
propagator evolve arbitrary states and serve as the independent
cross-checks of both structured routes.  The dense Hamiltonian, a dense
kernel and a column keep the one size rule of :mod:`qemcmc.proposal`:
N <= 12 for a matrix, N <= 24 for a column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MismatchedDimensions, NoConvergence
from .model import MarkedStateHamiltonian
from .proposal import (
    DenseKernel,
    PermutationInvariantKernel,
    ProposalKernel,
    StructuredMarkedKernel,
    _check_dense_size,
)

GROVER = "grover"
TRANSVERSE = "transverse"

# the adaptive Lanczos propagator: subspace order, residual per substep, and
# the most substeps one evolution may take
_KRYLOV_DIM = 30
_KRYLOV_TOL = 1e-12
_MAX_SUBSTEPS = 4096


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


def basis_state(n_spins: int, index: int) -> np.ndarray:
    psi = np.zeros(1 << n_spins, dtype=complex)
    psi[index] = 1.0
    return psi


def apply_hamiltonian(h_c: MarkedStateHamiltonian, mixer: MixerSpec,
                      psi: np.ndarray) -> np.ndarray:
    """Return H |psi> (unnormalized). Cost O(N 2^N) transverse, O(2^N) grover."""
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
    _check_dense_size("dense Hamiltonian", n, 2)
    dim = h_c.dim
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


def _tridiagonal_eigh(d, e):
    """Eigenvalues and eigenvectors of the symmetric tridiagonal matrix with
    diagonal ``d`` and off-diagonal ``e``, by np.linalg.eigh of its dense
    form: every tridiagonal here (a symmetric sector of order N+1, a Krylov
    projection of order at most ``_KRYLOV_DIM``) is small."""
    return np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))


def _lanczos_apply(matvec, psi, dt, m):
    """One Lanczos step of e^{-i*dt*H} psi with full reorthogonalization.

    Returns (result, residual_estimate); the estimate is the usual product of
    the next off-diagonal coefficient with the last component of the
    subspace-propagated unit vector.
    """
    dim = psi.shape[0]
    basis = np.empty((m, dim), dtype=complex)
    alphas = np.empty(m)
    betas = np.empty(m)
    basis[0] = psi
    w = matvec(psi)
    alphas[0] = np.real(np.vdot(basis[0], w))
    w = w - alphas[0] * basis[0]
    k = 1
    beta_next = float(np.linalg.norm(w))
    breakdown = beta_next < 1e-13
    while k < m and not breakdown:
        betas[k - 1] = beta_next
        v = w / beta_next
        coeffs = basis[:k].conj() @ v
        v = v - coeffs @ basis[:k]
        v /= np.linalg.norm(v)
        basis[k] = v
        w = matvec(v) - beta_next * basis[k - 1]
        alphas[k] = np.real(np.vdot(v, w))
        w = w - alphas[k] * v
        coeffs = basis[: k + 1].conj() @ w
        w = w - coeffs @ basis[: k + 1]
        beta_next = float(np.linalg.norm(w))
        k += 1
        breakdown = beta_next < 1e-13
    if k == 1:
        phase = np.exp(-1j * dt * alphas[0])
        return phase * psi, 0.0
    lam, s = _tridiagonal_eigh(alphas[:k], betas[: k - 1])
    y = s @ (np.exp(-1j * dt * lam) * s[0])
    result = y @ basis[:k]
    err = 0.0 if breakdown else beta_next * abs(y[-1])
    return result, float(err)


def _krylov_evolve(h_c, mixer, psi, t):
    matvec = lambda v: apply_hamiltonian(h_c, mixer, v)
    state = psi.astype(complex)
    remaining = float(t)
    dt = remaining
    substeps = 0
    while abs(remaining) > abs(t) * 1e-15:
        result, err = _lanczos_apply(matvec, state, dt, _KRYLOV_DIM)
        if err <= _KRYLOV_TOL:
            state = result / np.linalg.norm(result)
            remaining -= dt
            substeps += 1
            if substeps > _MAX_SUBSTEPS:
                raise NoConvergence("substep cap reached before covering t")
            grown = 2.0 * dt
            dt = grown if abs(grown) <= abs(remaining) else remaining
        else:
            dt *= 0.5
            if abs(dt) < abs(t) * 2.0 ** -40:
                raise NoConvergence(
                    f"residual {err:.3e} not reducible below {_KRYLOV_TOL:.3e}"
                )
    return state


def evolve(h_c: MarkedStateHamiltonian, mixer: MixerSpec, psi0: np.ndarray,
           t: float, method: str = "krylov") -> np.ndarray:
    """Return e^{-iHt} |psi0> by adaptive Lanczos (``krylov``, the default) or
    dense diagonalization (``dense``); the result keeps unit norm within
    1e-10.  Any other method raises ValueError."""
    if method not in ("krylov", "dense"):
        raise ValueError("evolve takes method 'krylov' or 'dense', "
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
    return _krylov_evolve(h_c, mixer, psi0, t)


# ---------------------------------------------------------------------------
# transverse symmetric sector

def _sector_propagator(n, h, marked_energy, t):
    """e^{-iHt} on the Dicke states |D_w> around the marked state, w = 0..n.

    There h*sum(sigma^x) is tridiagonal with hops h*sqrt((w+1)(n-w)), and the
    marked term adds ``marked_energy`` at w = 0.
    """
    w = np.arange(n)
    diag = np.zeros(n + 1)
    diag[0] = marked_energy
    lam, vec = _tridiagonal_eigh(diag, h * np.sqrt((w + 1.0) * (n - w)))
    return (vec * np.exp(-1j * lam * t)) @ vec.T


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
    u_s = _sector_propagator(n, h, -h_c.alpha * n, t)
    u_0 = _sector_propagator(n, h, 0.0, t)
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
    diagonalization of H.  Any other method raises ValueError: Lanczos
    evolves single states only, so ``krylov`` has no kernel route.
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
    """The grover-mixed evolution on its invariant span{|k>, |u>}: the
    two-level frequency and the four distinct proposal probabilities."""

    omega: float
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
    omega = two_level_frequency(n_spins, alpha, h)
    gamma_t = n_spins * omega * t
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
        omega=omega,
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
    return StructuredMarkedKernel(h_c.n_spins, h_c.marked, cf.q_marked,
                                  cf.q_unmarked, cf.q_marked_stay,
                                  cf.q_unmarked_stay)
