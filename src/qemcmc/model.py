"""Configuration space, marked-state energy landscape, and Gibbs measures.

A classical spin configuration on ``n_spins`` sites is encoded as an integer
index in ``[0, 2**n_spins)``; bit ``i`` carries spin ``x_i`` (bit 0 means +1).
The marked model's Gibbs measure depends on x only through its distance
w = |x XOR k| from the marked state k, so it is carried on the N+1 distances.
All probability mass is stored and combined in log space, so the measure is
finite for any finite ``beta * alpha * n_spins``.  The chain's moves out of
the marked state, Q e^{-beta alpha N} (``move`` of
:func:`~qemcmc.chain._class_chain`), underflow past beta * alpha * N ~ 745.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .proposal import _check_entries


@dataclass(frozen=True)
class MarkedStateHamiltonian:
    """Rank-1 "needle" landscape: energy -alpha*N on one marked configuration.

    Every operation is agnostic to which configuration is marked; the default
    marked index 0 is a pure gauge choice.
    """

    n_spins: int
    alpha: float
    marked: int = 0

    def __post_init__(self):
        if self.n_spins < 1:
            raise ValueError(f"n_spins must be >= 1, got {self.n_spins}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not 0 <= self.marked < self.dim:
            raise IndexError(
                f"marked index {self.marked} out of range for {self.n_spins} spins"
            )

    @property
    def dim(self) -> int:
        return 1 << self.n_spins


@dataclass(frozen=True, eq=False)
class GibbsMeasure:
    """Boltzmann distribution pi(x) = exp(-beta*H(x)) / Z in log space, on the
    N+1 distances from the marked state.

    ``class_log_weights[w]`` holds the unnormalized value -beta*E(w) shared by
    the C(N, w) states at distance w from ``marked``; ``log_partition`` is
    log Z.  ``log_weights``, :meth:`log_probabilities` and
    :meth:`probabilities` are their 2^N views, formed on each call up to
    N = 24 (the size rule), for the dense cross-checks and ``sample``.
    """

    beta: float
    n_spins: int
    marked: int
    class_log_weights: np.ndarray
    log_partition: float

    @property
    def dim(self) -> int:
        return 1 << self.n_spins

    @property
    def log_weights(self) -> np.ndarray:
        _check_entries("Gibbs vector", self.n_spins, self.dim)
        distances = np.bitwise_count(np.arange(self.dim) ^ self.marked)
        return self.class_log_weights[distances]

    def log_probabilities(self) -> np.ndarray:
        return self.log_weights - self.log_partition

    def probabilities(self) -> np.ndarray:
        return np.exp(self.log_probabilities())

    @property
    def log_pi_min(self) -> float:
        return float(np.min(self.class_log_weights)) - self.log_partition


def _log_pow2m1(n_spins: int) -> float:
    """log(2^N - 1), stable for any N."""
    return n_spins * math.log(2.0) + math.log1p(-(2.0 ** -n_spins))


def gibbs_measure(hamiltonian: MarkedStateHamiltonian,
                  beta: float) -> GibbsMeasure:
    """Build the Gibbs measure of the marked model at inverse temperature beta.

    E(0) = -alpha*N and E(w) = 0 for w >= 1, so Z = e^{beta alpha N} + 2^N - 1
    and log Z is one logaddexp, with no 2^N vector.
    """
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    n = hamiltonian.n_spins
    energies = np.zeros(n + 1)
    energies[0] = -hamiltonian.alpha * n
    log_partition = np.logaddexp(beta * (hamiltonian.alpha * n), _log_pow2m1(n))
    return GibbsMeasure(beta, n, hamiltonian.marked, -beta * energies,
                        float(log_partition))
