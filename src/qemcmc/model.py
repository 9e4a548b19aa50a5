"""Configuration space, marked-state energy landscape, and Gibbs measures.

A classical spin configuration on ``n_spins`` sites is encoded as an integer
index in ``[0, 2**n_spins)``; bit ``i`` carries spin ``x_i`` (bit 0 means +1).
All probability mass is stored and combined in log space so that inverse
temperatures up to ``beta * alpha * n_spins ~ 200`` stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Config = int


@dataclass(frozen=True)
class MarkedStateHamiltonian:
    """Rank-1 "needle" landscape: energy -alpha*N on one marked configuration.

    Every operation is agnostic to which configuration is marked; the default
    marked index 0 is a pure gauge choice.
    """

    n_spins: int
    alpha: float
    marked: Config = 0

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

    def energy(self, x: Config) -> float:
        if not 0 <= x < self.dim:
            raise IndexError(f"configuration {x} out of range [0, {self.dim})")
        return -self.alpha * self.n_spins if x == self.marked else 0.0

    def energies(self) -> np.ndarray:
        """Diagonal of the classical Hamiltonian as a dense vector."""
        e = np.zeros(self.dim)
        e[self.marked] = -self.alpha * self.n_spins
        return e


@dataclass(frozen=True, eq=False)
class GibbsMeasure:
    """Boltzmann distribution pi(x) = exp(-beta*H(x)) / Z in log space.

    ``log_weights`` holds the unnormalized values -beta*H(x); ``log_partition``
    is their log-sum-exp, so normalized log probabilities are
    ``log_weights - log_partition``.
    """

    beta: float
    n_spins: int
    log_weights: np.ndarray
    log_partition: float

    @property
    def dim(self) -> int:
        return 1 << self.n_spins

    def log_probabilities(self) -> np.ndarray:
        return self.log_weights - self.log_partition

    def probabilities(self) -> np.ndarray:
        return np.exp(self.log_probabilities())

    @property
    def log_pi_min(self) -> float:
        return float(np.min(self.log_weights)) - self.log_partition


def logsumexp(a) -> float:
    """log sum exp(a), shifted by the largest term so that none overflows.

    The terms equal to the largest are counted apart and the rest enter
    through log1p, so a sum that one term dominates keeps its full relative
    accuracy (the evaluation order of scipy.special.logsumexp).
    """
    a = np.asarray(a, dtype=float)
    top = float(np.max(a))
    if not math.isfinite(top):
        return top
    at_top = a == top
    count = int(np.count_nonzero(at_top))
    rest = float(np.sum(np.exp(np.where(at_top, -np.inf, a - top))))
    return math.log1p(rest / count) + math.log(count) + top


def gibbs_measure(hamiltonian, beta: float) -> GibbsMeasure:
    """Build the Gibbs measure of a diagonal Hamiltonian at inverse temperature beta."""
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    log_weights = -beta * hamiltonian.energies()
    log_partition = logsumexp(log_weights)
    return GibbsMeasure(
        beta=beta,
        n_spins=hamiltonian.n_spins,
        log_weights=log_weights,
        log_partition=log_partition,
    )
