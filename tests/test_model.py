import math

import numpy as np
import pytest

from qemcmc.model import (
    GibbsMeasure,
    MarkedStateHamiltonian,
    gibbs_measure,
    logsumexp,
)


def test_bad_construction():
    with pytest.raises(ValueError):
        MarkedStateHamiltonian(0, 1.0)
    with pytest.raises(ValueError):
        MarkedStateHamiltonian(4, 0.0)
    with pytest.raises(IndexError):
        MarkedStateHamiltonian(4, 1.0, marked=16)


def test_gibbs_infinite_temperature_uniform():
    m = gibbs_measure(MarkedStateHamiltonian(2, 1.0), 0.0)
    assert np.allclose(m.probabilities(), 0.25)


def test_partition_function_small():
    # N=2, alpha=1, beta=1: Z = e^2 + 3 by direct summation
    m = gibbs_measure(MarkedStateHamiltonian(2, 1.0), 1.0)
    assert math.exp(m.log_partition) == pytest.approx(math.exp(2.0) + 3.0,
                                                      rel=1e-14, abs=0.0)


def test_marked_probability():
    m = gibbs_measure(MarkedStateHamiltonian(4, 1.0), 5.0)
    expected = math.exp(20.0) / (math.exp(20.0) + 15.0)
    assert m.probabilities()[0] == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_probabilities_normalized_over_beta_grid():
    for n in (2, 5, 8):
        for beta in np.linspace(0.0, 6.0, 13):
            m = gibbs_measure(MarkedStateHamiltonian(n, 1.3), float(beta))
            assert abs(m.probabilities().sum() - 1.0) < 1e-12


def test_log_partition_matches_scipy_logsumexp():
    # the numpy stand-in against scipy's reference, up to beta*alpha*N = 200
    from scipy.special import logsumexp as reference

    alpha = 1.3
    for n in range(1, 17):
        for beta in np.linspace(0.0, 200.0 / (alpha * n), 21):
            m = gibbs_measure(MarkedStateHamiltonian(n, alpha), float(beta))
            assert m.log_partition == pytest.approx(
                float(reference(m.log_weights)), rel=1e-15, abs=0.0)


def test_logsumexp_matches_scipy_on_general_input():
    from scipy.special import logsumexp as reference

    rng = np.random.Generator(np.random.Philox(5))
    for size in (1, 2, 7, 100, 4097):
        a = rng.normal(scale=50.0, size=size)
        a[rng.integers(0, size, size // 3)] = a.max()   # ties at the top
        assert logsumexp(a) == pytest.approx(float(reference(a)),
                                             rel=1e-15, abs=0.0)
    assert logsumexp(np.full(3, -np.inf)) == -np.inf
    assert logsumexp(np.array([0.0, np.inf])) == np.inf


def test_no_overflow_deep_in_ordered_phase():
    # beta*alpha*N = 200: all quantities must stay finite in log space
    m = gibbs_measure(MarkedStateHamiltonian(20, 2.0), 5.0)
    assert math.isfinite(m.log_partition)
    p = m.probabilities()
    assert np.all(np.isfinite(p))
    assert p[0] == pytest.approx(1.0)
    assert math.isfinite(m.log_pi_min)


def test_pi_min_uniform():
    m = gibbs_measure(MarkedStateHamiltonian(2, 1.0), 0.0)
    assert math.exp(m.log_pi_min) == pytest.approx(0.25)


def test_pi_min_is_inverse_partition():
    m = gibbs_measure(MarkedStateHamiltonian(2, 1.0), 1.0)
    assert math.exp(m.log_pi_min) == pytest.approx(1.0 / (math.exp(2.0) + 3.0),
                                                   rel=1e-14, abs=0.0)


def test_pi_min_log_space_matches_direct_sum():
    n, beta = 3, 40.0
    m = gibbs_measure(MarkedStateHamiltonian(n, 1.0), beta)
    z_direct = math.exp(beta * n) + (2 ** n - 1)
    assert m.log_pi_min == pytest.approx(-math.log(z_direct), rel=1e-12, abs=0.0)


def test_marked_probability_monotone_in_beta():
    betas = np.linspace(0.0, 4.0, 30)
    probs = [gibbs_measure(MarkedStateHamiltonian(5, 1.0), float(b)).probabilities()[0]
             for b in betas]
    assert np.all(np.diff(probs) >= -1e-15)


def test_phase_crossover_with_system_size():
    # beta*alpha above ln2: marked mass grows with N; below: it shrinks
    ordered = [gibbs_measure(MarkedStateHamiltonian(n, 1.0), 1.0).probabilities()[0]
               for n in range(4, 17, 4)]
    assert np.all(np.diff(ordered) > 0)
    disordered = [gibbs_measure(MarkedStateHamiltonian(n, 1.0), 0.3).probabilities()[0]
                  for n in range(4, 17, 4)]
    assert np.all(np.diff(disordered) < 0)


def test_measure_is_immutable():
    m = gibbs_measure(MarkedStateHamiltonian(2, 1.0), 1.0)
    with pytest.raises(AttributeError):
        m.beta = 2.0


def test_measure_is_carried_on_the_distances_at_any_n():
    # N = 64: no 2^N vector is formed; log Z = log(e^{beta alpha N} + 2^N - 1)
    n, alpha, beta = 64, 1.0, 5.0
    m = gibbs_measure(MarkedStateHamiltonian(n, alpha), beta)
    z = math.exp(beta * alpha * n) + (2.0 ** n - 1.0)
    assert m.log_partition == pytest.approx(math.log(z), rel=1e-15, abs=0.0)
    assert m.log_pi_min == pytest.approx(-math.log(z), rel=1e-15, abs=0.0)
    assert m.class_log_weights.shape == (n + 1,)
    counts = [math.comb(n, w) for w in range(n + 1)]
    total = math.fsum(c * math.exp(lw - m.log_partition)
                      for c, lw in zip(counts, m.class_log_weights))
    assert total == pytest.approx(1.0, rel=1e-14, abs=0.0)


def test_log_weights_view_matches_the_energy_vector():
    # the 2^N view against -beta E(x) with E = -alpha N on the marked state
    rng = np.random.Generator(np.random.Philox(11))
    for n in range(1, 9):
        alpha, beta = rng.uniform(0.1, 3.0), rng.uniform(0.0, 6.0)
        marked = int(rng.integers(1 << n))
        m = gibbs_measure(MarkedStateHamiltonian(n, alpha, marked), beta)
        energies = np.zeros(1 << n)
        energies[marked] = -alpha * n
        assert np.array_equal(m.log_weights, -beta * energies)
        assert np.array_equal(m.log_probabilities(),
                              -beta * energies - m.log_partition)
