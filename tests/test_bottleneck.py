import math

import numpy as np
import pytest

from qemcmc.bottleneck import (
    bottleneck_bound,
    flow,
    marked_state_bound,
    min_bottleneck_exhaustive,
    sum_qa_certificate,
)
from qemcmc.chain import build_transition_matrix
from qemcmc.errors import BudgetExceeded, MeasureTooLarge
from qemcmc.model import MarkedStateHamiltonian, gibbs_measure
from qemcmc.proposal import uniform_kernel
from qemcmc.quantum import (
    MixerSpec,
    PropagatorConfig,
    quantum_kernel,
    structured_grover_kernel,
)
from qemcmc.spectral import (
    grover_gap_closed_form,
    spectral_gap_dense,
    uniform_gap_closed_form,
)

DENSE = PropagatorConfig(method="dense")


def _uniform_chain(n, alpha, beta):
    h_c = MarkedStateHamiltonian(n, alpha)
    return build_transition_matrix(uniform_kernel(n), gibbs_measure(h_c, beta))


def _grover_chain(n, alpha, beta, h, t):
    h_c = MarkedStateHamiltonian(n, alpha)
    return build_transition_matrix(structured_grover_kernel(h_c, h, t),
                                   gibbs_measure(h_c, beta))


def test_flow_full_space_is_one():
    p = _uniform_chain(3, 1.0, 2.0)
    full = range(p.dim)
    assert flow(p, full, full) == pytest.approx(1.0, abs=1e-12)


def test_flow_reversibility():
    p = _uniform_chain(4, 1.0, 3.0)
    s1 = [0, 3, 7]
    s2 = [1, 2, 8, 12]
    assert flow(p, s1, s2) == pytest.approx(flow(p, s2, s1), rel=1e-10, abs=0.0)


def test_flow_matches_brute_force():
    p = _uniform_chain(4, 1.0, 2.0)
    pi = p.stationary.probabilities()
    s1 = [0]
    s2 = [x for x in range(p.dim) if x != 0]
    direct = sum(pi[x] * p.p[x, y] for x in s1 for y in s2)
    assert flow(p, s1, s2) == pytest.approx(direct, rel=1e-12, abs=0.0)


def test_flow_rejects_empty_sets():
    p = _uniform_chain(3, 1.0, 1.0)
    with pytest.raises(ValueError):
        flow(p, [], [0])


def test_bound_dominates_gap():
    p = _uniform_chain(6, 1.0, 5.0)
    delta = spectral_gap_dense(p).delta
    report = bottleneck_bound(p, [x for x in range(p.dim) if x != 0])
    assert delta <= report.bound + 1e-12
    assert report.set_descriptor == "all-but-marked"


def test_grover_saturates_the_bound():
    p = _grover_chain(6, 1.0, 5.0, 1.0, 1.0)
    report = bottleneck_bound(p, [x for x in range(p.dim) if x != 0])
    ref = grover_gap_closed_form(6, 1.0, 5.0, 1.0, 1.0)
    assert report.bound == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_measure_too_large():
    # at infinite temperature the all-but-marked set has mass 15/16 > 1/2
    p = _uniform_chain(4, 1.0, 0.0)
    with pytest.raises(MeasureTooLarge):
        bottleneck_bound(p, [x for x in range(p.dim) if x != 0])


def test_exhaustive_trivial_at_beta0():
    p = _uniform_chain(2, 1.0, 0.0)
    report = min_bottleneck_exhaustive(p)
    assert report.bound >= spectral_gap_dense(p).delta - 1e-12


def test_exhaustive_finds_marked_cut():
    p = _uniform_chain(3, 1.0, 3.0)
    report = min_bottleneck_exhaustive(p)
    reference = bottleneck_bound(p, [x for x in range(8) if x != 0])
    assert report.bound <= reference.bound + 1e-15


def test_exhaustive_grover_minimum_is_marked_cut():
    p = _grover_chain(3, 1.0, 3.0, 1.0, 1.0)
    report = min_bottleneck_exhaustive(p)
    reference = bottleneck_bound(p, [x for x in range(8) if x != 0])
    assert report.bound == pytest.approx(reference.bound, rel=1e-10, abs=0.0)


def test_exhaustive_budget():
    with pytest.raises(BudgetExceeded):
        min_bottleneck_exhaustive(_uniform_chain(5, 1.0, 3.0))


def test_marked_bound_identity_kernel():
    col = np.zeros(16)
    col[0] = 1.0
    assert marked_state_bound(col, 4, 1.0, 5.0) == 0.0


def test_marked_bound_uniform_kernel():
    n, beta = 6, 5.0
    col = np.full(1 << n, 2.0 ** -n)
    bound = marked_state_bound(col, n, 1.0, beta)
    expected = (1.0 + math.exp(-n * beta) * (2 ** n - 1)) / 2 ** n
    assert bound == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert bound == pytest.approx(uniform_gap_closed_form(n, 1.0, beta),
                                  rel=1e-12, abs=0.0)


def test_marked_bound_grover_saturation():
    n, alpha, beta, h, t = 7, 1.0, 5.0, 1.0, 1.0
    h_c = MarkedStateHamiltonian(n, alpha)
    col = structured_grover_kernel(h_c, h, t).column(h_c.marked)
    bound = marked_state_bound(col, n, alpha, beta)
    assert bound == pytest.approx(grover_gap_closed_form(n, alpha, beta, h, t),
                                  rel=1e-10, abs=0.0)


def test_marked_bound_agrees_with_dense_flow():
    n, alpha, beta = 6, 1.0, 5.0
    h_c = MarkedStateHamiltonian(n, alpha)
    kern = quantum_kernel(h_c, MixerSpec("transverse", 1.0), 1.0, DENSE)
    p = build_transition_matrix(kern, gibbs_measure(h_c, beta))
    dense = bottleneck_bound(p, [x for x in range(p.dim) if x != 0]).bound
    column = marked_state_bound(kern.dense()[:, 0], n, alpha, beta)
    assert column == pytest.approx(dense, rel=1e-10, abs=0.0)


def test_marked_bound_validates_distribution():
    with pytest.raises(ValueError):
        marked_state_bound(np.full(16, 0.1), 4, 1.0, 1.0)
    with pytest.raises(ValueError):
        marked_state_bound(np.full(8, 0.125), 4, 1.0, 1.0)


def test_certificate_uniform():
    cert = sum_qa_certificate(uniform_kernel(4), 0)
    assert cert == pytest.approx((2 ** 4 - 1) / 2 ** 4)
    assert cert <= 1.0


def test_certificate_quantum_kernels():
    rng = np.random.Generator(np.random.Philox(23))
    h_c = MarkedStateHamiltonian(6, 1.0)
    for _ in range(5):
        mixer = MixerSpec("transverse", rng.uniform(-2, 2))
        kern = quantum_kernel(h_c, mixer, rng.uniform(0, 3), DENSE)
        assert sum_qa_certificate(kern, 0) <= 1.0 + 1e-10
