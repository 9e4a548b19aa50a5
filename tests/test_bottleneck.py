import math

import numpy as np
import pytest

from qemcmc.bottleneck import (
    bottleneck_bound,
    flow,
    marked_state_bound,
    sum_qa_certificate,
)
from qemcmc.chain import TransitionMatrix, build_transition_matrix
from qemcmc.errors import MeasureTooLarge
from qemcmc.model import MarkedStateHamiltonian, gibbs_measure
from qemcmc.proposal import DenseKernel, StructuredMarkedKernel, uniform_kernel
from qemcmc.quantum import (
    MixerSpec,
    quantum_kernel,
    quantum_kernel_dense,
    structured_grover_kernel,
    transverse_marked_column,
)
from qemcmc.spectral import (
    grover_gap_closed_form,
    spectral_gap_dense,
    uniform_gap_closed_form,
)
from qemcmc.validation import _marked_cut_bound


def _uniform_chain(n, alpha, beta):
    h_c = MarkedStateHamiltonian(n, alpha)
    return build_transition_matrix(uniform_kernel(n), gibbs_measure(h_c, beta))


def _grover_chain(n, alpha, beta, h, t):
    h_c = MarkedStateHamiltonian(n, alpha)
    return build_transition_matrix(structured_grover_kernel(h_c, h, t),
                                   gibbs_measure(h_c, beta))


def min_bottleneck_exhaustive(p: TransitionMatrix) -> float:
    """Exact minimizer of the bound over all S1 with pi(S1) <= 1/2 (N <= 4)."""
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
    delta = spectral_gap_dense(p)
    bound = bottleneck_bound(p, [x for x in range(p.dim) if x != 0])
    assert delta <= bound + 1e-12


def test_grover_saturates_the_bound():
    p = _grover_chain(6, 1.0, 5.0, 1.0, 1.0)
    bound = bottleneck_bound(p, [x for x in range(p.dim) if x != 0])
    ref = grover_gap_closed_form(6, 1.0, 5.0, 1.0, 1.0)
    assert bound == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_bound_is_zero_without_outflow():
    # the identity kernel proposes no move, so no flow leaves S1
    h_c = MarkedStateHamiltonian(3, 1.0)
    p = build_transition_matrix(DenseKernel(np.eye(8), 3),
                                gibbs_measure(h_c, 3.0))
    bound = bottleneck_bound(p, [x for x in range(8) if x != 0])
    assert type(bound) is float and bound == 0.0


@pytest.mark.parametrize("s1,expected", [
    (range(1, 16), "0x1.00060a3ddde3ap-4"),
    ([1, 2, 3, 5], "0x1.80026a7472354p-1"),
])
def test_bound_is_pinned_bit_for_bit(s1, expected):
    # the bounds the report-returning form gave on the uniform chain at N = 4,
    # beta = 3; returning the float alone must not move them by one ulp
    bound = bottleneck_bound(_uniform_chain(4, 1.0, 3.0), s1)
    assert type(bound) is float and bound == float.fromhex(expected)


def test_measure_too_large():
    # at infinite temperature the all-but-marked set has mass 15/16 > 1/2
    p = _uniform_chain(4, 1.0, 0.0)
    with pytest.raises(MeasureTooLarge):
        bottleneck_bound(p, [x for x in range(p.dim) if x != 0])


def test_exhaustive_trivial_at_beta0():
    p = _uniform_chain(2, 1.0, 0.0)
    assert min_bottleneck_exhaustive(p) >= spectral_gap_dense(p) - 1e-12


def test_exhaustive_finds_marked_cut():
    p = _uniform_chain(3, 1.0, 3.0)
    reference = bottleneck_bound(p, [x for x in range(8) if x != 0])
    assert min_bottleneck_exhaustive(p) <= reference + 1e-15


def test_exhaustive_grover_minimum_is_marked_cut():
    p = _grover_chain(3, 1.0, 3.0, 1.0, 1.0)
    reference = bottleneck_bound(p, [x for x in range(8) if x != 0])
    assert min_bottleneck_exhaustive(p) == pytest.approx(reference, rel=1e-10,
                                                         abs=0.0)


def test_marked_bound_identity_kernel():
    col = np.zeros(5)
    col[0] = 1.0
    assert marked_state_bound(col, 4, 1.0, 5.0) == 0.0


def test_marked_bound_uniform_kernel():
    n, beta = 6, 5.0
    col = np.full(n + 1, 2.0 ** -n)
    bound = marked_state_bound(col, n, 1.0, beta)
    expected = (1.0 + math.exp(-n * beta) * (2 ** n - 1)) / 2 ** n
    assert bound == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert bound == pytest.approx(uniform_gap_closed_form(n, 1.0, beta),
                                  rel=1e-12, abs=0.0)


def test_marked_bound_grover_saturation():
    n, alpha, beta, h, t = 7, 1.0, 5.0, 1.0, 1.0
    h_c = MarkedStateHamiltonian(n, alpha)
    col = structured_grover_kernel(h_c, h, t).table()[0, :, 0]
    bound = marked_state_bound(col, n, alpha, beta)
    assert bound == pytest.approx(grover_gap_closed_form(n, alpha, beta, h, t),
                                  rel=1e-10, abs=0.0)


def test_marked_bound_agrees_with_dense_flow():
    n, alpha, beta = 6, 1.0, 5.0
    h_c = MarkedStateHamiltonian(n, alpha)
    kern = quantum_kernel_dense(h_c, MixerSpec("transverse", 1.0), 1.0)
    p = build_transition_matrix(kern, gibbs_measure(h_c, beta))
    dense = bottleneck_bound(p, [x for x in range(p.dim) if x != 0])
    column = marked_state_bound(transverse_marked_column(h_c, 1.0, 1.0), n,
                                alpha, beta)
    assert column == pytest.approx(dense, rel=1e-10, abs=0.0)


def test_marked_bound_validates_distribution():
    # the masses C(4, w) * 0.1 sum to 1.6
    with pytest.raises(ValueError, match="not a probability distribution"):
        marked_state_bound(np.full(5, 0.1), 4, 1.0, 1.0)
    # a 2^N column is refused by its length
    with pytest.raises(ValueError, match="expected \\(5,\\)"):
        marked_state_bound(np.full(16, 1.0 / 16), 4, 1.0, 1.0)


@pytest.mark.parametrize("n", [1023, 1024, 1030])
def test_marked_bound_past_a_double_names_n(n):
    # the single-flip column; 2^N overflows a double from N = 1024, and
    # C(N, N/2) from N = 1030
    col = np.zeros(n + 1)
    col[1] = 1.0 / n
    if n < 1024:
        assert marked_state_bound(col, n, 1.0, 0.0) == 1.0
    else:
        with pytest.raises(ValueError, match=f"not finite at N = {n}:"):
            marked_state_bound(col, n, 1.0, 0.0)


def _table_and_column_bounds(kern, n, alpha, beta, marked):
    """The O(N) bound off the table's row T[0, w, 0], and the same bound
    summed over the 2^N column gathered from the table."""
    table = marked_state_bound(kern.table()[0, :, 0], n, alpha, beta)
    escape = math.fsum(np.delete(kern.column(marked), marked))
    g = 2.0 ** n - 1.0
    return table, escape * (1.0 + math.exp(-beta * alpha * n) * g) / g


def _cut_bound(kern, n, alpha, beta, marked):
    """The marked cut's bottleneck bound on the dense chain."""
    h_c = MarkedStateHamiltonian(n, alpha, marked)
    p = build_transition_matrix(kern, gibbs_measure(h_c, beta))
    return _marked_cut_bound(p, marked)


def test_marked_bound_from_table_matches_column():
    # the O(N) read of T[0, w, 0] against the 2^N column gathered from it,
    # and up to N = 8 against the cut's flow on the dense chain
    rng = np.random.Generator(np.random.Philox(29))
    for n in range(1, 13):
        for _ in range(4):
            alpha, beta = rng.uniform(0.5, 2.0), rng.uniform(0.0, 5.0)
            h_c = MarkedStateHamiltonian(n, alpha, int(rng.integers(1 << n)))
            mixer = MixerSpec("transverse", rng.uniform(-2.0, 2.0))
            kern = quantum_kernel(h_c, mixer, rng.uniform(0.0, 3.0))
            table, column = _table_and_column_bounds(kern, n, alpha, beta,
                                                     h_c.marked)
            assert table == pytest.approx(column, rel=1e-14, abs=0.0), n
            if n <= 8:
                cut = _cut_bound(kern, n, alpha, beta, h_c.marked)
                assert table == pytest.approx(cut, rel=1e-13, abs=0.0), n


@pytest.mark.parametrize("n", [1, 2, 5, 9, 12])
def test_marked_bound_from_grover_table_matches_column(n):
    h_c = MarkedStateHamiltonian(n, 1.3, (1 << n) - 1)
    kern = structured_grover_kernel(h_c, -0.7, 2.1)
    table, column = _table_and_column_bounds(kern, n, 1.3, 5.0, h_c.marked)
    assert table == pytest.approx(column, rel=1e-14, abs=0.0)
    assert table == pytest.approx(
        grover_gap_closed_form(n, 1.3, 5.0, -0.7, 2.1), rel=1e-10, abs=0.0)
    if n <= 9:   # the dense chain past that holds 2^24 entries
        cut = _cut_bound(kern, n, 1.3, 5.0, h_c.marked)
        assert table == pytest.approx(cut, rel=1e-13, abs=0.0)


def test_marked_bound_table_validates_marked_column():
    # marked-column mass stay + (2^N - 1) off: off by 2e-8 raises, 5e-9 not
    n, q = 4, 1.0 / 16

    def column(stay_marked):
        kern = StructuredMarkedKernel(n, 0, q, q, stay_marked, q)
        return kern.table()[0, :, 0]

    assert marked_state_bound(column(q + 5e-9), n, 1.0, 1.0) > 0.0
    for excess in (2e-8, -2e-8):
        with pytest.raises(ValueError):
            marked_state_bound(column(q + excess), n, 1.0, 1.0)
    # a column of another spin count is refused by its length
    with pytest.raises(ValueError):
        marked_state_bound(column(q), n + 1, 1.0, 1.0)


@pytest.mark.parametrize("h", [1.0, 1e3, 1e5])
def test_sector_column_bound_equals_table_bound(h):
    # the marked column from U_S alone is the table's x = k row, and the
    # bound read off it equals the table-read bound, bit for bit
    for n in [*range(1, 41), 200, 201, 202]:
        h_c = MarkedStateHamiltonian(n, 1.0)
        column = transverse_marked_column(h_c, h, 1.0)
        kern = quantum_kernel(h_c, MixerSpec("transverse", h), 1.0)
        assert np.array_equal(column.view(np.uint64),
                              kern.table()[0, :, 0].view(np.uint64)), n
        for beta in (0.5, 5.0):
            from_column = marked_state_bound(column, n, 1.0, beta)
            from_table = marked_state_bound(kern.table()[0, :, 0], n, 1.0,
                                            beta)
            assert from_column.hex() == from_table.hex(), (n, beta)


def test_sector_column_bound_validates_the_column():
    # a corrupted distance column raises as a corrupted table row does
    n = 12
    column = transverse_marked_column(MarkedStateHamiltonian(n, 1.0), 1.0, 1.0)
    assert marked_state_bound(column, n, 1.0, 5.0) > 0.0
    for defect in ("negative", "mass", "length"):
        bad = column.copy()
        if defect == "negative":
            bad[3] = -1e-9
        elif defect == "mass":
            bad[0] *= 1.001
        else:
            bad = bad[:-1]
        with pytest.raises(ValueError):
            marked_state_bound(bad, n, 1.0, 5.0)


@pytest.mark.parametrize("marked", [0, 1])
def test_distance_and_state_columns_at_one_spin(marked):
    # at N = 1 the distance column and the state column both hold two
    # entries; about state 1 they are each other's reverse, and the bound
    # read off the distance column is the marked cut's on the dense chain
    alpha, beta, h, t = 0.7, 2.0, 1.3, 0.9
    h_c = MarkedStateHamiltonian(1, alpha, marked)
    kern = quantum_kernel(h_c, MixerSpec("transverse", h), t)
    by_distance = transverse_marked_column(h_c, h, t)
    by_state = kern.column(marked)
    assert by_state[marked] == by_distance[0]
    assert by_state[1 - marked] == by_distance[1]
    expected = marked_state_bound(kern.table()[0, :, 0], 1, alpha, beta)
    assert marked_state_bound(by_distance, 1, alpha, beta) == expected
    p = build_transition_matrix(kern, gibbs_measure(h_c, beta))
    assert _marked_cut_bound(p, marked) == pytest.approx(expected, rel=1e-15)
    g = math.exp(-alpha * beta)
    assert expected == pytest.approx(by_distance[1] * (1.0 + g), rel=1e-15)


def test_certificate_uniform():
    cert = sum_qa_certificate(uniform_kernel(4), 0)
    assert cert == pytest.approx((2 ** 4 - 1) / 2 ** 4)
    assert cert <= 1.0


def test_certificate_quantum_kernels():
    rng = np.random.Generator(np.random.Philox(23))
    h_c = MarkedStateHamiltonian(6, 1.0)
    for _ in range(5):
        mixer = MixerSpec("transverse", rng.uniform(-2, 2))
        kern = quantum_kernel_dense(h_c, mixer, rng.uniform(0, 3))
        assert sum_qa_certificate(kern, 0) <= 1.0 + 1e-10


def test_transverse_slope_check_forms_no_column(monkeypatch):
    # criterion 6 reads the bound off the sector's marked column, as
    # figure-b does
    from qemcmc import validation
    from qemcmc.proposal import PermutationInvariantKernel

    def refuse(*args, **kwargs):
        raise AssertionError("the slope check formed a 2^N column")

    monkeypatch.setattr(PermutationInvariantKernel, "column", refuse)
    assert validation.check_transverse_slope().passed
