import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qemcmc import proposal
from qemcmc.errors import BudgetExceeded, MismatchedDimensions, NegativeProbability
from qemcmc.chain import exact_mixing_time
from qemcmc.model import MarkedStateHamiltonian, gibbs_measure
from qemcmc.proposal import (
    DenseKernel,
    PermutationInvariantKernel,
    StructuredMarkedKernel,
    affine_combination,
    single_flip_kernel,
    uniform_kernel,
    validate_kernel,
    weight_classes,
)
from qemcmc.quantum import (
    MixerSpec,
    dense_hamiltonian,
    quantum_kernel,
    structured_grover_kernel,
)
from qemcmc.spectral import _schrijver_beta


def test_uniform_n1():
    q = uniform_kernel(1).dense()
    assert np.allclose(q, 0.5)


def test_uniform_entries():
    q = uniform_kernel(3).dense()
    assert np.allclose(q, 1.0 / 8.0)
    # self-proposal included
    assert q[5, 5] == pytest.approx(1.0 / 8.0)


def test_uniform_certificate_clean():
    cert = validate_kernel(uniform_kernel(3))
    assert cert.max_column_deviation == 0.0
    assert cert.max_row_deviation == 0.0
    assert cert.max_asymmetry == 0.0


def test_single_flip_column():
    kern = single_flip_kernel(2)
    col = kern.column(0b00)
    assert col[0b01] == pytest.approx(0.5)
    assert col[0b10] == pytest.approx(0.5)
    assert col[0b00] == 0.0
    assert col[0b11] == 0.0


def test_single_flip_columns_stochastic():
    cert = validate_kernel(single_flip_kernel(5))
    assert cert.max_column_deviation < 1e-12


def test_single_flip_symmetric():
    cert = validate_kernel(single_flip_kernel(4))
    assert cert.max_asymmetry == 0.0


def test_affine_identity():
    kern = uniform_kernel(2)
    combined = affine_combination([1.0], [kern])
    assert isinstance(combined, DenseKernel)
    assert np.allclose(combined.dense(), kern.dense())


def test_affine_clips_rounding_noise():
    # an extrapolation by 1e-11 leaves -2.5e-12 where single flip is 0: above
    # the -1e-10 floor, so the entry is clipped to 0, not rejected
    combined = affine_combination([1.0 + 1e-11, -1e-11],
                                  [single_flip_kernel(2), uniform_kernel(2)])
    q = combined.dense()
    assert np.min(q) == 0.0
    assert np.array_equal(q == 0.0, single_flip_kernel(2).dense() == 0.0)


def test_affine_convex_doubly_stochastic():
    a = uniform_kernel(3)
    b = single_flip_kernel(3)
    combined = affine_combination([0.5, 0.5], [a, b])
    cert = validate_kernel(combined)
    assert cert.max_column_deviation < 1e-10
    assert cert.max_row_deviation < 1e-10


def test_affine_negative_entry_rejected():
    # two unitary-derived kernels at different times; an extrapolating weight
    # pair pushes some entry negative
    h_c = MarkedStateHamiltonian(2, 1.0)
    mixer = MixerSpec("grover", 1.0)
    k1 = quantum_kernel(h_c, mixer, 0.4, "dense")
    k2 = quantum_kernel(h_c, mixer, 1.1, "dense")
    with pytest.raises(NegativeProbability):
        affine_combination([2.0, -1.0], [k1, k2])


def test_affine_weight_sum_checked():
    with pytest.raises(ValueError):
        affine_combination([0.7, 0.7], [uniform_kernel(2), uniform_kernel(2)])


def test_affine_dimension_mismatch():
    with pytest.raises(MismatchedDimensions):
        affine_combination([0.5, 0.5], [uniform_kernel(2), uniform_kernel(3)])


def test_validate_reports_violation():
    bad = np.full((4, 4), 0.3)   # columns sum to 1.2
    cert = validate_kernel(DenseKernel(bad, 2))
    assert cert.max_column_deviation == pytest.approx(0.2)


def test_dense_kernel_shape_check():
    with pytest.raises(MismatchedDimensions):
        DenseKernel(np.eye(3), 2)


def test_dense_negative_entry_raises():
    q = np.full((4, 4), 0.25)
    q[0, 1] = -1e-6
    with pytest.raises(NegativeProbability):
        DenseKernel(q, 2).dense()


def test_column_matches_dense():
    for kern in (single_flip_kernel(3), *_invariant_kernels()):
        dense = kern.dense()
        for y in range(kern.dim):
            assert np.array_equal(kern.column(y), dense[:, y])
    with pytest.raises(IndexError):
        kern.column(kern.dim)


@pytest.mark.parametrize("n", [1, 67, 68, 202])
def test_binomials_are_the_nearest_floats_and_read_only(n):
    # entries pass 2^64 from N = 68, where an int64 table would overflow
    table = proposal._binomials(n)
    assert table.dtype == np.float64 and table.shape == (n + 1, n + 1)
    assert all(table[a, b] == float(math.comb(a, b))
               for a in range(n + 1) for b in range(n + 1))
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 2.0


def test_weight_classes_match_loop_reference():
    for n in range(1, 25):
        w = range(n + 1)
        loop = np.array([[[math.comb(a, c) * math.comb(n - a, b - c) if c <= b else 0
                           for c in w] for b in w] for a in w], dtype=float)
        assert np.array_equal(weight_classes(n)[0], loop), n


@settings(max_examples=25, deadline=None)
@given(
    w=st.floats(min_value=0.0, max_value=1.0),
    n=st.integers(min_value=1, max_value=5),
)
def test_convex_combination_stays_doubly_stochastic(w, n):
    combined = affine_combination(
        [w, 1.0 - w], [uniform_kernel(n), single_flip_kernel(n)])
    cert = validate_kernel(combined)
    assert cert.max_column_deviation < 1e-10
    assert cert.max_row_deviation < 1e-10
    assert cert.max_asymmetry < 1e-12


def _invariant_kernels():
    h_c = MarkedStateHamiltonian(6, 1.3, marked=45)
    return [uniform_kernel(4),
            structured_grover_kernel(h_c, -0.9, 2.1),
            quantum_kernel(h_c, MixerSpec("transverse", 0.7), 1.9)]


def test_table_certificate_matches_dense():
    for kern in _invariant_kernels():
        table_cert = validate_kernel(kern)
        dense_cert = validate_kernel(DenseKernel(kern.dense()))
        for field in ("max_column_deviation", "max_row_deviation",
                      "max_asymmetry"):
            assert abs(getattr(table_cert, field)
                       - getattr(dense_cert, field)) < 1e-14


def test_structured_table_gathers_to_its_dense_matrix():
    for kern in _invariant_kernels()[:2]:
        gathered = PermutationInvariantKernel(kern.n_spins, kern.marked,
                                              kern.table()).dense()
        assert np.array_equal(gathered, kern.dense())


def test_table_kernel_densifies_within_budget():
    # the (N+1)^3 table is built; the 2^15 x 2^15 matrix is refused before
    # it is allocated
    kern = PermutationInvariantKernel(15, 3, np.zeros((16, 16, 16)))
    with pytest.raises(BudgetExceeded):
        kern.dense()
    assert kern.column(3).shape == (1 << 15,)


def _refused_before_allocation(monkeypatch, call, what, n):
    """``call()`` with the dense cap lowered to 2^16 entries raises
    BudgetExceeded naming ``what`` and N = ``n``, and traces under 128 KiB
    while it runs: the refused array would take 1 MiB or more."""
    monkeypatch.setattr(proposal, "_ENTRIES_MAX", 1 << 16)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=f"^{what} refused at N = {n}:"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 17


@pytest.mark.parametrize("what, n, prepare", [
    ("dense Hamiltonian", 9, lambda: partial(
        dense_hamiltonian, MarkedStateHamiltonian(9, 1.0),
        MixerSpec("transverse", 1.0))),
    ("dense kernel", 9, lambda: single_flip_kernel(9).dense),
    ("proposal column", 17, lambda: partial(single_flip_kernel(17).column, 0)),
    ("kernel table", 40, lambda: partial(
        quantum_kernel, MarkedStateHamiltonian(40, 1.0),
        MixerSpec("transverse", 1.0), 1.0)),
    ("block coefficients", 22, lambda: partial(_schrijver_beta, 22)),
    ("Gibbs vector", 17, lambda: gibbs_measure(
        MarkedStateHamiltonian(17, 1.0), 1.0).probabilities),
    ("mixing-time gather", 12, lambda: partial(
        exact_mixing_time, single_flip_kernel(12),
        gibbs_measure(MarkedStateHamiltonian(12, 1.0), 1.0), 0.01)),
], ids=["hamiltonian", "kernel", "column", "table", "blocks", "gibbs",
        "mixing"])
def test_dense_routes_refuse_past_the_cap(monkeypatch, what, n, prepare):
    # a 2^9 x 2^9 matrix, a 2^17 vector, the 2(N+1)^3 floats of the complex
    # table amplitudes at N = 40, the (N/2+1)(N+1)^3 block coefficients at
    # N = 22 and the (7 * 7)^3 entries of the mixing time's gather at N = 12
    # are past a cap of 2^16 entries
    _refused_before_allocation(monkeypatch, prepare(), what, n)


def test_table_certificate_reports_corruption():
    kern = _invariant_kernels()[2]
    table = kern.table().copy()
    table[3, 1, 2] += 1e-3          # realized: x, y at distances 1, 2, d = 3
    cert = validate_kernel(PermutationInvariantKernel(6, 45, table))
    assert cert.max_asymmetry == pytest.approx(1e-3, rel=1e-9, abs=0.0)
    # a source at distance 2 sees C(2,0) C(4,1) = 4 states at distance 1, d = 3
    assert cert.max_column_deviation == pytest.approx(4e-3, rel=1e-6, abs=0.0)


def test_structured_negative_entry_raises():
    kern = StructuredMarkedKernel(3, 2, 0.1, 0.1, 1.0 - 7 * 0.1, -1e-6)
    with pytest.raises(NegativeProbability):
        validate_kernel(kern)
