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
    quantum_kernel_dense,
    structured_grover_kernel,
)
from qemcmc.spectral import spectral_gap_blocks


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
    k1 = quantum_kernel_dense(h_c, mixer, 0.4)
    k2 = quantum_kernel_dense(h_c, mixer, 1.1)
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


def _comb_counts(n):
    """C(i, t) C(N - i, j - t) over (i, j, t), each factor math.comb's
    nearest float and 0 at t > j, formed over the whole grid at once."""
    w = np.arange(n + 1)
    i, j, t = w[:, None, None], w[None, :, None], w[None, None, :]
    comb = np.frompyfunc(math.comb, 2, 1)
    inside = comb(i, t).astype(float)
    outside = comb(n - i, np.maximum(j - t, 0)).astype(float)
    return np.where(t <= j, inside * outside, 0.0)


def test_weight_classes_match_loop_reference():
    for n in range(1, 25):
        w = range(n + 1)
        loop = np.array([[[math.comb(a, c) * math.comb(n - a, b - c) if c <= b else 0
                           for c in w] for b in w] for a in w], dtype=float)
        assert np.array_equal(weight_classes(n), loop), n
        # the strided factor is a read-only view
        _, rest = proposal._pair_factors(proposal._binomials(n), n)
        assert not rest.flags.writeable and rest.base is not None
    # one N past 101, where the pair counts of a block's m = N spins pass
    # 2^20 entries
    assert np.array_equal(weight_classes(103), _comb_counts(103))


@pytest.mark.parametrize("n", [255, 511])
def test_binomial_row_is_the_nearest_floats(n):
    # _binomials stacks these rows, and its own test reads them to N = 202
    row = proposal._binomial_row(n)
    assert row.dtype == np.float64 and row.shape == (n + 1,)
    assert row.tolist() == [float(math.comb(n, b)) for b in range(n + 1)]


def test_a_dense_kernel_holds_one_matrix():
    # a DenseKernel keeps its clamped matrix alone, and a table kernel's
    # gather writes its result with no second matrix
    h_c = MarkedStateHamiltonian(9, 1.0)
    tracemalloc.start()
    try:
        kern = quantum_kernel_dense(h_c, MixerSpec("transverse", 1.0), 1.0)
        kern.dense()
        held = tracemalloc.get_traced_memory()[0]
        table_kern = single_flip_kernel(10)
        table_kern.table()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        dense = table_kern.dense()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert held < 1.25 * kern.dense().nbytes
    assert peak < 3 * dense.nbytes


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
        dense_cert = validate_kernel(DenseKernel(kern.dense(), kern.n_spins))
        for field in ("max_column_deviation", "max_row_deviation",
                      "max_asymmetry"):
            assert abs(getattr(table_cert, field)
                       - getattr(dense_cert, field)) < 1e-14


def _brute_force_dense(table, n, marked):
    """q[y, x] = table[i, j, t] over every pair of states, with x at distance
    i from the marked state, y at distance j and t the spins where both
    differ from it, each counted from the bits."""
    q = np.empty((1 << n, 1 << n))
    for x in range(1 << n):
        for y in range(1 << n):
            i, j = (x ^ marked).bit_count(), (y ^ marked).bit_count()
            q[y, x] = table[i, j, ((x ^ marked) & (y ^ marked)).bit_count()]
    return q


@pytest.mark.parametrize("n", range(1, 6))
def test_table_layout_matches_brute_force_reference(n):
    # random tables over (i, j, t), one asymmetric and its symmetrization,
    # at random marked states: the gathers read table[i, j, t] as Q(y|x),
    # and the table certificate is the dense one
    rng = np.random.default_rng(100 + n)
    for marked in rng.integers(1 << n, size=2):
        raw = rng.random((n + 1,) * 3) / 2.0 ** n
        for table in (raw, 0.5 * (raw + raw.transpose(1, 0, 2))):
            kern = PermutationInvariantKernel(n, int(marked), table)
            ref = _brute_force_dense(table, n, int(marked))
            assert np.array_equal(kern.dense(), ref)
            for y in range(kern.dim):
                assert np.array_equal(kern.column(y), ref[:, y])
            table_cert = validate_kernel(kern)
            dense_cert = validate_kernel(DenseKernel(kern.dense(), n))
            for field in ("max_column_deviation", "max_row_deviation",
                          "max_asymmetry"):
                assert abs(getattr(table_cert, field)
                           - getattr(dense_cert, field)) <= 1e-14, field


def test_table_keeps_one_array():
    # the raw table is released on the first read, and a four-value table
    # is filled only then
    raw = np.full((4, 4, 4), 0.125)
    kern = PermutationInvariantKernel(3, 5, raw)
    kern.table()
    assert kern._raw is None
    grover = StructuredMarkedKernel(3, 5, 0.1, 0.1, 0.3, 0.3)
    assert grover._table is None
    assert grover.table()[0, 1, 0] == 0.1


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
    ("kernel table", 40, lambda: partial(
        structured_grover_kernel, MarkedStateHamiltonian(40, 1.0), 1.0, 1.0)),
    ("kernel table", 40, lambda: partial(single_flip_kernel, 40)),
    ("symmetry-block route", 22, lambda: partial(
        spectral_gap_blocks, uniform_kernel(22),
        gibbs_measure(MarkedStateHamiltonian(22, 1.0), 1.0))),
    ("Gibbs vector", 17, lambda: gibbs_measure(
        MarkedStateHamiltonian(17, 1.0), 1.0).probabilities),
    ("symmetry-block route", 22, lambda: partial(
        exact_mixing_time, single_flip_kernel(22),
        gibbs_measure(MarkedStateHamiltonian(22, 1.0), 1.0), 0.01)),
], ids=["hamiltonian", "kernel", "column", "table", "four-value",
        "single-flip", "blocks", "gibbs", "mixing"])
def test_dense_routes_refuse_past_the_cap(monkeypatch, what, n, prepare):
    # a 2^9 x 2^9 matrix, a 2^17 vector, the 2(N+1)^3 floats of the complex
    # table amplitudes and the (N+1)^3 of a four-value or single-flip table
    # at N = 40 and the 6(N+1)^3 floats the symmetry-block routes hold at
    # N = 22 (the gap's refused before the lazily filled table is read, the
    # mixing time's before the class chain is assembled) are past a cap of
    # 2^16 entries
    _refused_before_allocation(monkeypatch, prepare(), what, n)


def test_table_certificate_reports_corruption():
    kern = _invariant_kernels()[2]
    table = kern.table().copy()
    table[2, 1, 0] += 1e-3          # realized: x, y at distances 2, 1, t = 0
    cert = validate_kernel(PermutationInvariantKernel(6, 45, table))
    assert cert.max_asymmetry == pytest.approx(1e-3, rel=1e-9, abs=0.0)
    # a source at distance 2 sees C(2,0) C(4,1) = 4 states at distance 1, d = 3
    assert cert.max_column_deviation == pytest.approx(4e-3, rel=1e-6, abs=0.0)


def test_structured_negative_entry_raises():
    kern = StructuredMarkedKernel(3, 2, 0.1, 0.1, 1.0 - 7 * 0.1, -1e-6)
    with pytest.raises(NegativeProbability):
        validate_kernel(kern)
