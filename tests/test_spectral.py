import itertools
import math
import re
from functools import partial

import numpy as np
import pytest

from qemcmc import chain
from qemcmc.chain import (
    TransitionMatrix,
    _class_chain,
    build_transition_matrix,
    exact_mixing_time,
)
from qemcmc.errors import (
    AsymmetricKernel,
    BudgetExceeded,
    NegativeDiagonal,
    NegativeProbability,
    NotReversible,
    NotStochastic,
)
from qemcmc.model import MarkedStateHamiltonian, gibbs_measure
from qemcmc.proposal import (
    DenseKernel,
    PermutationInvariantKernel,
    single_flip_kernel,
    uniform_kernel,
)
from qemcmc.quantum import (
    MixerSpec,
    _grover_values,
    grover_closed_form,
    quantum_kernel,
    resonance_field,
    structured_grover_kernel,
    two_level_frequency,
)
from qemcmc.spectral import (
    AveragingScheme,
    averaged_grover_gap,
    grover_gap_closed_form,
    mixing_time_bounds,
    _block_coefficients,
    _gap_from_blocks,
    _grover_gaps,
    _schrijver_beta,
    _symmetry_blocks,
    scaling_fit,
    spectral_gap_blocks,
    spectral_gap_dense,
    time_averaged_kernel,
    uniform_gap_closed_form,
)

from test_proposal import _refused_before_allocation


def _dense_average(h_c, variant, scheme):
    """Mean of the dense-diagonalization kernels over the scheme's (h, t)
    grid."""
    samples = scheme.samples()
    weight = 1.0 / len(samples)
    mean = np.zeros((h_c.dim, h_c.dim))
    for h, t in samples:
        mean += weight * quantum_kernel(h_c, MixerSpec(variant, h), t,
                                        "dense").dense()
    return mean


def _uniform_chain(n, alpha, beta):
    h_c = MarkedStateHamiltonian(n, alpha)
    return build_transition_matrix(uniform_kernel(n), gibbs_measure(h_c, beta))


def test_gap_is_one_at_infinite_temperature():
    delta = spectral_gap_dense(_uniform_chain(4, 1.0, 0.0))
    assert delta == pytest.approx(1.0, abs=1e-12)


def test_uniform_closed_form_matches_eigensolve():
    delta = spectral_gap_dense(_uniform_chain(6, 1.0, 5.0))
    ref = uniform_gap_closed_form(6, 1.0, 5.0)
    assert abs(delta - ref) / ref < 1e-10


def test_uniform_closed_form_limits():
    assert uniform_gap_closed_form(5, 1.0, 0.0) == pytest.approx(1.0)
    # deep in the ordered phase the gap approaches 2^-N
    assert uniform_gap_closed_form(5, 1.0, 50.0) == pytest.approx(
        2.0 ** -5, rel=1e-12, abs=0.0)


def test_uniform_closed_form_stable_at_large_n():
    value = uniform_gap_closed_form(20, 2.0, 5.0)
    assert value == pytest.approx(2.0 ** -20, rel=1e-12, abs=0.0)


def test_grover_closed_form_matches_eigensolve():
    h_c = MarkedStateHamiltonian(8, 1.0)
    kern = quantum_kernel(h_c, MixerSpec("grover", 1.0), 1.0, "dense")
    delta = spectral_gap_dense(
        build_transition_matrix(kern, gibbs_measure(h_c, 5.0)))
    ref = grover_gap_closed_form(8, 1.0, 5.0, 1.0, 1.0)
    assert abs(delta - ref) / ref < 1e-9


def test_grover_gap_t0():
    assert grover_gap_closed_form(6, 1.0, 5.0, 1.0, 0.0) == 0.0


def _two_level_block_gap(n, alpha, beta, q_m):
    """Gap of the symmetrized 2x2 chain matrix [[a, b], [b, c]] on
    span{marked, uniform-unmarked}: its eigenvalues are 1 and a + c - 1, so
    the gap is their difference hypot(2b, a - c)."""
    g = 2.0 ** n - 1.0
    decay = math.exp(-n * beta * alpha)
    b = math.sqrt(g) * q_m * math.exp(-0.5 * n * beta * alpha)
    a_minus_c = q_m * (1.0 - g * decay)   # (1 - g q_m decay) - (1 - q_m)
    return math.hypot(2.0 * b, a_minus_c)


def test_grover_two_level_gap_is_the_block_gap():
    n, alpha, beta, h, t = 6, 1.0, 2.0, 1.0, 0.7
    cf = grover_closed_form(n, alpha, h, t)
    two_level, _ = _grover_gaps(n, alpha, beta, cf)
    assert two_level == pytest.approx(
        _two_level_block_gap(n, alpha, beta, cf.q_marked), rel=1e-12, abs=0.0)
    # this draw's gap is set by the two-level block
    ref = grover_gap_closed_form(n, alpha, beta, h, t)
    assert two_level == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_grover_two_level_gap_absorbing_limit():
    # beta -> infinity: the two-level gap collapses to q_marked
    cf = grover_closed_form(6, 1.0, 1.0, 0.7)
    two_level, _ = _grover_gaps(6, 1.0, 60.0, cf)
    assert two_level == pytest.approx(cf.q_marked, rel=1e-12, abs=0.0)


def test_grover_gaps_t0():
    assert _grover_gaps(5, 1.0, 2.0, grover_closed_form(5, 1.0, 1.0, 0.0)) \
        == (0.0, 0.0)


def test_mixing_bounds_substitution():
    lower, upper = mixing_time_bounds(0.5, math.log(0.25), 0.01)
    assert lower == pytest.approx(math.log(50.0))
    assert upper == pytest.approx(2.0 * math.log(400.0))


def test_mixing_bounds_gap_one():
    lower, _ = mixing_time_bounds(1.0, math.log(0.5), 0.01)
    assert lower == 0.0


def test_mixing_bounds_domain():
    with pytest.raises(ValueError):
        mixing_time_bounds(0.0, math.log(0.5), 0.01)
    with pytest.raises(ValueError):
        mixing_time_bounds(0.5, math.log(0.5), 1.5)
    with pytest.raises(ValueError):
        mixing_time_bounds(0.5, 0.1, 0.01)
    with pytest.raises(ValueError):
        mixing_time_bounds(0.5, math.nan, 0.01)


def test_report_bounds_order():
    delta = spectral_gap_dense(_uniform_chain(5, 1.0, 3.0))
    assert 0.0 <= delta <= 1.0


def test_not_reversible_detected():
    # a matrix whose detailed balance against the measure fails
    q = np.array([[0.8, 0.4], [0.2, 0.6]])
    measure = gibbs_measure(MarkedStateHamiltonian(1, 1.0), 1.0)
    p = TransitionMatrix(q, measure, 1)
    with pytest.raises(NotReversible):
        spectral_gap_dense(p)


def test_budget_guard(monkeypatch):
    # past the real cap (N = 12) the chain would need a 2^13 x 2^13 matrix;
    # with the cap lowered, the eigensolve refuses an N = 9 chain
    p = _uniform_chain(9, 1.0, 1.0)
    _refused_before_allocation(monkeypatch, partial(spectral_gap_dense, p),
                              "dense eigensolve", 9)


def test_sector_arrays_stop_at_the_real_cap():
    # at 2^24 entries the block coefficients take N <= 75, the table N <= 202
    with pytest.raises(BudgetExceeded,
                       match="^block coefficients refused at N = 76:"):
        _schrijver_beta(76)
    with pytest.raises(BudgetExceeded, match="^kernel table refused at N = 203:"):
        quantum_kernel(MarkedStateHamiltonian(203, 1.0),
                       MixerSpec("transverse", 1.0), 1.0)


def test_scaling_fit_exact_slope():
    points = [(n, 2.0 ** -n) for n in range(8, 14)]
    assert scaling_fit(points) == pytest.approx(-1.0)


def test_scaling_fit_needs_points():
    with pytest.raises(ValueError):
        scaling_fit([(4, 0.5), (5, 0.25)])
    with pytest.raises(ValueError):
        scaling_fit([(4, 0.5), (5, 0.25), (6, 0.0), (7, 0.1)])


def test_scheme_grid_deterministic():
    scheme = AveragingScheme((2.0, 20.0), h_fixed=-1.0, sample_count=16)
    assert np.array_equal(scheme.samples(), scheme.samples())
    assert scheme.samples().shape == (16, 2)


def test_scheme_validation():
    with pytest.raises(ValueError):
        AveragingScheme((0.0, 1.0), h_fixed=1.0, h_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        AveragingScheme((0.0, 1.0), h_fixed=1.0, sample_count=0)
    # a non-finite h or t is refused when the scheme is made
    for t_range, h in [((0.0, math.inf), {"h_fixed": 1.0}),
                       ((0.0, 1.0), {"h_fixed": math.nan}),
                       ((0.0, 1.0), {"h_range": (-math.inf, 1.0)})]:
        with pytest.raises(ValueError, match="finite"):
            AveragingScheme(t_range, **h)


@pytest.mark.parametrize("count", [1, 2, 9, 10, 63, 64])
def test_scheme_h_range_grid_is_square(count):
    # an h range averages over a side x side grid of exactly count points,
    # so any other count is rejected rather than rounded
    side = math.isqrt(count)
    if side * side != count:
        with pytest.raises(ValueError, match="perfect square"):
            AveragingScheme((0.0, 1.0), h_range=(-1.0, 0.5),
                            sample_count=count)
        return
    grid = AveragingScheme((0.0, 1.0), h_range=(-1.0, 0.5),
                           sample_count=count).samples()
    assert grid.shape == (count, 2)
    assert len(np.unique(grid[:, 0])) == len(np.unique(grid[:, 1])) == side


def _sample_schemes(n):
    """Fixed-h and square-grid schemes: t ranges from 0 and past it, h = 0,
    the resonance field, and an h grid through 0."""
    h_res = resonance_field(1.0, n)
    return [AveragingScheme((2.0, 20.0), h_fixed=h_res),
            AveragingScheme((0.0, 20.0), h_fixed=h_res),
            AveragingScheme((0.0, 3.0), h_fixed=0.0, sample_count=5),
            AveragingScheme((0.3, 4.0), h_fixed=0.8, sample_count=7),
            AveragingScheme((0.0, 20.0), h_range=(-2.0, 2.0), sample_count=81),
            AveragingScheme((0.3, 4.0), h_range=(h_res, 0.5), sample_count=16)]


@pytest.mark.parametrize("n", [*range(1, 41), 100, 255, 511])
def test_averaged_gap_is_the_mean_of_the_sample_gaps(n):
    # the reference is the per-sample loop: each sample's scalar closed form
    # and block gaps, averaged; the one array pass must equal it to the bit,
    # and each of its rows must equal the scalar closed form of its sample
    alpha, beta = 1.0, 5.0
    for scheme in _sample_schemes(n):
        samples = scheme.samples()
        scalar = [grover_closed_form(n, alpha, h, t) for h, t in samples]
        rows = np.stack(_grover_values(n, alpha, *samples.T), axis=-1)
        assert np.array_equal(rows, np.array(scalar)), (n, scheme)
        two_level, bulk = zip(*(_grover_gaps(n, alpha, beta, cf)
                                for cf in scalar))
        ref = _gap_from_blocks(float(np.mean(two_level)), float(np.mean(bulk)))
        gap = averaged_grover_gap(n, alpha, beta, scheme)
        assert gap == ref and type(gap) is float, (n, scheme)


def test_averaged_routes_refuse_a_sample_that_is_not_finite():
    # one sample of two overflows (t = 1e308): both averaged routes raise,
    # naming it, and return no mean over the other
    h_c = MarkedStateHamiltonian(6, 1.0)
    scheme = AveragingScheme((0.0, 1e308), h_fixed=0.5, sample_count=2)
    note = "not finite at N = 6, h = 0.5, t = 1e+308"
    with pytest.raises(ValueError, match=re.escape(note)):
        averaged_grover_gap(6, 1.0, 5.0, scheme)
    with pytest.raises(ValueError, match=re.escape(note)):
        time_averaged_kernel(h_c, scheme)
    # the h end of a grid: the first sample past it is named
    scheme = AveragingScheme((0.0, 1.0), h_range=(0.5, 1e200), sample_count=4)
    note = "not finite at N = 6, h = 1e+200, t = 0.0"
    with pytest.raises(ValueError, match=re.escape(note)):
        averaged_grover_gap(6, 1.0, 5.0, scheme)
    with pytest.raises(ValueError, match=re.escape(note)):
        time_averaged_kernel(h_c, scheme)


def test_single_sample_average_is_the_kernel():
    h_c = MarkedStateHamiltonian(5, 1.0)
    scheme = AveragingScheme((1.3, 1.3), h_fixed=0.9, sample_count=1)
    avg = time_averaged_kernel(h_c, scheme)
    single = structured_grover_kernel(h_c, 0.9, 1.3)
    assert np.max(np.abs(avg.dense() - single.dense())) < 1e-14


@pytest.mark.parametrize("count", [1, 16, 64])
def test_averaged_table_is_the_mean_of_the_sample_tables(count):
    # the reference: each sample's grover table, summed in sample order and
    # scaled once; the four-value mean must equal it to the bit
    for n in range(1, 13):
        h_c = MarkedStateHamiltonian(n, 1.0, marked=n // 2)
        for scheme in (
                AveragingScheme((2.0, 20.0), h_fixed=resonance_field(1.0, n),
                                sample_count=count),
                AveragingScheme((0.3, 4.0), h_range=(-2.0, 2.0),
                                sample_count=count)):
            samples = scheme.samples()
            total = sum(structured_grover_kernel(h_c, h, t).table()
                        for h, t in samples)
            ref = PermutationInvariantKernel(n, h_c.marked,
                                             (1.0 / len(samples)) * total)
            avg = time_averaged_kernel(h_c, scheme)
            assert np.array_equal(avg.table(), ref.table()), (n, count)


def test_averaged_kernel_symmetric():
    h_c = MarkedStateHamiltonian(4, 1.0)
    scheme = AveragingScheme((0.5, 2.5), h_fixed=1.0, sample_count=8)
    q = _dense_average(h_c, "transverse", scheme)
    assert np.max(np.abs(q - q.T)) < 1e-9
    assert np.max(np.abs(q.sum(axis=0) - 1.0)) < 1e-9


def test_averaged_gap_matches_averaged_kernel():
    # gap of the mean kernel vs mean of the closed-form gap over the same grid
    n, alpha, beta = 10, 1.0, 5.0
    h = -alpha
    omega = two_level_frequency(n, alpha, h)
    period = math.pi / (n * omega)
    scheme = AveragingScheme((2.0, 2.0 + period), h_fixed=h, sample_count=24)
    h_c = MarkedStateHamiltonian(n, alpha)
    kern = time_averaged_kernel(h_c, scheme)
    delta = spectral_gap_dense(
        build_transition_matrix(kern, gibbs_measure(h_c, beta)))
    analytic = averaged_grover_gap(n, alpha, beta, scheme)
    assert abs(delta - analytic) / analytic < 1e-8


def _grover_chain(n, alpha, beta, h, t):
    h_c = MarkedStateHamiltonian(n, alpha)
    kern = quantum_kernel(h_c, MixerSpec("grover", h), t, "dense")
    return build_transition_matrix(kern, gibbs_measure(h_c, beta))


def test_grover_closed_form_includes_unmarked_bulk():
    # a draw where the (2^N - 2)-fold unmarked bulk, not the two-level
    # block, sets the gap: 8.794e-4 against the block's 3.085e-3
    n, alpha, h, t, beta = (7, 0.5387855542266777, -1.1702963844100096,
                            0.7492055426875538, 1.0)
    ref = grover_gap_closed_form(n, alpha, beta, h, t)
    two_level, _ = _grover_gaps(n, alpha, beta, grover_closed_form(n, alpha, h, t))
    assert ref < 0.5 * two_level
    delta = spectral_gap_dense(_grover_chain(n, alpha, beta, h, t))
    assert abs(delta - ref) / ref < 1e-10


@pytest.mark.parametrize("t_range", [(0.7, 0.8), (0.65, 0.85)])
def test_averaged_gap_is_the_smaller_averaged_block(t_range):
    # on (0.7, 0.8) the bulk wins on every sample and on average; on
    # (0.65, 0.85) it wins on 3 of 5 samples but the two-level block wins on
    # average, so a mean of per-sample minima would be too small
    n, alpha, h, beta = 7, 0.5387855542266777, -1.1702963844100096, 1.0
    scheme = AveragingScheme(t_range, h_fixed=h, sample_count=5)
    h_c = MarkedStateHamiltonian(n, alpha)
    kern = time_averaged_kernel(h_c, scheme)
    delta = spectral_gap_dense(
        build_transition_matrix(kern, gibbs_measure(h_c, beta)))
    analytic = averaged_grover_gap(n, alpha, beta, scheme)
    assert abs(delta - analytic) / analytic < 1e-10


def test_dense_gap_relative_accuracy_at_tiny_gap():
    # a gap of 1.8e-10 under a bulk eigenvalue of 0.26: an eigenvalue read
    # off the solver is good to ~eps * 0.26 absolute, 4e-7 relative here
    n, alpha, h, t, beta = (4, 1.8720632369324413, -1.023269195786007,
                            4.303007324787222, 5.0)
    ref = grover_gap_closed_form(n, alpha, beta, h, t)
    assert ref < 1e-9
    delta = spectral_gap_dense(_grover_chain(n, alpha, beta, h, t))
    assert abs(delta - ref) / ref < 1e-8


def test_dense_gap_survives_overflowing_weight_ratio():
    # at beta*alpha*N = 1600 the factor sqrt(pi(x)/pi(y)) overflows; the
    # entries it multiplies are 0 and must not turn into NaN
    delta = spectral_gap_dense(_uniform_chain(4, 1.0, 400.0))
    assert delta == pytest.approx(uniform_gap_closed_form(4, 1.0, 400.0),
                                  rel=1e-12, abs=0.0)
    assert uniform_gap_closed_form(4, 1.0, 400.0) == 0.0625


# ---------------------------------------------------------------------------
# symmetry blocks

def _draw(rng, n):
    """(marked Hamiltonian, beta, h, t) at random, marked state included."""
    h_c = MarkedStateHamiltonian(n, rng.uniform(0.5, 2.0),
                                 int(rng.integers(1 << n)))
    return h_c, rng.uniform(0.0, 5.0), rng.uniform(-2.0, 2.0), rng.uniform(0.0, 3.0)


def _kernel(variant, h_c, h, t):
    if variant == "averaged":
        scheme = AveragingScheme((t, t + 1.0), h_fixed=h, sample_count=5)
        return time_averaged_kernel(h_c, scheme)
    return quantum_kernel(h_c, MixerSpec(variant, h), t)


@pytest.mark.parametrize("variant", ["transverse", "grover", "averaged"])
def test_block_gap_matches_dense(variant):
    rng = np.random.Generator(np.random.Philox(41))
    for n in range(2, 11):
        for _ in range(2):
            h_c, beta, h, t = _draw(rng, n)
            kern = _kernel(variant, h_c, h, t)
            measure = gibbs_measure(h_c, beta)
            ref = spectral_gap_dense(build_transition_matrix(kern, measure))
            delta = spectral_gap_blocks(kern, measure)
            assert abs(delta - ref) <= 1e-10 * ref, (n, variant)


@pytest.mark.parametrize("variant", ["transverse", "grover"])
def test_block_spectrum_matches_dense(variant):
    # every eigenvalue of L, each block repeated by its multiplicity
    rng = np.random.Generator(np.random.Philox(43))
    for n in range(1, 9):
        h_c, beta, h, t = _draw(rng, n)
        kern = _kernel(variant, h_c, h, t)
        measure = gibbs_measure(h_c, beta)
        p = build_transition_matrix(kern, measure).p
        sym = -np.sqrt(p * p.T)
        np.fill_diagonal(sym, 1.0 - np.diag(p))
        ref = np.linalg.eigvalsh(sym)
        _, _, x = _class_chain(kern, measure)
        blocks = _symmetry_blocks(x, _block_coefficients(n))
        assert sum(mult * len(b) for b, mult in blocks) == 1 << n
        lam = np.sort(np.concatenate([np.repeat(np.linalg.eigvalsh(b), mult)
                                      for b, mult in blocks]))
        assert np.max(np.abs(lam - ref)) < 1e-12, n


def _beta_brute(n, k, i, j, t):
    """beta^t_{i,j,k} summed over pairs of subsets X, Y of sizes i, j that
    contain A = {0..k-1} and avoid B = {k..2k-1}: each U with
    A <= U <= X & Y counts (-1)^(|U|-t) C(|U|, t)."""
    total = 0
    for xs in itertools.combinations(range(2 * k, n), i - k):
        for ys in itertools.combinations(range(2 * k, n), j - k):
            free = len(set(xs) & set(ys))
            total += sum(math.comb(free, r) * (-1) ** (k + r - t)
                         * math.comb(k + r, t) for r in range(free + 1))
    return total


def _beta_reference(n):
    """Schrijver's beta^t_{i,j,k} as exact integers, keyed (k, i, j, t) over
    k <= N/2, i and j in [k, N-k], and t <= min(i, j): the sum over u term
    by term, the reference for the batched product of the package."""
    comb = math.comb
    beta = {}
    for k in range(n // 2 + 1):
        for i in range(k, n - k + 1):
            for j in range(k, n - k + 1):
                for t in range(min(i, j) + 1):
                    beta[k, i, j, t] = sum(
                        (-1) ** (u - t) * comb(u, t) * comb(n - 2 * k, u - k)
                        * comb(n - k - u, i - u) * comb(n - k - u, j - u)
                        for u in range(max(k, t), min(i, j) + 1))
    return beta


@pytest.mark.parametrize("n", range(1, 7))
def test_beta_coefficients_brute_force(n):
    beta, _ = _schrijver_beta(n)
    keys = list(_beta_reference(n))
    assert len(keys) > 0
    for k, i, j, t in keys:
        assert beta[k, i, j, t] == _beta_brute(n, k, i, j, t), (k, i, j, t)


@pytest.mark.parametrize("n", [*range(1, 21), 26, 27, 28])
def test_block_coefficients_match_exact_reference(n):
    # N = 26 runs the product in int64, N = 27 and 28 on Python ints
    ref = _beta_reference(n)
    beta, _ = _schrijver_beta(n)
    assert beta.dtype == (np.int64 if n <= 26 else object)
    exact = np.zeros(beta.shape, dtype=object)
    coef = np.zeros(beta.shape)
    for (k, i, j, t), value in ref.items():
        exact[k, i, j, t] = value
        norm = math.comb(n - 2 * k, i - k) * math.comb(n - 2 * k, j - k)
        coef[k, i, j, t] = value / math.sqrt(norm)
    assert np.array_equal(beta, exact)
    assert np.array_equal(_block_coefficients(n).view(np.uint64),
                          coef.view(np.uint64))


def test_block_gap_at_tiny_gap():
    n, alpha, h, t, beta = (4, 1.8720632369324413, -1.023269195786007,
                            4.303007324787222, 5.0)
    h_c = MarkedStateHamiltonian(n, alpha)
    ref = grover_gap_closed_form(n, alpha, beta, h, t)
    delta = spectral_gap_blocks(quantum_kernel(h_c, MixerSpec("grover", h), t),
                                gibbs_measure(h_c, beta))
    assert abs(delta - ref) / ref < 1e-10


def test_block_gap_bulk_dominated():
    n, alpha, h, t, beta = (7, 0.5387855542266777, -1.1702963844100096,
                            0.7492055426875538, 1.0)
    h_c = MarkedStateHamiltonian(n, alpha)
    ref = grover_gap_closed_form(n, alpha, beta, h, t)
    delta = spectral_gap_blocks(quantum_kernel(h_c, MixerSpec("grover", h), t),
                                gibbs_measure(h_c, beta))
    assert abs(delta - ref) / ref < 1e-10


def test_block_gap_of_uniform_chain_at_n32():
    # 2^32 states: only the (N+1)-sized class objects are formed
    n, alpha, beta = 32, 1.0, 0.5
    delta = spectral_gap_blocks(
        uniform_kernel(n), gibbs_measure(MarkedStateHamiltonian(n, alpha), beta))
    ref = uniform_gap_closed_form(n, alpha, beta)
    assert abs(delta - ref) <= 1e-10 * ref


@pytest.mark.parametrize("n, alpha", [(6, 0.1), (6, 0.03), (8, 0.1), (8, 0.03)])
def test_block_gap_nearly_periodic(n, alpha):
    # at h t near pi/2 the transverse mixer nearly flips every spin; the gap
    # sits at the -1 end of block 1, which is read as a bare eigenvalue
    h_c = MarkedStateHamiltonian(n, alpha, 5)
    kern = quantum_kernel(h_c, MixerSpec("transverse", 1.0), math.pi / 2 - 1e-4)
    measure = gibbs_measure(h_c, 1.0)
    ref = spectral_gap_dense(build_transition_matrix(kern, measure))
    delta = spectral_gap_blocks(kern, measure)
    assert abs(delta - ref) <= 1e-10 * ref
    _, _, x = _class_chain(kern, measure)
    (block0, _), (block1, _), *_ = _symmetry_blocks(x,
                                                    _block_coefficients(n))
    lam0, lam1 = np.linalg.eigvalsh(block0), np.linalg.eigvalsh(block1)
    assert abs(2.0 - lam1[-1] - delta) <= 1e-10 * ref
    assert min(lam0[1], 2.0 - lam0[-1]) > delta


def _transverse_table(n=5, marked=9, h=0.8, t=1.1):
    h_c = MarkedStateHamiltonian(n, 1.0, marked)
    return h_c, quantum_kernel(h_c, MixerSpec("transverse", h), t).table().copy()


def test_block_route_rejects_asymmetric_table():
    h_c, table = _transverse_table()
    table[3, 1, 2] += 1e-6
    with pytest.raises(AsymmetricKernel):
        spectral_gap_blocks(PermutationInvariantKernel(5, 9, table),
                            gibbs_measure(h_c, 2.0))


def test_block_route_rejects_non_stochastic_table():
    h_c, table = _transverse_table()
    with pytest.raises(NotStochastic):
        spectral_gap_blocks(PermutationInvariantKernel(5, 9, 0.9 * table),
                            gibbs_measure(h_c, 2.0))


def test_block_route_rejects_negative_entry():
    h_c, table = _transverse_table()
    table[2, 1, 1] = -1e-6
    with pytest.raises(NegativeProbability):
        spectral_gap_blocks(PermutationInvariantKernel(5, 9, table),
                            gibbs_measure(h_c, 2.0))


def test_block_route_rejects_negative_rejection_mass(monkeypatch):
    # with the column-sum check relaxed, too much off-diagonal mass is left
    # to the rejection-mass check
    monkeypatch.setattr(chain, "SYMMETRY_TOL", 1.0)
    h_c, table = _transverse_table()
    table[1:] *= 1.5
    with pytest.raises(NegativeDiagonal):
        _class_chain(PermutationInvariantKernel(5, 9, table),
                     gibbs_measure(h_c, 2.0))


def _corrupted(defect):
    """The transverse table's kernel with one defect, and its measure."""
    h_c, table = _transverse_table()
    if defect == "asymmetric":
        table[3, 1, 2] += 1e-6
    elif defect == "not-stochastic":
        table *= 0.9
    elif defect == "negative-entry":
        table[2, 1, 1] = -1e-6
    elif defect == "nan":
        table[2, 1, 1] = np.nan
    return PermutationInvariantKernel(5, 9, table), gibbs_measure(h_c, 2.0)


# the mixing time reads the block route's pair-class assembly, so it rejects
# the tables above with the same errors, and so does the dense assembly,
# which makes the same kernel checks
@pytest.mark.parametrize("defect, error", [
    ("asymmetric", AsymmetricKernel),
    ("not-stochastic", NotStochastic),
    ("negative-entry", NegativeProbability),
    ("nan", AsymmetricKernel),       # a NaN fails the certificate
])
def test_mixing_time_rejects_corrupt_tables(defect, error):
    kern, measure = _corrupted(defect)
    with pytest.raises(error):
        exact_mixing_time(kern, measure, 0.01)
    with pytest.raises(error):
        build_transition_matrix(kern, measure)


def test_mixing_time_rejects_negative_rejection_mass(monkeypatch):
    # the column-sum check relaxed, as in
    # test_block_route_rejects_negative_rejection_mass
    monkeypatch.setattr(chain, "SYMMETRY_TOL", 1.0)
    h_c, table = _transverse_table()
    table[1:] *= 1.5
    with pytest.raises(NegativeDiagonal):
        exact_mixing_time(PermutationInvariantKernel(5, 9, table),
                          gibbs_measure(h_c, 2.0), 0.01)


def test_block_route_rejects_irreversible_chain(monkeypatch):
    h_c, table = _transverse_table()
    # a NaN entry fails the certificate instead of passing it
    _, _, x = _class_chain(PermutationInvariantKernel(5, 9, table),
                           gibbs_measure(h_c, 2.0))
    x[2, 3, 2] = np.nan
    with pytest.raises(NotReversible):
        _symmetry_blocks(x, _block_coefficients(5))
    # with the kernel asymmetry check relaxed, the blocks' own certificate
    # catches the asymmetric table
    monkeypatch.setattr(chain, "SYMMETRY_TOL", 1.0)
    table[3, 1, 2] += 1e-3
    _, _, x = _class_chain(PermutationInvariantKernel(5, 9, table),
                           gibbs_measure(h_c, 2.0))
    with pytest.raises(NotReversible):
        _symmetry_blocks(x, _block_coefficients(5))


def test_block_route_needs_an_invariant_measure():
    h_c, table = _transverse_table()
    other = gibbs_measure(MarkedStateHamiltonian(5, 1.0, marked=3), 2.0)
    with pytest.raises(ValueError):
        spectral_gap_blocks(PermutationInvariantKernel(5, 9, table), other)
    with pytest.raises(TypeError):
        spectral_gap_blocks(DenseKernel(np.eye(32), 5), gibbs_measure(h_c, 2.0))


@pytest.mark.parametrize("n", range(2, 9))
def test_single_flip_block_gap_matches_dense(n):
    # the classical local baseline: its table is invariant about state 0
    measure = gibbs_measure(MarkedStateHamiltonian(n, 1.0), 1.0)
    kern = single_flip_kernel(n)
    ref = spectral_gap_dense(build_transition_matrix(kern, measure))
    delta = spectral_gap_blocks(kern, measure)
    assert abs(delta - ref) <= 1e-10 * ref
