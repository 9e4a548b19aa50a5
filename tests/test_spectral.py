import itertools
import math
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest

from qemcmc import chain
from qemcmc.bottleneck import marked_state_bound
from qemcmc.chain import (
    TransitionMatrix,
    _class_chain,
    build_transition_matrix,
    exact_mixing_time,
)
from qemcmc.errors import (
    AsymmetricKernel,
    BudgetExceeded,
    ImpreciseGap,
    NegativeDiagonal,
    NegativeProbability,
    NotReversible,
    NotStochastic,
)
from qemcmc.model import MarkedStateHamiltonian, _log_pow2m1, gibbs_measure
from qemcmc.proposal import (
    DenseKernel,
    PermutationInvariantKernel,
    StructuredMarkedKernel,
    single_flip_kernel,
    uniform_kernel,
    weight_classes,
)
from qemcmc.quantum import (
    MixerSpec,
    grover_closed_form,
    quantum_kernel,
    quantum_kernel_dense,
    resonance_field,
    structured_grover_kernel,
    two_level_frequency,
)
from qemcmc.spectral import (
    AveragingScheme,
    averaged_grover_gap,
    grover_gap_closed_form,
    mixing_time_bounds,
    _GAP_RTOL,
    _ROUTE_ARRAYS,
    _gap_from_blocks,
    _grover_gaps,
    _symmetry_blocks,
    scaling_fit,
    spectral_gap_blocks,
    spectral_gap_dense,
    time_averaged_kernel,
    uniform_gap_closed_form,
)

from test_proposal import _refused_before_allocation


def _samples(scheme, n, alpha):
    """The scheme's (h, t) samples at one N, shape (sample_count, 2)."""
    return np.column_stack(np.broadcast_arrays(*scheme.grid(n, alpha)))


def _averaged_kernel(h_c, scheme):
    return time_averaged_kernel(h_c, scheme.values(h_c.n_spins, h_c.alpha))


def _dense_average(h_c, variant, scheme):
    """Mean of the dense-diagonalization kernels over the scheme's (h, t)
    grid."""
    samples = _samples(scheme, h_c.n_spins, h_c.alpha)
    weight = 1.0 / len(samples)
    mean = np.zeros((h_c.dim, h_c.dim))
    for h, t in samples:
        mean += weight * quantum_kernel_dense(h_c, MixerSpec(variant, h),
                                              t).dense()
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
    kern = quantum_kernel_dense(h_c, MixerSpec("grover", 1.0), 1.0)
    delta = spectral_gap_dense(
        build_transition_matrix(kern, gibbs_measure(h_c, 5.0)))
    ref = grover_gap_closed_form(8, 1.0, 5.0, 1.0, 1.0)
    assert abs(delta - ref) / ref < 1e-9


def test_grover_closed_form_matches_dense_gap_at_n1():
    # N = 1 has no unmarked bulk: the two-level block is the whole chain
    # (with the empty bulk's eigenvalue, this draw read -0.0354)
    draws = [(1.0, 5.0, 0.9, 2.5)]
    rng = np.random.default_rng(21)
    draws += [tuple(rng.uniform(lo, hi) for lo, hi in
                    ((0.1, 3.0), (0.0, 6.0), (-3.0, 3.0), (0.1, 10.0)))
              for _ in range(30)]
    for alpha, beta, h, t in draws:
        ref = spectral_gap_dense(_grover_chain(1, alpha, beta, h, t))
        gap = grover_gap_closed_form(1, alpha, beta, h, t)
        assert abs(gap - ref) <= 1e-10 * ref, (alpha, beta, h, t)
    assert grover_gap_closed_form(1, 1.0, 5.0, 0.9, 2.5) == pytest.approx(
        0.4450, abs=1e-4)


@pytest.mark.parametrize("scheme", [
    AveragingScheme(resonance_field(1.0, 1), (2.0, 20.0)),
    AveragingScheme((-2.0, 2.0), (0.3, 4.0), sample_count=16),
], ids=["figure-a", "h-range"])
def test_averaged_gap_matches_block_gap_at_n1(scheme):
    h_c = MarkedStateHamiltonian(1, 1.3)
    delta = spectral_gap_blocks(_averaged_kernel(h_c, scheme),
                                gibbs_measure(h_c, 2.0))
    analytic = averaged_grover_gap(1, 1.3, 2.0, scheme.values(1, 1.3))
    assert abs(delta - analytic) <= 1e-10 * analytic


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
    # at 2^24 entries the transverse table takes N <= 202, and the six
    # (N+1)^3 arrays of the symmetry-block route N <= 139, refused before a
    # four-value table is filled
    with pytest.raises(BudgetExceeded, match="^kernel table refused at N = 203:"):
        quantum_kernel(MarkedStateHamiltonian(203, 1.0),
                       MixerSpec("transverse", 1.0), 1.0)
    kern = uniform_kernel(140)
    with pytest.raises(BudgetExceeded, match="^symmetry-block route refused "
                       "at N = 140: 16819326 entries"):
        spectral_gap_blocks(kern, gibbs_measure(
            MarkedStateHamiltonian(140, 1.0), 1.0))
    assert kern._table is None


@pytest.mark.parametrize("n", [60, 100])
def test_block_route_holds_its_counted_arrays(n):
    # with the kernel's table and the pair counts built first, the route's
    # own peak and those two keep within the _ROUTE_ARRAYS (N+1)^3 arrays
    # that its size rule counts (about 4.95 of them at N = 60 and 100)
    h_c = MarkedStateHamiltonian(n, 1.0)
    kern = quantum_kernel(h_c, MixerSpec("transverse", 1.0), 1.0)
    measure = gibbs_measure(h_c, 0.5)
    kern.table()
    weight_classes(n)
    array = 8 * (n + 1) ** 3
    tracemalloc.start()
    try:
        spectral_gap_blocks(kern, measure)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2 * array + peak <= _ROUTE_ARRAYS * array, peak / array


def test_scaling_fit_exact_slope():
    points = [(n, 2.0 ** -n) for n in range(8, 14)]
    assert scaling_fit(points) == pytest.approx(-1.0)


def test_scaling_fit_needs_points():
    with pytest.raises(ValueError):
        scaling_fit([(4, 0.5), (5, 0.25)])
    with pytest.raises(ValueError):
        scaling_fit([(4, 0.5), (5, 0.25), (6, 0.0), (7, 0.1)])


def test_scheme_grid_deterministic():
    scheme = AveragingScheme(-1.0, (2.0, 20.0), sample_count=16)
    assert np.array_equal(_samples(scheme, 5, 1.0), _samples(scheme, 5, 1.0))
    assert _samples(scheme, 5, 1.0).shape == (16, 2)


def test_scheme_validation():
    with pytest.raises(ValueError):
        AveragingScheme(1.0, (0.0, 1.0), sample_count=0)
    # a non-finite h or t is refused when the scheme is made
    for h, t_range in [(1.0, (0.0, math.inf)),
                       (math.nan, (0.0, 1.0)),
                       ((-math.inf, 1.0), (0.0, 1.0))]:
        with pytest.raises(ValueError, match="finite"):
            AveragingScheme(h, t_range)


@pytest.mark.parametrize("count", [1, 2, 9, 10, 63, 64])
def test_scheme_h_range_grid_is_square(count):
    # an h range averages over a side x side grid of exactly count points,
    # so any other count is rejected rather than rounded
    side = math.isqrt(count)
    if side * side != count:
        with pytest.raises(ValueError, match="perfect square"):
            AveragingScheme((-1.0, 0.5), (0.0, 1.0),
                            sample_count=count)
        return
    grid = _samples(AveragingScheme((-1.0, 0.5), (0.0, 1.0),
                                    sample_count=count), 5, 1.0)
    assert grid.shape == (count, 2)
    assert len(np.unique(grid[:, 0])) == len(np.unique(grid[:, 1])) == side


def _sample_schemes(n):
    """Fixed-h and square-grid schemes: t ranges from 0 and past it, h = 0,
    the resonance field, and an h grid through 0."""
    h_res = resonance_field(1.0, n)
    return [AveragingScheme(h_res, (2.0, 20.0)),
            AveragingScheme(h_res, (0.0, 20.0)),
            AveragingScheme(0.0, (0.0, 3.0), sample_count=5),
            AveragingScheme(0.8, (0.3, 4.0), sample_count=7),
            AveragingScheme((-2.0, 2.0), (0.0, 20.0), sample_count=81),
            AveragingScheme((h_res, 0.5), (0.3, 4.0), sample_count=16),
            AveragingScheme("resonance", (2.0, 20.0), sample_count=9)]


@pytest.mark.parametrize("n", [*range(1, 41), 100, 255, 511])
def test_averaged_gap_is_the_mean_of_the_sample_gaps(n):
    # the reference is the per-sample loop: each sample's scalar closed form
    # and block gaps, averaged; the one array pass must equal it to the bit,
    # and each of its rows must equal the scalar closed form of its sample
    alpha, beta = 1.0, 5.0
    for scheme in _sample_schemes(n):
        samples = _samples(scheme, n, alpha)
        scalar = [grover_closed_form(n, alpha, h, t) for h, t in samples]
        values = scheme.values(n, alpha)
        rows = np.stack(values, axis=-1)
        assert np.array_equal(rows, np.array(scalar)), (n, scheme)
        blocks = list(zip(*(_grover_gaps(n, alpha, beta, cf)
                            for cf in scalar)))
        # at N = 1 the bulk is empty: the two-level block is the whole chain
        ref = _gap_from_blocks(*(float(np.mean(b))
                                 for b in blocks[:1 if n == 1 else 2]))
        gap = averaged_grover_gap(n, alpha, beta, values)
        assert gap == ref and type(gap) is float, (n, scheme)


def _closed_form_at_one_n(n, alpha, h, t):
    """The grover closed form at one N over (h, t) arrays, as it was written
    before N became an array axis: the bitwise reference of the pass."""
    dim = 2.0 ** n
    norm = (dim - 1.0) ** 2
    s = alpha + h
    omega = 0.5 * np.sqrt(np.maximum(s * s - alpha * h * 2.0 ** (2 - n), 0.0))
    with np.errstate(all="ignore"):
        gamma_t = n * omega * t
        y = math.pi * (gamma_t / math.pi)
        at_zero = y == 0.0
        sinc = (np.sin(y) + at_zero) / (y + at_zero)
        base = h * n * t * sinc * 2.0 ** -n
        phi_t = 0.5 * n * (h - alpha) * t
        cos_diff = (-2.0 * np.sin(0.5 * (phi_t + gamma_t))
                    * np.sin(0.5 * (phi_t - gamma_t)))
        sin_sum = np.sin(phi_t) + n * (0.5 * (h + alpha) - h * 2.0 ** -n) * t * sinc
        q_m = base * base
        q_u = (cos_diff * cos_diff + sin_sum * sin_sum) / norm
    return q_m, q_u, 1.0 - (dim - 1.0) * q_m, 1.0 - q_m - (dim - 2.0) * q_u


def _averaged_gap_at_one_n(n, alpha, beta, q_m, q_u):
    """The averaged gap at one N from its sample values, as it was written
    before N became an array axis."""
    u = _log_pow2m1(n) - n * beta * alpha
    blocks = [q_m * math.exp(np.logaddexp(0.0, u))]
    if n > 1:
        blocks.append(q_m + (2.0 ** n - 1.0) * q_u)
    return min(min(d, 2.0 - d) for d in (float(np.mean(b)) for b in blocks))


@pytest.mark.parametrize("count", [1, 16, 64])
@pytest.mark.parametrize("alpha", [0.4, 1.0, 2.3])
def test_n_axis_pass_is_the_closed_form_at_each_n(alpha, count):
    # one pass over N = 1..511 against the closed form and the averaged gap
    # formed one N at a time, to the bit: values, gaps at three beta, and
    # the resonance, fixed-h and h-range schemes
    ns = np.arange(1, 512)
    for scheme in (AveragingScheme("resonance", (2.0, 20.0), count),
                   AveragingScheme(0.8, (0.3, 4.0), count),
                   AveragingScheme((-2.0, 0.5), (0.3, 4.0), count)):
        cf = scheme.values(ns, alpha)
        values = np.stack(cf)
        assert values.shape == (4, len(ns), count)
        gaps = {beta: averaged_grover_gap(ns, alpha, beta, cf)
                for beta in (0.5, 1.0, 5.0)}
        for i, n in enumerate(ns.tolist()):
            h, t = np.broadcast_arrays(*scheme.grid(n, alpha))
            ref = _closed_form_at_one_n(n, alpha, h, t)
            assert np.array_equal(values[:, i], np.stack(ref)), (n, scheme)
            for beta, gap in gaps.items():
                assert gap[i] == _averaged_gap_at_one_n(
                    n, alpha, beta, ref[0], ref[1]), (n, beta, scheme)


def test_averaged_kernel_from_a_grid_row_is_the_one_n_kernel():
    # a kernel built from row i of a grid over N equals the table of the
    # per-N mean of the reference closed form, to the bit
    ns = list(range(1, 13))
    for scheme in (AveragingScheme("resonance", (2.0, 20.0)),
                   AveragingScheme((-2.0, 2.0), (0.3, 4.0), 16)):
        values = scheme.values(ns, 1.3)
        for i, n in enumerate(ns):
            h_c = MarkedStateHamiltonian(n, 1.3, marked=n // 2)
            row = values._make(v[i] for v in values)
            kern = time_averaged_kernel(h_c, row)
            h, t = np.broadcast_arrays(*scheme.grid(n, 1.3))
            stack = np.stack(_closed_form_at_one_n(n, 1.3, h, t), axis=-1)
            mean = (1.0 / len(stack)) * np.clip(stack, 0.0, None).sum(axis=0)
            ref = StructuredMarkedKernel(n, h_c.marked, *mean)
            assert np.array_equal(kern.table(), ref.table()), (n, scheme)


def test_closed_form_gaps_refuse_n_past_511():
    # (2^N - 1)^2 overflows a double from N = 512: the gaps' pass, at one N
    # and over N ranges, raises the ValueError of its finiteness check,
    # naming the first such N
    note = re.escape("not finite at N = 512, h = -1.0, t = 1.0")
    scheme = AveragingScheme(-1.0, (1.0, 1.0), sample_count=1)
    for call in (partial(grover_gap_closed_form, 512, 1.0, 5.0, -1.0, 1.0),
                 partial(grover_gap_closed_form, [510, 511, 512, 513], 1.0,
                         5.0, -1.0, 1.0),
                 partial(scheme.values, 512, 1.0),
                 partial(scheme.values, range(500, 1100), 1.0)):
        with pytest.raises(ValueError, match=note):
            call()


def test_averaged_routes_refuse_a_sample_that_is_not_finite():
    # one sample of two overflows (t = 1e308): the pass that both averaged
    # routes read raises, naming it, at one N and over an N range, and
    # returns no values for the other
    scheme = AveragingScheme(0.5, (0.0, 1e308), sample_count=2)
    note = "not finite at N = 6, h = 0.5, t = 1e+308"
    for ns in (6, [6, 7]):
        with pytest.raises(ValueError, match=re.escape(note)):
            scheme.values(ns, 1.0)
    # the h end of a grid: the first sample past it is named
    scheme = AveragingScheme((0.5, 1e200), (0.0, 1.0), sample_count=4)
    note = "not finite at N = 6, h = 1e+200, t = 0.0"
    for ns in (6, [6, 7]):
        with pytest.raises(ValueError, match=re.escape(note)):
            scheme.values(ns, 1.0)


def test_single_sample_average_is_the_kernel():
    h_c = MarkedStateHamiltonian(5, 1.0)
    scheme = AveragingScheme(0.9, (1.3, 1.3), sample_count=1)
    avg = _averaged_kernel(h_c, scheme)
    single = structured_grover_kernel(h_c, 0.9, 1.3)
    assert np.max(np.abs(avg.dense() - single.dense())) < 1e-14


@pytest.mark.parametrize("count", [1, 16, 64])
def test_averaged_table_is_the_mean_of_the_sample_tables(count):
    # the reference: each sample's grover table, summed in sample order and
    # scaled once; the four-value mean must equal it to the bit
    for n in range(1, 13):
        h_c = MarkedStateHamiltonian(n, 1.0, marked=n // 2)
        for scheme in (
                AveragingScheme(resonance_field(1.0, n), (2.0, 20.0),
                                sample_count=count),
                AveragingScheme((-2.0, 2.0), (0.3, 4.0),
                                sample_count=count)):
            samples = _samples(scheme, n, 1.0)
            total = sum(structured_grover_kernel(h_c, h, t).table()
                        for h, t in samples)
            ref = PermutationInvariantKernel(n, h_c.marked,
                                             (1.0 / len(samples)) * total)
            avg = _averaged_kernel(h_c, scheme)
            assert np.array_equal(avg.table(), ref.table()), (n, count)


def test_averaged_kernel_symmetric():
    h_c = MarkedStateHamiltonian(4, 1.0)
    scheme = AveragingScheme(1.0, (0.5, 2.5), sample_count=8)
    q = _dense_average(h_c, "transverse", scheme)
    assert np.max(np.abs(q - q.T)) < 1e-9
    assert np.max(np.abs(q.sum(axis=0) - 1.0)) < 1e-9


def test_averaged_gap_matches_averaged_kernel():
    # gap of the mean kernel vs mean of the closed-form gap over the same grid
    n, alpha, beta = 10, 1.0, 5.0
    h = -alpha
    omega = two_level_frequency(n, alpha, h)
    period = math.pi / (n * omega)
    scheme = AveragingScheme(h, (2.0, 2.0 + period), sample_count=24)
    h_c = MarkedStateHamiltonian(n, alpha)
    kern = _averaged_kernel(h_c, scheme)
    delta = spectral_gap_dense(
        build_transition_matrix(kern, gibbs_measure(h_c, beta)))
    analytic = averaged_grover_gap(n, alpha, beta, scheme.values(n, alpha))
    assert abs(delta - analytic) / analytic < 1e-8


def _grover_chain(n, alpha, beta, h, t):
    h_c = MarkedStateHamiltonian(n, alpha)
    kern = quantum_kernel_dense(h_c, MixerSpec("grover", h), t)
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
    scheme = AveragingScheme(h, t_range, sample_count=5)
    h_c = MarkedStateHamiltonian(n, alpha)
    kern = _averaged_kernel(h_c, scheme)
    delta = spectral_gap_dense(
        build_transition_matrix(kern, gibbs_measure(h_c, beta)))
    analytic = averaged_grover_gap(n, alpha, beta, scheme.values(n, alpha))
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
        scheme = AveragingScheme(h, (t, t + 1.0), sample_count=5)
        return _averaged_kernel(h_c, scheme)
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
        _, _, x, *_ = _class_chain(kern, measure)
        blocks = list(zip(_symmetry_blocks(x), _multiplicities(n)))
        assert sum(mult * len(b) for b, mult in blocks) == 1 << n
        lam = np.sort(np.concatenate([np.repeat(np.linalg.eigvalsh(b), mult)
                                      for b, mult in blocks]))
        assert np.max(np.abs(lam - ref)) < 1e-12, n


def _multiplicities(n):
    """C(N,k) - C(N,k-1), the multiplicity of symmetry block k."""
    return [math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
            for k in range(n // 2 + 1)]


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


def _schrijver_beta(n):
    """Schrijver's beta^t_{i,j,k} = sum_u A[k,u,t] B[k,i,j,u] over
    (k, i, j, t), with A[k,u,t] = (-1)^(u-t) C(u,t) C(N-2k,u-k) and
    B[k,i,j,u] = C(N-k-u,i-u) C(N-k-u,j-u), and the norms
    C(N-2k,i-k) C(N-2k,j-k) over (k, i, j), all as exact Python integers:
    zero outside k <= i, j <= N-k and t <= min(i, j).  The blocks'
    exact-integer reference, from one batched product of two binomial
    tables."""
    binomials = np.array([[math.comb(a, b) for b in range(n + 1)]
                          for a in range(n + 1)], dtype=object)

    def comb(a, b):
        return np.where((a >= 0) & (b >= 0),
                        binomials[np.maximum(a, 0), np.maximum(b, 0)], 0)

    r = np.arange(n + 1)
    k, u, t = np.arange(n // 2 + 1)[:, None, None], r[:, None], r
    a = (1 - 2 * ((u - t) & 1)) * comb(u, t) * comb(n - 2 * k, u - k)
    k, i, j, u = k[..., None], r[:, None, None], r[:, None], r
    b = comb(n - k - u, i - u) * comb(n - k - u, j - u)
    k = np.arange(n // 2 + 1)
    # B at u = k is C(N-2k,i-k) C(N-2k,j-k)
    return b @ a[:, None], b[k, :, :, k]


@pytest.mark.parametrize("n", range(1, 7))
def test_beta_coefficients_brute_force(n):
    beta, _ = _schrijver_beta(n)
    for k in range(n // 2 + 1):
        for i in range(k, n - k + 1):
            for j in range(k, n - k + 1):
                for t in range(min(i, j) + 1):
                    assert beta[k, i, j, t] == _beta_brute(n, k, i, j, t), \
                        (k, i, j, t)


def test_one_count_table_kept_across_rows():
    # a run over many N keeps the pair counts of one N, not one per N
    for n in (12, 13):
        h_c = MarkedStateHamiltonian(n, 1.0)
        spectral_gap_blocks(quantum_kernel(h_c, MixerSpec("transverse", 1.0),
                                           1.0), gibbs_measure(h_c, 0.5))
    assert weight_classes.cache_info().currsize <= 1


def _random_symmetric_table(n, rng):
    """A random symmetric, column-stochastic table over the pair classes."""
    w = np.arange(n + 1)
    count = weight_classes(n)
    raw = rng.random((n + 1,) * 3)
    table = np.where(count > 0, raw + raw.transpose(1, 0, 2), 0.0)
    table[w, w, w] = 0.0
    table /= 1.25 * np.max(np.einsum("ijt,ijt->i", count, table))
    table[w, w, w] = 1.0 - np.einsum("ijt,ijt->i", count, table)
    return table


def _reference_kernels(n):
    """Transverse at (h, t) = (1, 1) and (0.6 sqrt(N), 7), grover at
    resonance, single flip and a random symmetric table, about state 0."""
    h_c = MarkedStateHamiltonian(n, 1.0)
    return [quantum_kernel(h_c, MixerSpec("transverse", 1.0), 1.0),
            quantum_kernel(h_c, MixerSpec("transverse", 0.6 * math.sqrt(n)),
                           7.0),
            quantum_kernel(h_c, MixerSpec("grover", resonance_field(1.0, n)),
                           2.0),
            single_flip_kernel(n),
            PermutationInvariantKernel(n, 0, _random_symmetric_table(
                n, np.random.Generator(np.random.Philox(n))))]


@pytest.mark.parametrize("n", [*range(1, 31), 36, 40])
def test_block_coefficients_match_exact_reference(n):
    # the difference-form blocks against blocks from the exact-integer
    # coefficients beta / sqrt(norm), each rounded once, on every kernel
    # family at three temperatures
    beta, norm = _schrijver_beta(n)
    coef = np.zeros(beta.shape)
    np.divide(beta.astype(float), np.sqrt(norm.astype(float))[..., None],
              out=coef, where=(norm > 0)[..., None])
    for kern in _reference_kernels(n):
        for inverse_temperature in (0.5, 1.0, 5.0):
            _, _, x, *_ = _class_chain(kern, gibbs_measure(
                MarkedStateHamiltonian(n, 1.0), inverse_temperature))
            full = np.einsum("kijt,ijt->kij", coef, x)
            blocks = _symmetry_blocks(x)
            assert len(blocks) == n // 2 + 1
            for k, block in enumerate(blocks):
                ref = full[k, k:n - k + 1, k:n - k + 1]
                err = float(np.max(np.abs(block - 0.5 * (ref + ref.T))))
                assert err <= 8 * np.finfo(float).eps, (n, k)


@pytest.mark.parametrize("n", [76, 100])
def test_blocks_past_the_old_coefficient_rule(n):
    # no exact reference this far: the blocks pass their own symmetry
    # certificate and carry L's trace and Frobenius norm with multiplicity.
    # A gap the route returns is good to sqrt(eps) of itself and stays under
    # the marked-state cut to that (the grover cut is tight: its bound is
    # the two-level gap).  Only gaps far below the rest of the spectrum are
    # refused as imprecise: at N = 100 and beta >= 1 the transverse ones.
    h_c = MarkedStateHamiltonian(n, 1.0)
    count = weight_classes(n)
    size = np.array([float(math.comb(n, i)) for i in range(n + 1)])
    returned, refused = [], []
    for index, kern in enumerate(_reference_kernels(n)):
        for inverse_temperature in (0.5, 1.0, 5.0):
            measure = gibbs_measure(h_c, inverse_temperature)
            _, _, x, *_ = _class_chain(kern, measure)
            blocks = list(zip(_symmetry_blocks(x), _multiplicities(n)))
            trace = sum(float(mult) * float(np.trace(b)) for b, mult in blocks)
            frob = sum(float(mult) * float(np.sum(b * b)) for b, mult in blocks)
            w = np.arange(n + 1)
            assert trace == pytest.approx(float(size @ x[w, w, w]),
                                          rel=1e-12, abs=0.0)
            assert frob == pytest.approx(
                float(size @ np.einsum("ijt,ijt->i", count, x * x)),
                rel=1e-12, abs=0.0)
            bound = marked_state_bound(kern.table()[0, :, 0], n, 1.0,
                                       inverse_temperature)
            key = (index, inverse_temperature)
            try:
                delta = spectral_gap_blocks(kern, measure)
            except ImpreciseGap:
                assert bound < 1e-20, key
                refused.append(key)
                continue
            assert 0.0 <= delta <= bound * (1.0 + _GAP_RTOL), key
            returned.append(key)
    assert len(returned) >= 4
    if n == 100:
        assert {(0, 1.0), (0, 5.0), (1, 1.0), (1, 5.0)} <= set(refused)



@pytest.mark.parametrize("n", [60, 80, 90, 95, 100, 110, 125])
def test_imprecise_gap_against_the_closed_form(n):
    # figure-a's averaged grover chain at beta = 5 has its closed form as an
    # independent reference: a gap the route returns matches it to
    # sqrt(eps) (measured 2e-16 at N = 60, 2e-9 at N = 95), and past that,
    # where the rounding estimate exceeds sqrt(eps) of the gap, the route
    # raises instead of returning a value off by 8e-8 (N = 100) to x1.95
    # (N = 125)
    h_c = MarkedStateHamiltonian(n, 1.0)
    scheme = AveragingScheme(resonance_field(1.0, n), (2.0, 20.0),
                             sample_count=4)
    kern = _averaged_kernel(h_c, scheme)
    measure = gibbs_measure(h_c, 5.0)
    if n >= 100:
        with pytest.raises(ImpreciseGap, match="rounding-error estimate"):
            spectral_gap_blocks(kern, measure)
    else:
        assert spectral_gap_blocks(kern, measure) == pytest.approx(
            averaged_grover_gap(n, 1.0, 5.0, scheme.values(n, 1.0)),
            rel=_GAP_RTOL, abs=0.0)

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
    _, _, x, *_ = _class_chain(kern, measure)
    block0, block1, *_ = _symmetry_blocks(x)
    lam0, lam1 = np.linalg.eigvalsh(block0), np.linalg.eigvalsh(block1)
    assert abs(2.0 - lam1[-1] - delta) <= 1e-10 * ref
    assert min(lam0[1], 2.0 - lam0[-1]) > delta



def test_block_gap_nearly_periodic_below_its_accuracy():
    # at alpha = 1e-6 and h t = pi/2 - 1e-6 the gap, about 2e-12, sits at the
    # -1 end of block 1, a bare eigenvalue good only to eps |B_1|: the route
    # raises rather than return it; the dense route reads that end as a
    # Dirichlet form and keeps it
    h_c = MarkedStateHamiltonian(6, 1e-6, 5)
    kern = quantum_kernel(h_c, MixerSpec("transverse", 1.0),
                          math.pi / 2 - 1e-6)
    measure = gibbs_measure(h_c, 1.0)
    with pytest.raises(ImpreciseGap, match="estimate of 4.4e-16"):
        spectral_gap_blocks(kern, measure)
    assert 1e-12 < spectral_gap_dense(build_transition_matrix(kern,
                                                              measure)) < 1e-11

def _transverse_table(n=5, marked=9, h=0.8, t=1.1):
    h_c = MarkedStateHamiltonian(n, 1.0, marked)
    return h_c, quantum_kernel(h_c, MixerSpec("transverse", h), t).table().copy()


def _scale_moves(table, factor):
    """Scale every class of ``table`` but y = x by ``factor``, in place."""
    w = np.arange(table.shape[0])
    stay = table[w, w, w].copy()
    table *= factor
    table[w, w, w] = stay


def test_block_route_rejects_asymmetric_table():
    h_c, table = _transverse_table()
    table[2, 1, 0] += 1e-6
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
    table[1, 1, 0] = -1e-6
    with pytest.raises(NegativeProbability):
        spectral_gap_blocks(PermutationInvariantKernel(5, 9, table),
                            gibbs_measure(h_c, 2.0))


def test_block_route_rejects_negative_rejection_mass(monkeypatch):
    # with the column-sum check relaxed, too much off-diagonal mass is left
    # to the rejection-mass check
    monkeypatch.setattr(chain, "SYMMETRY_TOL", 1.0)
    h_c, table = _transverse_table()
    _scale_moves(table, 1.5)
    with pytest.raises(NegativeDiagonal):
        _class_chain(PermutationInvariantKernel(5, 9, table),
                     gibbs_measure(h_c, 2.0))


def _corrupted(defect):
    """The transverse table's kernel with one defect, and its measure."""
    h_c, table = _transverse_table()
    if defect == "asymmetric":
        table[2, 1, 0] += 1e-6
    elif defect == "not-stochastic":
        table *= 0.9
    elif defect == "negative-entry":
        table[1, 1, 0] = -1e-6
    elif defect == "nan":
        table[1, 1, 0] = np.nan
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
    _scale_moves(table, 1.5)
    with pytest.raises(NegativeDiagonal):
        exact_mixing_time(PermutationInvariantKernel(5, 9, table),
                          gibbs_measure(h_c, 2.0), 0.01)


def test_block_route_rejects_irreversible_chain(monkeypatch):
    h_c, table = _transverse_table()
    # a NaN entry fails the certificate instead of passing it
    _, _, x, *_ = _class_chain(PermutationInvariantKernel(5, 9, table),
                           gibbs_measure(h_c, 2.0))
    x[2, 3, 2] = np.nan
    with pytest.raises(NotReversible):
        _symmetry_blocks(x)
    # with the kernel asymmetry check relaxed, the blocks' own certificate
    # catches the asymmetric table
    monkeypatch.setattr(chain, "SYMMETRY_TOL", 1.0)
    table[2, 1, 0] += 1e-3
    _, _, x, *_ = _class_chain(PermutationInvariantKernel(5, 9, table),
                           gibbs_measure(h_c, 2.0))
    with pytest.raises(NotReversible):
        _symmetry_blocks(x)


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
