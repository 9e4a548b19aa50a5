import math

import numpy as np
import pytest

from qemcmc import chain
from qemcmc.chain import (
    TransitionMatrix,
    _class_chain,
    _first_crossing,
    _lumped_chain,
    build_transition_matrix,
    exact_mixing_time,
    make_chain,
    sample_chain,
    total_variation,
)
from qemcmc.errors import (
    AsymmetricKernel,
    BudgetExceeded,
    MismatchedDimensions,
    NoConvergence,
)
from qemcmc.model import MarkedStateHamiltonian, gibbs_measure
from qemcmc.proposal import (
    DenseKernel,
    PermutationInvariantKernel,
    single_flip_kernel,
    uniform_kernel,
    weight_classes,
)
from qemcmc.quantum import (
    MixerSpec,
    quantum_kernel,
    resonance_field,
    structured_grover_kernel,
)
from qemcmc.spectral import mixing_time_bounds, uniform_gap_closed_form


def tv_distance_curve(p: TransitionMatrix, start: int, max_t: int) -> np.ndarray:
    """d(t) for t = 0..max_t from a point start, by dense row evolution."""
    pi = p.stationary.probabilities()
    row = np.zeros(p.dim)
    row[start] = 1.0
    curve = np.empty(max_t + 1)
    curve[0] = total_variation(row, pi)
    for t in range(1, max_t + 1):
        row = row @ p.p
        curve[t] = total_variation(row, pi)
    return curve


def _dense_mixing_time(p: TransitionMatrix, epsilon, max_steps):
    """Worst-start mixing time from the rows of the dense P^t: the
    independent cross-check of the lumping in exact_mixing_time."""
    pi = p.stationary.probabilities()

    def tv(rows):
        return float(np.max(0.5 * np.abs(rows - pi).sum(axis=1)))

    return _first_crossing(p.p, np.eye(p.dim), tv, epsilon, max_steps)


def _uniform_chain(n, alpha, beta):
    h_c = MarkedStateHamiltonian(n, alpha)
    return build_transition_matrix(uniform_kernel(n), gibbs_measure(h_c, beta))


def _uniform(n, alpha, beta):
    """The uniform kernel and its measure, the arguments of exact_mixing_time."""
    h_c = MarkedStateHamiltonian(n, alpha)
    return uniform_kernel(n), gibbs_measure(h_c, beta)


def test_transition_matrix_infinite_temperature():
    p = _uniform_chain(3, 1.0, 0.0)
    assert np.allclose(p.p, 1.0 / 8.0)


def test_transition_matrix_hand_values():
    # N=2, alpha=1, beta=1: into the marked state always accepted, out of it
    # suppressed by e^{-2}
    p = _uniform_chain(2, 1.0, 1.0)
    k = 0
    for x in range(1, 4):
        assert p.p[x, k] == pytest.approx(0.25)
        assert p.p[k, x] == pytest.approx(math.exp(-2.0) / 4.0)
    assert np.allclose(p.p.sum(axis=1), 1.0)


def test_structured_and_simulated_grover_agree():
    h_c = MarkedStateHamiltonian(6, 1.0)
    measure = gibbs_measure(h_c, 2.0)
    sim = build_transition_matrix(
        quantum_kernel(h_c, MixerSpec("grover", 1.0), 1.0, "dense"), measure)
    closed = build_transition_matrix(
        structured_grover_kernel(h_c, 1.0, 1.0), measure)
    assert np.max(np.abs(sim.p - closed.p)) < 1e-9


def test_asymmetric_kernel_rejected():
    q = np.array([[0.9, 0.5], [0.1, 0.5]])
    measure = gibbs_measure(MarkedStateHamiltonian(1, 1.0), 1.0)
    with pytest.raises(AsymmetricKernel):
        build_transition_matrix(DenseKernel(q, 1), measure)


def test_mismatched_dimensions_rejected_on_both_routes():
    kern = uniform_kernel(3)
    measure = gibbs_measure(MarkedStateHamiltonian(4, 1.0), 1.0)
    with pytest.raises(MismatchedDimensions):
        build_transition_matrix(kern, measure)
    with pytest.raises(MismatchedDimensions):
        _class_chain(kern, measure)


def test_detailed_balance_and_stationarity():
    p = _uniform_chain(5, 1.0, 3.0)
    pi = p.stationary.probabilities()
    balance = pi[:, None] * p.p
    assert np.max(np.abs(balance - balance.T)) / np.max(balance) < 1e-9
    assert np.abs(pi @ p.p - pi).sum() < 1e-10


def test_top_eigenvalue_is_one():
    p = _uniform_chain(4, 1.0, 2.0)
    lam = np.linalg.eigvals(p.p)
    assert abs(np.max(lam.real) - 1.0) < 1e-10


def test_grover_chain_has_five_values():
    h_c = MarkedStateHamiltonian(5, 1.0)
    p = build_transition_matrix(structured_grover_kernel(h_c, 0.8, 1.2),
                                gibbs_measure(h_c, 2.0))
    values = np.unique(np.round(p.p, 12))
    assert len(values) <= 5


def test_chain_step_counts_rejections():
    # at beta = 5 most moves out of the marked state are rejected
    state = make_chain(start=3, seed=5)
    measure = gibbs_measure(MarkedStateHamiltonian(3, 1.0), 5.0)
    kern = uniform_kernel(3)
    visited = [sample_chain(state, kern, measure, 1)[0] for _ in range(10)]
    visited += list(sample_chain(state, kern, measure, 30))
    assert state.step_count == 40
    assert state.current == visited[-1]
    assert any(a == b for a, b in zip(visited, visited[1:]))


def test_chain_step_downhill_always_accepted():
    # at very low temperature the chain falls into the marked state and stays
    measure = gibbs_measure(MarkedStateHamiltonian(3, 10.0), 5.0)
    state = make_chain(start=6, seed=1)
    visited = sample_chain(state, uniform_kernel(3), measure, 200)
    first = np.argmax(visited == 0)
    assert np.all(visited[first:] == 0)


@pytest.mark.parametrize("variant,h,t", [("grover", 1.3, 0.9),
                                         ("transverse", 0.7, 1.1)],
                         ids=["grover", "transverse"])
def test_sample_chain_one_step_law_matches_dense(variant, h, t):
    # successors of each visit to a state are independent draws from its
    # row of the dense P; check the marked state's row and an unmarked one
    h_c = MarkedStateHamiltonian(5, 1.0, marked=19)
    kern = quantum_kernel(h_c, MixerSpec(variant, h), t)
    measure = gibbs_measure(h_c, 0.5)
    p = build_transition_matrix(kern, measure).p
    visited = sample_chain(make_chain(3, seed=7), kern, measure, 200_000)
    for start in (h_c.marked, 3):
        successors = visited[1:][visited[:-1] == start]
        assert successors.size > 2000
        counts = np.bincount(successors, minlength=32)
        expected = successors.size * p[start]
        sd = np.sqrt(expected * (1.0 - p[start]))
        assert np.all(np.abs(counts - expected) <= 5.0 * sd), (variant, start)


@pytest.mark.parametrize("beta", [5.0, 200.0], ids=["stay-near-1", "absorbing"])
def test_sample_chain_stays_at_the_marked_state(beta):
    # out of the marked state a transverse move is accepted with probability
    # about 3e-14 at beta = 5, and never at beta = 200: no move mass is left
    h_c = MarkedStateHamiltonian(6, 1.0)
    kern = quantum_kernel(h_c, MixerSpec("transverse", resonance_field(1.0, 6)),
                          0.3)
    measure = gibbs_measure(h_c, beta)
    move, stay, _ = _class_chain(kern, measure)
    assert 1.0 - stay[0] < 1e-13
    assert move[0].any() == (beta == 5.0)
    state = make_chain(h_c.marked, seed=3)
    visited = sample_chain(state, kern, measure, 5000)
    assert visited.shape == (5000,)
    assert np.all(visited == h_c.marked)
    visited = sample_chain(state, kern, measure, 7)
    assert np.all(visited == h_c.marked)
    assert state.step_count == 5007 and state.current == h_c.marked


def test_sample_chain_without_rejections_moves_every_step():
    # at beta = 0 every single-spin flip is accepted
    measure = gibbs_measure(MarkedStateHamiltonian(7, 1.0), 0.0)
    state = make_chain(start=5, seed=9)
    visited = sample_chain(state, single_flip_kernel(7), measure, 20_000)
    path = np.concatenate([[5], visited])
    assert np.all(np.bitwise_count(path[1:] ^ path[:-1]) == 1)
    assert state.step_count == 20_000 and state.current == visited[-1]


def test_sample_chain_rejection_runs_are_geometric():
    # a move never returns to the same state, so every complete visit is one
    # move in and a geometric run of rejections with P(stay) = P(x, x)
    h_c = MarkedStateHamiltonian(5, 1.0, marked=19)
    kern = quantum_kernel(h_c, MixerSpec("transverse", 0.3), 0.5)
    measure = gibbs_measure(h_c, 0.5)
    p = build_transition_matrix(kern, measure).p
    visited = sample_chain(make_chain(3, seed=13), kern, measure, 200_000)
    arrivals = np.flatnonzero(np.diff(visited)) + 1
    starts, lengths = arrivals[:-1], np.diff(arrivals)
    distance = 2
    at = np.bitwise_count(visited[starts] ^ h_c.marked) == distance
    runs = lengths[at] - 1
    assert runs.size > 2000
    x = h_c.marked ^ 0b11                 # a state at that distance
    stay = p[x, x]
    assert 0.5 < stay < 0.99
    mean, sd = stay / (1.0 - stay), math.sqrt(stay) / (1.0 - stay)
    assert abs(runs.mean() - mean) <= 5.0 * sd / math.sqrt(runs.size)


def test_sample_chain_needs_an_invariant_kernel():
    measure = gibbs_measure(MarkedStateHamiltonian(3, 1.0), 1.0)
    with pytest.raises(TypeError):
        sample_chain(make_chain(0, seed=1),
                     DenseKernel(np.full((8, 8), 0.125), 3), measure, 10)


def test_sample_chain_rejects_asymmetric_table():
    h_c = MarkedStateHamiltonian(4, 1.0, marked=6)
    table = quantum_kernel(h_c, MixerSpec("transverse", 0.7), 1.9).table().copy()
    table[3, 1, 2] += 1e-3          # realized: x, y at distances 1, 2, d = 3
    kern = PermutationInvariantKernel(4, 6, table)
    with pytest.raises(AsymmetricKernel):
        sample_chain(make_chain(0, seed=1), kern, gibbs_measure(h_c, 1.0), 10)


def test_empirical_marked_frequency():
    n, beta = 6, 1.0
    h_c = MarkedStateHamiltonian(n, 1.0)
    measure = gibbs_measure(h_c, beta)
    state = make_chain(start=h_c.marked, seed=20240821)
    visited = sample_chain(state, uniform_kernel(n), measure, 100_000)
    freq = np.mean(visited == h_c.marked)
    pi_k = measure.probabilities()[h_c.marked]
    # autocorrelation-adjusted standard error from the known spectral gap
    delta = uniform_gap_closed_form(n, 1.0, beta)
    var = pi_k * (1 - pi_k) * (2.0 / delta - 1.0) / visited.size
    assert abs(freq - pi_k) < 3.0 * math.sqrt(var)


def test_chain_reproducible():
    measure = gibbs_measure(MarkedStateHamiltonian(4, 1.0), 1.0)
    kern = uniform_kernel(4)
    a = sample_chain(make_chain(2, seed=42), kern, measure, 500)
    b = sample_chain(make_chain(2, seed=42), kern, measure, 500)
    assert np.array_equal(a, b)


def test_total_variation():
    assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    assert total_variation(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
    # a point mass off the marked state: the rounded sum would exceed 1
    pi = gibbs_measure(MarkedStateHamiltonian(8, 1.0), 5.0).probabilities()
    point = np.zeros(256)
    point[1] = 1.0
    assert 1.0 - 1e-12 < total_variation(point, pi) <= 1.0


def test_tv_curve_from_stationary():
    p = _uniform_chain(3, 1.0, 2.0)
    pi = p.stationary.probabilities()
    row = pi.copy()
    for t in range(5):
        assert total_variation(row, pi) < 1e-12
        row = row @ p.p


def test_tv_curve_one_step_mixing_at_beta0():
    p = _uniform_chain(3, 1.0, 0.0)
    curve = tv_distance_curve(p, start=5, max_t=3)
    assert curve[1] < 1e-12


def test_tv_curve_nonincreasing():
    p = _uniform_chain(5, 1.0, 4.0)
    curve = tv_distance_curve(p, start=7, max_t=200)
    assert np.all(np.diff(curve) <= 1e-12)


def test_mixing_time_trivial_cases():
    kern, measure = _uniform(3, 1.0, 0.0)
    assert exact_mixing_time(kern, measure, 0.01) == 1
    assert exact_mixing_time(kern, measure, 1.5) == 0
    with pytest.raises(ValueError):
        exact_mixing_time(kern, measure, 0.0)


def test_mixing_time_within_sandwich():
    n, beta = 6, 5.0
    kern, measure = _uniform(n, 1.0, beta)
    t_mix = exact_mixing_time(kern, measure, 0.01)
    delta = uniform_gap_closed_form(n, 1.0, beta)
    lower, upper = mixing_time_bounds(delta, measure.log_pi_min, 0.01)
    assert lower <= t_mix <= upper


def test_mixing_time_step_cap_decides_only_convergence(monkeypatch):
    # a cap that is no power of two: the search returns t_mix with the cap
    # at t_mix and raises with it one step short
    h_c = MarkedStateHamiltonian(6, 1.0)
    kern = quantum_kernel(h_c, MixerSpec("transverse", resonance_field(1.0, 6)),
                          0.3)
    measure = gibbs_measure(h_c, 5.0)
    t_mix = exact_mixing_time(kern, measure, 0.01)
    assert t_mix & (t_mix - 1) and (t_mix - 1) & (t_mix - 2)
    monkeypatch.setattr(chain, "_MAX_STEPS", t_mix)
    assert exact_mixing_time(kern, measure, 0.01) == t_mix
    monkeypatch.setattr(chain, "_MAX_STEPS", t_mix - 1)
    with pytest.raises(NoConvergence):
        exact_mixing_time(kern, measure, 0.01)


@pytest.mark.parametrize("epsilon", [0.4, 0.1, 0.01, 1e-6])
@pytest.mark.parametrize("f", [0.003, 0.01, 0.1, 0.3, 0.49, 0.6, 0.97])
def test_first_crossing_two_state_closed_form(f, epsilon):
    # from one end of [[1-f, f], [f, 1-f]], d(t) = |1-2f|^t / 2: the search
    # must cross at its result and not one step before, and a cap at the
    # result must return it while a cap one lower raises
    p = np.array([[1.0 - f, f], [f, 1.0 - f]])
    start = np.array([1.0, 0.0])

    def tv(row):
        return total_variation(row, np.full(2, 0.5))

    t_mix = _first_crossing(p, start, tv, epsilon, 10_000_000)
    assert t_mix >= 1
    assert tv(start @ np.linalg.matrix_power(p, t_mix)) <= epsilon
    assert tv(start @ np.linalg.matrix_power(p, t_mix - 1)) > epsilon
    assert _first_crossing(p, start, tv, epsilon, t_mix) == t_mix
    with pytest.raises(NoConvergence):
        _first_crossing(p, start, tv, epsilon, t_mix - 1)


@pytest.mark.parametrize("epsilon", [0.1, 1e-6])
@pytest.mark.parametrize("f", [0.01, 0.3, 0.97])
def test_first_crossing_from_a_later_step(f, epsilon):
    # begun at step t, the search returns max(t, t_mix): the crossing of the
    # search from step 0 when t is before it, and t itself from then on; a
    # cap one below the crossing still raises
    p = np.array([[1.0 - f, f], [f, 1.0 - f]])
    start = np.array([1.0, 0.0])

    def tv(row):
        return total_variation(row, np.full(2, 0.5))

    t_mix = _first_crossing(p, start, tv, epsilon, 10_000_000)
    for t in {1, 2, 3, t_mix // 3, t_mix // 2, t_mix - 1, t_mix, t_mix + 5,
              2 * t_mix + 1}:
        assert _first_crossing(p, start, tv, epsilon, 10_000_000,
                               t) == max(t, t_mix)
        if t < t_mix:
            with pytest.raises(NoConvergence):
                _first_crossing(p, start, tv, epsilon, t_mix - 1, t)


def test_lumped_matches_dense_powering():
    # the class-lumped search must agree with the worst-start dense definition
    n, beta = 4, 2.0
    kern, measure = _uniform(n, 1.0, beta)
    t_lumped = exact_mixing_time(kern, measure, 0.01)
    p = build_transition_matrix(kern, measure)
    worst = 0
    for start in range(p.dim):
        curve = tv_distance_curve(p, start, 2 * t_lumped + 5)
        worst = max(worst, int(np.argmax(curve <= 0.01)))
    assert t_lumped == worst


def test_mixing_time_dense_fallback():
    # the dense search, the cross-check of exact_mixing_time, on a ring
    # kernel that no permutation about the marked state leaves invariant
    dim = 8
    q = np.zeros((dim, dim))
    for y in range(dim):
        q[y, y] = 0.5
        q[(y + 1) % dim, y] += 0.25
        q[(y - 1) % dim, y] += 0.25
    measure = gibbs_measure(MarkedStateHamiltonian(3, 1.0), 1.0)
    p = build_transition_matrix(DenseKernel(q, 3), measure)
    t_mix = _dense_mixing_time(p, 0.05, 10_000_000)
    assert t_mix >= 2
    # every start must have crossed epsilon by the worst-start mixing time
    for start in range(dim):
        assert tv_distance_curve(p, start, t_mix)[t_mix] <= 0.05


def _mixing_or_none(search):
    try:
        return search()
    except NoConvergence:
        return None


@pytest.mark.parametrize("variant", ["grover", "transverse"])
def test_class_mixing_time_matches_dense(variant):
    # random marked state, temperature, field and time; a chain that has not
    # mixed within the step cap must fail on both routes
    rng = np.random.Generator(np.random.Philox(47))
    for n in range(2, 9):
        for _ in range(3):
            h_c = MarkedStateHamiltonian(n, rng.uniform(0.5, 2.0),
                                         int(rng.integers(1 << n)))
            beta = rng.uniform(0.0, 5.0)
            h, t = rng.uniform(-2.0, 2.0), rng.uniform(0.0, 3.0)
            kern = quantum_kernel(h_c, MixerSpec(variant, h), t)
            measure = gibbs_measure(h_c, beta)
            ref = _mixing_or_none(lambda: _dense_mixing_time(
                build_transition_matrix(kern, measure), 0.01, 10_000_000))
            t_mix = _mixing_or_none(lambda: exact_mixing_time(kern, measure, 0.01))
            assert t_mix == ref, (n, variant)


def _lumped_chain_cases():
    """(kernel, measure) for grover, transverse and single flip at N <= 10,
    at random marked states, temperatures, fields and times."""
    rng = np.random.Generator(np.random.Philox(20))
    for n in range(1, 11):
        for kind in ("grover", "transverse", "single flip"):
            beta = rng.uniform(0.0, 5.0)
            if kind == "single flip":
                h_c = MarkedStateHamiltonian(n, rng.uniform(0.5, 2.0))
                kern = single_flip_kernel(n)
            else:
                h_c = MarkedStateHamiltonian(n, rng.uniform(0.5, 2.0),
                                             int(rng.integers(1 << n)))
                kern = quantum_kernel(h_c, MixerSpec(kind, rng.uniform(-2, 2)),
                                      rng.uniform(0.0, 3.0))
            yield kern, gibbs_measure(h_c, beta)


def test_lumped_chain_is_stochastic_and_reversible():
    # at every start distance w: rows sum to 1, pi sums to 1, and
    # pi_a P(a, b) = pi_b P(b, a) entry by entry
    for kern, measure in _lumped_chain_cases():
        n = kern.n_spins
        move, stay, _ = _class_chain(kern, measure)
        for w in range(n + 1):
            lumped, log_pi = _lumped_chain(move, stay, measure, w)
            size = (w + 1) * (n - w + 1)
            assert lumped.shape == (size, size) and log_pi.shape == (size,)
            assert np.max(np.abs(lumped.sum(axis=1) - 1.0)) <= 1e-12, (n, w)
            assert abs(np.exp(log_pi).sum() - 1.0) <= 1e-12, (n, w)
            flux = np.exp(log_pi)[:, None] * lumped
            np.testing.assert_allclose(flux, flux.T, rtol=1e-12, atol=0.0)


def test_lumped_chain_at_either_end_is_the_distance_chain():
    # about a start at w = 0 (the classes (0, b)) or w = N (the classes
    # (a, 0)) every class is one distance from the marked state
    for kern, measure in _lumped_chain_cases():
        n = kern.n_spins
        move, stay, _ = _class_chain(kern, measure)
        at_k, log_pi_k = _lumped_chain(move, stay, measure, 0)
        at_far, log_pi_far = _lumped_chain(move, stay, measure, n)
        np.testing.assert_array_equal(at_far, at_k)
        np.testing.assert_array_equal(log_pi_far, log_pi_k)


def _per_start_mixing_times(kernel, measure, epsilon):
    """t_w for w = 0..N, each from its own full search on the chain lumped
    about the marked state and a start at distance w, gathered by six index
    arrays (None where a start has not mixed within the step cap): the
    per-start reference of exact_mixing_time, whose maximum it returns."""
    n = kernel.n_spins
    move, stay, _ = _class_chain(kernel, measure)
    log_pi = measure.class_log_weights - measure.log_partition
    times = []
    for w in range(n + 1):
        inside, _ = weight_classes(w)
        outside, _ = weight_classes(n - w)
        a, b = np.arange(w + 1), np.arange(n - w + 1)
        dist = a[:, None] + b[None, :]
        pair = move[dist[:, :, None, None, None, None],
                    dist[None, None, :, :, None, None], dist]
        lumped = np.einsum("act,bds,abcdts->abcd", inside, outside, pair)
        size = (w + 1) * (n - w + 1)
        lumped = lumped.reshape(size, size)
        lumped[np.arange(size), np.arange(size)] += stay[dist].ravel()
        log_size = np.log([[math.comb(w, u) * math.comb(n - w, v) for v in b]
                           for u in a])
        pi = np.exp(log_size + log_pi[dist]).ravel()
        start = np.zeros(size)
        start[w * (n - w + 1)] = 1.0
        times.append(_mixing_or_none(lambda: _first_crossing(
            lumped, start, lambda row: total_variation(row, pi), epsilon,
            chain._MAX_STEPS)))
    return times


def test_mixing_time_matches_the_per_start_reference():
    # random chains of both mixers (random marked state, temperature, field
    # and time), uniform and single flip; among them chains that have not
    # mixed within the step cap, and chains whose worst start is not the
    # first one searched (w = N)
    rng = np.random.Generator(np.random.Philox(19))
    unmixed = later_worst = 0
    for n in range(1, 13):
        for kind in ("grover", "transverse", "uniform", "single flip") * 2:
            alpha, beta = rng.uniform(0.5, 2.0), rng.uniform(0.0, 5.0)
            if kind == "uniform":
                h_c = MarkedStateHamiltonian(n, alpha)
                kern = uniform_kernel(n)
            elif kind == "single flip":
                h_c = MarkedStateHamiltonian(n, alpha)
                kern = single_flip_kernel(n)
            else:
                h_c = MarkedStateHamiltonian(n, alpha, int(rng.integers(1 << n)))
                kern = quantum_kernel(h_c, MixerSpec(kind, rng.uniform(-2, 2)),
                                      rng.uniform(0.0, 3.0))
            measure = gibbs_measure(h_c, beta)
            times = _per_start_mixing_times(kern, measure, 0.01)
            ref = None if None in times else max(times)
            t_mix = _mixing_or_none(lambda: exact_mixing_time(kern, measure, 0.01))
            assert t_mix == ref, (n, kind)
            unmixed += ref is None
            later_worst += ref is not None and times[n] < ref
    assert unmixed and later_worst, (unmixed, later_worst)


@pytest.mark.parametrize("variant, n", [("transverse", 10), ("grover", 12)])
def test_mixing_time_searches_once_on_the_sample_chains(monkeypatch, variant,
                                                        n):
    # the sample workload's chains (beta 5, h at resonance, t 0.3): the first
    # start searched is the worst, so each other start ends at its one probe
    # at the running worst and only the first search lifts past where it
    # began
    begun, lifted = [], []

    def counting(p, rows, tv, epsilon, max_steps, t):
        t_w = _first_crossing(p, rows, tv, epsilon, max_steps, t)
        begun.append(t)
        lifted.append(t_w > t)
        return t_w

    monkeypatch.setattr(chain, "_first_crossing", counting)
    h_c = MarkedStateHamiltonian(n, 1.0)
    kern = quantum_kernel(h_c, MixerSpec(variant, resonance_field(1.0, n)),
                          0.3)
    t_mix = exact_mixing_time(kern, gibbs_measure(h_c, 5.0), 0.01)
    assert begun == [0] + [t_mix] * n
    assert lifted == [True] + [False] * n


def test_class_mixing_time_needs_an_invariant_kernel():
    measure = gibbs_measure(MarkedStateHamiltonian(3, 1.0), 1.0)
    with pytest.raises(TypeError):
        exact_mixing_time(DenseKernel(np.full((8, 8), 0.125), 3), measure, 0.01)


@pytest.mark.parametrize("n", [31, 68])
def test_mixing_time_refused_past_the_size_rule(monkeypatch, n):
    # the gather at w = N/2 holds ((N/2+1)(N-N/2+1))^3 entries: 2^24 at
    # N = 30, above it from N = 31; refused before the class chain is built,
    # at N = 68 too, where its binomials pass 2^64
    def unreachable(*args):
        raise AssertionError("class chain assembled")

    monkeypatch.setattr(chain, "_class_chain", unreachable)
    measure = gibbs_measure(MarkedStateHamiltonian(n, 1.0), 0.0)
    with pytest.raises(BudgetExceeded,
                       match=f"^mixing-time gather refused at N = {n}:"):
        exact_mixing_time(single_flip_kernel(n), measure, 0.01)
