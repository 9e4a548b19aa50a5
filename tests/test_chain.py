import math

import numpy as np
import pytest

from qemcmc import chain
from qemcmc.chain import (
    TransitionMatrix,
    _class_entries,
    _distance_bound,
    _first_crossing,
    _lifted_crossing,
    _squaring,
    _start_distances,
    _symmetry_blocks,
    build_transition_matrix,
    class_chain,
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
    quantum_kernel_dense,
    resonance_field,
    structured_grover_kernel,
)
from qemcmc.spectral import (
    mixing_time_bounds,
    spectral_gap_blocks,
    uniform_gap_closed_form,
)


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


def _dense_mixing_time(p: TransitionMatrix, epsilon):
    """Worst-start mixing time from the rows of the dense P^t: the
    independent cross-check of the lumping in exact_mixing_time."""
    return _first_crossing([p.p], np.eye(p.dim), p.stationary.probabilities(),
                           epsilon)


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
        quantum_kernel_dense(h_c, MixerSpec("grover", 1.0), 1.0), measure)
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
        class_chain(kern, measure)


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
    move, stay, *_ = class_chain(kern, measure)
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
    table[2, 1, 0] += 1e-3          # realized: x, y at distances 2, 1, t = 0
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


def test_make_chain_refuses_a_negative_seed():
    # random.Random reads a seed -s as s: two CSV seeds, one path
    with pytest.raises(ValueError, match="non-negative, not -3"):
        make_chain(0, seed=-3)
    assert make_chain(0, seed=np.int64(3)).rng_stream.random() == \
        make_chain(0, seed=3).rng_stream.random()


def test_total_variation():
    assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    assert total_variation(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
    # a point mass off the marked state: the rounded sum would exceed 1
    pi = gibbs_measure(MarkedStateHamiltonian(8, 1.0), 5.0).probabilities()
    point = np.zeros(256)
    point[1] = 1.0
    assert 1.0 - 1e-12 < total_variation(point, pi) <= 1.0


def test_total_variation_of_a_stack():
    # of a stack of rows, the largest row's distance to the bit; the point
    # masses off the marked state, where pi sits almost wholly, round above
    # 1 and clamp there together, as disjoint supports do
    pi = gibbs_measure(MarkedStateHamiltonian(8, 1.0), 5.0).probabilities()
    rows = np.random.Generator(np.random.Philox(34)).dirichlet(
        np.full(256, 0.1), size=5)
    assert total_variation(rows, pi) == max(total_variation(r, pi)
                                            for r in rows)
    points = np.eye(256)[1:]
    assert 0.5 * np.abs(points - pi).sum(axis=1).max() > 1.0
    assert total_variation(points, pi) == 1.0
    assert total_variation(np.eye(2), np.array([0.0, 1.0])) == 1.0


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
def test_first_crossing_two_state_closed_form(monkeypatch, f, epsilon):
    # from one end of [[1-f, f], [f, 1-f]], d(t) = |1-2f|^t / 2: the search
    # must cross at its result and not one step before, and a cap at the
    # result must return it while a cap one lower raises
    p = np.array([[1.0 - f, f], [f, 1.0 - f]])
    start, pi = np.array([1.0, 0.0]), np.full(2, 0.5)

    def tv(row):
        return total_variation(row, pi)

    t_mix = _first_crossing([p], start, pi, epsilon)
    assert t_mix >= 1
    assert tv(start @ np.linalg.matrix_power(p, t_mix)) <= epsilon
    assert tv(start @ np.linalg.matrix_power(p, t_mix - 1)) > epsilon
    monkeypatch.setattr(chain, "_MAX_STEPS", t_mix)
    assert _first_crossing([p], start, pi, epsilon) == t_mix
    monkeypatch.setattr(chain, "_MAX_STEPS", t_mix - 1)
    with pytest.raises(NoConvergence):
        _first_crossing([p], start, pi, epsilon)


@pytest.mark.parametrize("epsilon", [0.1, 1e-6])
@pytest.mark.parametrize("f", [0.01, 0.3, 0.97])
def test_first_crossing_from_a_later_step(monkeypatch, f, epsilon):
    # begun at step t, the search returns max(t, t_mix): the crossing of the
    # search from step 0 when t is before it, and t itself from then on; a
    # cap one below the crossing still raises
    p = np.array([[1.0 - f, f], [f, 1.0 - f]])
    start, pi = np.array([1.0, 0.0]), np.full(2, 0.5)
    t_mix = _first_crossing([p], start, pi, epsilon)
    for t in {1, 2, 3, t_mix // 3, t_mix // 2, t_mix - 1, t_mix, t_mix + 5,
              2 * t_mix + 1}:
        assert _first_crossing([p], start, pi, epsilon, t) == max(t, t_mix)
        if t < t_mix:
            with monkeypatch.context() as capped:
                capped.setattr(chain, "_MAX_STEPS", t_mix - 1)
                with pytest.raises(NoConvergence):
                    _first_crossing([p], start, pi, epsilon, t)


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
    t_mix = _dense_mixing_time(p, 0.05)
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
                build_transition_matrix(kern, measure), 0.01))
            t_mix = _mixing_or_none(lambda: exact_mixing_time(kern, measure, 0.01))
            assert t_mix == ref, (n, variant)


def test_class_mixing_time_matches_dense_past_the_cap(monkeypatch):
    # the grover N = 8 draw of the test above that has not mixed within
    # 10^7 steps: with the cap lifted, the class route and the dense rows,
    # each squaring scaled back to row sum 1, cross at the same step
    monkeypatch.setattr(chain, "_MAX_STEPS", 1 << 40)
    h_c = MarkedStateHamiltonian(8, 1.3544820833082076, 232)
    kern = quantum_kernel(h_c, MixerSpec("grover", -0.03534872357755292),
                          0.7111237844250727)
    measure = gibbs_measure(h_c, 4.5009711418004015)
    assert exact_mixing_time(kern, measure, 0.01) == 318_958_885
    assert _dense_mixing_time(build_transition_matrix(kern, measure),
                              0.01) == 318_958_885


def _class_chain_cases():
    """(kernel, measure) for grover, transverse and single flip at N <= 12,
    at random marked states, temperatures, fields and times."""
    rng = np.random.Generator(np.random.Philox(20))
    for n in range(1, 13):
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


def test_class_chain_forms_the_distance_chain():
    # the distance chain is stochastic and reversible, its pi sums to 1,
    # and D^1/2 P D^-1/2, symmetrized, is I - B_0, block 0 of the class
    # entries, to the last bit of its largest entries
    for kern, measure in _class_chain_cases():
        n = kern.n_spins
        _, _, x, distance, log_pi = class_chain(kern, measure)
        pi = np.exp(log_pi)
        assert np.max(np.abs(distance.sum(axis=1) - 1.0)) <= 1e-12, n
        assert abs(pi.sum() - 1.0) <= 1e-12, n
        flux = pi[:, None] * distance
        np.testing.assert_allclose(flux, flux.T, rtol=1e-12, atol=0.0)
        s = np.exp(0.5 * (log_pi[:, None] - log_pi)) * distance
        np.testing.assert_allclose(np.eye(n + 1) - _symmetry_blocks(x)[0],
                                   0.5 * (s + s.T), rtol=0.0, atol=2e-16)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 20, 30])
def test_class_entries_invert_the_symmetry_blocks(n):
    # random symmetric class functions, 0 on the classes no pair realizes,
    # come back from their blocks; the alternating sums of the adjoint
    # difference lose about 2^(N/2) eps (at most 1.1 of it measured)
    rng = np.random.Generator(np.random.Philox(n))
    f = rng.standard_normal((n + 1,) * 3)
    f += f.transpose(1, 0, 2)
    f[weight_classes(n) == 0] = 0.0
    error = np.max(np.abs(_class_entries(_symmetry_blocks(f)) - f))
    assert error <= 4.0 * np.finfo(float).eps * 2.0 ** (n / 2), error


def _per_start_mixing_times(kernel, measure, epsilon):
    """t_w for w = 0..N, each from its own full search on the chain lumped
    about the marked state and a start at distance w, gathered by six index
    arrays (None where a start has not mixed within the step cap): the
    per-start reference of exact_mixing_time, whose maximum it returns."""
    n = kernel.n_spins
    move, stay, *_ = class_chain(kernel, measure)
    log_pi = measure.class_log_weights - measure.log_partition
    times = []
    for w in range(n + 1):
        inside = weight_classes(w)
        outside = weight_classes(n - w)
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
            [lumped], start, pi, epsilon)))
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


def test_mixing_time_settles_cuts_by_the_distance_bound(monkeypatch):
    # the per-start reference's chains, run again with its assertions: a
    # start whose distance-chain bound is within epsilon at the running
    # worst is settled there, with no probe when every start is; otherwise
    # one block probe runs there, and a block search lifts on from it only
    # while an open start stays above epsilon; all three happen
    calls = []   # per exact_mixing_time call: [settled, left open, probes]

    def bounding(rows, pi):
        bound = _distance_bound(rows, pi)
        inner = bound[1:-1]
        calls.append([int(np.sum(inner <= 0.01)), int(np.sum(inner > 0.01)),
                      0])
        return bound

    def probing(*args):
        calls[-1][2] += 1
        return _start_distances(*args)

    monkeypatch.setattr(chain, "_distance_bound", bounding)
    monkeypatch.setattr(chain, "_start_distances", probing)
    test_mixing_time_matches_the_per_start_reference()
    for settled, left_open, probes in calls:
        assert (probes > 0) == (left_open > 0), (settled, left_open, probes)
    assert any(settled and not left_open for settled, left_open, _ in calls)
    assert any(settled and left_open for settled, left_open, _ in calls)
    assert any(probes > 1 for *_, probes in calls)


def _stochastic_power(p, t):
    """p^t by repeated squaring, each product's rows scaled back to sum 1 as
    the exact power's do, so that its rounding does not double with each
    squaring (numpy's matrix_power drifts by up to 3e-9 at t = 10^6 on
    these chains)."""
    power, square = np.eye(len(p)), p
    while t:
        if t & 1:
            power = power @ square
            power /= power.sum(axis=1, keepdims=True)
        t >>= 1
        square = square @ square
        square /= square.sum(axis=1, keepdims=True)
    return power


def _distance_bound_cases():
    """(kind, kernel, measure) at random chains of both mixers, uniform and
    single flip, at N <= 8."""
    rng = np.random.Generator(np.random.Philox(33))
    for n in range(1, 9):
        for kind in ("grover", "transverse", "uniform", "single flip"):
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
            yield kind, kern, gibbs_measure(h_c, beta)


def test_distance_bound_holds_over_every_start():
    # U_x(t) from the distance chain is at least the dense total variation
    # of every start x, at random chains of both mixers, uniform and single
    # flip, up to 1e-12
    for kind, kern, measure in _distance_bound_cases():
        n = kern.n_spins
        *_, distance, log_pi = class_chain(kern, measure)
        p = build_transition_matrix(kern, measure)
        pi = measure.probabilities()
        dist = np.array([(x ^ measure.marked).bit_count()
                         for x in range(p.dim)])
        for t in (0, 1, 10, 10**3, 10**6):
            bound = _distance_bound(_stochastic_power(distance, t),
                                    np.exp(log_pi))
            tv = 0.5 * np.abs(_stochastic_power(p.p, t) - pi).sum(axis=1)
            assert np.all(tv <= bound[dist] + 1e-12), (n, kind, t)


def test_cached_squares_stay_stochastic():
    # every row of each cached square p^(2^j), j <= 20, of the distance
    # chains and the dense matrices sums to 1 within 1e-13: plain squaring
    # drifts by up to 1.5e-10 and 2.9e-9 on them by j = 20
    for kind, kern, measure in _distance_bound_cases():
        for p in (class_chain(kern, measure)[3],
                  build_transition_matrix(kern, measure).p):
            squarings = [p]
            _squaring(squarings, 20)
            for j, square in enumerate(squarings[1:], 1):
                drift = np.max(np.abs(square.sum(axis=1) - 1.0))
                assert drift <= 1e-13, (kern.n_spins, kind, j, drift)


def _block_distances(kern, measure, t):
    """d_x(t) at each distance 1..N-1 as exact_mixing_time's probe reads it
    at step t: the distance chain's P^t and the blocks' plain powers."""
    _, _, x, distance, log_pi = class_chain(kern, measure)
    powers = [np.linalg.matrix_power(np.eye(len(b)) - b, t)
              for b in _symmetry_blocks(x)[1:]]
    log_state = measure.class_log_weights - measure.log_partition
    return _start_distances(_stochastic_power(distance, t), powers, log_pi,
                            log_state)


def test_block_distances_match_dense_rows():
    # every start's total variation from the dense rows of P^t agrees with
    # the blocks' value at its distance, at random chains of both mixers,
    # uniform and single flip at N <= 8 (within 9.5e-15 measured)
    for kind, kern, measure in _distance_bound_cases():
        n = kern.n_spins
        if n == 1:
            continue
        p = build_transition_matrix(kern, measure)
        pi = measure.probabilities()
        dist = np.array([(x ^ measure.marked).bit_count()
                         for x in range(p.dim)])
        inner = (dist > 0) & (dist < n)
        for t in (0, 1, 10, 10**3, 10**6):
            tv = 0.5 * np.abs(_stochastic_power(p.p, t) - pi).sum(axis=1)
            blocks = _block_distances(kern, measure, t)
            np.testing.assert_allclose(blocks[dist[inner] - 1], tv[inner],
                                       rtol=0.0, atol=1e-13,
                                       err_msg=f"{kind} N={n} t={t}")


def _cut_chain(move, stay, measure, w):
    """The chain of ``move`` and ``stay`` (:func:`class_chain`) lumped about
    the marked state and a cut of the spins into w and N - w, over the
    classes (a, b), a of the w spins and b of the others differing from the
    marked state, and its pi: an independent reference for the blocks'
    per-start distances, gathered one pair (a, c) of the w side at a time
    so that N = 60 needs no (w+1)^3 (N-w+1)^3 array."""
    n = move.shape[0] - 1
    inside, outside = weight_classes(w), weight_classes(n - w)
    b = np.arange(n - w + 1)
    overlap = np.add.outer(np.arange(w + 1), b)             # t1 + t2
    lumped = np.empty((w + 1, n - w + 1, w + 1, n - w + 1))
    for a in range(w + 1):
        for c in range(w + 1):
            pair = move[(a + b)[:, None, None, None],
                        (c + b)[None, :, None, None], overlap]
            lumped[a, :, c] = np.einsum("t,bds,bdts->bd", inside[a, c],
                                        outside, pair)
    size = (w + 1) * (n - w + 1)
    lumped = lumped.reshape(size, size)
    dist = np.add.outer(np.arange(w + 1), b).ravel()
    lumped[np.arange(size), np.arange(size)] += stay[dist]
    log_size = np.log([math.comb(w, u) * math.comb(n - w, v)
                       for u in range(w + 1) for v in b])
    log_pi = measure.class_log_weights - measure.log_partition
    return lumped, np.exp(log_size + log_pi[dist])


@pytest.mark.parametrize("n", [40, 60])
def test_block_distances_match_the_cut_chain_past_the_old_rule(n):
    # d_w(t) at w = 1..3 from the blocks against the chain lumped about the
    # cut of w spins, past N = 30, where the mixing time's lumped gather was
    # refused (within 2.9e-15 measured)
    h_c = MarkedStateHamiltonian(n, 1.0)
    for kern, beta in ((quantum_kernel(h_c, MixerSpec("transverse", 1.0), 1.0),
                        0.2), (single_flip_kernel(n), 0.5)):
        measure = gibbs_measure(h_c, beta)
        move, stay, *_ = class_chain(kern, measure)
        for w in (1, 2, 3):
            lumped, pi = _cut_chain(move, stay, measure, w)
            start = w * (n - w + 1)                 # the class (w, 0)
            for t in (1, 10, 100, 10**4):
                row = _stochastic_power(lumped, t)[start]
                d = _block_distances(kern, measure, t)[w - 1]
                assert d == pytest.approx(0.5 * np.abs(row - pi).sum(),
                                          rel=0.0, abs=3e-14), (w, t)


@pytest.mark.parametrize("n", [40, 60])
def test_mixing_time_past_the_old_rule_keeps_the_sandwich(monkeypatch, n):
    # transverse chains at beta 0 and 0.2, each settled by a block probe:
    # t_mix lies inside the relaxation sandwich of the block gap
    probes = []

    def probing(*args):
        probes.append(args)
        return _start_distances(*args)

    monkeypatch.setattr(chain, "_start_distances", probing)
    h_c = MarkedStateHamiltonian(n, 1.0)
    kern = quantum_kernel(h_c, MixerSpec("transverse", 1.0), 1.0)
    for beta in (0.0, 0.2):
        measure = gibbs_measure(h_c, beta)
        probes.clear()
        t_mix = exact_mixing_time(kern, measure, 0.25)
        assert probes, beta
        lower, upper = mixing_time_bounds(spectral_gap_blocks(kern, measure),
                                          measure.log_pi_min, 0.25)
        assert lower <= t_mix <= upper, (beta, t_mix, lower, upper)


@pytest.mark.parametrize("variant, n", [("transverse", 10), ("grover", 12)])
def test_mixing_time_searches_once_on_the_sample_chains(monkeypatch, variant,
                                                        n):
    # the sample workload's chains (beta 5, h at resonance, t 0.3): the
    # search on the distance chain from the marked state and its antipode
    # gives t_mix, and the distance chain's bound settles every other start
    # there, so one search runs
    begun, lifted = [], []

    def counting(squarings, rows, pi, epsilon, t=0):
        begun.append(t)
        return _first_crossing(squarings, rows, pi, epsilon, t)

    def lifting(*args):
        lifted.append(args[-1])
        return _lifted_crossing(*args)

    monkeypatch.setattr(chain, "_first_crossing", counting)
    monkeypatch.setattr(chain, "_lifted_crossing", lifting)
    h_c = MarkedStateHamiltonian(n, 1.0)
    kern = quantum_kernel(h_c, MixerSpec(variant, resonance_field(1.0, n)),
                          0.3)
    t_mix = exact_mixing_time(kern, gibbs_measure(h_c, 5.0), 0.01)
    assert t_mix == {10: 15_746, 12: 5_964_947}[n]
    assert begun == [0]
    assert lifted == [0]


@pytest.mark.parametrize("variant, n", [("transverse", 10), ("grover", 12)])
def test_sample_chains_read_the_distance_chain_alone(monkeypatch, variant, n):
    # on the sample workload's chains the mixing time takes no block probe
    # and forms no blocks: the block gap and the mixing time both read the
    # class chain's distance chain, and no start is left to the blocks
    def unreachable(*args):
        raise AssertionError("block probe taken")

    monkeypatch.setattr(chain, "_start_distances", unreachable)
    monkeypatch.setattr(chain, "_symmetry_blocks", unreachable)
    h_c = MarkedStateHamiltonian(n, 1.0)
    kern = quantum_kernel(h_c, MixerSpec(variant, resonance_field(1.0, n)),
                          0.3)
    measure = gibbs_measure(h_c, 5.0)
    assert 0.0 < spectral_gap_blocks(kern, measure) <= 1.0
    assert exact_mixing_time(kern, measure, 0.01) == {10: 15_746,
                                                      12: 5_964_947}[n]


def test_class_mixing_time_needs_an_invariant_kernel():
    measure = gibbs_measure(MarkedStateHamiltonian(3, 1.0), 1.0)
    with pytest.raises(TypeError):
        exact_mixing_time(DenseKernel(np.full((8, 8), 0.125), 3), measure, 0.01)


@pytest.mark.parametrize("n", [140, 255])
def test_mixing_time_refused_past_the_size_rule(monkeypatch, n):
    # the symmetry-block routes' six (N+1)^3 arrays break the size rule from
    # N = 140: refused before the class chain is built, at N = 255 too,
    # where a single-flip table still keeps the rule
    def unreachable(*args):
        raise AssertionError("class chain assembled")

    monkeypatch.setattr(chain, "class_chain", unreachable)
    measure = gibbs_measure(MarkedStateHamiltonian(n, 1.0), 0.0)
    with pytest.raises(BudgetExceeded,
                       match=f"^symmetry-block route refused at N = {n}:"):
        exact_mixing_time(single_flip_kernel(n), measure, 0.01)
