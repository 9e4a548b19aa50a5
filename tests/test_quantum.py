import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qemcmc.chain import SYMMETRY_TOL
from qemcmc.errors import MismatchedDimensions
from qemcmc.model import MarkedStateHamiltonian
from qemcmc.proposal import validate_kernel
from qemcmc.quantum import (
    GROVER,
    TRANSVERSE,
    MixerSpec,
    apply_hamiltonian,
    dense_hamiltonian,
    evolve,
    grover_closed_form,
    quantum_kernel,
    quantum_proposal_column,
    _sector_hamiltonian,
    _sector_propagator,
    resonance_field,
    structured_grover_kernel,
    two_level_frequency,
)

def _rng(seed=7):
    return np.random.Generator(np.random.Philox(seed))


def basis_state(n_spins, index):
    psi = np.zeros(1 << n_spins, dtype=complex)
    psi[index] = 1.0
    return psi


def _random_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


# ---------------------------------------------------------------------------
# Hamiltonian application

def test_marked_state_is_eigenstate_without_mixing():
    h_c = MarkedStateHamiltonian(4, 1.5, marked=6)
    psi = basis_state(4, 6)
    out = apply_hamiltonian(h_c, MixerSpec(GROVER, 0.0), psi)
    assert np.allclose(out, -1.5 * 4 * psi)


def test_transverse_action_on_basis_state():
    h_c = MarkedStateHamiltonian(3, 1.0, marked=5)   # alpha term absent at x=0
    out = apply_hamiltonian(h_c, MixerSpec(TRANSVERSE, 0.7), basis_state(3, 0))
    expected = np.zeros(8)
    for i in range(3):
        expected[1 << i] = 0.7
    assert np.allclose(out, expected)


def test_grover_uniform_state_eigenstate():
    n = 4
    h_c = MarkedStateHamiltonian(n, 1.0, marked=3)
    s = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)
    out = apply_hamiltonian(MarkedStateHamiltonian(n, 1e-300), MixerSpec(GROVER, 0.9), s)
    # alpha ~ 0: |s> is an eigenstate with eigenvalue h*N
    assert np.allclose(out, 0.9 * n * s, atol=1e-12)


def test_apply_matches_dense_matrix():
    rng = _rng()
    for variant in (GROVER, TRANSVERSE):
        h_c = MarkedStateHamiltonian(4, 1.2, marked=9)
        mixer = MixerSpec(variant, -0.8)
        ham = dense_hamiltonian(h_c, mixer)
        psi = _random_state(rng, 16)
        assert np.allclose(apply_hamiltonian(h_c, mixer, psi), ham @ psi)


def test_apply_dimension_mismatch():
    with pytest.raises(MismatchedDimensions):
        apply_hamiltonian(MarkedStateHamiltonian(3, 1.0),
                          MixerSpec(GROVER, 1.0), np.zeros(4, dtype=complex))


# ---------------------------------------------------------------------------
# propagators

def test_evolve_t0_identity():
    psi = basis_state(4, 11)
    out = evolve(MarkedStateHamiltonian(4, 1.0), MixerSpec(GROVER, 1.0), psi, 0.0)
    assert np.allclose(out, psi)


def test_evolve_norm_preserved():
    rng = _rng(11)
    h_c = MarkedStateHamiltonian(6, 1.0, marked=17)
    for variant in (GROVER, TRANSVERSE):
        psi = _random_state(rng, 64)
        out = evolve(h_c, MixerSpec(variant, 1.3), psi, 2.7)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_evolve_composition():
    rng = _rng(13)
    h_c = MarkedStateHamiltonian(5, 0.9, marked=2)
    mixer = MixerSpec(TRANSVERSE, 0.6)
    psi = _random_state(rng, 32)
    whole = evolve(h_c, mixer, psi, 1.9)
    half = evolve(h_c, mixer, psi, 0.8)
    parts = evolve(h_c, mixer, half, 1.1)
    assert np.max(np.abs(whole - parts)) < 1e-9


def test_auto_evolve_matches_dense():
    # the sector route against dense diagonalization, with a random marked
    # state, both mixers and N up to 10
    rng = _rng(17)
    for n in range(1, 11):
        h_c = MarkedStateHamiltonian(n, rng.uniform(0.5, 2.0),
                                     int(rng.integers(1 << n)))
        for variant in (GROVER, TRANSVERSE):
            mixer = MixerSpec(variant, rng.uniform(-2, 2))
            psi = _random_state(rng, 1 << n)
            t = rng.uniform(0.1, 3.0)
            a = evolve(h_c, mixer, psi, t, "dense")
            b = evolve(h_c, mixer, psi, t)
            assert 1.0 - abs(np.vdot(a, b)) < 1e-10
            assert np.max(np.abs(a - b)) < 1e-10


def test_evolve_rejects_unnormalized():
    psi = np.ones(16, dtype=complex)
    with pytest.raises(ValueError):
        evolve(MarkedStateHamiltonian(4, 1.0), MixerSpec(GROVER, 1.0), psi, 1.0)


def test_evolve_takes_auto_or_dense():
    # the two words quantum_kernel takes, auto the default; any other method
    # is rejected, at t = 0 as well
    h_c = MarkedStateHamiltonian(4, 1.0)
    psi = basis_state(4, 11)
    for method in ("krylov", "lanczos"):
        for t in (1.0, 0.0):
            with pytest.raises(ValueError):
                evolve(h_c, MixerSpec(GROVER, 1.0), psi, t, method)
    mixer = MixerSpec(TRANSVERSE, 1.0)
    assert np.array_equal(evolve(h_c, mixer, psi, 0.7),
                          evolve(h_c, mixer, psi, 0.7, "auto"))
    for method in ("auto", "dense"):
        assert np.array_equal(evolve(h_c, mixer, psi, 0.0, method), psi)


def test_grover_two_level_closure():
    # from an unmarked start, all other unmarked states carry equal probability
    h_c = MarkedStateHamiltonian(5, 1.0, marked=0)
    out = evolve(h_c, MixerSpec(GROVER, 0.7), basis_state(5, 9), 1.4, "dense")
    probs = np.abs(out) ** 2
    rest = np.delete(probs, [0, 9])
    assert np.ptp(rest) < 1e-12


# ---------------------------------------------------------------------------
# kernels

def test_kernel_t0_identity():
    kern = quantum_kernel(MarkedStateHamiltonian(3, 1.0),
                          MixerSpec(TRANSVERSE, 1.0), 0.0, "dense")
    assert np.allclose(kern.dense(), np.eye(8), atol=1e-12)


def test_grover_kernel_matches_closed_form():
    h_c = MarkedStateHamiltonian(4, 1.0)
    kern = quantum_kernel(h_c, MixerSpec(GROVER, 1.0), 1.0, "dense")
    cf = grover_closed_form(4, 1.0, 1.0, 1.0)
    q = kern.dense()
    assert q[0, 5] == pytest.approx(cf.q_marked, abs=1e-10)
    assert q[7, 5] == pytest.approx(cf.q_unmarked, abs=1e-10)
    assert q[0, 0] == pytest.approx(cf.q_marked_stay, abs=1e-10)
    assert q[5, 5] == pytest.approx(cf.q_unmarked_stay, abs=1e-10)


def test_structured_kernel_matches_simulation():
    h_c = MarkedStateHamiltonian(6, 1.3, marked=40)
    sim = quantum_kernel(h_c, MixerSpec(GROVER, -0.9), 2.1, "dense").dense()
    structured = structured_grover_kernel(h_c, -0.9, 2.1).dense()
    assert np.max(np.abs(sim - structured)) < 1e-12


def test_rank2_fast_path_matches_dense():
    h_c = MarkedStateHamiltonian(5, 0.8, marked=3)
    auto = quantum_kernel(h_c, MixerSpec(GROVER, 1.7), 0.9)     # closed form
    sim = quantum_kernel(h_c, MixerSpec(GROVER, 1.7), 0.9, "dense")
    assert np.max(np.abs(auto.dense() - sim.dense())) < 1e-12


def test_transverse_kernel_symmetric_doubly_stochastic():
    kern = quantum_kernel(MarkedStateHamiltonian(4, 1.0),
                          MixerSpec(TRANSVERSE, 1.0), 1.0, "dense")
    cert = validate_kernel(kern)
    assert cert.max_asymmetry < 1e-10
    assert cert.max_column_deviation < 1e-10
    assert cert.max_row_deviation < 1e-10


def test_transverse_table_past_int64_binomials():
    # C(68, 34) > 2^64: the table must not hand numpy Python-int binomials
    kern = quantum_kernel(MarkedStateHamiltonian(68, 1.0),
                          MixerSpec(TRANSVERSE, 1.0), 1.0)
    cert = validate_kernel(kern)
    assert max(cert.max_asymmetry, cert.max_column_deviation,
               cert.max_row_deviation) <= SYMMETRY_TOL


def test_transverse_sector_kernel_matches_dense():
    rng = _rng(23)
    for n in range(2, 11):
        h_c = MarkedStateHamiltonian(n, rng.uniform(0.5, 2.0),
                                     int(rng.integers(1, 1 << n)))
        mixer = MixerSpec(TRANSVERSE, rng.uniform(-2.0, 2.0))
        t = rng.uniform(0.0, 4.0)
        auto = quantum_kernel(h_c, mixer, t).dense()       # symmetric sector
        sim = quantum_kernel(h_c, mixer, t, "dense").dense()
        assert np.max(np.abs(auto - sim)) < 1e-12


def test_transverse_sector_edge_cases():
    h_c = MarkedStateHamiltonian(5, 1.0, marked=11)
    for h, t in ((1.3, 0.0), (0.0, 2.0)):
        q = quantum_kernel(h_c, MixerSpec(TRANSVERSE, h), t).dense()
        assert np.max(np.abs(q - np.eye(32))) < 1e-14
    # with a negligible marked term, ht = pi/2 flips every spin: x = y ^ 31
    free = MarkedStateHamiltonian(5, 1e-300, marked=11)
    q = quantum_kernel(free, MixerSpec(TRANSVERSE, 0.5), math.pi).dense()
    assert np.max(np.abs(q - np.eye(32)[::-1])) < 1e-14


def test_transverse_sector_column_matches_dense():
    h_c = MarkedStateHamiltonian(7, 1.2, marked=45)
    mixer = MixerSpec(TRANSVERSE, -0.8)
    for y in (45, 0, 100):
        auto = quantum_proposal_column(h_c, mixer, 2.3, y)
        sim = np.abs(evolve(h_c, mixer, basis_state(7, y), 2.3, "dense")) ** 2
        assert np.max(np.abs(auto - sim)) < 1e-12


def test_tridiagonal_eigh_matches_scipy_on_the_sector():
    # the numpy stand-in against scipy's tridiagonal solver on the transverse
    # symmetric sector: hops h*sqrt((w+1)(n-w)), marked energy -alpha*n at w=0
    from scipy.linalg import eigh_tridiagonal

    rng = _rng(41)
    for n in range(1, 25):
        alpha, h = rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0)
        w = np.arange(n)
        d = np.zeros(n + 1)
        d[0] = -alpha * n
        e = h * np.sqrt((w + 1.0) * (n - w))
        t_mat = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        ham = _sector_hamiltonian(n, TRANSVERSE, h, -alpha * n)
        assert np.array_equal(ham, t_mat)
        lam, vec = np.linalg.eigh(ham)
        norm = np.max(np.abs(lam))
        assert np.max(np.abs(lam - eigh_tridiagonal(d, e)[0])) <= 1e-13 * norm
        assert np.max(np.abs(t_mat @ vec - vec * lam)) <= 1e-13 * norm
        u = _sector_propagator(ham, rng.uniform(0.0, 5.0))
        assert np.max(np.abs(u @ u.conj().T - np.eye(n + 1))) <= 1e-13


@pytest.mark.parametrize("n", [14, 16])
def test_marked_escape_matches_expm_multiply(n):
    # past the dense size rule, a reference independent of the sector code:
    # scipy's expm_multiply on the matrix-free H, from the marked state,
    # another basis state and (at N = 14) a random state
    from scipy.sparse.linalg import LinearOperator, expm_multiply

    h_c = MarkedStateHamiltonian(n, 1.3, marked=5)
    t = 1.7
    starts = [5, 6]
    psis = [basis_state(n, y) for y in starts]
    if n == 14:
        psis.append(_random_state(_rng(43), h_c.dim))
    for variant in (GROVER, TRANSVERSE):
        mixer = MixerSpec(variant, 0.7)

        def apply(v):
            return apply_hamiltonian(h_c, mixer, np.ravel(v))

        ham = LinearOperator((h_c.dim, h_c.dim), matvec=apply, rmatvec=apply,
                             dtype=complex)
        trace = (0.7 * n if variant == GROVER else 0.0) - 1.3 * n
        refs = [expm_multiply(-1j * t * ham, psi, traceA=-1j * t * trace)
                for psi in psis]
        for psi, ref in zip(psis, refs):
            assert np.max(np.abs(evolve(h_c, mixer, psi, t) - ref)) < 1e-10
        for y, ref in zip(starts, refs):
            col = quantum_proposal_column(h_c, mixer, t, y)
            escape = np.delete(col, y).sum()
            escape_ref = np.delete(np.abs(ref) ** 2, y).sum()
            assert abs(escape - escape_ref) < 1e-10 * escape_ref


def test_kernel_has_no_krylov_route():
    for method in ("krylov", "Dense", ""):
        with pytest.raises(ValueError):
            quantum_kernel(MarkedStateHamiltonian(3, 1.0),
                           MixerSpec(TRANSVERSE, 1.0), 1.0, method)


def test_proposal_column_point_mass_at_t0():
    col = quantum_proposal_column(MarkedStateHamiltonian(4, 1.0),
                                  MixerSpec(TRANSVERSE, 1.0), 0.0, 6)
    expected = np.zeros(16)
    expected[6] = 1.0
    assert np.allclose(col, expected)


def test_proposal_column_normalized():
    col = quantum_proposal_column(MarkedStateHamiltonian(12, 1.0),
                                  MixerSpec(TRANSVERSE, 1.0), 1.0, 0)
    assert abs(col.sum() - 1.0) < 1e-10
    assert np.delete(col, 0).sum() == pytest.approx(1.0 - col[0], abs=1e-12)


def test_grover_column_uniform_off_marked():
    col = quantum_proposal_column(MarkedStateHamiltonian(8, 1.0),
                                  MixerSpec(GROVER, -1.0), 3.0, 0)
    assert np.ptp(col[1:]) < 1e-15


# ---------------------------------------------------------------------------
# closed form

def test_closed_form_t0():
    cf = grover_closed_form(5, 1.0, 1.0, 0.0)
    assert cf.q_marked == 0.0
    assert cf.q_unmarked == 0.0
    assert cf.q_marked_stay == cf.q_unmarked_stay == 1.0


def test_closed_form_no_mixing():
    cf = grover_closed_form(5, 1.0, 0.0, 2.0)
    assert cf.q_marked == 0.0


def test_closed_form_column_normalization():
    cf = grover_closed_form(6, 1.0, 1.0, 1.0)
    assert (2 ** 6 - 1) * cf.q_marked + cf.q_marked_stay == pytest.approx(1.0, abs=1e-12)
    assert cf.q_marked + (2 ** 6 - 2) * cf.q_unmarked + cf.q_unmarked_stay \
        == pytest.approx(1.0, abs=1e-12)


def test_small_gamma_limit_is_removable():
    # near-degenerate gamma: q_marked ~ (N h t / 2^N)^2, no 0/0 blowup
    n, alpha = 20, 1.0
    h = resonance_field(alpha, n)
    cf = grover_closed_form(n, alpha, h, 1e-6)
    approx = (n * h * 1e-6 / 2.0 ** n) ** 2
    assert cf.q_marked == pytest.approx(approx, rel=1e-6, abs=0.0)


def test_small_t_proposals_keep_first_order_term():
    # both off-diagonal values are (h N t / 2^N)^2 (1 + O(t^2)); an
    # expansion 1 - 2 cos(phi t) cos(gamma t) + ... of q_unmarked loses
    # about 6e-4 of it to cancellation at t = 1e-7
    n, h, t = 6, 0.7, 1e-7
    kern = structured_grover_kernel(MarkedStateHamiltonian(n, 1.0), h, t)
    first_order = (h * n * t / 2.0 ** n) ** 2
    table = kern.table()
    off_marked, off_unmarked = table[1, 1, 0], table[2, 1, 1]
    assert off_marked == pytest.approx(first_order, rel=1e-9, abs=0.0)
    assert off_unmarked == pytest.approx(first_order, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("h, t", [(1e200, 1.0), (1.0, 1e308), (math.inf, 1.0),
                                  (math.nan, 1.0), (1.0, -math.inf)])
def test_closed_form_refuses_values_that_are_not_finite(h, t):
    # an h or t whose evolution overflows a double raises, naming N, h and t,
    # from both scalar views; filterwarnings = error keeps numpy silent too
    note = re.escape(f"not finite at N = 10, h = {h!r}, t = {t!r}")
    with pytest.raises(ValueError, match=note):
        grover_closed_form(10, 1.0, h, t)
    with pytest.raises(ValueError, match=note):
        structured_grover_kernel(MarkedStateHamiltonian(10, 1.0), h, t)


def test_closed_form_overflows_past_n_511():
    # (2^N - 1)^2 overflows a double from N = 512, as the CLI's --n-max says
    assert math.isfinite(grover_closed_form(511, 1.0, -1.0, 0.3).q_unmarked)
    with pytest.raises(OverflowError):
        grover_closed_form(512, 1.0, -1.0, 0.3)


def test_resonance_field_values():
    assert resonance_field(1.0, 1) == pytest.approx(-2.0)
    assert resonance_field(1.0, 30) == pytest.approx(-1.0, abs=1e-8)


def test_resonance_slows_two_level_frequency():
    on = two_level_frequency(10, 1.0, resonance_field(1.0, 10))
    off = two_level_frequency(10, 1.0, 1.0)
    assert on <= off / 16.0


@settings(max_examples=20, deadline=None)
@given(
    h=st.floats(min_value=-2.0, max_value=2.0),
    t=st.floats(min_value=0.0, max_value=4.0),
)
def test_closed_form_probabilities_valid(h, t):
    cf = grover_closed_form(5, 1.0, h, t)
    for q in (cf.q_marked, cf.q_unmarked, cf.q_marked_stay, cf.q_unmarked_stay):
        assert -1e-12 <= q <= 1.0 + 1e-12
