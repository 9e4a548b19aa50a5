"""Tests of the benchmark's own parts.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's test collection: the
references are checked against textbook values and full dense computations,
the tracer against a fake clock, and the checker against rows made from the
references.
"""

import json
import math
import os
import sys

import numpy as np
import pytest
import scipy.linalg as sla

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ALPHA, BETA = 1.0, 5.0


# ---------------------------------------------------------------------------
# references

@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("beta", [0.0, 0.7, 5.0])
def test_uniform_gap_is_textbook(n, beta):
    q = np.full((1 << n, 1 << n), 2.0 ** -n)
    expected = 2.0 ** -n * (1.0 + math.exp(-n * beta * ALPHA) * (2.0 ** n - 1.0))
    assert ref.absolute_gap(q, n, ALPHA, beta) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("h,t", [(0.7, 0.4), (-1.3, 2.5)])
def test_single_spin_escape_is_rabi(h, t):
    # H = [[-alpha, h], [h, 0]]: escape = h^2/W^2 sin^2(W t), W^2 = alpha^2/4 + h^2
    w = math.sqrt(ALPHA ** 2 / 4 + h ** 2)
    rabi = h ** 2 / w ** 2 * math.sin(w * t) ** 2
    assert ref.transverse_marked_escape(1, ALPHA, h, t) == pytest.approx(rabi, rel=1e-13)
    assert ref.transverse_marked_column(1, ALPHA, h, t)[1] == pytest.approx(rabi, rel=1e-12)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_transverse_routes_agree(n):
    h, t = 0.9, 1.1
    full = ref.transverse_kernel(n, ALPHA, h, t)
    assert np.allclose(full, full.T, atol=1e-14)
    assert np.allclose(full.sum(axis=0), 1.0, atol=1e-13)
    column = ref.transverse_marked_column(n, ALPHA, h, t)
    assert np.allclose(column, full[:, 0], atol=1e-13)
    escape = ref.transverse_marked_escape(n, ALPHA, h, t)
    assert escape == pytest.approx(full[1:, 0].sum(), rel=1e-11)


@pytest.mark.parametrize("n", [2, 4])
def test_grover_block_matches_full_evolution(n):
    h, t = ref.resonance_field(ALPHA, n), 1.7
    dim = 1 << n
    ham = np.full((dim, dim), h * n / dim)
    ham[0, 0] -= ALPHA * n
    q = np.abs(sla.expm(-1j * t * ham)) ** 2
    q_m, q_u = ref.grover_block(n, ALPHA, h, t)
    assert np.allclose(ref.grover_kernel(n, q_m, q_u), q, atol=1e-13)
    gap = ref.gap_from_blocks(*ref.grover_block_gaps(n, ALPHA, BETA, q_m, q_u))
    assert gap == pytest.approx(ref.absolute_gap(q, n, ALPHA, BETA), rel=1e-9)


def test_mixing_time_two_state_chain():
    # d(t) = max(a, b)/(a + b) |1 - a - b|^t
    a, b = 0.3, 0.1
    p = np.array([[1 - a, a], [b, 1 - b]])
    pi = np.array([b, a]) / (a + b)
    expected = math.ceil(math.log(0.01 * (a + b) / max(a, b)) / math.log(1 - a - b))
    assert ref.mixing_time(p, pi, 0.01) == expected


def test_mixing_time_inside_sandwich():
    n = 4
    q_m, q_u = ref.grover_block(n, ALPHA, ref.resonance_field(ALPHA, n), 0.3)
    q = ref.grover_kernel(n, q_m, q_u)
    t_mix = ref.mixing_time(ref.metropolis(q, n, ALPHA, BETA), ref.stationary(n, ALPHA, BETA))
    lower, upper = ref.relaxation_sandwich(ref.absolute_gap(q, n, ALPHA, BETA),
                                           ref.log_pi(n, ALPHA, BETA)[1])
    assert lower <= t_mix <= upper


# ---------------------------------------------------------------------------
# tracer

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_spans_nest_and_self_times_add_up():
    tracer = spans.Tracer(clock=FakeClock())

    def leaf():
        return tracer.call("apply_hamiltonian", lambda: None, (), {})

    def kernel():
        leaf()
        leaf()
        return tracer.call("ProposalKernel.dense", lambda: None, (), {})

    tracer.call("quantum_kernel", kernel, (), {})
    tracer.call("gibbs_measure", lambda: None, (), {})
    names = [s[spans.NAME] for s in tracer.spans]
    parents = [s[spans.PARENT] for s in tracer.spans]
    assert names == ["quantum_kernel", "apply_hamiltonian", "apply_hamiltonian",
                     "ProposalKernel.dense", "gibbs_measure"]
    assert parents == [-1, 0, 0, 0, -1]
    own = spans.self_times(tracer.spans)
    assert own == [4.0, 1.0, 1.0, 1.0, 1.0]
    wall = 12.0
    metrics = spans.layer_metrics(tracer.spans, wall)
    # the matvecs' self time stays with the kernel that made them
    assert metrics["quantum.kernel_s"] == 6.0
    assert metrics["proposal.dense_s"] == 1.0
    assert metrics["quantum.matvecs"] == 2
    assert metrics["cli.self_s"] == wall - 7.0 - 1.0
    assert sum(metrics[m] for m in spans.TIME_METRICS) == wall


def test_traced_cli_run_keeps_csv_and_counts():
    from qemcmc import cli
    from qemcmc import chain

    argv = ["--experiment", "figure-b", "--n-min", "4", "--n-max", "6"]
    plain, _ = cli.run(cli.build_config(argv))
    original = chain.validate_kernel
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced, _ = cli.run(cli.build_config(argv))
    finally:
        tracer.uninstall()
    assert traced == plain
    assert chain.validate_kernel is original
    metrics = spans.layer_metrics(tracer.spans, 1.0)
    # one dense kernel per N (N <= 12) and one dense-evolved column per N
    assert metrics["quantum.dense_diag"] == 6
    assert metrics["spectral.gap_dense_calls"] == 3
    assert metrics["spectral.gap_dense_dim"] == 64
    assert metrics["quantum.kernel_bytes"] == 8 * (16 ** 2 + 32 ** 2 + 64 ** 2)
    per_n = spans.per_n_times(tracer.spans)
    assert set(per_n) == {"4", "5", "6"}


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["per_layer"]] and \
        {m["name"] for m in spec["per_layer"]} == set(spans.METRICS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# checker

def _figure_a_csv(scale=1.0):
    rows = []
    for quantity, n, _ in workloads.expected_rows("figure-a")[0]:
        h = ref.resonance_field(ALPHA, n)
        gap = ref.grover_averaged_gap(n, ALPHA, BETA, h, checks.FIGURE_A_TIMES)
        rows.append(f"figure-a,{n},1,5,{h!r},avg,{quantity},{float(gap * scale)!r},m,0")
    return checks.HEADER + "\n" + "\n".join(sorted(rows)) + "\n"


def test_checker_passes_reference_rows_and_catches_errors():
    checker = checks.Checker("figure-a")
    good = [{"csv": _figure_a_csv(), "status": 0, "stderr": ""}]
    assert checker.check_run([good, good]) == (28, 0, True, [])

    bad = [{"csv": _figure_a_csv(1.0 + 1e-8), "status": 0, "stderr": ""}]
    attempted, failed, correct, _ = checker.check_run([bad])
    assert (attempted, failed, correct) == (14, 11, False)  # delta_exact keeps 1e-6

    lines = _figure_a_csv().split("\n")
    missing = [{"csv": "\n".join(lines[:1] + lines[2:]), "status": 0, "stderr": "skipped"}]
    attempted, failed, correct, _ = checker.check_run([missing])
    assert (attempted, failed, correct) == (14, 1, False)

    # rounds of one seed must agree
    _, _, correct, messages = checker.check_run([good, missing])
    assert not correct and any("differs" in m for m in messages)


def _sample_round(bad_key):
    """Both sample command lines' CSVs with plausible values, and a tv above
    1 at ``bad_key`` (command index, row key)."""
    outputs = []
    for index, expected in enumerate(workloads.expected_rows("sample")):
        rows = []
        for key in expected:
            quantity, n, step = key
            value = "1.0000000000000002" if (index, key) == bad_key else (
                "0.5" if quantity == "tv" else "100")
            rows.append(f"sample,{n},1,5,-1,{step if step else 0.3},{quantity},{value},m,0")
        outputs.append({"csv": checks.HEADER + "\n" + "\n".join(sorted(rows)) + "\n",
                        "status": 0, "stderr": ""})
    return outputs


def test_known_fault_is_counted_but_not_incorrect():
    checker = checks.Checker("sample")
    for mixer, n_max in ((0, 12), (1, 10)):
        for n in range(6, n_max + 1):  # permissive references: no powering
            checker._cache[("sample", mixer, n)] = (None, (0.0, 1e12), 0.0, None)
    (known,) = checks.KNOWN_FAULTS
    assert checker.check_run([_sample_round(known)] * 2) == (
        120, 2, True, [f"command 0 row {known[1]}: total variation "
                       "1.0000000000000002 outside [0, 1]"])
    other = (1, ("tv", 8, 5000))
    attempted, failed, correct, _ = checker.check_run([_sample_round(other)] * 2)
    assert (attempted, failed, correct) == (120, 2, False)
