import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from qemcmc import cli


def _run(argv):
    cfg = cli.build_config(argv)
    return cli.run(cfg)


def _rows(csv_text):
    lines = csv_text.strip().split("\n")
    assert lines[0] == "experiment,N,alpha,beta,h,t,quantity,value,method,seed"
    return [line.split(",") for line in lines[1:]]


def test_header_and_schema():
    csv_text, status = _run(["--experiment", "scan", "--n-min", "10",
                             "--n-max", "14"])
    assert status == 0
    rows = _rows(csv_text)
    assert all(len(r) == 10 for r in rows)
    quantities = {r[6] for r in rows}
    assert quantities <= {"delta_exact", "delta_closed", "bound", "tv",
                          "tmix", "slope"}


def test_rows_sorted_and_lf_terminated(tmp_path):
    out = tmp_path / "scan.csv"
    status = cli.main(["--experiment", "scan", "--n-min", "10", "--n-max", "14",
                       "--out", str(out)])
    assert status == 0
    data = out.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")
    lines = data.decode().strip().split("\n")[1:]
    assert lines == sorted(lines)


def test_byte_determinism():
    argv = ["--experiment", "figure-a", "--n-min", "10", "--n-max", "12",
            "--avg-samples", "8", "--max-dense-n", "10", "--seed", "3"]
    first, _ = _run(argv)
    second, _ = _run(argv)
    assert first == second


def test_scan_gaps_decrease_with_system_size():
    csv_text, _ = _run(["--experiment", "scan", "--n-min", "10", "--n-max", "20"])
    rows = [r for r in _rows(csv_text) if r[6] == "delta_closed"]
    gaps = {int(r[1]): float(r[7]) for r in rows}
    ordered = [gaps[n] for n in sorted(gaps)]
    assert len(ordered) == 11
    assert np.all(np.diff(ordered) < 0)


def test_figure_a_dual_route_agreement():
    csv_text, _ = _run(["--experiment", "figure-a", "--n-min", "10",
                        "--n-max", "12", "--avg-samples", "16"])
    rows = _rows(csv_text)
    closed = {int(r[1]): float(r[7]) for r in rows if r[6] == "delta_closed"}
    exact = {int(r[1]): float(r[7]) for r in rows if r[6] == "delta_exact"}
    assert set(exact) == {10, 11, 12}
    for n, value in exact.items():
        assert abs(value - closed[n]) / closed[n] < 1e-6


def test_figure_a_single_point_degenerates_to_closed_form():
    from qemcmc.spectral import grover_gap_closed_form

    csv_text, _ = _run(["--experiment", "figure-a", "--n-min", "10",
                        "--n-max", "11", "--avg-samples", "1", "--h", "-1.0",
                        "--t", "1.5:1.5", "--max-dense-n", "0"])
    rows = _rows(csv_text)
    for r in rows:
        n = int(r[1])
        assert float(r[7]) == pytest.approx(
            grover_gap_closed_form(n, 1.0, 5.0, -1.0, 1.5), rel=1e-12, abs=0.0)


def test_figure_b_exact_below_bound():
    csv_text, _ = _run(["--experiment", "figure-b", "--n-min", "6",
                        "--n-max", "10", "--max-dense-n", "8"])
    rows = _rows(csv_text)
    bound = {int(r[1]): float(r[7]) for r in rows if r[6] == "bound"}
    exact = {int(r[1]): float(r[7]) for r in rows if r[6] == "delta_exact"}
    assert set(bound) == set(range(6, 11))
    assert set(exact) == {6, 7, 8}
    for n, value in exact.items():
        assert value <= bound[n] + 1e-12


def test_sample_rows():
    csv_text, _ = _run(["--experiment", "sample", "--n-min", "4", "--n-max", "4",
                        "--beta", "1", "--steps", "200", "--seed", "11"])
    rows = _rows(csv_text)
    tv = [r for r in rows if r[6] == "tv"]
    tmix = [r for r in rows if r[6] == "tmix"]
    assert len(tv) == 4 and len(tmix) == 1
    for r in tv:
        assert 0.0 <= float(r[7]) <= 1.0


@pytest.mark.parametrize("mixer", ["grover", "transverse"])
def test_sample_tmix_matches_dense_powering(mixer):
    from qemcmc.chain import build_transition_matrix
    from qemcmc.model import MarkedStateHamiltonian, gibbs_measure
    from qemcmc.quantum import MixerSpec, quantum_kernel, resonance_field
    from test_chain import _dense_mixing_time

    csv_text, _ = _run(["--experiment", "sample", "--mixer", mixer,
                        "--n-min", "4", "--n-max", "8", "--beta", "1",
                        "--steps", "10"])
    tmix = {int(r[1]): int(r[7]) for r in _rows(csv_text) if r[6] == "tmix"}
    assert set(tmix) == set(range(4, 9))
    for n, value in tmix.items():
        h_c = MarkedStateHamiltonian(n, 1.0)
        kern = quantum_kernel(h_c, MixerSpec(mixer, resonance_field(1.0, n)),
                              0.3, "dense")
        p = build_transition_matrix(kern, gibbs_measure(h_c, 1.0))
        assert value == _dense_mixing_time(p, 0.01, 10_000_000), n


@pytest.mark.parametrize("mixer,n_max,expected", [
    ("grover", 12, [5738, 17038, 52380, 165738, 537066, 1775102, 5964947]),
    ("transverse", 10, [958, 1862, 3704, 7550, 15746]),
])
def test_sample_tmix_pinned(mixer, n_max, expected):
    # the exact mixing times of the benchmark's sample command lines
    csv_text, status = _run(["--experiment", "sample", "--mixer", mixer,
                             "--n-min", "6", "--n-max", str(n_max),
                             "--steps", "10"])
    assert status == 0
    tmix = {int(r[1]): int(r[7]) for r in _rows(csv_text) if r[6] == "tmix"}
    assert tmix == dict(zip(range(6, n_max + 1), expected))


def test_sample_unmixed_n_skips_only_its_tmix_row(capsys):
    # grover N = 13 at beta = 5 has not mixed within the 10^7-step cap
    argv = ["--experiment", "sample", "--n-min", "12", "--n-max", "13",
            "--max-dense-n", "13", "--steps", "100"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    rows = _rows(captured.out)
    keys = sorted((int(r[1]), r[6]) for r in rows)
    assert keys == [(12, "tmix")] + [(12, "tv")] * 4 + [(13, "tv")] * 4
    assert "skipped tmix at N=13" in captured.err
    assert "10000000 steps" in captured.err


def test_validate_experiment_reports_criteria():
    csv_text, status = _run(["--experiment", "validate"])
    rows = _rows(csv_text)
    verdicts = {r[6]: r[8] for r in rows}
    assert "figure-determinism" in verdicts
    assert verdicts["figure-determinism"] == "pass"
    assert set(verdicts.values()) <= {"pass", "fail"}
    # the exit status mirrors the verdict column
    assert status == (1 if "fail" in verdicts.values() else 0)


def test_validate_rows_claim_no_run_settings(monkeypatch):
    # no check reads N, alpha, beta, h or t, so no row is labelled with them
    from qemcmc import validation

    monkeypatch.setattr(validation, "default_suite", lambda: [
        validation.CriterionResult("stub", 0.0, 0.0, True)])
    csv_text, status = _run(["--experiment", "validate", "--alpha", "3",
                             "--n-min", "4", "--n-max", "4", "--beta", "0.5"])
    assert status == 0
    rows = _rows(csv_text)
    assert [r[6] for r in rows] == ["figure-determinism", "stub"]
    for r in rows:
        assert r[1:6] == ["-"] * 5


def test_config_file_and_flag_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("n-min = 10\nn-max = 12\nbeta = 2.0  # comment\n")
    cfg = cli.build_config(["--experiment", "scan", "--config", str(cfg_file),
                            "--beta", "3.0"])
    assert cfg.n_min == 10 and cfg.n_max == 12
    assert cfg.beta == 3.0   # flag wins over file


def test_config_errors_exit_2(tmp_path):
    assert cli.main(["--experiment", "scan", "--n-min", "8", "--n-max", "4"]) == 2
    assert cli.main(["--experiment", "scan", "--h", "nonsense"]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a key value line\n")
    assert cli.main(["--experiment", "scan", "--config", str(bad)]) == 2
    assert cli.main(["--experiment", "scan", "--config", str(tmp_path / "nope")]) == 2


def test_unknown_config_key_rejected(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("frobnicate = 1\n")
    assert cli.main(["--experiment", "scan", "--config", str(cfg_file)]) == 2


def test_config_file_cannot_set_the_experiment(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("experiment = figure-b\n")
    assert cli.main(["--experiment", "scan", "--config", str(cfg_file)]) == 2
    assert "--experiment" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["scan", "figure-a"])
@pytest.mark.parametrize("n", [512, 1030])
def test_n_max_past_the_closed_forms_range_refused(capsys, experiment, n):
    # (2^N - 1)^2 of the grover closed form overflows a double from N = 512
    assert cli.main(["--experiment", experiment, "--n-min", str(n),
                     "--n-max", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"configuration error: --n-max {n}:")
    assert cli.main(["--experiment", "scan", "--n-min", "511",
                     "--n-max", "511"]) == 0
    value = float(_rows(capsys.readouterr().out)[0][7])
    assert 0.0 < value < 1.0


def test_value_spec_parsing():
    assert cli._parse_spec("1.5", allow_resonance=False) == 1.5
    assert cli._parse_spec("0:2", allow_resonance=False) == (0.0, 2.0)
    assert cli._parse_spec("resonance", allow_resonance=True) == "resonance"
    with pytest.raises(ValueError):
        cli._parse_spec("resonance", allow_resonance=False)
    with pytest.raises(ValueError):
        cli._parse_spec("3:1", allow_resonance=False)


@pytest.mark.parametrize("argv", [
    ["--experiment", "figure-b", "--t", "nan"],
    ["--experiment", "scan", "--t", "nan"],
    ["--experiment", "scan", "--h", "inf"],
    ["--experiment", "figure-a", "--t", "2:inf"],
    ["--experiment", "scan", "--alpha", "nan"],
    ["--experiment", "scan", "--beta", "nan"],
])
def test_non_finite_values_exit_2(argv, capsys):
    assert cli.main(argv + ["--n-min", "4", "--n-max", "4"]) == 2
    assert "finite" in capsys.readouterr().err


def test_sample_without_steps_exits_2(capsys):
    argv = ["--experiment", "sample", "--n-min", "4", "--n-max", "4",
            "--steps", "0"]
    assert cli.main(argv) == 2
    assert "steps" in capsys.readouterr().err


def test_figure_b_exact_row_past_dense_kernel_budget():
    # the block route reads the kernel's table, never its dense matrix
    csv_text, status = _run(["--experiment", "figure-b", "--n-min", "15",
                             "--n-max", "15", "--max-dense-n", "15"])
    assert status == 0
    rows = {r[6]: float(r[7]) for r in _rows(csv_text)}
    assert set(rows) == {"bound", "delta_exact"}
    assert 0.0 < rows["delta_exact"] <= rows["bound"]


def test_sample_past_dense_kernel_budget():
    csv_text, status = _run(["--experiment", "sample", "--mixer", "transverse",
                             "--n-min", "15", "--n-max", "15",
                             "--max-dense-n", "15", "--beta", "1",
                             "--steps", "100"])
    assert status == 0
    rows = _rows(csv_text)
    assert sorted(r[6] for r in rows) == ["tmix"] + ["tv"] * 4
    for r in rows:
        assert r[6] == "tmix" or 0.0 <= float(r[7]) <= 1.0


@pytest.mark.parametrize("argv,setting", [
    (["--experiment", "scan", "--n-min", "4", "--n-max", "7", "--h", "1e300",
      "--t", "1e300"], "--h 1e300"),
    (["--experiment", "sample", "--n-min", "4", "--n-max", "4", "--h",
      "1e300"], "--h 1e300"),
    (["--experiment", "scan", "--n-min", "4", "--n-max", "7", "--t",
      "1e308"], "--t 1e308"),
    (["--experiment", "figure-b", "--n-min", "4", "--n-max", "4", "--beta",
      "1e308"], "--beta 1e+308"),
], ids=["scan-h", "sample-h", "scan-t", "figure-b-beta"])
def test_overflowing_settings_exit_2(argv, setting, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert setting in captured.err and "overflows" in captured.err


@pytest.mark.parametrize("experiment", ["figure-b", "scan", "sample"])
@pytest.mark.parametrize("flag", ["--h", "--t"])
def test_range_where_a_fixed_value_is_expected_exits_2(experiment, flag,
                                                       capsys):
    argv = ["--experiment", experiment, "--n-min", "4", "--n-max", "4",
            "--steps", "10", f"{flag}=0.5:1"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{experiment} expects a fixed {flag[2:]}" in captured.err
    assert "Traceback" not in captured.err


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "scan.csv"
    argv = ["--experiment", "scan", "--n-min", "4", "--n-max", "7",
            "--out", str(out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(out) in captured.err
    assert not out.parent.exists()


def test_h_range_with_a_non_square_sample_count_exits_2(capsys):
    base = ["--experiment", "figure-a", "--h=-1:-0.5", "--n-min", "4",
            "--n-max", "5"]
    assert cli.main(base + ["--avg-samples", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sample count 10 is not a perfect square" in captured.err
    csv_text, status = _run(base + ["--avg-samples", "9"])
    assert status == 0 and len(_rows(csv_text)) == 4


@pytest.mark.parametrize("argv", [
    ["--experiment", "sample", "--h=0:1", "--n-min", "4", "--n-max", "4",
     "--steps", "10"],
    ["--experiment", "figure-a", "--h=-1:-0.5", "--avg-samples", "10",
     "--n-min", "4", "--n-max", "4"],
    ["--experiment", "scan", "--n-min", "4", "--n-max", "7", "--out",
     "{missing}/x.csv"],
], ids=["sample-h-range", "non-square-avg-samples", "unwritable-out"])
def test_entry_point_exits_2_without_traceback(argv, tmp_path):
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "qemcmc.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("alpha", ["-1", "0"])
def test_non_positive_alpha_exits_2(alpha, capsys):
    argv = ["--experiment", "scan", "--alpha", alpha, "--n-min", "4",
            "--n-max", "5"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "alpha must be positive" in captured.err


@pytest.mark.parametrize("experiment,other", [
    ("figure-a", "transverse"),
    ("figure-b", "grover"),
    ("scan", "transverse"),
])
def test_other_mixer_exits_2(experiment, other, tmp_path, capsys):
    base = ["--experiment", experiment, "--n-min", "4", "--n-max", "4"]
    assert cli.main(base + ["--mixer", other]) == 2
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"mixer = {other}\n")
    assert cli.main(base + ["--config", str(cfg_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count(f"not {other!r}") == 2


def test_perfbench_tracer_finds_every_traced_name():
    # perfbench/spans.py wraps names on qemcmc.cli and other modules with
    # getattr; a name dropped from them must fail here, not in a traced run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    before = dict(vars(cli))
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert cli.structured_grover_kernel is not before["structured_grover_kernel"]
    finally:
        tracer.uninstall()
    assert all(vars(cli)[name] is value for name, value in before.items())


@pytest.mark.parametrize("argv", [
    ["--experiment", "figure-b", "--n-min", "4", "--n-max", "5"],
    ["--experiment", "sample", "--mixer", "transverse", "--n-min", "4",
     "--n-max", "4", "--steps", "100"],
], ids=["figure-b", "sample"])
def test_field_time_beyond_double_precision_exits_2(argv, capsys):
    # at |h| t = 1e10 the sector propagators lose the cancellation the table
    # needs, so the kernel certificate fails: a configuration error, no rows
    assert cli.main(argv + ["--h", "1e10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    for part in ("N = 4", "--h 1e10", "--t ", "double-precision"):
        assert part in captured.err
    assert cli.main(argv + ["--h", "1e6"]) == 0


def test_experiments_load_no_scipy():
    # numpy alone serves the experiments; scipy is the dense cross-check's
    code = textwrap.dedent("""
        import sys
        from qemcmc import cli
        for argv in (["--experiment", "figure-a", "--n-min", "4", "--n-max", "6"],
                     ["--experiment", "figure-b", "--n-min", "4", "--n-max", "6"],
                     ["--experiment", "sample", "--mixer", "transverse",
                      "--n-min", "4", "--n-max", "4", "--steps", "200"]):
            csv_text, status = cli.run(cli.build_config(argv))
            assert status == 0 and csv_text.count("\\n") > 1
        print(sorted(m for m in sys.modules
                     if m == "scipy" or m.startswith("scipy.")))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_figure_b_forms_no_proposal_column(monkeypatch, capsys):
    # the bound reads the kernel table's marked column in O(N)
    from qemcmc.proposal import PermutationInvariantKernel, ProposalKernel

    def refuse(*args, **kwargs):
        raise AssertionError("figure-b formed a 2^N object")

    monkeypatch.setattr(PermutationInvariantKernel, "column", refuse)
    monkeypatch.setattr(ProposalKernel, "dense", refuse)
    assert cli.main(["--experiment", "figure-b", "--n-min", "10",
                     "--n-max", "20"]) == 0
    keys = sorted((int(r[1]), r[6]) for r in _rows(capsys.readouterr().out))
    assert keys == sorted([(n, "bound") for n in range(10, 21)]
                          + [(n, "delta_exact") for n in range(10, 13)])


def test_figure_b_bound_matches_sector_expm():
    # independent reference: Pade expm on the (N+1) Dicke states about the
    # marked state, escape sum_{w >= 1} |psi_w|^2, then the cut formula
    import scipy.linalg as sla

    csv_text, status = _run(["--experiment", "figure-b", "--n-min", "10",
                             "--n-max", "24", "--max-dense-n", "0"])
    assert status == 0
    bound = {int(r[1]): float(r[7]) for r in _rows(csv_text)}
    assert set(bound) == set(range(10, 25))
    alpha, beta, h, t = 1.0, 5.0, 1.0, 1.0
    for n, value in bound.items():
        w = np.arange(n)
        hop = h * np.sqrt((w + 1.0) * (n - w))
        ham = np.diag(hop, 1) + np.diag(hop, -1)
        ham[0, 0] = -alpha * n
        psi = sla.expm(-1j * t * ham)[:, 0]
        escape = float(np.sum(np.abs(psi[1:]) ** 2))
        g = 2.0 ** n - 1.0
        ref = escape * (1.0 + np.exp(-n * beta * alpha) * g) / g
        assert value == pytest.approx(ref, rel=1e-12, abs=0.0), n


def test_figure_b_rows_past_n_24(monkeypatch, capsys):
    # bound and exact rows past N = 24 with no note, one kernel and one
    # measure per N, and no 2^N proposal column formed
    from qemcmc.proposal import PermutationInvariantKernel

    built = []

    def recording(fn):
        def wrapper(h_c, *args):
            built.append(h_c.n_spins)
            return fn(h_c, *args)
        return wrapper

    def refuse(*args, **kwargs):
        raise AssertionError("figure-b formed a proposal column")

    monkeypatch.setattr(cli, "quantum_kernel", recording(cli.quantum_kernel))
    monkeypatch.setattr(cli, "gibbs_measure", recording(cli.gibbs_measure))
    monkeypatch.setattr(PermutationInvariantKernel, "column", refuse)
    assert cli.main(["--experiment", "figure-b", "--n-min", "23",
                     "--n-max", "26", "--max-dense-n", "26"]) == 0
    captured = capsys.readouterr()
    keys = sorted((int(r[1]), r[6]) for r in _rows(captured.out))
    assert keys == [(n, q) for n in range(23, 27)
                    for q in ("bound", "delta_exact")]
    assert captured.err == ""
    assert sorted(built) == [23, 23, 24, 24, 25, 25, 26, 26]


def test_figure_b_bound_past_n_24_matches_mpmath():
    # an 80-digit Taylor series of e^{-iHt} on the Dicke states about the
    # marked state (hops h sqrt((w+1)(N-w)), energy -alpha N at w = 0), with
    # no eigensolve, then the cut formula
    import mpmath

    csv_text, status = _run(["--experiment", "figure-b", "--n-min", "32",
                             "--n-max", "48", "--max-dense-n", "0"])
    assert status == 0
    bound = {int(r[1]): float(r[7]) for r in _rows(csv_text)}
    assert set(bound) == set(range(32, 49))
    alpha, beta, h, t = 1, 5, 1, 1
    with mpmath.workdps(80):
        for n in (32, 48):
            hop = [h * mpmath.sqrt((w + 1) * (n - w)) for w in range(n)]
            psi = term = [mpmath.mpc(1)] + [mpmath.mpc(0)] * n
            k = 0
            while max(abs(x) for x in term) > mpmath.mpf(10) ** -75:
                k += 1
                h_term = [-alpha * n * term[0]] + [hop[w] * term[w]
                                                   for w in range(n)]
                for w in range(n):
                    h_term[w] += hop[w] * term[w + 1]
                term = [-1j * t * x / k for x in h_term]
                psi = [a + b for a, b in zip(psi, term)]
            escape = sum(abs(x) ** 2 for x in psi[1:])
            g = mpmath.mpf(2) ** n - 1
            ref = escape * (1 + mpmath.exp(-n * beta * alpha) * g) / g
            assert bound[n] == pytest.approx(float(ref), rel=1e-13, abs=0.0), n


def test_figures_skip_rows_past_the_size_rule(monkeypatch, capsys):
    # with the cap lowered to 2^16 entries, the kernel table refuses N = 32
    # (2 * 33^3 floats) and the block coefficients N = 18 (10 * 19^3); each
    # refused row is skipped with a note, and the run exits 0
    from qemcmc import proposal, spectral

    monkeypatch.setattr(proposal, "_ENTRIES_MAX", 1 << 16)
    spectral._block_coefficients.cache_clear()   # refuse N = 18 if cached
    assert cli.main(["--experiment", "figure-b", "--n-min", "17",
                     "--n-max", "32", "--max-dense-n", "18"]) == 0
    captured = capsys.readouterr()
    keys = sorted((int(r[1]), r[6]) for r in _rows(captured.out))
    assert keys == sorted([(n, "bound") for n in range(17, 32)]
                          + [(17, "delta_exact")])
    assert captured.err.splitlines() == [
        "skipped delta_exact at N=18: block coefficients refused at N = 18: "
        "68590 entries, above the cap of 65536",
        "skipped bound at N=32: kernel table refused at N = 32: "
        "71874 entries, above the cap of 65536"]
    assert cli.main(["--experiment", "figure-a", "--n-min", "17",
                     "--n-max", "18", "--max-dense-n", "18",
                     "--avg-samples", "4"]) == 0
    captured = capsys.readouterr()
    keys = sorted((int(r[1]), r[6]) for r in _rows(captured.out))
    assert keys == [(17, "delta_closed"), (17, "delta_exact"),
                    (18, "delta_closed")]
    assert captured.err.startswith("skipped delta_exact at N=18: "
                                   "block coefficients refused at N = 18:")


def test_figure_a_refuses_its_row_before_the_chain(monkeypatch, capsys):
    # the block coefficients refuse N = 76 before the averaged kernel's
    # chain is assembled
    from qemcmc import spectral

    def unreachable(*args):
        raise AssertionError("class chain assembled")

    monkeypatch.setattr(spectral, "_class_chain", unreachable)
    assert cli.main(["--experiment", "figure-a", "--n-min", "76",
                     "--n-max", "76", "--max-dense-n", "76",
                     "--avg-samples", "4"]) == 0
    captured = capsys.readouterr()
    assert [r[6] for r in _rows(captured.out)] == ["delta_closed"]
    assert captured.err.startswith("skipped delta_exact at N=76: "
                                   "block coefficients refused at N = 76:")


def test_figure_a_builds_no_kernel_for_a_refused_row(monkeypatch, capsys):
    # N = 76..255: the block coefficients refuse the row before the averaged
    # kernel's (N+1)^3 table is built; N = 300: the table's own rule, checked
    # first, names it.  Each note reads as the refusal itself does.
    def unreachable(*args):
        raise AssertionError("averaged kernel built")

    monkeypatch.setattr(cli, "time_averaged_kernel", unreachable)
    assert cli.main(["--experiment", "figure-a", "--n-min", "76",
                     "--n-max", "255", "--max-dense-n", "300",
                     "--avg-samples", "4"]) == 0
    captured = capsys.readouterr()
    assert {r[6] for r in _rows(captured.out)} == {"delta_closed"}
    assert captured.err.splitlines() == [
        f"skipped delta_exact at N={n}: block coefficients refused at N = {n}: "
        f"{(n // 2 + 1) * (n + 1) ** 3} entries, above the cap of 16777216"
        for n in range(76, 256)]
    assert cli.main(["--experiment", "figure-a", "--n-min", "300",
                     "--n-max", "300", "--max-dense-n", "300",
                     "--avg-samples", "4"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "skipped delta_exact at N=300: kernel table refused at N = 300: "
        "27270901 entries, above the cap of 16777216"]


def test_four_value_table_refused_past_the_size_rule(capsys):
    # the (N+1)^3 table of the averaged grover kernel (figure-a) and of the
    # grover kernel (sample) breaks the size rule at N = 256 (257^3 floats):
    # refused before it is allocated, each with a skip note, and the run
    # exits 0
    note = ("kernel table refused at N = 256: 16974593 entries, "
            "above the cap of 16777216")
    assert cli.main(["--experiment", "figure-a", "--n-min", "256",
                     "--n-max", "256", "--max-dense-n", "256",
                     "--avg-samples", "4"]) == 0
    captured = capsys.readouterr()
    assert [r[6] for r in _rows(captured.out)] == ["delta_closed"]
    assert captured.err.splitlines() == [
        f"skipped delta_exact at N=256: {note}"]
    assert cli.main(["--experiment", "sample", "--n-min", "256",
                     "--n-max", "256", "--max-dense-n", "256",
                     "--steps", "10"]) == 0
    captured = capsys.readouterr()
    assert _rows(captured.out) == []
    assert captured.err.splitlines() == [f"skipped tv at N=256: {note}",
                                         f"skipped tmix at N=256: {note}"]


def test_sample_skips_rows_past_the_size_rule(monkeypatch, capsys):
    # with the cap lowered to 2^16 entries the Gibbs vector refuses N = 17
    # and the mixing-time gather N = 11 ((6 * 7)^3 entries): N = 17 loses its
    # tv rows and N = 11..17 their tmix rows, each with a note, and the run
    # exits 0
    from qemcmc import proposal

    monkeypatch.setattr(proposal, "_ENTRIES_MAX", 1 << 16)
    assert cli.main(["--experiment", "sample", "--n-min", "10",
                     "--n-max", "17", "--max-dense-n", "17", "--steps", "100",
                     "--beta", "1"]) == 0
    captured = capsys.readouterr()
    keys = sorted({(int(r[1]), r[6]) for r in _rows(captured.out)})
    assert keys == sorted([(n, "tv") for n in range(10, 17)] + [(10, "tmix")])
    notes = [line.split(":")[0] for line in captured.err.splitlines()]
    assert notes == ([f"skipped tmix at N={n}" for n in range(11, 17)]
                     + ["skipped tv at N=17", "skipped tmix at N=17"])
    assert "Gibbs vector refused at N = 17" in captured.err


def test_sample_skips_a_refused_path(capsys):
    # 2^24 + 1 steps break the size rule of the path: refused before any
    # draw (the 128 MiB path is never allocated), so the tv rows go with a
    # note and the tmix row stays
    import tracemalloc

    tracemalloc.start()
    try:
        assert cli.main(["--experiment", "sample", "--n-min", "6",
                         "--n-max", "6", "--steps", "16777217"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 24
    captured = capsys.readouterr()
    assert [r[6] for r in _rows(captured.out)] == ["tmix"]
    assert captured.err.splitlines() == [
        "skipped tv at N=6: sample path refused at N = 6: 16777217 entries, "
        "above the cap of 16777216"]


def test_sample_skips_a_refused_kernel_table(capsys):
    # the transverse table at N = 203 (2 * 204^3 floats) breaks the size
    # rule, and N past --max-dense-n is not run: each drops both its tv and
    # its tmix row with a note, and the run exits 0
    assert cli.main(["--experiment", "sample", "--mixer", "transverse",
                     "--n-min", "203", "--n-max", "203", "--max-dense-n",
                     "203", "--h", "1", "--t", "1", "--steps", "10"]) == 0
    captured = capsys.readouterr()
    assert _rows(captured.out) == []
    note = ("at N=203: kernel table refused at N = 203: 16979328 entries, "
            "above the cap of 16777216")
    assert captured.err.splitlines() == [f"skipped tv {note}",
                                         f"skipped tmix {note}"]
    assert cli.main(["--experiment", "sample", "--n-min", "4", "--n-max", "5",
                     "--max-dense-n", "4", "--steps", "10"]) == 0
    captured = capsys.readouterr()
    assert {int(r[1]) for r in _rows(captured.out)} == {4}
    assert captured.err.splitlines() == [
        "skipped tv at N=5: dense target limited to N <= 4",
        "skipped tmix at N=5: dense target limited to N <= 4"]
