import ast
import importlib.util
import math
import os
import re
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


@pytest.mark.parametrize("alpha, beta, h, t", [
    ("1", "5", "resonance", "0.3"), ("0.4", "0.5", "resonance", "2.5"),
    ("2.3", "1", "0.7", "1.3"), ("1", "5", "-1.5", "0.01")])
def test_scan_rows_are_the_closed_form_at_each_n(alpha, beta, h, t):
    # the one pass over N = 1..511 writes, at every N, the gap that
    # grover_gap_closed_form gives at that N alone, to the bit
    from qemcmc.quantum import resonance_field
    from qemcmc.spectral import grover_gap_closed_form

    csv_text, _ = _run(["--experiment", "scan", "--n-min", "1", "--n-max",
                        "511", "--alpha", alpha, "--beta", beta, "--h", h,
                        "--t", t])
    rows = [r for r in _rows(csv_text) if r[6] == "delta_closed"]
    assert sorted(int(r[1]) for r in rows) == list(range(1, 512))
    for r in rows:
        n = int(r[1])
        field = (resonance_field(float(alpha), n) if h == "resonance"
                 else float(h))
        assert r[7] == "%.17g" % grover_gap_closed_form(
            n, float(alpha), float(beta), field, float(t)), r


def test_scan_from_one_spin_exits_0(capsys):
    # at N = 1 the grover gap is the two-level block's: positive, so the
    # scaling fit takes the row
    assert cli.main(["--experiment", "scan", "--n-min", "1", "--n-max", "6",
                     "--h", "0.9", "--t", "2.5"]) == 0
    captured = capsys.readouterr()
    rows = _rows(captured.out)
    gaps = {r[1]: float(r[7]) for r in rows if r[6] == "delta_closed"}
    assert gaps["1"] == pytest.approx(0.4450, abs=1e-4)
    assert [r[6] for r in rows].count("slope") == 1
    assert captured.err == ""


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


def test_figure_b_rows_near_t_zero():
    # at t = 0, Q = I and every row is exactly 0, with no propagator
    # rounding left in it; at t = 1e-20 the escape is N h^2 t^2 to leading
    # order, so the bound is N h^2 t^2 (1 + e^{-beta alpha N} g) / g with
    # g = 2^N - 1, and the exact gap stays below it
    csv_text, status = _run(["--experiment", "figure-b", "--n-min", "1",
                             "--n-max", "12", "--t", "0"])
    assert status == 0
    rows = _rows(csv_text)
    assert len(rows) == 24
    assert all(float(r[7]) == 0.0 for r in rows)
    csv_text, status = _run(["--experiment", "figure-b", "--n-min", "1",
                             "--n-max", "12", "--t", "1e-20"])
    assert status == 0
    rows = _rows(csv_text)
    bound = {int(r[1]): float(r[7]) for r in rows if r[6] == "bound"}
    exact = {int(r[1]): float(r[7]) for r in rows if r[6] == "delta_exact"}
    alpha, beta, h, t = 1.0, 5.0, 1.0, 1e-20
    for n in range(2, 13):
        g = 2.0 ** n - 1.0
        ref = n * h * h * t * t * (1.0 + math.exp(-beta * alpha * n) * g) / g
        assert bound[n] == pytest.approx(ref, rel=1e-12, abs=0.0), n
        assert exact[n] <= bound[n], n


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
    from qemcmc.quantum import MixerSpec, quantum_kernel_dense, resonance_field
    from test_chain import _dense_mixing_time

    csv_text, _ = _run(["--experiment", "sample", "--mixer", mixer,
                        "--n-min", "4", "--n-max", "8", "--beta", "1",
                        "--steps", "10"])
    tmix = {int(r[1]): int(r[7]) for r in _rows(csv_text) if r[6] == "tmix"}
    assert set(tmix) == set(range(4, 9))
    for n, value in tmix.items():
        h_c = MarkedStateHamiltonian(n, 1.0)
        kern = quantum_kernel_dense(
            h_c, MixerSpec(mixer, resonance_field(1.0, n)), 0.3)
        p = build_transition_matrix(kern, gibbs_measure(h_c, 1.0))
        assert value == _dense_mixing_time(p, 0.01), n


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


@pytest.mark.parametrize("experiment", ["sample", "figure-a", "figure-b"])
def test_negative_max_dense_n_exits_2(capsys, experiment):
    # a negative cap would drop every exact, tv and tmix row; 0 is valid and
    # leaves figure-b its bound rows only
    argv = ["--experiment", experiment, "--n-min", "4", "--n-max", "4"]
    assert cli.main(argv + ["--max-dense-n", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: max-dense-n must be "
                                   ">= 0, not -5")
    if experiment == "figure-b":
        assert cli.main(argv + ["--max-dense-n", "0"]) == 0
        quantities = [r[6] for r in _rows(capsys.readouterr().out)]
        assert quantities == ["bound"]


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


def test_negative_range_needs_its_flag_joined(capsys):
    # argparse reads "-2:0.5" after a space as a flag, not as --h's value
    base = ["--experiment", "figure-a", "--n-min", "4", "--n-max", "4",
            "--avg-samples", "4"]
    assert cli.main(base + ["--h", "-2:0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --h: expected one argument" in captured.err
    csv_text, status = _run(base + ["--h=-2:0.5"])
    assert status == 0 and len(_rows(csv_text)) == 2


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


def test_cli_imports_only_public_names():
    # cli runs the library through its public names; a private helper it
    # needs is a sign that the helper's check belongs inside the library
    path = Path(cli.__file__)
    tree = ast.parse(path.read_text())
    private = [f"{node.module}.{alias.name}"
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


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


@pytest.fixture(scope="module")
def experiment_modules():
    """The modules a fresh interpreter holds after figure-a, figure-b and a
    transverse sample."""
    code = textwrap.dedent("""
        import sys
        from qemcmc import cli
        for argv in (["--experiment", "figure-a", "--n-min", "4", "--n-max", "6"],
                     ["--experiment", "figure-b", "--n-min", "4", "--n-max", "6"],
                     ["--experiment", "sample", "--mixer", "transverse",
                      "--n-min", "4", "--n-max", "4", "--steps", "200"]):
            csv_text, status = cli.run(cli.build_config(argv))
            assert status == 0 and csv_text.count("\\n") > 1
        print(*sorted(sys.modules), sep="\\n")
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_experiments_load_no_scipy(experiment_modules):
    # numpy alone serves the experiments; scipy is the dense cross-check's,
    # and the validate checks are loaded by validate alone
    assert "qemcmc.validation" not in experiment_modules
    assert [m for m in experiment_modules
            if m == "scipy" or m.startswith("scipy.")] == []


def test_experiments_load_no_numpy_random(experiment_modules):
    # the sampled chain draws from the standard library's stream; only
    # validate's Philox draws need numpy.random
    assert [m for m in experiment_modules
            if m == "numpy.random" or m.startswith("numpy.random.")] == []


def test_figure_b_forms_no_proposal_column(monkeypatch, capsys):
    # the bound reads the sector's marked column in O(N)
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
    # with the cap lowered to 2^16 entries, the symmetry-block route's six
    # (N+1)^3 arrays refuse N = 22 (6 * 23^3 floats) and the four-value
    # table N = 40 (41^3): each refused exact-gap row is skipped with a
    # note, every bound row stays (it needs no table), and the run exits 0.
    # figure-b checks the route's rule before it builds its transverse
    # table, so no refused row builds one (at N = 32 the table's own rule,
    # 2 * 33^3 floats, would refuse it too)
    from qemcmc import proposal

    monkeypatch.setattr(proposal, "_ENTRIES_MAX", 1 << 16)
    built, build = [], cli.quantum_kernel

    def recorded(h_c, *args):
        built.append(h_c.n_spins)
        return build(h_c, *args)

    monkeypatch.setattr(cli, "quantum_kernel", recorded)
    route = ("skipped delta_exact at N={n}: symmetry-block route refused at "
             "N = {n}: {entries} entries, above the cap of 65536")
    for lo, hi in ((21, 22), (32, 32)):
        assert cli.main(["--experiment", "figure-b", "--n-min", str(lo),
                         "--n-max", str(hi), "--max-dense-n", str(hi)]) == 0
        captured = capsys.readouterr()
        keys = sorted((int(r[1]), r[6]) for r in _rows(captured.out))
        exact = [(21, "delta_exact")] if lo == 21 else []
        assert keys == sorted([(n, "bound") for n in range(lo, hi + 1)]
                              + exact)
        assert captured.err.splitlines() == [
            route.format(n=hi, entries=6 * (hi + 1) ** 3)]
    assert built == [21]
    route = route.format(n=22, entries=73002)
    for lo, hi, note in (
            (21, 22, route),
            (40, 40, "skipped delta_exact at N=40: kernel table refused at "
                     "N = 40: 68921 entries, above the cap of 65536")):
        assert cli.main(["--experiment", "figure-a", "--n-min", str(lo),
                         "--n-max", str(hi), "--max-dense-n", str(hi),
                         "--avg-samples", "4"]) == 0
        captured = capsys.readouterr()
        keys = sorted((int(r[1]), r[6]) for r in _rows(captured.out))
        exact = [(21, "delta_exact")] if lo == 21 else []
        assert keys == sorted([(n, "delta_closed") for n in range(lo, hi + 1)]
                              + exact)
        assert captured.err.splitlines() == [note]


def test_figure_a_refuses_its_row_before_the_chain(monkeypatch, capsys):
    # with the cap lowered to 2^16 entries, the averaged kernel's table
    # refuses N = 40 as the kernel is built, and the symmetry-block route
    # N = 22 as the gap starts: both before the chain is assembled
    from qemcmc import proposal, spectral

    def unreachable(*args):
        raise AssertionError("class chain assembled")

    monkeypatch.setattr(proposal, "_ENTRIES_MAX", 1 << 16)
    monkeypatch.setattr(spectral, "class_chain", unreachable)
    for n, what in ((40, "kernel table"), (22, "symmetry-block route")):
        assert cli.main(["--experiment", "figure-a", "--n-min", str(n),
                         "--n-max", str(n), "--max-dense-n", str(n),
                         "--avg-samples", "4"]) == 0
        captured = capsys.readouterr()
        assert [r[6] for r in _rows(captured.out)] == ["delta_closed"]
        assert captured.err.startswith(f"skipped delta_exact at N={n}: "
                                       f"{what} refused at N = {n}:")


def test_figure_a_builds_no_kernel_for_a_refused_row(monkeypatch, capsys):
    # with the cap lowered to 2^16 entries: N = 21 builds its averaged
    # kernel and fills its table; N = 22 builds the kernel, but the
    # symmetry-block route refuses it before the table is filled; the
    # table's rule, checked as the kernel is built, refuses N = 40 and 41
    # before any table exists; each note reads as the refusal itself does
    import tracemalloc

    from qemcmc import proposal

    built, peaks = [], []
    build = cli.time_averaged_kernel

    def recorded(h_c, scheme):
        if h_c.n_spins >= 40:
            tracemalloc.start()
            try:
                return build(h_c, scheme)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        built.append(build(h_c, scheme))
        return built[-1]

    monkeypatch.setattr(proposal, "_ENTRIES_MAX", 1 << 16)
    monkeypatch.setattr(cli, "time_averaged_kernel", recorded)
    notes = []
    for lo, hi in ((21, 22), (40, 41)):
        assert cli.main(["--experiment", "figure-a", "--n-min", str(lo),
                         "--n-max", str(hi), "--max-dense-n", str(hi),
                         "--avg-samples", "4"]) == 0
        captured = capsys.readouterr()
        keys = sorted((int(r[1]), r[6]) for r in _rows(captured.out))
        exact = [(21, "delta_exact")] if lo == 21 else []
        assert keys == sorted([(n, "delta_closed") for n in range(lo, hi + 1)]
                              + exact)
        notes += captured.err.splitlines()
    assert notes == [
        "skipped delta_exact at N=22: symmetry-block route refused at "
        "N = 22: 73002 entries, above the cap of 65536"] + [
        f"skipped delta_exact at N={n}: kernel table refused at N = {n}: "
        f"{(n + 1) ** 3} entries, above the cap of 65536"
        for n in (40, 41)]
    assert [kern.n_spins for kern in built] == [21, 22]
    assert built[0]._table is not None and built[1]._table is None
    # a 41^3 table is 551 KB: the refused rows allocate none
    assert len(peaks) == 2 and max(peaks) < 1 << 17


def test_figure_a_refuses_an_averaging_grid_past_the_size_rule(monkeypatch,
                                                               capsys):
    # with the cap lowered to 2^16 entries: the rule counts the pass's 23
    # arrays of the (N, sample) grid, so two N of 1424 samples keep within
    # the cap and run; one more sample is refused before the grid is formed,
    # and the run exits 2 naming the setting
    from qemcmc import proposal

    def unreachable(*args):
        raise AssertionError("averaging grid formed")

    monkeypatch.setattr(proposal, "_ENTRIES_MAX", 1 << 16)
    base = ["--experiment", "figure-a", "--n-min", "10", "--n-max", "11",
            "--max-dense-n", "0"]
    csv_text, status = _run(base + ["--avg-samples", "1424"])
    assert status == 0 and len(_rows(csv_text)) == 2
    monkeypatch.setattr(cli.AveragingScheme, "grid", unreachable)
    assert cli.main(base + ["--avg-samples", "1425"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "configuration error: --avg-samples 1425: averaging grid refused at "
        "N = 11: 65550 entries, above the cap of 65536\n")


def test_exact_rows_past_n_75_are_emitted_when_precise(capsys):
    # exact rows past the old N = 75 rule are emitted while the gap keeps
    # half its digits: figure-a at N = 76 matches its closed form, and
    # figure-b at N = 100 and beta = 0.5 stays under its bound.  Where the
    # gap's rounding estimate exceeds sqrt(eps) of it (figure-b at beta = 5
    # from about N = 71, figure-a from about N = 96) the row is skipped with
    # a note; at N = 100 and 125 the values were off by x19 and x1.95.  The
    # block route's six (N+1)^3 arrays refuse N = 140 before the averaged
    # table is filled or the transverse one built.  Bound rows run past the transverse table's N = 202:
    # a bound row builds no table (at N = 203 one would take 135 MB).
    import tracemalloc

    assert cli.main(["--experiment", "figure-a", "--n-min", "76",
                     "--n-max", "76", "--max-dense-n", "76",
                     "--avg-samples", "4"]) == 0
    captured = capsys.readouterr()
    rows = {r[6]: float(r[7]) for r in _rows(captured.out)}
    assert captured.err == ""
    assert rows["delta_exact"] == pytest.approx(rows["delta_closed"],
                                                rel=1e-12, abs=0.0)
    assert cli.main(["--experiment", "figure-b", "--n-min", "100",
                     "--n-max", "100", "--max-dense-n", "100",
                     "--beta", "0.5"]) == 0
    captured = capsys.readouterr()
    rows = {r[6]: float(r[7]) for r in _rows(captured.out)}
    assert captured.err == ""
    assert 0.0 < rows["delta_exact"] <= rows["bound"]
    for experiment, n in (("figure-b", 76), ("figure-b", 100),
                          ("figure-a", 125)):
        assert cli.main(["--experiment", experiment, "--n-min", str(n),
                         "--n-max", str(n), "--max-dense-n", str(n),
                         "--avg-samples", "4"]) == 0
        captured = capsys.readouterr()
        assert [r[6] for r in _rows(captured.out)] == [
            "bound" if experiment == "figure-b" else "delta_closed"]
        assert re.fullmatch(
            f"skipped delta_exact at N={n}: gap \\S+ has a rounding-error "
            "estimate of \\S+, above 1.5e-08 of it\n", captured.err)
    for experiment in ("figure-a", "figure-b"):
        assert cli.main(["--experiment", experiment, "--n-min", "140",
                         "--n-max", "140", "--max-dense-n", "140",
                         "--avg-samples", "4"]) == 0
        assert capsys.readouterr().err == (
            "skipped delta_exact at N=140: symmetry-block route refused at "
            "N = 140: 16819326 entries, above the cap of 16777216\n")
    tracemalloc.start()
    try:
        assert cli.main(["--experiment", "figure-b", "--n-min", "203",
                         "--n-max", "203", "--max-dense-n", "0"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 24
    first = capsys.readouterr()
    assert cli.main(["--experiment", "figure-b", "--n-min", "511",
                     "--n-max", "511", "--max-dense-n", "0"]) == 0
    for n, captured in ((203, first), (511, capsys.readouterr())):
        assert captured.err == ""
        (row,) = _rows(captured.out)
        assert (int(row[1]), row[6]) == (n, "bound")
        assert 0.0 < float(row[7]) < 1.0


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
    # and the symmetry-block routes N = 22 (6 * 23^3 entries): N = 17..22
    # lose their tv rows and N = 22 its tmix row, each with a note, the
    # transverse chain at beta 0 keeps its tmix rows past the tv rows, and
    # the run exits 0
    from qemcmc import proposal

    monkeypatch.setattr(proposal, "_ENTRIES_MAX", 1 << 16)
    assert cli.main(["--experiment", "sample", "--mixer", "transverse",
                     "--h", "1", "--t", "1", "--n-min", "16", "--n-max", "22",
                     "--max-dense-n", "22", "--steps", "100",
                     "--beta", "0"]) == 0
    captured = capsys.readouterr()
    keys = sorted({(int(r[1]), r[6]) for r in _rows(captured.out)})
    assert keys == sorted([(16, "tv")] + [(n, "tmix") for n in range(16, 22)])
    notes = [line.split(":")[0] for line in captured.err.splitlines()]
    assert notes == ([f"skipped tv at N={n}" for n in range(17, 23)]
                     + ["skipped tmix at N=22"])
    assert "Gibbs vector refused at N = 17" in captured.err
    assert "symmetry-block route refused at N = 22" in captured.err


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
