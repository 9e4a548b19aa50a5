"""Benchmark of the qemcmc experiments, end to end and per layer.

    python3 perfbench/run.py --workload {figure-b,figure-a,sample} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each round of the workload runs in a fresh
interpreter (``worker.py``), one at a time, so that set-up and peak memory
are the workload's own; rounds repeat until S seconds have passed.  Set-up is
also timed in a few interpreters that stop at the first experiment call.
The CSV of every round is then checked (``checks.py``).  With ``--trace 0``
the result holds the end-to-end metrics, medians over the run; with
``--trace 1`` the per-layer metrics of ``spans.py``, lower medians over the
traced rounds.  The last stdout line is the JSON result; a copy with every
round's figures goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 5
ROUND_TIMEOUT_S = 150.0
# no round starts once this much of the 180 s a run may take has gone
ROUND_START_LIMIT_S = 110.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _worker(mode, workload, seed, trace_path=None):
    """Run worker.py; return (its JSON report or None, set-up seconds, stderr)."""
    argv = [sys.executable, WORKER, mode, workload, str(seed)]
    if trace_path:
        argv.append(trace_path)
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, None, f"worker timed out after {ROUND_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, None, proc.stderr[-2000:]
    report = json.loads(lines[-1])
    return report, report["ready"] - start, proc.stderr


def _units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qemcmc", "cli.py")):
        print(f"no qemcmc sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    rounds, setups, crashes = [], [], []
    start = time.monotonic()
    while (len(rounds) < workloads.MIN_ROUNDS[args.workload]
           or time.monotonic() - start < args.seconds):
        trace_path = (os.path.join(OUT, f"trace-{tag}-r{len(rounds)}.json")
                      if args.trace else None)
        report, setup, stderr = _worker("run", args.workload, args.seed, trace_path)
        if report is None:
            crashes.append(stderr)
            break
        rounds.append(report)
        setups.append(setup)
        if time.monotonic() - start > ROUND_START_LIMIT_S:
            break
    for _ in range(SETUP_PROBES):
        report, setup, stderr = _worker("setup", args.workload, args.seed)
        if report is None:
            crashes.append(stderr)
            break
        setups.append(setup)

    import checks  # numpy and scipy load only after the timed processes
    checker = checks.Checker(args.workload)
    outputs = [r["outputs"] for r in rounds] or [[]]
    attempted, failed, correct, messages = checker.check_run(outputs)
    if crashes:
        correct = False
        messages.extend(f"worker failed: {text.strip()[-500:]}" for text in crashes)
    if not rounds:
        print("\n".join(messages), file=sys.stderr)
        return 1

    if args.trace:
        units = _units()
        # the lower median is a measured value, so counts stay whole numbers
        metrics = {name: {"value": statistics.median_low(r["layers"][name] for r in rounds),
                          "unit": unit}
                   for name, unit in units.items()}
    else:
        values = {"setup_s": setups,
                  **{k: [r[k] for r in rounds] for k in ("wall_s", "cpu_s", "peak_rss_mb")}}
        metrics = {name: {"value": statistics.median(values[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    blas = {k: os.environ.get(k) for k in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as handle:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "nproc": os.cpu_count(), "blas_env": blas,
                   "setups": setups, "messages": messages,
                   "rounds": [{k: v for k, v in r.items() if k != "outputs"}
                              for r in rounds]}, handle, indent=1)
    print(f"workload {args.workload}: seed {args.seed}, {len(rounds)} rounds, "
          f"{len(setups)} set-ups, nproc {os.cpu_count()}, BLAS env {blas}")
    for message in messages:
        print("  " + message)
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  operations: {attempted} attempted, {failed} failed; "
          f"correct: {str(correct).lower()}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
