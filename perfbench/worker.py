"""One round of a workload in a fresh interpreter.

    python3 perfbench/worker.py {setup|run} WORKLOAD SEED [TRACE_FILE]

Imports qemcmc from ``src/`` of the checkout, builds every command line's
config through ``cli.build_config``, and takes the monotonic clock: that is
the end of set-up.  ``setup`` stops there.  ``run`` then calls ``cli.run`` on
each config, timing the calls with wall and process CPU clocks, and reads the
process's peak resident memory.  With a TRACE_FILE the calls run under
:class:`spans.Tracer` and its spans are written there at the end.  The last
stdout line is one JSON object.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from qemcmc import cli  # noqa: E402

import workloads  # noqa: E402


def main(argv):
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    trace_path = argv[3] if len(argv) > 3 else None
    configs = [cli.build_config(args)
               for args in workloads.command_lines(workload, seed)]
    ready = time.monotonic()
    if mode == "setup":
        return {"ready": ready}

    tracer = None
    if trace_path:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    outputs = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for cfg in configs:
        notes = io.StringIO()
        try:
            with contextlib.redirect_stderr(notes):
                csv_text, status = cli.run(cfg)
        except Exception:  # a crash loses this config's rows, not the round
            csv_text, status = "", None
            notes.write(traceback.format_exc())
        outputs.append({"csv": csv_text, "status": status,
                        "stderr": notes.getvalue()})
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    report = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs,
    }
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = spans.layer_metrics(tracer.spans, wall)
        with open(trace_path, "w") as handle:
            json.dump({"workload": workload, "seed": seed, "wall_s": wall,
                       "fields": ["name", "start", "end", "parent", "n", "attrs"],
                       "per_n": spans.per_n_times(tracer.spans),
                       "spans": tracer.spans}, handle)
    return report


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
