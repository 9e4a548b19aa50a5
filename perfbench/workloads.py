"""The benchmark's workloads: the qemcmc command lines each one runs.

One round of a workload is every command line in order, in one fresh
process.  Every round of a run repeats the same command lines, so a run's
operations are whole rounds of the same CSV rows.
"""

from __future__ import annotations

WORKLOADS = ("figure-b", "figure-a", "sample")
STEPS = 20000
TV_CHECKPOINTS = tuple(STEPS * k // 4 for k in range(1, 5))

# a round repeats at least this often in a run; sample compares two rounds
MIN_ROUNDS = {"figure-b": 1, "figure-a": 1, "sample": 2}


def command_lines(workload: str, seed: int) -> list[list[str]]:
    """qemcmc arguments of one round.

    figure-a and figure-b compute no random quantity; the seed reaches them
    only as the CSV seed column.  The sample chains run at seed 0 whatever
    the seed: a tv row whose checkpoint comes before the chain first reaches
    the marked state can round above 1, and whether one does depends on the
    chain's seed, so only a fixed seed keeps the failed share of every run the
    same.
    """
    if workload in ("figure-a", "figure-b"):
        return [["--experiment", workload, "--n-min", "10", "--n-max", "20",
                 "--seed", str(seed)]]
    if workload == "sample":
        return [["--experiment", "sample", "--n-min", "6", "--n-max", "12",
                 "--steps", str(STEPS), "--seed", "0"],
                ["--experiment", "sample", "--mixer", "transverse",
                 "--n-min", "6", "--n-max", "10", "--steps", str(STEPS),
                 "--seed", "0"]]
    raise ValueError(f"unknown workload {workload!r}")


def expected_rows(workload: str) -> list[list[tuple]]:
    """Per command line, the key (quantity, N, checkpoint or None) of every
    row it must emit: one operation each."""
    if workload == "figure-b":
        return [[("bound", n, None) for n in range(10, 21)]
                + [("delta_exact", n, None) for n in range(10, 13)]]
    if workload == "figure-a":
        return [[("delta_closed", n, None) for n in range(10, 21)]
                + [("delta_exact", n, None) for n in range(10, 13)]]
    return [[(quantity, n, step) for n in range(6, n_max + 1)
             for quantity, step in [("tv", s) for s in TV_CHECKPOINTS]
             + [("tmix", None)]]
            for n_max in (12, 10)]
