"""Checks of a workload's CSV output against :mod:`reference` values and
against properties the method must have.

One operation is one expected CSV row.  A row that is missing (skipped with
a note on stderr, or lost to a crash) or fails its check is a failed
operation.  Anything else wrong with a round (an unexpected or repeated row,
rounds of one seed that differ, a fit that breaks the paper's claim) makes
the run incorrect.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref
import workloads

HEADER = "experiment,N,alpha,beta,h,t,quantity,value,method,seed"
ALPHA, BETA = 1.0, 5.0
EPSILON = 0.01

# tolerances, set from the agreement of the reference routes with each other
# and with the program, far inside which a correct row lands (see README)
BOUND_RTOL = 1e-10           # Krylov column vs expm_multiply / symmetric sector
SPARSE_MAX_N = 16            # expm_multiply costs 1.4 s at N = 17, 18 s at 20
DENSE_GAP_ATOL = 1e-12       # figure-b delta_exact at N = 10 vs eigvalsh
PAIR_ATOL = 1e-12            # exact gap <= bound
MIN_SLOPE = -1.2             # log2 bound slope: no quadratic speedup
CLOSED_RTOL = 1e-10          # figure-a delta_closed vs 2x2 expm average
EXACT_RTOL = 1e-6            # figure-a delta_exact vs 2x2 expm average
POWERING_MAX_N = 8           # sample tmix compared with dense powering
TAIL_FACTOR = 6              # sample last-tv bound: 6 t_mix / steps + pi(not k)
FIGURE_A_TIMES = np.linspace(2.0, 20.0, 64)
SAMPLE_T = 0.3

# the one failure this benchmark keeps: chain.total_variation rounds above 1
# when the chain has not reached the marked state (grover, N = 8, step 5000)
KNOWN_FAULTS = {(0, ("tv", 8, 5000))}


def parse(csv_text: str):
    """{key: row fields} of a CSV, and a list of problems with its shape."""
    lines = csv_text.split("\n")
    if not csv_text or lines[0] != HEADER or lines[-1] != "":
        return {}, ["CSV header or line ending missing"]
    rows, problems = {}, []
    for line in lines[1:-1]:
        fields = line.split(",")
        if len(fields) != 10:
            problems.append(f"malformed row {line!r}")
            continue
        quantity = fields[6]
        try:
            key = (quantity, int(fields[1]),
                   int(fields[5]) if quantity == "tv" else None)
        except ValueError:
            problems.append(f"malformed row {line!r}")
            continue
        if key in rows:
            problems.append(f"repeated row {key}")
        rows[key] = fields
    return rows, problems


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


class Checker:
    """Checks one workload's rounds; reference values are computed once and
    reused for every round of the run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.expected = workloads.expected_rows(workload)
        self._cache = {}

    def _memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    # -- per-row checks: return None when the row passes, else the reason

    def _figure_b(self, key, value, rows):
        quantity, n, _ = key
        bound = self._memo(("dicke", n), lambda: ref.marked_state_bound(
            ref.transverse_marked_escape(n, ALPHA, 1.0, 1.0), n, ALPHA, BETA))
        if quantity == "bound":
            if _rel(value, bound) > BOUND_RTOL:
                return f"bound {value!r} vs symmetric-sector {bound!r}"
            if n <= SPARSE_MAX_N:
                sparse = self._memo(("sparse", n), lambda: ref.marked_state_bound(
                    ref.transverse_marked_column(n, ALPHA, 1.0, 1.0)[1:].sum(),
                    n, ALPHA, BETA))
                if _rel(value, sparse) > BOUND_RTOL:
                    return f"bound {value!r} vs expm_multiply {sparse!r}"
            return None
        paired = rows.get(("bound", n, None))
        if paired is None or not 0.0 < value <= _number(paired[7]) + PAIR_ATOL:
            return f"exact gap {value!r} not in (0, bound]"
        if n == 10:
            gap = self._memo(("dense", n), lambda: ref.absolute_gap(
                ref.transverse_kernel(n, ALPHA, 1.0, 1.0), n, ALPHA, BETA))
            if abs(value - gap) > DENSE_GAP_ATOL:
                return f"exact gap {value!r} vs expm/eigvalsh {gap!r}"
        return None

    def _figure_a(self, key, value, rows):
        quantity, n, _ = key
        h = ref.resonance_field(ALPHA, n)
        gap = self._memo(("grover-avg", n), lambda: ref.grover_averaged_gap(
            n, ALPHA, BETA, h, FIGURE_A_TIMES))
        if not _rel(_number(rows[key][4]), h) <= 1e-14:
            return f"h {rows[key][4]} is not the resonance field {h!r}"
        tol = CLOSED_RTOL if quantity == "delta_closed" else EXACT_RTOL
        if _rel(value, gap) > tol:
            return f"{quantity} {value!r} vs 2x2 expm average {gap!r}"
        return None

    def _sample_reference(self, mixer: int, n: int):
        """(t_mix by powering or None, sandwich, pi(not k), exit rate of k)."""
        h = ref.resonance_field(ALPHA, n)
        if mixer == 0:
            q_m, q_u = ref.grover_block(n, ALPHA, h, SAMPLE_T)
            gap = ref.gap_from_blocks(*ref.grover_block_gaps(n, ALPHA, BETA, q_m, q_u))
            q = ref.grover_kernel(n, q_m, q_u) if n <= POWERING_MAX_N else None
        else:
            q = ref.transverse_kernel(n, ALPHA, h, SAMPLE_T)
            gap = ref.absolute_gap(q, n, ALPHA, BETA)
        log_k, log_x = ref.log_pi(n, ALPHA, BETA)
        t_mix = exit_rate = None
        if q is not None and n <= POWERING_MAX_N:
            p = ref.metropolis(q, n, ALPHA, BETA)
            t_mix = ref.mixing_time(p, ref.stationary(n, ALPHA, BETA), EPSILON)
            exit_rate = 1.0 - p[0, 0]
        return (t_mix, ref.relaxation_sandwich(gap, log_x, EPSILON),
                -math.expm1(log_k), exit_rate)

    def _sample(self, mixer, key, value):
        quantity, n, step = key
        t_mix, (lower, upper), pi_rest, exit_rate = self._memo(
            ("sample", mixer, n), lambda: self._sample_reference(mixer, n))
        if quantity == "tv":
            if not 0.0 <= value <= 1.0:
                return f"total variation {value!r} outside [0, 1]"
            steps = workloads.STEPS
            if (step == steps and t_mix is not None and steps >= 10 * t_mix
                    and steps * exit_rate < 1e-6):
                limit = TAIL_FACTOR * t_mix / steps + pi_rest
                if value > limit:
                    return f"last total variation {value!r} above {limit!r}"
            return None
        if not lower <= value <= upper:
            return f"t_mix {value} outside relaxation sandwich [{lower:.1f}, {upper:.1f}]"
        if t_mix is not None and int(value) != t_mix:
            return f"t_mix {value} vs dense powering {t_mix}"
        return None

    def check_row(self, index, key, rows):
        value = _number(rows[key][7])
        if not math.isfinite(value):
            return f"value {rows[key][7]!r} is not a finite number"
        if self.workload == "figure-b":
            return self._figure_b(key, value, rows)
        if self.workload == "figure-a":
            return self._figure_a(key, value, rows)
        return self._sample(index, key, value)

    # -- a whole run

    def check_run(self, rounds):
        """Check every round (a list of per-command outputs).

        Returns (attempted, failed, correct, messages)."""
        attempted = failed = 0
        correct = True
        messages = []
        for r, outputs in enumerate(rounds):
            for index, expected in enumerate(self.expected):
                output = outputs[index] if index < len(outputs) else {}
                rows, problems = parse(output.get("csv", ""))
                if problems or set(rows) - set(expected):
                    correct = False
                    extra = sorted(map(str, set(rows) - set(expected)))
                    messages.append(f"round {r} command {index}: {problems} unexpected {extra}")
                for key in expected:
                    attempted += 1
                    reason = ("missing: " + output.get("stderr", "").strip()[-200:]
                              if key not in rows else self.check_row(index, key, rows))
                    if reason is None:
                        continue
                    failed += 1
                    if (index, key) not in KNOWN_FAULTS:
                        correct = False
                    if r == 0:
                        messages.append(f"command {index} row {key}: {reason}")
            if outputs != rounds[0]:
                correct = False
                messages.append(f"round {r} output differs from round 0 at the same seed")
        if self.workload == "figure-b":
            rows, _ = parse(rounds[0][0].get("csv", "") if rounds[0] else "")
            points = [(n, _number(fields[7])) for (quantity, n, _), fields
                      in sorted(rows.items()) if quantity == "bound"]
            points = [(n, math.log2(v)) for n, v in points if v > 0]
            if len(points) < 4:
                correct = False
                messages.append("fewer than 4 positive bound rows for the slope check")
            else:
                slope = float(np.polyfit(*zip(*points), 1)[0])
                if slope < MIN_SLOPE:
                    correct = False
                    messages.append(f"log2 bound slope {slope:.4f} below {MIN_SLOPE}")
        return attempted, failed, correct, messages
