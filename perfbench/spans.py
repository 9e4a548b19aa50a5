"""Spans around the calls into qemcmc's public functions, kept in memory.

A :class:`Tracer` replaces each traced name with a wrapper that records one
span per call: name, start, end, parent span and the spin count N.  The
wrappers sit at module attributes, so they catch the calls that ``cli`` makes
through the names it imports and the calls that library modules make through
their own globals.  :func:`layer_metrics` turns the spans of one run into the
per-layer metrics: each span's self time (its duration minus its child spans)
goes to the metric of its layer, and ``cli.self_s`` is the traced wall time
no span covers, so the time metrics add up to the traced wall time.

Run ``python3 perfbench/spans.py TRACE.json`` to print a trace file's
per-N table.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# span name -> metric that receives its self time; names missing here pass
# their self time to the nearest ancestor that has one
TIME_METRIC = {
    "quantum_kernel": "quantum.kernel_s",
    "structured_grover_kernel": "quantum.kernel_s",
    "resonance_field": "quantum.kernel_s",
    "quantum_proposal_column": "quantum.column_s",
    "ProposalKernel.dense": "proposal.dense_s",
    "validate_kernel": "proposal.validate_s",
    "build_transition_matrix": "chain.transition_s",
    "make_chain": "chain.sample_s",
    "sample_chain": "chain.sample_s",
    "total_variation": "chain.tv_s",
    "exact_mixing_time": "chain.mixing_s",
    "spectral_gap_dense": "spectral.gap_dense_s",
    "time_averaged_kernel": "spectral.averaged_kernel_s",
    "averaged_grover_gap": "spectral.closed_form_s",
    "grover_gap_closed_form": "spectral.closed_form_s",
    "scaling_fit": "spectral.closed_form_s",
    "gibbs_measure": "model.gibbs_s",
    "marked_state_bound": "bottleneck.bound_s",
}
SELF_METRIC = "cli.self_s"
TIME_METRICS = sorted(set(TIME_METRIC.values())) + [SELF_METRIC]

# span name -> count metric incremented once per call
CALL_COUNT = {
    "quantum_kernel": "quantum.kernel_calls",
    "structured_grover_kernel": "quantum.kernel_calls",
    "dense_hamiltonian": "quantum.dense_diag",
    "apply_hamiltonian": "quantum.matvecs",
    "build_transition_matrix": "chain.transition_calls",
    "exact_mixing_time": "chain.mixing_calls",
    "spectral_gap_dense": "spectral.gap_dense_calls",
}
# span name -> (span attribute, metric summing that attribute)
ATTR_SUM = {
    "quantum_kernel": ("bytes", "quantum.kernel_bytes"),
    "ProposalKernel.dense": ("bytes", "proposal.dense_bytes"),
    "sample_chain": ("steps", "chain.steps"),
}
METRICS = sorted(set(TIME_METRICS) | set(CALL_COUNT.values())
                 | {metric for _, metric in ATTR_SUM.values()}
                 | {"spectral.gap_dense_dim", "chain.step_us"})

NAME, START, END, PARENT, N, ATTRS = range(6)


def _spin_count(args):
    """N of a call: the first argument that carries ``n_spins``, is a
    2^N-long vector, or is an int."""
    for arg in args:
        n = getattr(arg, "n_spins", None)
        if isinstance(n, int):
            return n
        shape = getattr(arg, "shape", None)
        if shape is not None and len(shape) == 1 and shape[0] > 0:
            return int(shape[0]).bit_length() - 1
        if isinstance(arg, int) and not isinstance(arg, bool):
            return arg
    return None


class Tracer:
    """Records spans as lists ``[name, start, end, parent, n, attrs]``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._undo = []

    def call(self, name, fn, args, kwargs, before=None, after=None):
        """Run ``fn(*args, **kwargs)`` inside a span.  ``before(args, kwargs)``
        and ``after(args, result)`` may return a dict of span attributes."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                  _spin_count(args), before(args, kwargs) if before else None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = self.clock()
            self._stack.pop()
        if after:
            record[ATTRS] = after(args, result)
        return result

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace ``owner.attr`` with a traced wrapper until :meth:`uninstall`."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, before, after)

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self):
        """Wrap the names ``cli`` calls and the library calls named in
        TIME_METRIC and CALL_COUNT."""
        from qemcmc import chain, cli, proposal, quantum, spectral

        def dense_bytes(args, kwargs):
            kernel = args[0]
            return {"bytes": 8 * kernel.dim ** 2} if kernel._dense is None else None

        def kernel_bytes(args, result):
            if isinstance(result, proposal.DenseKernel):
                return {"bytes": 8 * result.dim ** 2}
            return None

        def steps(args, kwargs):
            return {"steps": kwargs.get("n_steps", args[3] if len(args) > 3 else 0)}

        def dim(args, kwargs):
            return {"dim": args[0].dim}

        hooks = {
            "quantum_kernel": {"after": kernel_bytes},
            "sample_chain": {"before": steps},
            "spectral_gap_dense": {"before": dim},
        }
        for name in ("marked_state_bound", "build_transition_matrix",
                     "exact_mixing_time", "make_chain", "sample_chain",
                     "total_variation", "gibbs_measure", "quantum_kernel",
                     "quantum_proposal_column", "resonance_field",
                     "structured_grover_kernel", "averaged_grover_gap",
                     "grover_gap_closed_form", "scaling_fit",
                     "spectral_gap_dense", "time_averaged_kernel"):
            self.wrap(cli, name, name, **hooks.get(name, {}))
        self.wrap(spectral, "quantum_kernel", "quantum_kernel", **hooks["quantum_kernel"])
        self.wrap(quantum, "apply_hamiltonian", "apply_hamiltonian")
        self.wrap(quantum, "dense_hamiltonian", "dense_hamiltonian")
        self.wrap(chain, "validate_kernel", "validate_kernel")
        self.wrap(proposal.ProposalKernel, "dense", "ProposalKernel.dense",
                  before=dense_bytes)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _resolved(spans):
    """(metric, N) per span, inherited from the nearest ancestor that has one.
    Parents precede their children in the list."""
    out = []
    for s in spans:
        parent = out[s[PARENT]] if s[PARENT] >= 0 else (SELF_METRIC, None)
        metric = TIME_METRIC.get(s[NAME], parent[0])
        out.append((metric, s[N] if s[N] is not None else parent[1]))
    return out


def layer_metrics(spans, wall):
    """Per-layer metrics of one traced run of ``wall`` seconds."""
    metrics = {m: 0.0 if m in TIME_METRICS else 0 for m in METRICS}
    for (metric, _), own in zip(_resolved(spans), self_times(spans)):
        metrics[metric] += own
    metrics[SELF_METRIC] = wall - sum(s[END] - s[START] for s in spans
                                      if s[PARENT] < 0)
    sample_time = 0.0
    for s in spans:
        name, attrs = s[NAME], s[ATTRS] or {}
        if name in CALL_COUNT:
            metrics[CALL_COUNT[name]] += 1
        if name in ATTR_SUM:
            key, metric = ATTR_SUM[name]
            metrics[metric] += attrs.get(key, 0)
        if name == "spectral_gap_dense":
            metrics["spectral.gap_dense_dim"] = max(
                metrics["spectral.gap_dense_dim"], attrs["dim"])
        if name == "sample_chain":
            sample_time += s[END] - s[START]
    steps = metrics["chain.steps"]
    metrics["chain.step_us"] = 1e6 * sample_time / steps if steps else 0.0
    return metrics


def per_n_times(spans):
    """{N: {metric: self seconds}} over the spans of one run."""
    table = defaultdict(lambda: defaultdict(float))
    for (metric, n), own in zip(_resolved(spans), self_times(spans)):
        table["-" if n is None else str(n)][metric] += own
    return {n: dict(row) for n, row in table.items()}


def _print_table(path):
    with open(path) as handle:
        trace = json.load(handle)
    table = trace["per_n"]
    metrics = sorted({m for row in table.values() for m in row})
    width = max(map(len, metrics)) + 2
    print(f"{path}: {trace['workload']}, traced wall {trace['wall_s']:.3f} s; "
          "self seconds per N")
    print("N".rjust(4) + "".join(m.rjust(width) for m in metrics))
    for n in sorted(table, key=lambda k: int(k) if k.isdigit() else -1):
        print(n.rjust(4) + "".join(f"{table[n].get(m, 0.0):{width}.4f}" for m in metrics))


if __name__ == "__main__":
    for trace_path in sys.argv[1:]:
        _print_table(trace_path)
