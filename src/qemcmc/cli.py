"""Reproducible experiment runner emitting CSV.

Every kernel the experiments build is invariant under permutations of the
spins about the marked state, so the exact gaps, the mixing times, the
sampled chains and the marked-state bounds are all read on classes of states
(see each runner): no experiment but ``validate``, whose dense checks are the
cross-check, forms a 2^N x 2^N transition matrix or a 2^N proposal column.

All experiments share one schema::

    experiment,N,alpha,beta,h,t,quantity,value,method,seed

so golden-file tests and plotting scripts need a single parser.  Values are
written with 17 significant digits, rows are sorted deterministically, and
line endings are LF, so identical configs produce byte-identical files.

The ``t`` column holds the evolution time, the literal ``avg`` for
time-averaged rows, or the step count for ``sample`` rows.  ``validate`` rows
write ``-`` in the N, alpha, beta, h and t columns: each check runs at its own
fixed sizes, draws and temperatures and reads none of the run's settings.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .bottleneck import marked_state_bound
from .chain import (
    build_transition_matrix,  # the dense cross-check; perfbench traces this name here
    class_chain,
    exact_mixing_time,
    make_chain,
    sample_chain,
    total_variation,
)
from .errors import (
    AsymmetricKernel,
    BudgetExceeded,
    ImpreciseGap,
    NegativeProbability,
    NoConvergence,
    NotStochastic,
)
from .model import MarkedStateHamiltonian, gibbs_measure
from .quantum import (
    GROVER,
    TRANSVERSE,
    MixerSpec,
    quantum_kernel,
    quantum_proposal_column,  # perfbench traces this name here
    resonance_field,
    structured_grover_kernel,  # perfbench traces this name here
    transverse_marked_column,
)
from .spectral import (
    AveragingScheme,
    averaged_grover_gap,
    check_block_route,
    grover_gap_closed_form,
    scaling_fit,
    spectral_gap_blocks,
    spectral_gap_dense,  # the dense cross-check; perfbench traces this name here
    time_averaged_kernel,
)

_HEADER = "experiment,N,alpha,beta,h,t,quantity,value,method,seed"

_DEFAULTS = {
    "figure-a": {"mixer": GROVER, "h": "resonance", "t": "2:20"},
    "figure-b": {"mixer": TRANSVERSE, "h": "1", "t": "1"},
    "scan": {"mixer": GROVER, "h": "resonance", "t": "0.3"},
    "sample": {"mixer": GROVER, "h": "resonance", "t": "0.3"},
    "validate": {"mixer": GROVER, "h": "1", "t": "1"},
}
# experiments that run only their default mixer
_ONE_MIXER = ("figure-a", "figure-b", "scan")
# experiments that take one h and one t, not a lo:hi range
_FIXED_HT = ("figure-b", "scan", "sample")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n_min: int = 10
    n_max: int = 20
    alpha: float = 1.0
    beta: float = 5.0
    mixer: str = GROVER
    h: str = "resonance"          # float literal | "resonance" | "lo:hi"
    t: str = "1"                  # float literal | "lo:hi"
    avg_samples: int = 64
    seed: int = 0
    out: str = "-"
    max_dense_n: int = 12
    steps: int = 2000

    def __post_init__(self):
        if self.experiment not in _DEFAULTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.n_min < 1 or self.n_max < self.n_min:
            raise ValueError(f"empty N range {self.n_min}..{self.n_max}")
        if self.n_max > 511:   # the closed forms square 2^N - 1 in a double
            raise ValueError(f"--n-max {self.n_max}: (2^N - 1)^2 overflows past 511")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite, not "
                             f"{self.alpha!r} and {self.beta!r}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, not {self.alpha!r}")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.mixer not in (GROVER, TRANSVERSE):
            raise ValueError(f"unknown mixer {self.mixer!r}")
        own = _DEFAULTS[self.experiment]["mixer"]
        if self.experiment in _ONE_MIXER and self.mixer != own:
            raise ValueError(f"{self.experiment} runs the {own} mixer only, "
                             f"not {self.mixer!r}")
        if self.avg_samples < 1:
            raise ValueError("avg-samples must be >= 1")
        if self.max_dense_n < 0:
            raise ValueError(f"max-dense-n must be >= 0, not {self.max_dense_n}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        h_spec, t_spec = self.h_spec, self.t_spec
        if self.experiment in _FIXED_HT:
            for flag, spec in (("t", t_spec), ("h", h_spec)):
                if isinstance(spec, tuple):
                    raise ValueError(
                        f"{self.experiment} expects a fixed {flag}")
        # N (alpha + |h|) bounds the norm of H at every N of the run (the
        # resonance field lies within 2 alpha): the closed forms square it,
        # the propagators multiply it by t, and the measure needs beta alpha N
        h_max = 2.0 * self.alpha if h_spec == "resonance" else _largest(h_spec)
        scale = self.n_max * (self.alpha + h_max)
        for setting, value in ((f"--h {self.h}", scale * scale),
                               (f"--t {self.t}", scale * _largest(t_spec)),
                               (f"--beta {self.beta!r}",
                                self.beta * self.alpha * self.n_max)):
            if not math.isfinite(value):
                raise ValueError(f"{setting} with alpha {self.alpha!r} "
                                 f"overflows at N = {self.n_max}")

    @property
    def n_values(self):
        return range(self.n_min, self.n_max + 1)

    # parsed once; cached properties are no dataclass fields, so no config key
    @cached_property
    def h_spec(self):
        """``h`` parsed: a float, a (lo, hi) pair, or ``"resonance"``."""
        return _parse_spec(self.h, allow_resonance=True)

    @cached_property
    def t_spec(self):
        """``t`` parsed: a float or a (lo, hi) pair."""
        return _parse_spec(self.t, allow_resonance=False)


def _parse_spec(text: str, allow_resonance: bool):
    """A value spec is a float, ``lo:hi``, or (for h) ``resonance``."""
    if text == "resonance":
        if not allow_resonance:
            raise ValueError("'resonance' is only valid for --h")
        return "resonance"
    values = tuple(float(part) for part in text.split(":", 1))
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{text!r} is not finite")
    if len(values) == 1:
        return values[0]
    lo, hi = values
    if not hi >= lo:
        raise ValueError(f"empty range {text!r}")
    return values


def _largest(spec) -> float:
    """Largest magnitude of a parsed float or ``lo:hi`` spec."""
    return max(map(abs, spec)) if isinstance(spec, tuple) else abs(spec)


def _resolve_h(cfg: ExperimentConfig, n: int):
    if cfg.h_spec == "resonance":
        return resonance_field(cfg.alpha, n)
    return cfg.h_spec


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def _emit(rows) -> str:
    lines = sorted(",".join(_fmt(f) for f in row) for row in rows)
    return _HEADER + "\n" + "\n".join(lines) + "\n"


def _skip(quantity, n, exc):
    print(f"skipped {quantity} at N={n}: {exc}", file=sys.stderr)


# ---------------------------------------------------------------------------
# experiments

def run_figure_a(cfg: ExperimentConfig):
    """Time-averaged grover-chain gap per N: closed-form average for all N,
    and the averaged kernel's gap from its symmetry blocks as a cross-check
    for N <= max_dense_n, skipped past the size rules of the kernel table
    and of the symmetry-block route, both checked before the table is
    filled, or when the gap's rounding estimate leaves it under half its
    digits."""
    t_range = cfg.t_spec if isinstance(cfg.t_spec, tuple) else (cfg.t_spec,) * 2
    scheme = AveragingScheme(cfg.h_spec, t_range, cfg.avg_samples)
    try:   # the (N, sample) grid
        values = scheme.values(cfg.n_values, cfg.alpha)
    except BudgetExceeded as exc:
        raise ValueError(f"--avg-samples {cfg.avg_samples}: {exc}") from None
    gaps = averaged_grover_gap(cfg.n_values, cfg.alpha, cfg.beta, values)
    rows = []
    for i, n in enumerate(cfg.n_values):
        h = _resolve_h(cfg, n)
        h_label = "%.17g:%.17g" % h if isinstance(h, tuple) else _fmt(h)
        rows.append(("figure-a", n, cfg.alpha, cfg.beta, h_label, "avg",
                     "delta_closed", gaps[i], "closed-form-average", cfg.seed))
        if n <= cfg.max_dense_n:
            h_c = MarkedStateHamiltonian(n, cfg.alpha)
            try:
                row = values._make(v[i] for v in values)
                kern = time_averaged_kernel(h_c, row)
                delta = spectral_gap_blocks(kern, gibbs_measure(h_c, cfg.beta))
            except (BudgetExceeded, ImpreciseGap) as exc:
                _skip("delta_exact", n, exc)
                continue
            rows.append(("figure-a", n, cfg.alpha, cfg.beta, h_label, "avg",
                         "delta_exact", delta, "symmetry-blocks", cfg.seed))
    return rows


def run_figure_b(cfg: ExperimentConfig):
    """Transverse-field chain: per N, the marked-state bound from the marked
    column of the symmetric sector (one eigensolve of order N+1 and N+1
    values, no table), and, for N <= max_dense_n, the exact gap from the
    symmetry blocks of the kernel table, built for that row alone.  No row
    forms a 2^N proposal column; an exact-gap row past the size rule of the
    symmetry-block route, checked before the table is built, or whose gap
    keeps under half its digits, is skipped."""
    rows = []
    for n in cfg.n_values:
        h = _resolve_h(cfg, n)
        h_c = MarkedStateHamiltonian(n, cfg.alpha)
        column = transverse_marked_column(h_c, h, cfg.t_spec)
        bound = marked_state_bound(column, n, cfg.alpha, cfg.beta)
        rows.append(("figure-b", n, cfg.alpha, cfg.beta, h, cfg.t_spec,
                     "bound", bound, "marked-state-cut", cfg.seed))
        if n <= cfg.max_dense_n:
            try:
                check_block_route(n)     # before the table is built
                kern = quantum_kernel(h_c, MixerSpec(TRANSVERSE, h),
                                      cfg.t_spec)
                delta = spectral_gap_blocks(kern, gibbs_measure(h_c, cfg.beta))
            except (BudgetExceeded, ImpreciseGap) as exc:
                _skip("delta_exact", n, exc)
                continue
            rows.append(("figure-b", n, cfg.alpha, cfg.beta, h, cfg.t_spec,
                         "delta_exact", delta, "symmetry-blocks", cfg.seed))
    return rows


def run_scan(cfg: ExperimentConfig):
    """Closed-form grover gap over the N range plus a log2 scaling slope."""
    hs = [_resolve_h(cfg, n) for n in cfg.n_values]
    gaps = grover_gap_closed_form(cfg.n_values, cfg.alpha, cfg.beta,
                                  np.array(hs), cfg.t_spec)
    rows = [("scan", n, cfg.alpha, cfg.beta, h, cfg.t_spec, "delta_closed",
             gap, "closed-form", cfg.seed)
            for n, h, gap in zip(cfg.n_values, hs, gaps)]
    if len(gaps) >= 4:
        slope = scaling_fit(zip(cfg.n_values, gaps))
        rows.append(("scan", cfg.n_max, cfg.alpha, cfg.beta, cfg.h, cfg.t_spec,
                     "slope", slope, "least-squares", cfg.seed))
    return rows


def run_sample(cfg: ExperimentConfig):
    """Finite-sample chain runs: empirical total variation at checkpoints and
    the exact mixing time up to max_dense_n; rows past the size rule of the
    kernel table (both), the 2^N target or the path (tv) or the symmetry
    blocks (tmix) are skipped.  An N whose tv rows run assembles its class
    chain once, for the sampled chain and the mixing time."""
    checkpoints = sorted({max(1, cfg.steps * k // 4) for k in range(1, 5)})
    rows = []
    for n in cfg.n_values:
        h = _resolve_h(cfg, n)
        h_c = MarkedStateHamiltonian(n, cfg.alpha)
        refused = None
        if n > cfg.max_dense_n:
            refused = f"dense target limited to N <= {cfg.max_dense_n}"
        else:
            try:
                kern = quantum_kernel(h_c, MixerSpec(cfg.mixer, h), cfg.t_spec)
            except BudgetExceeded as exc:
                refused = exc
        if refused is not None:
            _skip("tv", n, refused)
            _skip("tmix", n, refused)
            continue
        measure = gibbs_measure(h_c, cfg.beta)
        chain = None
        try:
            pi = measure.probabilities()
            state = make_chain(start=(h_c.marked + 1) % h_c.dim, seed=cfg.seed)
            chain = class_chain(kern, measure)
            visited = sample_chain(state, kern, measure, cfg.steps,
                                   chain=chain)
        except BudgetExceeded as exc:
            _skip("tv", n, exc)
        else:
            for stop in checkpoints:
                # the int64 counts go before total_variation forms |p - q|
                freq = np.bincount(visited[:stop], minlength=h_c.dim) / stop
                tv = total_variation(freq, pi)
                rows.append(("sample", n, cfg.alpha, cfg.beta, h, stop,
                             "tv", tv, "empirical", cfg.seed))
        try:
            t_mix = exact_mixing_time(kern, measure, 0.01, chain=chain)
        except (NoConvergence, BudgetExceeded) as exc:
            _skip("tmix", n, exc)
            continue
        rows.append(("sample", n, cfg.alpha, cfg.beta, h, cfg.t_spec,
                     "tmix", t_mix, "exact", cfg.seed))
    return rows


def _figure_determinism(cfg: ExperimentConfig):
    """Byte-identical CSV from two reduced figure runs with the same seed."""
    from .validation import CriterionResult

    probe = replace(cfg, experiment="figure-a", mixer=GROVER, h="resonance",
                    t="2:20", n_min=10, n_max=14, avg_samples=16,
                    max_dense_n=10)
    first = _emit(run_figure_a(probe))
    second = _emit(run_figure_a(probe))
    mismatch = 0.0 if first == second else 1.0
    return CriterionResult("figure-determinism", mismatch, 0.0,
                           mismatch == 0.0)


def run_validate(cfg: ExperimentConfig):
    """Reduced acceptance checks as data rows; verdicts drive the exit code."""
    # only validate runs the checks, so no other experiment imports them
    from .validation import default_suite

    results = default_suite()
    results.append(_figure_determinism(cfg))
    rows = []
    for res in results:
        verdict = "pass" if res.passed else "fail"
        rows.append(("validate", "-", "-", "-", "-", "-",
                     res.criterion, res.value, verdict, cfg.seed))
    return rows


_RUNNERS = {
    "figure-a": run_figure_a,
    "figure-b": run_figure_b,
    "scan": run_scan,
    "sample": run_sample,
    "validate": run_validate,
}


# ---------------------------------------------------------------------------
# argument handling

def _read_config_file(path: str) -> dict:
    options = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            options[key.replace("-", "_")] = value
    return options


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qemcmc",
        description="Spectral-gap experiments for marked-state Gibbs samplers.",
    )
    parser.add_argument("--experiment", required=True,
                        choices=sorted(_RUNNERS))
    parser.add_argument("--config", help="key=value file; flags override it")
    parser.add_argument("--n-min", type=int, default=None)
    parser.add_argument("--n-max", type=int, default=None)
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--beta", type=float, default=None)
    parser.add_argument("--mixer", choices=(GROVER, TRANSVERSE), default=None)
    parser.add_argument("--h", default=None,
                        help="field strength: float, lo:hi, or 'resonance' "
                        "(a negative range joined by '=', as --h=-2:0.5)")
    parser.add_argument("--t", default=None, help="evolution time: float or "
                        "lo:hi (a negative range joined by '=', as --t=-1:1)")
    parser.add_argument("--avg-samples", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output path, '-' for stdout")
    parser.add_argument("--max-dense-n", type=int, default=None)
    parser.add_argument("--steps", type=int, default=None)
    return parser


def build_config(argv=None) -> ExperimentConfig:
    args = _build_parser().parse_args(argv)
    options = dict(_DEFAULTS[args.experiment])
    if args.config:
        options.update(_read_config_file(args.config))
        if "experiment" in options:
            raise ValueError("--experiment cannot come from a config file")
    fields = ExperimentConfig.__dataclass_fields__
    for key in fields:   # every field has its flag; --experiment is set apart
        value = getattr(args, key)
        if key != "experiment" and value is not None:
            options[key] = value
    unknown = set(options) - set(fields)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    # config-file values arrive as strings; coerce through the field defaults
    coerced = {}
    for key, value in options.items():
        default = fields[key].default
        if isinstance(default, int):
            coerced[key] = int(value)
        elif isinstance(default, float):
            coerced[key] = float(value)
        else:
            coerced[key] = str(value)
    return ExperimentConfig(experiment=args.experiment, **coerced)


def run(cfg: ExperimentConfig) -> tuple[str, int]:
    rows = _RUNNERS[cfg.experiment](cfg)
    csv_text = _emit(rows)
    status = 0
    if cfg.experiment == "validate" and any(
            row[8] == "fail" for row in rows):
        status = 1
    return csv_text, status


def main(argv=None) -> int:
    try:
        cfg = build_config(argv)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        csv_text, status = run(cfg)
    except (ValueError, NoConvergence) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NotStochastic, AsymmetricKernel, NegativeProbability) as exc:
        # every kernel here is a propagator's, unital by construction, so a
        # failed certificate is rounding in e^{-iHt} grown with |h| t
        print(f"configuration error: {exc}: --h {cfg.h} with --t {cfg.t} puts "
              "the field·time beyond double-precision propagation",
              file=sys.stderr)
        return 2
    if cfg.out == "-":
        sys.stdout.write(csv_text)
        return status
    try:
        with io.open(cfg.out, "w", newline="") as handle:
            handle.write(csv_text)
    except OSError as exc:
        print(f"output error: cannot write {cfg.out}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
