#!/usr/bin/env python3
"""Benchmark of factorem: EM workloads with end-to-end and per-layer metrics.

A single client runs one fit or one CLI command at a time (closed loop),
in this process, through the public API and ``factorem.cli.main``. All
inputs are generated from ``--seed``; the program receives only those.

    python3 perfbench/run.py --workload replicate-ref --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before
it print every metric with its unit and direction. perfbench/README.md
defines the workloads and metrics.
"""

import argparse
import contextlib
import importlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

# One BLAS thread keeps the figures about the program, not the scheduler.
# Set before numpy is first imported; this process only.
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)

import numpy as np  # noqa: E402

from calibration import Calibration  # noqa: E402
from tracing import Tracer, patched  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPS = (3, 15)     # set-up repeats at least 3 times, until 2 s or 15 times
SETUP_SECONDS = 2.0
MONOTONE_RTOL = 1e-8    # criterion 04: no relative loglik step below -1e-8
LOGLIK_RTOL = 1e-10     # last trace loglik against observed_loglik(theta_hat)
TRACE_SUM_TOL = 0.02    # layer self-times against the traced wall time
P90_MIN_FITS = 100      # a p90 needs at least 10 samples beyond it


@dataclass(frozen=True)
class Workload:
    """One design. A pass makes ``datasets`` library fits and, spread
    evenly among them, ``cli_rounds`` CLI simulate + fit round trips of
    one dataset of the same design."""

    n: int
    q: int
    epsilon: float
    max_iter: int
    datasets: int
    cli_rounds: int = 1
    p: int = 2
    r: int = 2


WORKLOADS = {
    # The paper's replication design with the reference theta. Every fit
    # takes 2 iterations; time goes to initialization and to the dense
    # q_total x q_total algebra of the E-step and the observed loglik.
    "replicate-ref": Workload(n=400, q=40, epsilon=1e-2, max_iter=500, datasets=40),
    # Narrow blocks at a tight threshold: about 70-170 iterations per fit
    # on 15 x 15 matrices, so bound by the iteration count and by the
    # Python and scipy overhead of each iteration. A CLI fit here is short,
    # so several rounds per pass sample the machine at different moments.
    "narrow-tight": Workload(n=400, q=5, epsilon=1e-3, max_iter=5000, datasets=40,
                             cli_rounds=5),
    # About 29 MB of CSV written by `factorem simulate` and read back by
    # `factorem fit`; the library fit shows how the fit cost grows with n.
    "large-csv": Workload(n=5000, q=100, epsilon=1e-2, max_iter=500, datasets=1),
}

# Tiny designs of the same shape, for --selftest.
TINY = {
    "replicate-ref": replace(WORKLOADS["replicate-ref"], n=80, q=8, datasets=3),
    "narrow-tight": replace(WORKLOADS["narrow-tight"], n=100, datasets=3),
    "large-csv": replace(WORKLOADS["large-csv"], n=300, q=10),
}

# name: (unit, better); perfbench/README.md defines each metric
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "fits_per_s": ("1/s", "higher"),
    "fit_ms_p50": ("ms", "lower"),
    "em_iterations": ("count", "lower"),
    "neg_loglik_mean": ("nats", "lower"),
    "sq_corr_median": ("ratio", "higher"),
    "simulate_s": ("s", "lower"),
    "cli_fit_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Span name -> the (module, attribute) names its callers look it up by:
# the benchmark calls the package-level API and cli.main, em.fit calls
# the em-module names, and the CLI calls its own imports.
LAYERS = {
    "simulate.simulate_dataset": [("factorem", "simulate_dataset"),
                                  ("factorem.cli", "simulate_dataset")],
    "em.fit": [("factorem", "fit"), ("factorem.cli", "fit")],
    "em.initialize": [("factorem.em", "initialize")],
    "em.em_step": [("factorem.em", "em_step")],
    "em.relative_change": [("factorem.em", "relative_change")],
    "em.canonicalize": [("factorem", "canonicalize"), ("factorem.cli", "canonicalize")],
    "estep.conditional_law": [("factorem.em", "conditional_law")],
    "estep.posterior_moments": [("factorem.em", "posterior_moments")],
    "mstep.sufficient_stats": [("factorem.em", "sufficient_stats")],
    "mstep.update_theta": [("factorem.em", "update_theta")],
    "likelihood.observed_loglik": [("factorem.em", "observed_loglik")],
    "evaluate.scoring": [],  # a span the benchmark opens around its scoring calls
    "io.write_dataset": [("factorem.cli", "write_dataset")],
    "io.load_dataset": [("factorem.cli", "load_dataset")],
    "io.write_fit": [("factorem.cli", "write_fit")],
    "cli.main": [("factorem.cli", "main")],
}

PER_LAYER = {
    **{f"{layer}.{kind}": (unit, "lower")
       for layer in LAYERS for kind, unit in (("self_ms", "ms"), ("calls", "count"))},
    "em.fit.self_us_per_iter": ("us", "lower"),
    "io.bytes_written": ("computed_bytes", "lower"),
    "io.bytes_read": ("computed_bytes", "lower"),
    "estep.q_total": ("count", "lower"),
    "trace.wall_ms": ("ms", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "trace.unattributed_frac": ("fraction", "lower"),
    "calib.kernel_ms": ("ms", "lower"),
}


def load_program():
    """Import factorem from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        fm = importlib.import_module("factorem")
        importlib.import_module("factorem.cli")
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import factorem from {src}: {exc}")
    if src.resolve() not in Path(fm.__file__).resolve().parents:
        raise SystemExit(f"perfbench: factorem imported from {fm.__file__}, not {src}")
    return fm


def machine_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "thread_vars": THREAD_VARS,
    }


@dataclass
class PassResult:
    """Outcomes of one pass, and its timed intervals as (start, end)
    perf_counter pairs; checks and calibration fall outside them."""

    fits: list = field(default_factory=list)        # library fit + canonicalize
    scoring: list = field(default_factory=list)
    simulates: list = field(default_factory=list)   # `factorem simulate`
    cli_fits: list = field(default_factory=list)    # `factorem fit`
    span: tuple = (0.0, 0.0)                        # the whole pass
    outcomes: list = field(default_factory=list)    # (iterations, final loglik) or None
    deviations: list = field(default_factory=list)
    sq_corrs: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    converged_fits: int = 0
    bytes_written: int = 0
    bytes_read: int = 0

    def timed(self):
        return self.fits + self.scoring + self.simulates + self.cli_fits


class Bench:
    """Inputs, checks and one pass of a workload."""

    def __init__(self, fm, workload: Workload, seed: int, work: Path):
        self.fm = fm
        self.w = workload
        self.work = work
        self.dims = fm.Dimensions(
            n=workload.n, p=workload.p, q_y=workload.q, q_m=(workload.q,) * workload.p,
            r_t=workload.r, r_m=(workload.r,) * workload.p,
        )
        self.config = fm.EMConfig(epsilon=workload.epsilon, max_iter=workload.max_iter)
        self.seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(workload.datasets)]
        self.sims = []
        self.cli_index = None       # dataset fitted through the CLI, chosen in pass 1
        self.reference_params = None
        self.first_outcomes = None
        self.calib = Calibration()

    def setup(self) -> tuple:
        """Simulate every dataset and warm up with a one-iteration fit
        (the same work for every seed); return the timed interval."""
        fm = self.fm
        t0 = perf_counter()
        self.sims = [fm.simulate_dataset(fm.SimConfig(dims=self.dims, seed=s)) for s in self.seeds]
        fm.fit(self.sims[0][0], self.dims, replace(self.config, max_iter=1))
        return t0, perf_counter()

    def check_fit(self, raw, result, data) -> list:
        fm = self.fm
        problems = []
        if not raw.converged:
            problems.append(f"not converged after {raw.iterations} iterations")
        if not np.all(np.isfinite(fm.flatten_theta(result.theta))):
            problems.append("non-finite theta")
        ll = raw.trace[:, 1]
        if ll.size > 1:
            worst = float(np.min(np.diff(ll) / np.abs(ll[:-1])))
            if not worst >= -MONOTONE_RTOL:
                problems.append(f"loglik dropped by {worst:.3e} relative")
        exact = fm.observed_loglik(result.theta, data).value
        if not abs(ll[-1] - exact) <= LOGLIK_RTOL * abs(exact):
            problems.append(f"last trace loglik {ll[-1]!r} != observed_loglik {exact!r}")
        return problems

    def run_pass(self, tracer=None) -> PassResult:
        span = tracer.span if tracer else lambda name: contextlib.nullcontext()
        out = PassResult()
        start = perf_counter()
        results = []
        every = max(1, len(self.sims) // self.w.cli_rounds)
        rounds = 0
        for i, sim in enumerate(self.sims):
            results.append(self._library_fit(i, sim, out, span))
            self.calib.maybe_sample()
            # the CLI dataset is known from the first pass on
            if self.cli_index is not None and (i + 1) % every == 0 and rounds < self.w.cli_rounds:
                self._cli_round(out)
                rounds += 1
        if self.cli_index is None:
            self._choose_cli_dataset(out.outcomes, results)
        for _ in range(rounds, self.w.cli_rounds):
            self._cli_round(out)
        out.span = (start, perf_counter())

        if self.first_outcomes is None:
            self.first_outcomes = out.outcomes
        elif out.outcomes != self.first_outcomes:
            out.failures.append("library fits differ from the first, untraced pass "
                                "(iterations or final loglik)")
        return out

    def _library_fit(self, i, sim, out: PassResult, span):
        """Fit, canonicalize and score one dataset; check the fit."""
        fm = self.fm
        data, latents, theta_true = sim
        out.attempted += 1
        try:
            t0 = perf_counter()
            raw = fm.fit(data, self.dims, self.config)
            result = fm.canonicalize(raw)
            t1 = perf_counter()
            with span("evaluate.scoring"):
                _, deviation = fm.abs_rel_deviation(theta_true, result.theta)
                sq_corr = fm.factor_sq_correlation(latents, result.moments)
            t2 = perf_counter()
        except Exception:  # noqa: BLE001 - a failed fit is counted, the loop goes on
            out.failures.append(f"dataset {i}: {traceback.format_exc(limit=3)}")
            out.outcomes.append(None)
            return None
        out.fits.append((t0, t1))
        out.scoring.append((t1, t2))
        out.outcomes.append((raw.iterations, float(raw.trace[-1, 1])))
        out.deviations.append(deviation)
        out.sq_corrs.extend(float(v) for v in sq_corr)
        problems = self.check_fit(raw, result, data)
        if problems:
            out.failures.append(f"dataset {i}: {'; '.join(problems)}")
        else:
            out.converged_fits += 1
        return result

    def _choose_cli_dataset(self, outcomes, results):
        """The CLI fits the dataset with the median iteration count, so
        that its CLI fit stands for a typical fit."""
        done = sorted((o[0], i) for i, o in enumerate(outcomes) if o is not None)
        self.cli_index = done[len(done) // 2][1] if done else 0
        result = results[self.cli_index]
        if result is not None:
            ref = Path(tempfile.mkdtemp(dir=self.work))
            self.fm.io.write_fit(result, ref)
            self.reference_params = (ref / "parameters.csv").read_bytes()
            shutil.rmtree(ref)

    def _cli_round(self, out: PassResult):
        w = self.w
        base = Path(tempfile.mkdtemp(dir=self.work))
        data_dir, fit_dir = base / "data", base / "fit"
        simulate = ["simulate", "--n", str(w.n), "--q", str(w.q), "--p", str(w.p),
                    "--r", str(w.r), "--seed", str(self.seeds[self.cli_index]),
                    "--out", str(data_dir)]
        fit = ["fit", "--data", str(data_dir), "--out", str(fit_dir),
               "--epsilon", repr(w.epsilon), "--max-iter", str(w.max_iter)]
        with contextlib.redirect_stdout(io.StringIO()):
            # the commands can be short: sample the host speed right next to them
            self.calib.sample()
            t0 = perf_counter()
            rc_simulate = self.fm.cli.main(simulate)
            t1 = perf_counter()
            self.calib.sample()
            t2 = perf_counter()
            rc_fit = self.fm.cli.main(fit)
            t3 = perf_counter()
        self.calib.maybe_sample()
        out.attempted += 2
        out.simulates.append((t0, t1))
        out.cli_fits.append((t2, t3))
        if rc_simulate != 0:
            out.failures.append(f"factorem simulate exited {rc_simulate}")
        problems = [] if rc_fit == 0 else [f"exited {rc_fit}"]
        if not problems:
            report = json.loads((fit_dir / "report.json").read_text(encoding="utf-8"))
            if report.get("converged") is not True:
                problems.append("report.json says not converged")
            if (fit_dir / "parameters.csv").read_bytes() != self.reference_params:
                problems.append("parameters.csv differs from the in-memory fit")
        if problems:
            out.failures.append(f"factorem fit: {'; '.join(problems)}")
        else:
            out.converged_fits += 1
        if rc_simulate == 0:
            manifest = json.loads((data_dir / "manifest.json").read_text(encoding="utf-8"))
            loaded = ["manifest.json", manifest["y"], manifest["t"], *manifest["x"], *manifest["t_m"]]
            out.bytes_read += sum((data_dir / name).stat().st_size for name in loaded)
            out.bytes_written += sum(f.stat().st_size for f in base.rglob("*") if f.is_file())
        shutil.rmtree(base)


def _median(values):
    return statistics.median(values) if values else float("nan")


def measure(fm, workload: Workload, seed: int, seconds: float, trace: bool, work: Path):
    """Run one benchmark measurement; return (result dict, report lines)."""
    bench = Bench(fm, workload, seed, work)
    calib = bench.calib
    setups = []
    while not setups or not trace and len(setups) < SETUP_REPS[1] and (
            len(setups) < SETUP_REPS[0] or sum(t1 - t0 for t0, t1 in setups) < SETUP_SECONDS):
        calib.sample()
        setups.append(bench.setup())

    plain, traced = [], []
    targets = [(sys.modules.get(mod), attr, layer)
               for layer, names in LAYERS.items() for mod, attr in names]
    start = perf_counter()
    for cycle in itertools.count(1):
        # Traced cycles alternate their order (plain, traced, traced, plain,
        # ...) so that a pass's position in a cycle cancels in overhead_frac.
        kinds = ["plain", "traced"][:: 1 if cycle % 2 else -1] if trace else ["plain"]
        for kind in kinds:
            if kind == "plain":
                plain.append(bench.run_pass())
                continue
            tracer = Tracer()
            with patched(tracer, targets):
                result = bench.run_pass(tracer)
            traced.append((result, tracer.summary()))
        # At least two untraced passes, so that medians do not rest on one
        # pass; then another cycle only if it should end within the run time.
        if (trace or cycle >= 2) and (perf_counter() - start) * (1 + 1 / cycle) > seconds:
            break

    passes = plain + [t[0] for t in traced]
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    first = plain[0]
    lines = [f"workload passes: {len(plain)} untraced, {len(traced)} traced; "
             f"{workload.datasets} library fits + {workload.cli_rounds} CLI simulate/fit per pass "
             f"(CLI dataset {bench.cli_index})"]
    kernel_ms = [d * 1e3 for _, d in calib.samples]
    lines.append(f"calibration: kernel {min(kernel_ms):.2f} / {statistics.median(kernel_ms):.2f} "
                 f"/ {max(kernel_ms):.2f} ms (min / median / max of {len(kernel_ms)} samples); "
                 "times are reported at the reference speed")
    metrics = {}
    if not trace:
        raw_wall = [sum(t1 - t0 for t0, t1 in p.timed()) for p in plain]
        lines.append(f"measured pass wall times before scaling: median {_median(raw_wall):.6g} s, "
                     f"min {min(raw_wall):.6g} s, max {max(raw_wall):.6g} s")
        fit_ms = [s * 1e3 for p in plain for s in calib.scaled(p.fits)]
        walls = [sum(calib.scaled(p.timed())) for p in plain]
        logliks = [o[1] for o in first.outcomes if o is not None]
        metrics = {
            "setup_s": _median(calib.scaled(setups)),
            "wall_s": _median(walls),
            "fits_per_s": sum(p.converged_fits for p in plain) / sum(walls),
            "fit_ms_p50": _median(fit_ms),
            "em_iterations": sum(o[0] for o in first.outcomes if o is not None),
            "neg_loglik_mean": -statistics.fmean(logliks) if logliks else float("nan"),
            "sq_corr_median": _median(first.sq_corrs),
            "simulate_s": _median([s for p in plain for s in calib.scaled(p.simulates)]),
            "cli_fit_s": _median([s for p in plain for s in calib.scaled(p.cli_fits)]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if len(fit_ms) >= P90_MIN_FITS:
            p90 = statistics.quantiles(fit_ms, n=10)[-1]
            lines.append(f"fit_ms_p90 = {p90:.4f} ms (lower is better; {len(fit_ms)} fits)")
        else:
            lines.append(f"fit_ms_p90: not reported, {len(fit_ms)} fits < {P90_MIN_FITS}")
        lines.append(f"loglik_mean = {-metrics['neg_loglik_mean']:.6f} (higher is better)")
        # a single large-csv fit makes this spread too much across seeds to be gated
        lines.append(f"rel_dev_median = {_median(first.deviations):.6f} ratio (lower is better; "
                     f"median over {len(first.deviations)} fits of the average |hat - true| / |true|)")
    else:
        metrics, share_lines, unattributed = _layer_metrics(bench, plain, traced)
        lines += share_lines
        if not abs(unattributed) <= TRACE_SUM_TOL:
            failures.append(f"layer self-times miss {unattributed:.2%} of the traced "
                            f"wall time (tolerance {TRACE_SUM_TOL:.0%})")
    lines.append(f"failed_fraction = {len(failures) / attempted:.4f} "
                 f"(lower is better; {len(failures)} of {attempted} attempted)")
    lines += [f"FAILED: {f}" for f in failures]
    output = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return output, lines


def _layer_metrics(bench, plain, traced):
    """Per-layer metrics from (pass result, (calls, self seconds)) pairs,
    with times at the reference speed."""
    calib = bench.calib
    traced_wall = _median([sum(calib.scaled(result.timed())) for result, _ in traced])
    metrics, self_ms = {}, {}
    for layer in LAYERS:
        per_pass = [summary[1].get(layer, 0.0) * 1e3 * calib.factor(*result.span)
                    for result, summary in traced]
        self_ms[layer] = _median(per_pass)
        metrics[f"{layer}.self_ms"] = self_ms[layer]
        metrics[f"{layer}.calls"] = traced[0][1][0].get(layer, 0)
    iterations = metrics["em.em_step.calls"]
    metrics["em.fit.self_us_per_iter"] = (
        metrics["em.fit.self_ms"] * 1e3 / iterations if iterations else 0.0
    )
    last = traced[-1][0]
    metrics["io.bytes_written"] = last.bytes_written
    metrics["io.bytes_read"] = last.bytes_read
    metrics["estep.q_total"] = bench.dims.q_total
    metrics["trace.wall_ms"] = traced_wall * 1e3
    metrics["trace.overhead_frac"] = (
        traced_wall / _median([sum(calib.scaled(p.timed())) for p in plain]) - 1.0
    )
    unattributed = _median([1.0 - sum(summary[1].values()) / sum(t1 - t0 for t0, t1 in result.timed())
                            for result, summary in traced])
    metrics["trace.unattributed_frac"] = unattributed
    metrics["calib.kernel_ms"] = statistics.median(d for _, d in calib.samples) * 1e3
    lines = ["layer shares of the traced wall time (self time per pass):"]
    for layer in sorted(LAYERS, key=lambda name: -self_ms[name]):
        lines.append(f"  {layer:28s} {self_ms[layer] / (traced_wall * 1e3):7.2%}"
                     f"  {self_ms[layer]:12.3f} ms  {metrics[layer + '.calls']:8d} calls")
    lines.append(f"  self-times sum to {1 - unattributed:.4%} of the traced wall "
                 f"(tolerance {TRACE_SUM_TOL:.0%})")
    return metrics, lines, unattributed


def run_workload(fm, name, workload, seed, seconds, trace):
    """Measure one workload in a private work directory inside the checkout."""
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root, prefix=f"{name}-"))
    try:
        output, lines = measure(fm, workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    registry = PER_LAYER if trace else END_TO_END
    output["metrics"] = {
        key: {"value": value, "unit": registry[key][0]} for key, value in output["metrics"].items()
    }
    return output, lines


def print_report(name, seed, seconds, trace, output, lines, facts):
    print(f"perfbench {name} seed={seed} seconds={seconds} trace={int(trace)}")
    print("machine: " + json.dumps(facts, sort_keys=True))
    for line in lines:
        print(line)
    registry = PER_LAYER if trace else END_TO_END
    for key, entry in output["metrics"].items():
        unit, better = registry[key]
        print(f"{key:32s} {entry['value']!r:>24} {unit:14s} {better} is better")


def selftest(fm) -> int:
    """Run every workload at a tiny size, traced and untraced, and check
    the metrics against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def expect(condition, message):
        if not condition:
            raise RuntimeError(f"selftest: {message}")

    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")
    for section, registry in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        expect(declared == registry, f"{section} in BENCHMARK.json differs from run.py")
    for name, workload in TINY.items():
        for trace in (False, True):
            output, lines = run_workload(fm, name, workload, seed=1, seconds=1, trace=trace)
            expect(output["correct"] and output["failed"] == 0,
                   f"{name} trace={trace} failed: {lines}")
            expect(output["attempted"] >= 1, f"{name}: nothing attempted")
            registry = PER_LAYER if trace else END_TO_END
            expect(set(output["metrics"]) == set(registry), f"{name}: metric names")
            for key, entry in output["metrics"].items():
                expect(math.isfinite(entry["value"]), f"{name}: {key} is not finite")
                expect(entry["unit"] == registry[key][0], f"{name}: {key} unit")
            if not trace:
                for key in END_TO_END:
                    expect(output["metrics"][key]["value"] > 0, f"{name}: {key} is not positive")
            print(f"selftest {name} trace={int(trace)}: ok "
                  f"({output['attempted']} attempted, {len(output['metrics'])} metrics)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload at a tiny size and check the metrics")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    fm = load_program()
    if args.selftest:
        return selftest(fm)
    output, lines = run_workload(
        fm, args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print_report(args.workload, args.seed, args.seconds, bool(args.trace), output, lines,
                 machine_facts())
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
