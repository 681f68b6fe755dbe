"""Run one benchmark workload through probedist's experiment harness.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload support-wide --seed 1 --seconds 15 --trace 0

Every trial goes through ``probedist.harness.run_experiment``, the path
``probedist run`` takes, with one worker.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` makes a warm-up pass,
then an untraced, a traced and a two-worker pass over the same trials, and
reports the per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a
fuller record, with provenance and every spec's report hash, goes to
``perfbench/out/``.

Exit codes: 0 when every check passed, 1 when a fixture certificate or a
correctness check failed, 2 when the benchmark cannot run (bad arguments,
or no ``src/probedist`` beside it).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import mmap
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WILSON_FLOOR = 0.66
# Ten successes in ten trials give a Wilson low of 0.72; eight is the least
# count whose all-success low reaches WILSON_FLOOR.
TRACE_CASE_TRIALS = 10
# The median time of a calibrate() pass on a quiet 2-vCPU Xeon; see end_to_end.
REFERENCE_CALIBRATION_S = 0.0065


@dataclass
class Trial:
    start: float
    seconds: float
    report: object = None
    failure: str | None = None


@dataclass
class CaseRun:
    """One ``run_experiment`` call: a case of a workload in one round."""

    label: str
    spec_seed: int
    one_sided: bool
    planned: int
    trials: list = field(default_factory=list)
    called: float = 0.0
    report: object = None
    sha256: str | None = None
    report_s: float = 0.0

    @property
    def setup_s(self) -> float:
        # from the run_experiment call to its first trial: instance building
        # and FiniteDistribution validation inside the harness
        return self.trials[0].start - self.called if self.trials else 0.0

    @property
    def failed(self) -> int:
        bad = sum(t.failure is not None for t in self.trials)
        return bad + (0 if self.report is not None else self.planned - len(self.trials))


class TrialLog:
    """Wraps each tester callable that ``harness.build_tester`` returns.

    Times every call, and checks each TesterReport against the budget law
    and, on one-sided member cases, against the expected acceptance.  The
    trials go to ``case``, the CaseRun whose ``run_experiment`` call is
    current.
    """

    def __init__(self, harness):
        self._harness = harness
        self._original = harness.build_tester
        self.case = None
        self.tracer = None
        self.trial_id = 0
        self.calibrations: list[float] = []

    def __enter__(self):
        self._harness.build_tester = self._build
        return self

    def __exit__(self, *exc):
        self._harness.build_tester = self._original
        return False

    def _build(self, name: str):
        fn = self._original(name)
        if self.tracer is not None:
            fn = self.tracer.wrap("harness.trial", fn)
        run = self.case

        def timed(oracle, params, constants, seed):
            if self.tracer is not None:
                self.tracer.trial = self.trial_id
            self.trial_id += 1
            start = time.perf_counter()
            report = fn(oracle, params, constants, seed)
            trial = Trial(start, time.perf_counter() - start, report)
            trial.failure = check(report, oracle.n, run.one_sided)
            run.trials.append(trial)
            return report

        return timed


def check(report, n: int, one_sided: bool) -> str | None:
    """Why a TesterReport breaks the budget law or a one-sided member; None if it does not."""
    budget = report.trace.get("budget", {})
    kind, value = budget.get("kind"), budget.get("value")
    q = report.queries_used
    samples = sum(report.samples_used)
    if kind not in ("exact", "bound"):
        return f"report has no budget: {budget!r}"
    if kind == "exact" and q != value:
        return f"exact budget {value} but {q} billed"
    if kind == "bound" and q > value:
        return f"budget bound {value} but {q} billed"
    if not samples <= q <= samples * n:
        return f"{q} billed outside [samples, samples * n] = [{samples}, {samples * n}]"
    if one_sided and not report.accepted:
        return "one-sided tester rejected a member"
    return None


@functools.cache
def _calibration_buffers() -> tuple:
    rng = np.random.default_rng(12345)
    keys = rng.integers(0, 1 << 30, size=50_000)
    table = rng.integers(0, 256, size=1 << 20, dtype=np.uint8)
    picks = rng.integers(0, table.size, size=1 << 18, dtype=np.int32)
    return keys, np.empty_like(keys), table, picks, np.empty(picks.size, np.uint8)


def calibrate() -> list[float]:
    """Seconds that each of four passes of a fixed piece of work takes.

    The work does not touch probedist.  It mixes what the trials spend their
    time on: interpreter steps, a sort, a random gather, and first touches of
    fresh pages.  Its buffers are made once and its pages come straight from
    mmap, so the heap that the trials leave behind does not change its time.
    """
    keys, work, table, picks, picked = _calibration_buffers()
    passes = []
    for _ in range(4):
        start = time.perf_counter()
        np.copyto(work, keys)
        work.sort()
        np.take(table, picks, out=picked)
        total = 0
        for i in range(45_000):
            total += i & 7
        with mmap.mmap(-1, 4 << 20) as pages:
            view = np.frombuffer(pages, dtype=np.uint8)
            view[::mmap.PAGESIZE] = 1
            del view
        passes.append(time.perf_counter() - start)
    return passes


def _spec_seeds(seed: int, round_index: int, count: int) -> list[int]:
    state = np.random.SeedSequence([seed, round_index]).generate_state(count)
    return [int(v) for v in state]


def run_cases(harness, log: TrialLog, name: str, cases, seeds, workers: int = 1) -> list:
    runs = []
    for case, spec_seed in zip(cases, seeds):
        run = CaseRun(case.label, spec_seed, case.one_sided, case.trials)
        spec = harness.ExperimentSpec(
            name=f"{name}/{case.label}",
            tester=case.tester,
            tester_params=case.tester_params,
            sources=case.sources,
            trials=case.trials,
            seed=spec_seed,
            workers=workers,
            expectation=case.expectation,
        )
        log.case = run
        run.called = time.perf_counter()
        try:
            run.report = harness.run_experiment(spec)
        except Exception:  # a raising trial aborts the spec; its rest count as failed
            traceback.print_exc()
        if run.report is not None:
            start = time.perf_counter()
            text = json.dumps(run.report.to_json_dict(), sort_keys=True)
            run.report_s = time.perf_counter() - start
            run.sha256 = hashlib.sha256(text.encode()).hexdigest()
        # Right after the trials, not after a set-up, whose freed memory
        # slows the machine for a moment.
        log.calibrations += calibrate()
        runs.append(run)
    return runs


def one_round(harness, log, workload, seed: int, round_index: int, trials, certs) -> tuple:
    """Set up the instances and run each case once; returns (setup_s, runs, cases)."""
    start = time.perf_counter()
    # Each round has instances of its own, so that a run's figures do not
    # hang on a single draw of the fixtures.
    cases = workload.build([seed, round_index], trials,
                           certs.setdefault(f"round{round_index}", {}))
    built = time.perf_counter() - start
    runs = run_cases(harness, log, workload.name, cases,
                     _spec_seeds(seed, round_index, len(cases)))
    return built + sum(r.setup_s for r in runs), runs, cases


def _trials(runs) -> list:
    return [t for r in runs for t in r.trials]


def _ratio(num: float, den: float) -> float:
    # Only a run whose every trial failed divides by zero; it reports 0 and
    # is marked incorrect by its failures.
    return num / den if den else 0.0


def _trials_per_s(runs) -> float:
    done = [r for r in runs if r.report is not None]
    return _ratio(sum(len(r.report.records) for r in done),
                  sum(r.report.elapsed_seconds for r in done))


def _percentile(values: list, k: int) -> float:
    if len(values) < 2:
        return 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[k - 1]


def end_to_end(harness, log, workload, seed: int, trials) -> tuple:
    setups, rates, runs, certs = [], [], [], {}
    for round_index in range(workload.rounds):
        setup, round_runs, _ = one_round(harness, log, workload, seed, round_index, trials, certs)
        setups.append(setup)
        rates.append(_trials_per_s(round_runs))
        runs += round_runs
    times = [t.seconds * 1e3 for t in _trials(runs)]
    # The machine's speed drifts by a quarter or more over minutes, with the
    # load of its neighbours.  Times are therefore reported at reference
    # speed: scaled by how much faster or slower than REFERENCE_CALIBRATION_S
    # calibrate() ran during this run.  calibrate() runs no probedist code,
    # so every change to the program shows in full.
    speed = REFERENCE_CALIBRATION_S / statistics.median(log.calibrations)
    raw = {
        # median over rounds, so that a burst of load on the machine during
        # one round does not move it
        "trials_per_s": statistics.median(rates),
        "trial_ms_p50": _percentile(times, 50),
        "trial_ms_p90": _percentile(times, 90),
        "setup_s": statistics.median(setups),
    }
    metrics = {
        "trials_per_s": raw["trials_per_s"] / speed,
        "trial_ms_p50": raw["trial_ms_p50"] * speed,
        "trial_ms_p90": raw["trial_ms_p90"] * speed,
        "setup_s": raw["setup_s"] * speed,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "bits_per_trial": _ratio(sum(t.report.queries_used for t in _trials(runs)), len(times)),
    }
    return metrics, runs, certs, {"setups_s": setups, "round_trials_per_s": rates,
                                  "trial_count": len(times), "unscaled_times": raw,
                                  "calibrations_s": log.calibrations}


def per_layer(harness, log, workload, seed: int, trials, import_s: float) -> tuple:
    from spans import Tracer, layer_metrics

    certs = {}
    # The first pass only warms the process up (first allocations, caches);
    # every later pass runs the same specs.
    _, warm, cases = one_round(harness, log, workload, seed, 0, trials, certs)
    seeds = [r.spec_seed for r in warm]
    plain = run_cases(harness, log, workload.name, cases, seeds)
    tracer = Tracer()
    tracer.install()
    log.tracer = tracer
    try:
        _, traced, _ = one_round(harness, log, workload, seed, 0, trials, certs)
    finally:
        tracer.uninstall()
        log.tracer = None
    pool = run_cases(harness, log, workload.name, cases, seeds, workers=2)

    n = workload.n
    done = _trials(traced)
    metrics = layer_metrics(tracer.spans, n)
    samples = [sum(t.report.samples_used) for t in done]
    metrics["core.draw.held_mib"] = _ratio(sum(samples) * n * 2, len(samples)) / 2**20
    metrics["core.work_ratio"] = _ratio(sum(t.report.queries_used for t in done), sum(samples) * n)
    trial_spans = sum(s.end - s.start for s in tracer.spans if s.name == "harness.trial")
    loop_s = sum(r.report.elapsed_seconds for r in traced if r.report is not None)
    metrics["harness.self_s"] = loop_s - trial_spans
    metrics["harness.import_s"] = import_s
    metrics["harness.report_s"] = sum(r.report_s for r in plain)
    metrics["harness.pool_speedup"] = _ratio(_trials_per_s(pool), _trials_per_s(plain))
    metrics["trace.overhead"] = _ratio(sum(t.seconds for t in _trials(traced)),
                                       sum(t.seconds for t in _trials(plain)))
    # The tracer and the worker count must not change a single verdict or bill.
    # The later passes repeat the warm-up's trials, so only the warm-up's are
    # counted and pooled for the Wilson check; the others must match it.
    repeats = (("untraced", plain), ("traced", traced), ("two-worker", pool))
    mismatch = [f"{a.label}: {phase} report differs from the first pass"
                for phase, runs in repeats
                for a, b in zip(warm, runs)
                if a.report is None or b.report is None or a.report.records != b.report.records]
    mismatch += [f"{r.label}: {phase} pass: {t.failure}"
                 for phase, runs in repeats for r in runs for t in r.trials if t.failure]
    OUT.mkdir(exist_ok=True)
    tracer.write_csv(OUT / f"{workload.name}-seed{seed}-spans.csv")
    return metrics, warm, certs, {"span_count": len(tracer.spans),
                                  "determinism_failures": mismatch}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, probedist) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "probedist": probedist.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
    }


def _wilson_checks(harness, runs) -> dict:
    by_case: dict[str, list] = {}
    for r in runs:
        if r.report is not None:
            by_case.setdefault(r.label, []).extend(r.report.records)
    out = {}
    for label, records in by_case.items():
        expectation = "accept" if label == "member" else "reject"
        hits = sum(rec.verdict == expectation for rec in records)
        out[label] = {"trials": len(records), "successes": hits,
                      "wilson_low": harness.wilson_interval(hits, len(records))[0]}
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float = 0.0) -> dict:
    """Run one workload; returns the full result record (see module doc).

    ``import_s`` is the measured time of the first ``import probedist``.
    """
    import probedist
    from probedist import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    trials = workload.plan(seconds)
    if trace:
        # A traced run makes one round, and its Wilson check counts that
        # round's trials once, so each case gets at least TRACE_CASE_TRIALS.
        trials = tuple(max(t, TRACE_CASE_TRIALS) for t in trials)
    with TrialLog(harness) as log:
        if trace:
            metrics, runs, certs, extra = per_layer(harness, log, workload, seed, trials, import_s)
        else:
            metrics, runs, certs, extra = end_to_end(harness, log, workload, seed, trials)
    wilson = _wilson_checks(harness, runs)
    failures = [f"{r.label}: {t.failure}" for r in runs for t in r.trials if t.failure]
    failures += [f"{r.label}: run_experiment raised" for r in runs if r.report is None]
    failures += [f"{label}: wilson low {w['wilson_low']:.3f} < {WILSON_FLOOR}"
                 for label, w in wilson.items() if w["wilson_low"] < WILSON_FLOOR]
    failures += extra.pop("determinism_failures", [])
    return {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "trials_per_round": list(trials),
        "provenance": provenance(seed, probedist),
        "certificates": certs,
        "cases": [{"label": r.label, "spec_seed": r.spec_seed, "trials": r.planned,
                   "failed": r.failed, "sha256": r.sha256} for r in runs],
        "wilson": wilson,
        "failures": failures,
        "attempted": sum(r.planned for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": metrics,
        **extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "probedist" / "__init__.py").is_file():
        print(f"perfbench: no probedist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    start = time.perf_counter()
    import probedist  # noqa: F401

    import_s = time.perf_counter() - start
    from workloads import WORKLOADS, CertificateError

    if args.workload not in WORKLOADS or args.seconds < 1 or args.seed < 0:
        parser.error(f"--workload is one of {sorted(WORKLOADS)}; --seconds >= 1; --seed >= 0")
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              import_s=import_s)
    except CertificateError as exc:
        print(f"perfbench: fixture certificate failed: {exc}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    wanted = [m["name"] for m in config["per_layer" if args.trace else "end_to_end"]]
    missing = set(wanted) - set(result["metrics"])
    if missing:
        print(f"perfbench: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 2
    metrics = {name: {"value": result["metrics"][name], "unit": units[name]} for name in wanted}

    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    for name in wanted:
        print(f"{name:<48} {metrics[name]['value']:>16.6g} {metrics[name]['unit']}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    correct = not result["failures"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
