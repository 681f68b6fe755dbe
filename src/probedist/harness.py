"""Experiment harness: repeated tester trials, aggregation, calibration.

An experiment is a JSON-serializable spec naming a tester, its parameters,
and one or two instance generators.  Running it replays the tester over
many trials with independent oracle and tester randomness but one shared
instance, then reports acceptance rates with Wilson confidence bounds and
query statistics.

Seed discipline: the experiment seed feeds a SeedSequence whose first
child seeds instance construction and whose second child emits one 64-bit
seed per trial; each trial seed then splits into an oracle stream and a
tester stream.  Trial outcomes therefore depend only on (experiment seed,
trial index), never on worker count or execution order.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from . import testers
from .constants import DEFAULT_CONSTANTS, Constants
from .core import BilledOracle, FiniteDistribution, TesterReport, _to01, new_rng
from .generators import (
    code_lift,
    coordinate_noise_dist,
    hadamard_code,
    inside_outside_mixture,
    iso_copies_dist,
    mixture,
    perturb_dist,
    shift_dist,
    uniform_random_subset,
)
from .std_testers import GrainedInner, SupportInner
from .strings import ConstantTester, LinearityTester, hadamard_property

__all__ = [
    "ExperimentSpec",
    "TrialRecord",
    "ExperimentReport",
    "run_experiment",
    "wilson_interval",
    "calibrate_constant",
    "calibrate_tester",
    "CalibrationResult",
    "build_source",
    "build_tester",
    "save_distribution",
    "load_distribution",
    "TESTERS",
    "TesterEntry",
    "REQUIRED",
    "GENERATORS",
]


# ---------------------------------------------------------------------------
# spec params

REQUIRED = object()  # marks a spec param that has no default


def _checked_params(params: dict, schema: dict, what: str) -> dict:
    """Check ``params`` against ``schema`` and return them as keywords.

    ``schema`` maps each param name to (type, default or REQUIRED).  An
    unknown or missing param, or a value that does not convert to its type,
    is a ValueError naming the param.  Type ``object`` takes any value as
    it is; a bool param must be a JSON boolean, because bool("false") is
    True.
    """
    unknown = sorted(set(params) - set(schema))
    if unknown:
        raise ValueError(f"unknown {what} param {unknown[0]!r} (expected {', '.join(schema)})")
    kw = {}
    for name, (kind, default) in schema.items():
        if name not in params:
            if default is REQUIRED:
                raise ValueError(f"missing {what} param {name!r}")
            kw[name] = default
        elif kind is object:
            kw[name] = params[name]
        else:
            try:
                if kind is bool and not isinstance(params[name], bool):
                    raise TypeError
                kw[name] = kind(params[name])
            except (TypeError, ValueError):
                raise ValueError(
                    f"{what} param {name!r} must be {kind.__name__}, got {params[name]!r}"
                ) from None
    return kw


# ---------------------------------------------------------------------------
# instance generators reachable from specs


def _gen_hadamard_codewords(rng, k, messages):
    return code_lift(hadamard_code(k), FiniteDistribution.uniform_over(messages))


def _gen_mixture(rng, components, weights):
    return mixture([build_source(c, rng) for c in components], weights)


_X = {"x": (object, REQUIRED)}
_STRINGS = {"strings": (list, REQUIRED)}

# kind -> (build(rng, **params), params as name -> (type, default or REQUIRED))
GENERATORS = {
    "point": (lambda rng, x: FiniteDistribution.point(x), _X),
    "uniform-strings": (lambda rng, strings: FiniteDistribution.uniform_over(strings), _STRINGS),
    "atoms": (
        lambda rng, atoms: FiniteDistribution(atoms=[(bits, float(w)) for bits, w in atoms]),
        {"atoms": (list, REQUIRED)},
    ),
    "uniform-random-subset": (
        uniform_random_subset,
        {"n": (int, REQUIRED), "m": (int, REQUIRED), "min_distance": (float, 0.0)},
    ),
    "rotations": (lambda rng, x, law: shift_dist(x, law=law), {**_X, "law": (list, None)}),
    "perturbation": (
        lambda rng, x, eta, delta, rate: perturb_dist(x, eta=eta, delta=delta, rate=rate),
        {**_X, "eta": (float, REQUIRED), "delta": (float, REQUIRED), "rate": (float, None)},
    ),
    "coordinate-noise": (
        lambda rng, x, flip_probs: coordinate_noise_dist(x, flip_probs),
        {**_X, "flip_probs": (list, REQUIRED)},
    ),
    "inside-outside": (lambda rng, strings: inside_outside_mixture(strings), _STRINGS),
    "graph-copies": (
        lambda rng, adjacency: iso_copies_dist(adjacency), {"adjacency": (object, REQUIRED)}
    ),
    "hadamard-codewords": (
        _gen_hadamard_codewords, {"k": (int, REQUIRED), "messages": (list, REQUIRED)}
    ),
    "mixture": (_gen_mixture, {"components": (list, REQUIRED), "weights": (list, REQUIRED)}),
}


def build_source(spec: dict, seed):
    """Build one instance from {"kind": ..., "params": {...}}.

    A param that ``GENERATORS`` does not list for the kind, a missing one,
    or one that does not convert to its type is a ValueError naming it.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("a source must be an object with a 'kind'")
    kind = spec["kind"]
    if kind not in GENERATORS:
        raise ValueError(f"unknown generator kind {kind!r}")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("generator params must be a JSON object")
    build, schema = GENERATORS[kind]
    return build(new_rng(seed), **_checked_params(params, schema, "generator"))


# ---------------------------------------------------------------------------
# testers reachable from specs

_STRING_PROPERTIES = {"linearity": LinearityTester, "constant": ConstantTester}
_INNER_RULES = {"support": SupportInner, "grained": GrainedInner}


def _lookup(table: dict, key: str, what: str):
    if key not in table:
        raise ValueError(f"unknown {what} {key!r}")
    return table[key]


@dataclass(frozen=True)
class TesterEntry:
    """One registered tester: a function of ``probedist.testers``, its spec
    params as name -> (type, default or REQUIRED), and the constants that
    ``calibrate_tester`` searches.

    Calling the entry runs one trial.  It rejects an unknown or missing spec
    param with a ValueError naming it, converts each param to its type, and
    resolves the composite ones: ``property`` names a string tester,
    ``inner`` (with ``m``) an inner decision rule, ``k`` the Hadamard
    property.  The function is named rather than held, so every call looks
    it up in ``probedist.testers``, as a direct call would, and a patch of
    that module attribute (a tracer's, a test's) reaches it.
    """

    function: str
    params: dict
    constants: tuple

    def __call__(self, oracle, params, constants, seed) -> TesterReport:
        kw = _checked_params(params, self.params, "tester")
        if "property" in kw:
            maker = _lookup(_STRING_PROPERTIES, kw.pop("property"), "string property")
            kw["string_tester"] = maker()
        if "inner" in kw:
            rule = _lookup(_INNER_RULES, kw["inner"], "inner decision rule")
            kw["inner"] = rule(m=kw.pop("m"), constants=constants)
        if "k" in kw:
            kw["prop"] = hadamard_property(kw.pop("k"))
        return getattr(testers, self.function)(oracle, seed=seed, constants=constants, **kw)


_M = {"m": (int, REQUIRED)}
_EPS = {"eps": (float, REQUIRED)}
_NOISE = {"eta": (float, REQUIRED), "delta": (float, REQUIRED)}

TESTERS = {
    "support": TesterEntry("support_tester", {**_M, **_EPS}, ("support_samples",)),
    "grained": TesterEntry("grained_tester", {**_M, **_EPS}, ("grained_phase2",)),
    "uniformity": TesterEntry("uniformity_tester", {**_M, **_EPS}, ("grained_phase2",)),
    "pair-equality": TesterEntry(
        "pair_equality_tester", {**_M, **_EPS, "both_bounded": (bool, True)}, ("equality_mean",)
    ),
    "perturbation": TesterEntry("perturbation_tester", {**_NOISE, **_EPS}, ("perturb_positions",)),
    "rotation-family": TesterEntry(
        "cyclic_shift_tester", {**_EPS, "mode": (str, "plain")}, ("shift_count", "offset_count")
    ),
    "rotation-law": TesterEntry(
        "shift_law_tester", {"law": (list, REQUIRED), **_EPS}, ("equality_mean",)
    ),
    "graph-copies": TesterEntry("graph_copies_tester", _EPS, ("ideal_samples",)),
    "membership": TesterEntry(
        "membership_tester",
        {"property": (str, "linearity"), **_EPS, "mode": (str, "plain")},
        ("membership_samples",),
    ),
    "noisy-membership": TesterEntry(
        "noisy_membership_tester",
        {"property": (str, "constant"), **_NOISE, **_EPS},
        ("noisy_majority",),
    ),
    "projected": TesterEntry(
        "projection_tester", {"inner": (str, "support"), **_M, **_EPS}, ("lift_positions",)
    ),
    "self-correcting-hadamard": TesterEntry(
        "self_correcting_tester",
        {"k": (int, REQUIRED), "inner": (str, "support"), **_M, **_EPS},
        ("correction_positions",),
    ),
}


def build_tester(name: str):
    if name not in TESTERS:
        raise ValueError(f"unknown tester {name!r}")
    return TESTERS[name]


# ---------------------------------------------------------------------------
# experiment spec and records


@dataclass
class ExperimentSpec:
    """One repeatable experiment: a tester against generated instances."""

    name: str
    tester: str
    tester_params: dict
    sources: list
    trials: int = 100
    seed: int = 0
    workers: int = 1
    expectation: str | None = None

    def __post_init__(self):
        if self.tester not in TESTERS:
            raise ValueError(f"unknown tester {self.tester!r}")
        if not isinstance(self.tester_params, dict):
            raise ValueError("tester_params must be an object")
        for key in ("trials", "seed", "workers"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{key} must be an integer")
        if not isinstance(self.sources, (list, tuple)) or not 1 <= len(self.sources) <= 2:
            raise ValueError("need one or two sources")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.expectation not in (None, "accept", "reject"):
            raise ValueError("expectation must be accept, reject, or omitted")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise ValueError("an experiment spec must be a JSON object")
        keys = {f.name: f.default is MISSING for f in fields(cls)}
        unknown = sorted(set(data) - set(keys))
        if unknown:
            raise ValueError(f"unknown spec key {unknown[0]!r}")
        missing = [key for key, required in keys.items() if required and key not in data]
        if missing:
            raise ValueError(f"missing spec key {missing[0]!r}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    verdict: str
    samples: tuple
    queries: int

    @property
    def total_samples(self) -> int:
        return int(sum(self.samples))


@dataclass
class ExperimentReport:
    spec: ExperimentSpec
    records: list
    elapsed_seconds: float
    constants: Constants = field(default_factory=lambda: DEFAULT_CONSTANTS)

    @property
    def accept_rate(self) -> float:
        return sum(r.verdict == "accept" for r in self.records) / len(self.records)

    @property
    def success_rate(self) -> float | None:
        """Rate of matching the declared expectation, when there is one."""
        if self.spec.expectation is None:
            return None
        return sum(r.verdict == self.spec.expectation for r in self.records) / len(
            self.records
        )

    def aggregates(self) -> dict:
        # deliberately excludes wall-clock time: serialized reports must be
        # byte-stable given equal seeds
        accepts = sum(r.verdict == "accept" for r in self.records)
        trials = len(self.records)
        lo, hi = wilson_interval(accepts, trials)
        queries = np.array([r.queries for r in self.records])
        samples = np.array([r.total_samples for r in self.records])
        out = {
            "trials": trials,
            "accepts": int(accepts),
            "accept_rate": accepts / trials,
            "wilson_low": lo,
            "wilson_high": hi,
            "mean_queries": float(queries.mean()),
            "max_queries": int(queries.max()),
            "mean_samples": float(samples.mean()),
        }
        if self.spec.expectation is not None:
            out["expectation"] = self.spec.expectation
            out["success_rate"] = self.success_rate
        return out

    def to_json_dict(self) -> dict:
        from . import __version__

        return {
            "spec": self.spec.to_dict(),
            "version": __version__,
            "aggregates": self.aggregates(),
            "records": [
                {
                    "trial": r.trial,
                    "seed": r.seed,
                    "verdict": r.verdict,
                    "samples": r.total_samples,
                    "samples_per_source": list(r.samples),
                    "queries": r.queries,
                }
                for r in self.records
            ],
        }

    def to_csv_text(self) -> str:
        lines = ["trial,seed,verdict,samples,queries"]
        for r in self.records:
            lines.append(
                f"{r.trial},{r.seed},{r.verdict},{r.total_samples},{r.queries}"
            )
        return "\n".join(lines) + "\n"


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (
        z
        * np.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return (max(0.0, center - half), min(1.0, center + half))


def run_experiment(
    spec: ExperimentSpec, constants: Constants = DEFAULT_CONSTANTS
) -> ExperimentReport:
    """Run every trial of an experiment; deterministic given its seed."""
    root = np.random.SeedSequence(spec.seed)
    instance_ss, trials_ss = root.spawn(2)
    source_seeds = instance_ss.spawn(len(spec.sources))
    sources = [build_source(s, ss) for s, ss in zip(spec.sources, source_seeds)]
    trial_seeds = trials_ss.generate_state(spec.trials, dtype=np.uint64)
    tester_fn = build_tester(spec.tester)

    def one_trial(i: int) -> TrialRecord:
        tseed = int(trial_seeds[i])
        oracle_ss, tester_ss = np.random.SeedSequence(tseed).spawn(2)
        oracle = BilledOracle(sources, seed=oracle_ss)
        report = tester_fn(oracle, spec.tester_params, constants, tester_ss)
        return TrialRecord(
            trial=i,
            seed=tseed,
            verdict=report.verdict,
            samples=tuple(report.samples_used),
            queries=report.queries_used,
        )

    start = time.perf_counter()
    if spec.workers > 1:
        with ThreadPoolExecutor(max_workers=spec.workers) as pool:
            records = list(pool.map(one_trial, range(spec.trials)))
    else:
        records = [one_trial(i) for i in range(spec.trials)]
    elapsed = time.perf_counter() - start
    return ExperimentReport(
        spec=spec, records=records, elapsed_seconds=elapsed, constants=constants
    )


# ---------------------------------------------------------------------------
# calibration


@dataclass
class CalibrationResult:
    constant: str
    value: float
    target: float
    trials: int
    confirm_trials: int
    case_rates: dict
    suite_hash: str

    def to_dict(self) -> dict:
        return asdict(self)


def _suite_hash(suite) -> str:
    payload = json.dumps([s.to_dict() for s in suite], sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def calibrate_constant(
    name: str,
    suite,
    lo: float = 1.0,
    hi: float = 4096.0,
    target: float = 0.9,
    trials: int = 120,
    confirm_trials: int = 600,
    constants: Constants = DEFAULT_CONSTANTS,
) -> CalibrationResult:
    """Find a small value of one constant meeting the target rate suite-wide.

    Every suite case must declare an expectation.  The search doubles the
    value until the whole suite clears the target, bisects eight times,
    then re-checks the winner at confirm_trials with fresh seeds, stepping
    up 25 percent at a time if the confirmation disagrees.
    """
    if name not in constants.to_dict():
        raise ValueError(f"unknown constant {name!r}")
    if not suite:
        raise ValueError("calibration suite is empty")
    if any(case.expectation is None for case in suite):
        raise ValueError("every calibration case needs an expectation")

    def rates(value: float, ntrials: int, salt: int) -> dict:
        cs = constants.replace(**{name: value})
        out = {}
        for case in suite:
            run_spec = replace(case, trials=ntrials, seed=case.seed * 1000003 + salt)
            out[case.name] = run_experiment(run_spec, cs).success_rate
        return out

    def passes(value: float, ntrials: int, salt: int) -> bool:
        return all(r >= target for r in rates(value, ntrials, salt).values())

    value = lo
    while not passes(value, trials, 1):
        value *= 2.0
        if value > hi:
            raise RuntimeError(
                f"no value of {name} up to {hi} meets the {target} target"
            )
    a, b = value / 2.0, value
    for _ in range(8):
        mid = (a + b) / 2.0
        if passes(mid, trials, 2):
            b = mid
        else:
            a = mid
    final = b
    for _ in range(5):
        final_rates = rates(final, confirm_trials, 3)
        if all(r >= target for r in final_rates.values()):
            return CalibrationResult(
                constant=name,
                value=final,
                target=target,
                trials=trials,
                confirm_trials=confirm_trials,
                case_rates=final_rates,
                suite_hash=_suite_hash(suite),
            )
        final *= 1.25
    raise RuntimeError(f"calibrated value of {name} failed confirmation")


def calibrate_tester(
    tester: str,
    suite,
    target: float = 0.9,
    trials: int = 120,
    confirm_trials: int = 600,
    constants: Constants = DEFAULT_CONSTANTS,
    only: str | None = None,
) -> dict:
    """Calibrate a tester's searchable constants in sequence over one suite.

    Each constant is searched with the previously calibrated ones already
    substituted.  Returns {"tester", "constants", "results", "suite_hash"}.
    """
    names = build_tester(tester).constants if only is None else [only]
    current = constants
    results = []
    for name in names:
        result = calibrate_constant(
            name,
            suite,
            target=target,
            trials=trials,
            confirm_trials=confirm_trials,
            constants=current,
        )
        current = current.replace(**{name: result.value})
        results.append(result.to_dict())
    return {
        "tester": tester,
        "constants": {r["constant"]: r["value"] for r in results},
        "results": results,
        "suite_hash": _suite_hash(suite),
    }


# ---------------------------------------------------------------------------
# distribution file I/O


def save_distribution(path, dist: FiniteDistribution) -> None:
    """Write an explicit distribution as 'n <n>' then '<bits> <weight>' lines."""
    if not isinstance(dist, FiniteDistribution):
        raise ValueError("only explicit distributions can be saved")
    lines = [f"n {dist.n}"]
    for row, w in zip(dist.rows, dist.weights):
        lines.append(f"{_to01(row)} {float(w)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_distribution(path) -> FiniteDistribution:
    """Read the save_distribution format; weights must sum to 1 within 1e-9."""
    with open(path) as fh:
        raw = [line.strip() for line in fh if line.strip()]
    if not raw or not raw[0].startswith("n "):
        raise ValueError("first line must be 'n <length>'")
    n = int(raw[0].split()[1])
    atoms = []
    for line in raw[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad atom line: {line!r}")
        bits, weight = parts
        if len(bits) != n or set(bits) - {"0", "1"}:
            raise ValueError(f"bad bit string: {bits!r}")
        atoms.append((bits, float(weight)))
    if not atoms:
        raise ValueError("no atoms")
    total = sum(w for _, w in atoms)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights sum to {total}, expected 1")
    atoms = [(bits, w / total) for bits, w in atoms]
    return FiniteDistribution(atoms=atoms)
