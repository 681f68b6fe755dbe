"""Tests for the experiment harness: specs, runs, reports, calibration,
and distribution file I/O."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from probedist.constants import DEFAULT_CONSTANTS, Constants
from probedist.core import FiniteDistribution
from probedist.generators import coordinate_noise_dist, uniform_random_subset
from probedist.harness import (
    REQUIRED,
    TESTERS,
    CalibrationResult,
    ExperimentSpec,
    build_source,
    calibrate_constant,
    calibrate_tester,
    load_distribution,
    run_experiment,
    save_distribution,
    wilson_interval,
)

# 95 percent z rather than the two-digit default, to match the frozen
# reference intervals below (computed once with an independent library)
Z95 = 1.959963984540054

WILSON_REFERENCE = [
    (90, 100, 0.825634338495, 0.944770862939),
    (0, 20, 0.0, 0.161125158053),
    (20, 20, 0.838874841947, 1.0),
    (1, 3, 0.061491944720, 0.792340399198),
    (660, 1000, 0.630077319590, 0.688698117695),
]


class TestWilsonInterval:
    def test_matches_reference_values(self):
        for k, n, lo, hi in WILSON_REFERENCE:
            got_lo, got_hi = wilson_interval(k, n, z=Z95)
            assert got_lo == pytest.approx(lo, abs=1e-9)
            assert got_hi == pytest.approx(hi, abs=1e-9)

    def test_contains_point_estimate(self):
        for k, n in [(3, 10), (50, 60), (0, 5), (7, 7)]:
            lo, hi = wilson_interval(k, n)
            assert lo <= k / n <= hi

    def test_edge_clamping(self):
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0
        lo, hi = wilson_interval(10, 10)
        assert hi == 1.0

    def test_argument_guards(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)


def _support_spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="support-accept",
        tester="support",
        tester_params={"m": 2, "eps": 0.5},
        sources=[{"kind": "uniform-strings",
                  "params": {"strings": ["0011001100110011", "1100110011001100"]}}],
        trials=12,
        seed=42,
        expectation="accept",
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    def test_json_round_trip(self):
        spec = _support_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_unknown_tester_rejected(self):
        with pytest.raises(ValueError, match="unknown tester"):
            _support_spec(tester="nonsense")

    def test_source_count_and_trials_validation(self):
        with pytest.raises(ValueError):
            _support_spec(sources=[])
        with pytest.raises(ValueError):
            _support_spec(trials=0)
        with pytest.raises(ValueError):
            _support_spec(expectation="maybe")
        with pytest.raises(ValueError, match="workers"):
            _support_spec(workers=0)
        with pytest.raises(ValueError, match="tester_params"):
            _support_spec(tester_params=[2, 0.5])

    def test_from_dict_rejects_bad_shapes(self):
        data = _support_spec().to_dict()
        with pytest.raises(ValueError, match="unknown spec key 'color'"):
            ExperimentSpec.from_dict({**data, "color": "red"})
        del data["sources"]
        with pytest.raises(ValueError, match="missing spec key 'sources'"):
            ExperimentSpec.from_dict(data)
        with pytest.raises(ValueError, match="JSON object"):
            ExperimentSpec.from_json("[1, 2]")

    def test_unknown_generator_kind(self):
        with pytest.raises(ValueError, match="unknown generator"):
            build_source({"kind": "nonsense", "params": {}}, seed=0)


class TestTesterRegistry:
    # Param checks run before the oracle is touched, so no oracle is needed.
    @pytest.mark.parametrize("tester", sorted(TESTERS))
    def test_rejects_unknown_and_missing_params(self, tester):
        entry = TESTERS[tester]
        params = FIXED_SPECS[tester][0]
        with pytest.raises(ValueError, match="unknown tester param 'bogus'"):
            entry(None, {**params, "bogus": 1}, DEFAULT_CONSTANTS, 0)
        required = [p for p, (_, default) in entry.params.items() if default is REQUIRED]
        assert required
        for name in required:
            rest = {k: v for k, v in params.items() if k != name}
            with pytest.raises(ValueError, match=f"missing tester param '{name}'"):
                entry(None, rest, DEFAULT_CONSTANTS, 0)

    def test_rejects_unconvertible_values(self):
        with pytest.raises(ValueError, match="tester param 'm' must be int"):
            TESTERS["support"](None, {"m": "two", "eps": 0.5}, DEFAULT_CONSTANTS, 0)
        with pytest.raises(ValueError, match="tester param 'eps' must be float"):
            TESTERS["support"](None, {"m": 2, "eps": None}, DEFAULT_CONSTANTS, 0)
        with pytest.raises(ValueError, match="tester param 'both_bounded' must be bool"):
            TESTERS["pair-equality"](None, {"m": 2, "eps": 0.5, "both_bounded": "false"},
                                     DEFAULT_CONSTANTS, 0)

    def test_composite_params_reject_unknown_names(self):
        with pytest.raises(ValueError, match="unknown string property 'nope'"):
            TESTERS["membership"](None, {"property": "nope", "eps": 0.5}, DEFAULT_CONSTANTS, 0)
        with pytest.raises(ValueError, match="unknown inner decision rule 'nope'"):
            TESTERS["projected"](None, {"inner": "nope", "m": 2, "eps": 0.5},
                                 DEFAULT_CONSTANTS, 0)

    def test_searchable_constants_are_constants(self):
        known = set(DEFAULT_CONSTANTS.to_dict())
        for entry in TESTERS.values():
            assert entry.constants and set(entry.constants) <= known

    def test_readme_table_matches_registry(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        for name, entry in TESTERS.items():
            required = [f"`{p}` {kind.__name__}"
                        for p, (kind, default) in entry.params.items() if default is REQUIRED]
            optional = [f"`{p}` {kind.__name__} = `{json.dumps(default)}`"
                        for p, (kind, default) in entry.params.items()
                        if default is not REQUIRED]
            found = ", ".join(f"`{c}`" for c in entry.constants)
            row = f"| `{name}` | {', '.join(required)} | {', '.join(optional)} | {found} |"
            assert row in readme, f"README tester table is out of date for {name}"


class TestRunExperiment:
    def test_deterministic_across_worker_counts(self):
        # pair equality draws from two explicit sources that every worker
        # thread shares, with their draw tables
        pair = dict(name="pair-eq", tester="pair-equality",
                    tester_params={"m": 4, "eps": 0.5}, sources=[_SUBSET, _SUBSET])
        for params in ({}, pair):
            serial = run_experiment(_support_spec(**params, workers=1)).to_json_dict()
            threaded = run_experiment(_support_spec(**params, workers=4)).to_json_dict()
            # the experiment block records the requested worker count; everything
            # the trials produced must be byte-identical
            spec_s, spec_t = serial.pop("spec"), threaded.pop("spec")
            assert spec_s.pop("workers") == 1 and spec_t.pop("workers") == 4
            assert spec_s == spec_t
            assert json.dumps(serial, sort_keys=True) == json.dumps(threaded, sort_keys=True)

    def test_report_shape_and_rates(self):
        rep = run_experiment(_support_spec())
        assert len(rep.records) == 12
        # in-support fixture under a one-sided tester: every trial accepts
        assert rep.accept_rate == 1.0
        assert rep.success_rate == 1.0
        agg = rep.aggregates()
        assert agg["trials"] == 12 and agg["accepts"] == 12
        assert agg["wilson_low"] <= agg["accept_rate"] <= agg["wilson_high"]
        assert agg["success_rate"] == 1.0
        assert "elapsed" not in json.dumps(rep.to_json_dict())

    def test_csv_and_json_agree(self):
        rep = run_experiment(_support_spec(trials=7))
        csv_lines = rep.to_csv_text().strip().split("\n")
        assert csv_lines[0] == "trial,seed,verdict,samples,queries"
        records = rep.to_json_dict()["records"]
        assert len(csv_lines) == 1 + len(records)
        for line, rec in zip(csv_lines[1:], records):
            trial, seed, verdict, samples, queries = line.split(",")
            assert int(trial) == rec["trial"]
            assert int(seed) == rec["seed"]
            assert verdict == rec["verdict"]
            assert int(samples) == rec["samples"]
            assert int(queries) == rec["queries"]

    def test_version_stamp(self):
        from probedist import __version__

        rep = run_experiment(_support_spec(trials=2))
        assert rep.to_json_dict()["version"] == __version__

    def test_two_source_spec(self):
        src = {"kind": "uniform-random-subset", "params": {"n": 32, "m": 4,
                                                           "min_distance": 0.3}}
        spec = ExperimentSpec(
            name="eq",
            tester="pair-equality",
            tester_params={"m": 4, "eps": 0.5},
            sources=[src, src],
            trials=6,
            seed=3,
        )
        rep = run_experiment(spec)
        assert all(len(r.samples) == 2 for r in rep.records)
        assert rep.success_rate is None


# One small fixed spec per registered tester, and the sha256 of its
# run_experiment JSON (json.dumps(report.to_json_dict(), indent=2)).  The
# harness seed discipline makes those bytes a pure function of the spec, so
# a refactor of the tester registry or the testers must leave them unchanged;
# a stream that changes on purpose needs its digest re-recorded here.
_S16 = {"kind": "uniform-strings",
        "params": {"strings": ["0011001100110011", "1100110011001100"]}}
_X16 = "0110100110010110"
_HADAMARD = {"kind": "hadamard-codewords", "params": {"k": 4, "messages": ["0001", "0110"]}}
_PATH4 = [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]
_SUBSET = {"kind": "uniform-random-subset", "params": {"n": 32, "m": 4, "min_distance": 0.3}}

FIXED_SPECS = {
    "support": ({"m": 2, "eps": 0.5}, [_S16],
                "989fb129342009bd35cede1063749aa5dc228743d8b81f3923f89c6d9483701c"),
    "grained": ({"m": 2, "eps": 0.5}, [_S16],
                "44a6a921c1e566caa0855c5a0ed5512adcc4a2c0ffb9d3249f429a5026229081"),
    "uniformity": ({"m": 2, "eps": 0.5}, [_S16],
                   "a75b9eaa2c8aca74943065c88dd2be36b9d85d423cfcbcaf18498b7b3ff459c6"),
    "pair-equality": ({"m": 4, "eps": 0.5}, [_SUBSET, _SUBSET],
                      "d2303a04be8e7224f884b51179872b84e25f7450608fc20f40f30116c8838cb8"),
    "perturbation": ({"eta": 0.1, "delta": 0.3, "eps": 0.5},
                     [{"kind": "perturbation",
                       "params": {"x": "0" * 32, "eta": 0.1, "delta": 0.3}}],
                     "730c0cfbb2418b42f1a391667950b102d476142e2532fa2bcfd0ae15c4b754f9"),
    "rotation-family": ({"eps": 0.5, "mode": "staged"},
                        [{"kind": "rotations", "params": {"x": _X16}}],
                        "845c73882b7b20feb2cc17893524fa146af1b01715fc8fd66d903a9411e3ba67"),
    "rotation-law": ({"law": [1 / 16] * 16, "eps": 0.5},
                     [{"kind": "rotations", "params": {"x": _X16}}],
                     "c2c1124af825c7ca9d7fd0646cc8c5d1d9bbb949387a6e419f3530257f31f6e3"),
    "graph-copies": ({"eps": 0.5}, [{"kind": "graph-copies", "params": {"adjacency": _PATH4}}],
                     "6feb0ce06a6a4656b06fa3a22ecdd56723e77db34d1833cf6d44fcad4f4ef5d1"),
    "membership": ({"eps": 0.5, "mode": "staged"}, [_HADAMARD],
                   "0a688f1006d826e8dd5f6ca1df4bcb99f5064b1b5c5a72d6c20f6e72495c9268"),
    "noisy-membership": ({"eta": 0.1, "delta": 0.3, "eps": 0.5},
                         [{"kind": "coordinate-noise",
                           "params": {"x": "0" * 32, "flip_probs": [0.05] * 32}}],
                         "ff935a67b9e3249ea860260c0bf4495557824d1ac9a11b796056e009c9ce132a"),
    "projected": ({"inner": "grained", "m": 2, "eps": 0.5}, [_S16],
                  "22117b20a1041a102df7a1e26e7c84719b1eb2a51ab64af499b0e4783f778047"),
    "self-correcting-hadamard": ({"k": 4, "m": 2, "eps": 0.5}, [_HADAMARD],
                                 "72f6082364db3e78adb6330ec8c7e4454f69817543e9c30ec67a61a9f601bcdd"),
}


class TestFixedSpecReports:
    def test_covers_every_registered_tester(self):
        assert set(FIXED_SPECS) == set(TESTERS)

    @pytest.mark.parametrize("tester", sorted(FIXED_SPECS))
    def test_report_bytes_unchanged(self, tester):
        params, sources, digest = FIXED_SPECS[tester]
        spec = ExperimentSpec(name=f"fixed-{tester}", tester=tester, tester_params=params,
                              sources=sources, trials=4, seed=5)
        text = json.dumps(run_experiment(spec).to_json_dict(), indent=2)
        got = hashlib.sha256(text.encode()).hexdigest()
        assert got == digest, f"{tester}: run_experiment JSON changed"


# Out-of-family sources that these testers reject at an early comparison.
# Each compared sample is drawn when its comparison starts, so a run that
# stops early has read every sample it drew and meets the runtime budget law
# (samples <= queries) instead of raising BudgetLawError.
_EARLY_REJECT = {
    "rotation-family-plain": ("rotation-family", {"eps": 0.1}, ["0001", "0011"]),
    "rotation-family-staged": ("rotation-family", {"eps": 0.1, "mode": "staged"},
                               ["0001", "0011"]),
    "graph-copies-v2": ("graph-copies", {"eps": 0.1}, ["0110", "0000"]),
    "graph-copies-v3": ("graph-copies", {"eps": 0.1}, ["010101010", "000000000"]),
}


class TestEarlyRejection:
    @pytest.mark.parametrize("case", sorted(_EARLY_REJECT))
    def test_draws_only_the_samples_it_reads(self, case):
        tester, params, strings = _EARLY_REJECT[case]
        spec = ExperimentSpec(name=case, tester=tester, tester_params=params,
                              sources=[{"kind": "uniform-strings", "params": {"strings": strings}}],
                              trials=20, seed=1)
        records = run_experiment(spec).records
        assert all(r.verdict == "reject" for r in records)
        assert min(r.total_samples for r in records) == 2  # rejected at the first comparison
        assert all(r.total_samples <= r.queries for r in records)


def _calibration_suite():
    accept = _support_spec(trials=40)
    reject = ExperimentSpec(
        name="support-reject",
        tester="support",
        tester_params={"m": 2, "eps": 0.25},
        sources=[{"kind": "uniform-random-subset",
                  "params": {"n": 32, "m": 6, "min_distance": 0.3}}],
        trials=40,
        seed=7,
        expectation="reject",
    )
    return [accept, reject]


class TestCalibration:
    def test_constant_search_smoke(self):
        suite = _calibration_suite()
        result = calibrate_constant(
            "support_samples", suite, lo=1.0, trials=40, confirm_trials=80
        )
        assert isinstance(result, CalibrationResult)
        assert result.value > 0
        assert all(rate >= 0.9 for rate in result.case_rates.values())
        again = calibrate_constant(
            "support_samples", suite, lo=1.0, trials=40, confirm_trials=80
        )
        assert again.value == result.value
        assert again.suite_hash == result.suite_hash

    def test_unknown_constant(self):
        with pytest.raises(ValueError, match="unknown constant"):
            calibrate_constant("bogus", _calibration_suite())

    def test_empty_suite(self):
        with pytest.raises(ValueError, match="empty"):
            calibrate_constant("support_samples", [])

    def test_expectation_required(self):
        suite = [_support_spec(expectation=None)]
        with pytest.raises(ValueError, match="expectation"):
            calibrate_constant("support_samples", suite)

    def test_calibrate_tester_smoke(self):
        out = calibrate_tester(
            "support", _calibration_suite(), trials=30, confirm_trials=60
        )
        assert out["tester"] == "support"
        assert set(out["constants"]) == {"support_samples"}
        assert out["results"][0]["target"] == 0.9

    def test_calibrate_tester_unknown(self):
        with pytest.raises(ValueError, match="unknown tester"):
            calibrate_tester("bogus", _calibration_suite())


class TestDistributionFiles:
    def test_round_trip(self, tmp_path):
        p = uniform_random_subset(3, n=24, m=5, min_distance=0.2)
        path = tmp_path / "dist.txt"
        save_distribution(path, p)
        q = load_distribution(path)
        assert np.array_equal(p.rows, q.rows)
        assert np.allclose(p.weights, q.weights, atol=1e-15)

    def test_rejects_bad_weight_sum(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("n 2\n00 0.5\n11 0.4\n")
        with pytest.raises(ValueError, match="sum"):
            load_distribution(path)

    def test_rejects_malformed_files(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n00 1.0\n")
        with pytest.raises(ValueError):
            load_distribution(path)
        path.write_text("n 2\n0x 1.0\n")
        with pytest.raises(ValueError):
            load_distribution(path)
        path.write_text("n 2\n")
        with pytest.raises(ValueError, match="no atoms"):
            load_distribution(path)

    def test_rejects_implicit_distributions(self, tmp_path):
        imp = coordinate_noise_dist("0000", np.full(4, 0.1))
        with pytest.raises(ValueError):
            save_distribution(tmp_path / "x.txt", imp)

    def test_weights_survive_repr_round_trip(self, tmp_path):
        p = FiniteDistribution(
            rows=np.array([[0, 1], [1, 0], [1, 1]], dtype=np.uint8),
            weights=np.array([1 / 3, 1 / 3, 1 / 3]),
        )
        path = tmp_path / "thirds.txt"
        save_distribution(path, p)
        q = load_distribution(path)
        assert np.array_equal(q.weights, p.weights)


class TestConstantsFromFile:
    """``Constants`` field defaults are the shipped values; files only tune them."""

    def test_reads_calibrate_output(self, tmp_path):
        path = tmp_path / "tuned.json"
        path.write_text(json.dumps({
            "tester": "support",
            "constants": {"support_samples": 5.0, "support_positions": 6.5},
            "results": [],
            "suite_hash": "0" * 64,
        }))
        assert Constants.from_file(path) == DEFAULT_CONSTANTS.replace(
            support_samples=5.0, support_positions=6.5
        )

    def test_reads_flat_dict(self, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"equality_mean": 40, "amplification": 3}))
        loaded = Constants.from_file(path)
        assert loaded == DEFAULT_CONSTANTS.replace(equality_mean=40.0, amplification=3.0)
        assert isinstance(loaded.equality_mean, float)

    def test_rejects_unknown_name(self, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"constants": {"support_sample": 5.0}}))
        with pytest.raises(ValueError, match="support_sample"):
            Constants.from_file(path)
