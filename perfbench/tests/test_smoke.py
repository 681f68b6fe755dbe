import dataclasses

import pytest

import run
import workloads

# (member, far) trials for the one round a smoke run makes: enough for a
# Wilson low of 0.66 on every case.
SMOKE_TRIALS = {
    "support-wide": (8, 8),
    "selfcorrect-hadamard": (8, 8),
    "noisy-implicit": (8, 8),
    "pair-equality": (30, 30),
}
END_TO_END = {"trials_per_s", "trial_ms_p50", "trial_ms_p90", "setup_s", "peak_rss_mib",
              "bits_per_trial"}


def smoke_sized(monkeypatch, name: str, trials=None) -> None:
    """One round of the smoke trial counts instead of the planned run."""
    one_round = dataclasses.replace(workloads.WORKLOADS[name], rounds=1)
    monkeypatch.setitem(workloads.WORKLOADS, name, one_round)
    monkeypatch.setattr(workloads.Workload, "plan",
                        lambda self, seconds: trials or SMOKE_TRIALS[self.name])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_clean_with_every_check(name, monkeypatch):
    smoke_sized(monkeypatch, name)
    result = run.run_workload(name, seed=3, seconds=1, trace=False)
    assert result["failures"] == []
    assert result["failed"] == 0
    assert result["attempted"] == sum(SMOKE_TRIALS[name])
    assert all(c["ok"] for round_certs in result["certificates"].values()
               for c in round_certs.values())
    assert all(case["sha256"] for case in result["cases"])
    assert set(result["metrics"]) == END_TO_END
    assert all(v > 0 for v in result["metrics"].values())


def test_budget_law_and_one_sided_checks_flag_bad_reports():
    from probedist.core import TesterReport

    ok = TesterReport("accept", (2,), 4, {"budget": {"kind": "exact", "value": 4}})
    assert run.check(ok, 8, one_sided=True) is None
    assert "exact budget" in run.check(TesterReport("accept", (2,), 5, ok.trace), 8, False)
    over = TesterReport("accept", (2,), 17, {"budget": {"kind": "bound", "value": 99}})
    assert "samples * n" in run.check(over, 8, False)
    rejected = TesterReport("reject", (2,), 4, ok.trace)
    assert run.check(rejected, 8, one_sided=False) is None
    assert "one-sided" in run.check(rejected, 8, one_sided=True)


def test_raising_trial_counts_the_rest_of_its_spec_as_failed(monkeypatch):
    from probedist import harness

    calls = {"n": 0}
    real = harness.build_tester("support")

    def flaky(oracle, params, constants, seed):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("boom")
        return real(oracle, params, constants, seed)

    monkeypatch.setitem(harness.TESTERS, "support", flaky)
    case = workloads.Case("member", "support", {"m": 2, "eps": 0.5},
                          [{"kind": "uniform-strings", "params": {"strings": ["0101", "1100"]}}],
                          "accept", True, 5)
    with run.TrialLog(harness) as log:
        (result,) = run.run_cases(harness, log, "unit", [case], [7])
    assert result.report is None
    assert len(result.trials) == 2
    assert result.failed == 3


def test_traced_run_reports_every_per_layer_metric(monkeypatch):
    import json

    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    smoke_sized(monkeypatch, "pair-equality")
    result = run.run_workload("pair-equality", seed=3, seconds=1, trace=True)
    assert result["failures"] == []
    assert result["attempted"] == 60
    assert set(result["metrics"]) == {m["name"] for m in config["per_layer"]}
    assert result["metrics"]["core.query_block.billed"] > 0
    assert result["metrics"]["std_testers.std_equality_tester.calls"] == 60


def test_traced_run_counts_each_trial_once_for_the_wilson_check(monkeypatch):
    # The member case runs first and rejects on its first nine distinct trial
    # seeds, which leaves its Wilson low just under the floor.  The traced run
    # repeats every trial four times, and pooled the repeats would pass.
    from probedist import harness

    real = harness.build_tester("pair-equality")
    flipped: dict[int, bool] = {}

    def strict(oracle, params, constants, seed):
        report = real(oracle, params, constants, seed)
        # Every seed is first seen in the single-threaded warm-up pass.
        if flipped.setdefault(seed.entropy, len(flipped) < 9):
            report = dataclasses.replace(report, verdict="reject")
        return report

    monkeypatch.setitem(harness.TESTERS, "pair-equality", strict)
    smoke_sized(monkeypatch, "pair-equality", trials=(42, 30))
    result = run.run_workload("pair-equality", seed=3, seconds=1, trace=True)
    assert result["attempted"] == 72
    member = result["wilson"]["member"]
    assert member["trials"] == 42
    pooled = harness.wilson_interval(4 * member["successes"], 4 * member["trials"])[0]
    assert member["wilson_low"] < run.WILSON_FLOOR <= pooled
    assert [f.split(" low")[0] for f in result["failures"]] == ["member: wilson"]


def test_traced_run_gives_each_case_enough_trials_for_the_wilson_check(monkeypatch):
    smoke_sized(monkeypatch, "support-wide", trials=(3, 3))
    result = run.run_workload("support-wide", seed=3, seconds=1, trace=True)
    assert result["trials_per_round"] == [run.TRACE_CASE_TRIALS] * 2
    assert result["attempted"] == 2 * run.TRACE_CASE_TRIALS
    assert result["failures"] == []
