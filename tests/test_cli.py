"""End-to-end tests of the command line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from probedist import cli


def _write_point(tmp_path, name, bits):
    path = tmp_path / name
    path.write_text(f"n {len(bits)}\n{bits} 1.0\n")
    return path


class TestGenValidateDist:
    def test_gen_validate_round_trip(self, tmp_path, capsys):
        out = tmp_path / "subset.txt"
        rc = cli.main([
            "gen", "uniform-random-subset",
            "--params", '{"n": 16, "m": 4, "min_distance": 0.25}',
            "-o", str(out), "--seed", "5",
        ])
        assert rc == 0
        assert "n=16, 4 atoms" in capsys.readouterr().out
        rc = cli.main(["validate", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("ok: n=16, 4 atoms")

    def test_dist_emd_pinned_value(self, tmp_path, capsys):
        a = _write_point(tmp_path, "a.txt", "00")
        b = _write_point(tmp_path, "b.txt", "01")
        rc = cli.main(["dist", "emd", str(a), str(b)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.5"
        rc = cli.main(["dist", "emd", str(a), str(b), "--metric", "ineq"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_dist_tv_and_support(self, tmp_path, capsys):
        path = tmp_path / "two.txt"
        path.write_text("n 4\n0000 0.5\n1111 0.5\n")
        a = _write_point(tmp_path, "a.txt", "0000")
        rc = cli.main(["dist", "tv", str(path), str(a)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.5"
        rc = cli.main(["dist", "support", str(path), "1"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.5"

    def test_validate_reports_invalid(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("n 2\n00 0.5\n11 0.4\n")
        rc = cli.main(["validate", str(path)])
        assert rc == 1
        assert capsys.readouterr().out.startswith("invalid:")

    def test_gen_rejects_unknown_kind(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen", "nonsense", "-o", "x.txt"])
        assert exc.value.code == 2

    def test_gen_rejects_bad_params_json(self, tmp_path, capsys):
        rc = cli.main([
            "gen", "point", "--params", "{not json", "-o", str(tmp_path / "x.txt")
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "params, message",
        [
            ('{"n": 16, "m": 4, "min_distnce": 0.45}', "unknown generator param 'min_distnce'"),
            ('{"n": null, "m": 4}', "generator param 'n' must be int"),
            ('{"m": 4}', "missing generator param 'n'"),
            ("[16, 4]", "generator params must be a JSON object"),
        ],
    )
    def test_gen_rejects_bad_params(self, tmp_path, capsys, params, message):
        out = tmp_path / "x.txt"
        rc = cli.main(["gen", "uniform-random-subset", "--params", params, "-o", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def _spec_dict(**overrides):
    spec = {
        "name": "cli-support",
        "tester": "support",
        "tester_params": {"m": 2, "eps": 0.5},
        "sources": [
            {"kind": "uniform-strings",
             "params": {"strings": ["0011001100110011", "1100110011001100"]}}
        ],
        "trials": 8,
        "seed": 11,
        "workers": 1,
        "expectation": "accept",
    }
    spec.update(overrides)
    return spec


class TestRunCommand:
    def test_run_json_output(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_spec_dict()))
        out = tmp_path / "report.json"
        rc = cli.main(["run", str(spec_path), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["aggregates"]["trials"] == 8
        assert report["aggregates"]["accept_rate"] == 1.0
        assert len(report["records"]) == 8

    def test_run_overrides_and_csv(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_spec_dict()))
        out = tmp_path / "report.csv"
        rc = cli.main([
            "run", str(spec_path), "--trials", "5", "--seed", "99",
            "--format", "csv", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "trial,seed,verdict,samples,queries"
        assert len(lines) == 6
        assert all(line.split(",")[2] == "accept" for line in lines[1:])

    @pytest.mark.parametrize("tester_params", [{"m": 2.0, "eps": 0.5}, {"m": 2, "eps": 0.5}])
    def test_integral_float_int_param_runs_as_int(self, tmp_path, tester_params):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_spec_dict(tester_params=tester_params)))
        out = tmp_path / "report.json"
        assert cli.main(["run", str(spec_path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["aggregates"]["accept_rate"] == 1.0

    def test_graph_copies_source_takes_a_row_major_bit_string(self, tmp_path):
        spec = _spec_dict(tester="graph-copies", tester_params={"eps": 0.5},
                          sources=[{"kind": "graph-copies", "params": {"adjacency": "0110"}}])
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "report.json"
        assert cli.main(["run", str(spec_path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["aggregates"]["accept_rate"] == 1.0

    def test_run_missing_spec_file(self, tmp_path, capsys):
        rc = cli.main(["run", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "no such file" in capsys.readouterr().err

    def test_run_bad_tester_in_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_spec_dict(tester="nonsense")))
        rc = cli.main(["run", str(spec_path)])
        assert rc == 2
        assert "unknown tester" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, extra, message",
        [
            (_spec_dict(color="red"), [], "unknown spec key 'color'"),
            ([_spec_dict()], [], "must be a JSON object"),
            (_spec_dict(), ["--workers", "0"], "workers must be positive"),
            (_spec_dict(), ["--trials", "0"], "trials must be positive"),
            (_spec_dict(trials="5"), [], "trials must be an integer"),
            (_spec_dict(sources={"kind": "point", "params": {"x": "01"}}), [],
             "need one or two sources"),
            (_spec_dict(sources=["point"]), [], "a source must be an object"),
            (_spec_dict(tester_params={"m": 2, "eps": 0.5, "epz": 1}), [],
             "unknown tester param 'epz'"),
            (_spec_dict(tester_params={"eps": 0.5}), [], "missing tester param 'm'"),
            (_spec_dict(tester_params={"m": 4.5, "eps": 0.5}), [],
             "tester param 'm' must be int, got 4.5"),
            (_spec_dict(tester_params={"m": 2, "eps": 1e-300}), [], ""),
            (_spec_dict(tester="graph-copies", tester_params={"eps": 0.5},
                        sources=[{"kind": "graph-copies", "params": {"adjacency": "01101"}}]),
             [], "adjacency string must have square length"),
            (_spec_dict(tester="noisy-membership",
                        tester_params={"property": "linearity", "eta": 0.1, "delta": 0.3,
                                       "eps": 0.5},
                        sources=[{"kind": "coordinate-noise",
                                  "params": {"x": "011", "flip_probs": [0.05] * 3}}]),
             [], "linearity testing needs n = 2^k"),
            (_spec_dict(tester="self-correcting-hadamard",
                        tester_params={"k": 3, "m": 1, "eps": 0.25},
                        sources=[{"kind": "point", "params": {"x": "0000"}}]),
             [], "k = 3 needs n = 2^k = 8, got n = 4"),
        ],
        ids=["unknown-key", "list-spec", "workers-0", "trials-0", "trials-string",
             "sources-object", "source-string", "unknown-param", "missing-param",
             "int-param-fraction", "eps-overflow", "adjacency-not-square",
             "linearity-n-3", "hadamard-k-not-log-n"],
    )
    def test_bad_spec_is_a_usage_error(self, tmp_path, capsys, spec, extra, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        rc = cli.main(["run", str(spec_path), *extra])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_infeasible_generator_request_is_a_failed_check(self, tmp_path, capsys):
        # The generator cannot tell spacing that no strings meet from an
        # unlucky search, so it stays a RuntimeError and exit 1.
        source = {"kind": "uniform-random-subset",
                  "params": {"n": 8, "m": 40, "min_distance": 0.6}}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_spec_dict(sources=[source])))
        rc = cli.main(["run", str(spec_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "could not place 40 strings at pairwise distance 0.6" in err

    def test_reader_that_closes_early_gives_exit_1_and_no_traceback(self, tmp_path):
        # A report of 2,000 trials is several times a pipe's buffer, so the
        # writer is still writing when the reader closes its end.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_spec_dict(trials=2000)))
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        main = "import sys; from probedist.cli import main; sys.exit(main())"
        proc = subprocess.Popen(
            [sys.executable, "-c", main, "run", str(spec_path), "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.read(10) == b'{\n  "spec"'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCalibrateCommand:
    def test_calibrate_support_smoke(self, tmp_path):
        cases = [
            _spec_dict(trials=30),
            _spec_dict(
                name="cli-support-reject",
                tester_params={"m": 2, "eps": 0.25},
                sources=[{"kind": "uniform-random-subset",
                          "params": {"n": 32, "m": 6, "min_distance": 0.3}}],
                seed=7,
                trials=30,
                expectation="reject",
            ),
        ]
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps({"cases": cases}))
        out = tmp_path / "calibration.json"
        rc = cli.main([
            "calibrate", "support", str(suite_path),
            "--trials", "30", "--confirm-trials", "60", "--out", str(out),
        ])
        assert rc == 0
        result = json.loads(out.read_text())
        assert result["tester"] == "support"
        assert "support_samples" in result["constants"]

    def test_calibrate_unknown_tester(self, tmp_path, capsys):
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps({"cases": [_spec_dict()]}))
        rc = cli.main(["calibrate", "nonsense", str(suite_path)])
        assert rc == 2
        assert "unknown tester" in capsys.readouterr().err

    def test_calibrate_malformed_suite(self, tmp_path, capsys):
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps([_spec_dict()]))
        rc = cli.main(["calibrate", "support", str(suite_path)])
        assert rc == 2
        assert "'cases' list" in capsys.readouterr().err
