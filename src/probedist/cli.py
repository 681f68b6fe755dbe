"""Command line front end.

Exit codes: 0 on success, 1 when a requested check fails (for example an
invalid distribution file) or the reader of stdout closes it before the
output is written in full, 2 on usage errors or unreadable inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .constants import DEFAULT_CONSTANTS
from .distances import dist_to_support_m, emd, tv
from .harness import (
    ExperimentSpec,
    GENERATORS,
    build_source,
    calibrate_tester,
    load_distribution,
    run_experiment,
    save_distribution,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probedist",
        description="Testers for distributions over long strings, billed per probed bit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment spec")
    p_run.add_argument("spec", help="JSON experiment spec file")
    p_run.add_argument("--seed", type=int, default=None, help="override the experiment seed")
    p_run.add_argument("--trials", type=int, default=None, help="override trial count")
    p_run.add_argument("--workers", type=int, default=None, help="override worker count")
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.add_argument("--out", default=None, help="write output here instead of stdout")

    p_cal = sub.add_parser("calibrate", help="search a tester's constants over a suite")
    p_cal.add_argument("tester", help="tester name, e.g. grained")
    p_cal.add_argument("suite", help="JSON file with {'cases': [spec, ...]}")
    p_cal.add_argument("--constant", default=None, help="calibrate only this constant")
    p_cal.add_argument("--target", type=float, default=0.9)
    p_cal.add_argument("--trials", type=int, default=120)
    p_cal.add_argument("--confirm-trials", type=int, default=600)
    p_cal.add_argument("--out", default=None)

    p_dist = sub.add_parser("dist", help="distances between saved distributions")
    p_dist.add_argument("measure", choices=("emd", "tv", "support"))
    p_dist.add_argument("first", help="distribution file")
    p_dist.add_argument(
        "second", help="second distribution file, or m for 'support'"
    )
    p_dist.add_argument("--metric", choices=("hamming", "ineq"), default="hamming")

    p_gen = sub.add_parser("gen", help="generate and save an instance")
    p_gen.add_argument("kind", choices=sorted(GENERATORS))
    p_gen.add_argument("--params", default="{}", help="generator parameters as JSON")
    p_gen.add_argument("-o", "--out", required=True, help="output distribution file")
    p_gen.add_argument("--seed", type=int, default=0)

    p_val = sub.add_parser("validate", help="check a distribution file")
    p_val.add_argument("file")

    return parser


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _cmd_run(args) -> int:
    with open(args.spec) as fh:
        spec = ExperimentSpec.from_json(fh.read())
    overrides = {"seed": args.seed, "trials": args.trials, "workers": args.workers}
    spec = dataclasses.replace(spec, **{k: v for k, v in overrides.items() if v is not None})
    report = run_experiment(spec, DEFAULT_CONSTANTS)
    if args.format == "csv":
        _emit(report.to_csv_text(), args.out)
    else:
        _emit(json.dumps(report.to_json_dict(), indent=2), args.out)
    return 0


def _cmd_calibrate(args) -> int:
    with open(args.suite) as fh:
        suite = json.load(fh)
    if not isinstance(suite, dict) or not isinstance(suite.get("cases"), list):
        raise ValueError("a calibration suite must be a JSON object with a 'cases' list")
    cases = [ExperimentSpec.from_dict(c) for c in suite["cases"]]
    result = calibrate_tester(
        args.tester,
        cases,
        target=args.target,
        trials=args.trials,
        confirm_trials=args.confirm_trials,
        only=args.constant,
    )
    _emit(json.dumps(result, indent=2), args.out)
    return 0


def _cmd_dist(args) -> int:
    p = load_distribution(args.first)
    if args.measure == "support":
        value = dist_to_support_m(p, int(args.second))
    else:
        q = load_distribution(args.second)
        if args.measure == "emd":
            value = emd(p, q, metric=args.metric)
        else:
            value = tv(p, q)
    print(f"{value:.12g}")
    return 0


def _cmd_gen(args) -> int:
    params = json.loads(args.params)
    dist = build_source({"kind": args.kind, "params": params}, args.seed)
    save_distribution(args.out, dist)
    print(f"wrote {args.out}: n={dist.n}, {dist.support_size} atoms")
    return 0


def _cmd_validate(args) -> int:
    try:
        dist = load_distribution(args.file)
    except (ValueError, IndexError) as exc:
        print(f"invalid: {exc}")
        return 1
    print(f"ok: n={dist.n}, {dist.support_size} atoms")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "calibrate": _cmd_calibrate,
    "dist": _cmd_dist,
    "gen": _cmd_gen,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        # Flushed here, so that a closed pipe raises inside this try.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # As the note on SIGPIPE in the docs of the signal module advises:
        # point stdout at devnull, so the interpreter's final flush of what
        # is still buffered does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OverflowError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
