"""Command line of the layered benchmark (see ``run.py``)."""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

__all__ = ["main", "load_contract", "SCHEMA"]

SCHEMA = "layered-bench/1"
#: BENCHMARK.json sits at the root of the checkout, two levels above
#: ``benchmarks/layered``; it is the one list of metric names, units
#: and regression bounds.
ROOT = Path(__file__).resolve().parents[3]


def load_contract() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _parser(contract: dict[str, Any]) -> argparse.ArgumentParser:
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__)
    parser.add_argument("--workload", action="append", choices=names, metavar="NAME",
                        help=f"workload to run (repeatable; default all): {', '.join(names)}")
    parser.add_argument("--seed", type=int, default=7,
                        help="drives dataset synthesis, index build, arrivals, selection")
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="measure repetitions for this long (untraced runs)")
    parser.add_argument("--reps", type=int, default=None,
                        help="measure exactly this many repetitions instead of --seconds")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny sizes, for the tier-1 test only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one run of one workload in this process: 0 end-to-end, 1 per-layer")
    parser.add_argument("--detail", type=Path, default=None,
                        help="with --trace: also write the run's full detail as JSON here")
    parser.add_argument("--out", type=Path, default=None,
                        help="where the suite writes its JSON result (default: out/ beside run.py)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE.json", "NEW.json"),
                        help="apply BENCHMARK.json's bounds to two suite results")
    return parser


def main(argv: list[str], script: Path, thread_pins: dict[str, str]) -> int:
    contract = load_contract()
    args = _parser(contract).parse_args(argv)
    if args.reps is not None and args.reps < 1:
        raise SystemExit("--reps must be at least 1")
    if args.compare:
        from layeredbench.compare import compare_files

        return compare_files(args.compare[0], args.compare[1], contract)
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            raise SystemExit("--trace runs exactly one --workload")
        return _single_run(args, contract)
    return _suite(args, contract, script, thread_pins)


# -- one run, in this process ---------------------------------------------------


def _single_run(args: argparse.Namespace, contract: dict[str, Any]) -> int:
    from layeredbench.runner import run_traced, run_untraced

    name = args.workload[0]
    smoke = args.scale == "smoke"
    if args.trace:
        detail = run_traced(name, args.seed, smoke=smoke)
        listed = contract["per_layer"]
    else:
        detail = run_untraced(name, args.seed, args.seconds, reps=args.reps, smoke=smoke)
        listed = contract["end_to_end"]
    measured = detail["metrics"]
    if args.trace:
        # A per-layer metric of a layer the workload never enters reads 0.
        measured = {m["name"]: 0.0 for m in listed} | measured
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in listed}
    for line in detail["failures"]:
        print(f"FAILED CHECK: {line}")
    _print_metrics(name, metrics)
    if args.detail is not None:
        args.detail.write_text(json.dumps(detail, indent=1))
    print(json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }))
    return 0 if detail["correct"] else 1


def _print_metrics(title: str, metrics: dict[str, dict[str, Any]], indent: str = "") -> None:
    width = max(len(name) for name in metrics)
    print(f"{indent}{title}")
    for name, metric in metrics.items():
        print(f"{indent}  {name:<{width}}  {metric['value']:.6g} {metric['unit']}")


# -- the suite: every workload in child processes ---------------------------------


def _child(script: Path, args: argparse.Namespace, name: str, trace: int,
           scratch: Path) -> dict[str, Any] | None:
    detail_path = scratch / f"{name}.trace{trace}.json"
    command = [
        sys.executable, str(script), "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--scale", args.scale,
        "--detail", str(detail_path),
    ]
    if args.reps is not None:
        command += ["--reps", str(args.reps)]
    # The child is run.py again, so it pins its own BLAS threads.
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if not detail_path.exists():
        print(f"{name} (trace {trace}) exited {done.returncode} without a result:\n{done.stderr}")
        return None
    return json.loads(detail_path.read_text())


def _metadata(args: argparse.Namespace, thread_pins: dict[str, str]) -> dict[str, Any]:
    import numpy
    import scipy

    def git(*command: str) -> str:
        try:
            return subprocess.run(["git", *command], cwd=ROOT, capture_output=True, text=True,
                                  timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    return {
        "git_commit": git("rev-parse", "HEAD"),
        "git_dirty": git("status", "--porcelain", "--untracked-files=no") not in ("", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "reps": args.reps,
        "thread_pins": thread_pins,
        "started_unix": time.time(),
    }


def _with_repetitions(metric: dict[str, Any], samples: list[float]) -> None:
    """Put the per-repetition quartiles and count beside a host metric."""
    if len(samples) < 2:
        q1 = median = q3 = samples[0]
    else:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    metric.update(rep_q1=q1, rep_median=median, rep_q3=q3, n=len(samples))


def _entry(untraced: dict[str, Any], traced: dict[str, Any], why: str,
           contract: dict[str, Any]) -> dict[str, Any]:
    """One workload's part of the suite result, from its two child runs."""
    end_to_end = {
        m["name"]: {"value": untraced["metrics"][m["name"]], "unit": m["unit"]}
        for m in contract["end_to_end"]
    }
    _with_repetitions(end_to_end["host_ops_per_s"], untraced["rep_ops_per_s"])
    _with_repetitions(end_to_end["setup_s"], untraced["setup_host_s"])
    per_layer = {
        m["name"]: {"value": traced["metrics"].get(m["name"], 0.0), "unit": m["unit"]}
        for m in contract["per_layer"]
    }
    attempted = untraced["attempted"] + traced["attempted"]
    failed = untraced["failed"] + traced["failed"]
    return {
        "why": why,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "sim_digest": untraced["sim_digest"],
        "traced_sim_digest": traced["traced_sim_digest"],
        "digests_agree": (
            untraced["sim_digest"] == traced["sim_digest"] == traced["traced_sim_digest"]
        ),
        "reps": untraced["reps"],
        "rep_host_s": untraced["rep_host_s"],
        "setup_host_s": untraced["setup_host_s"],
        "rep_wall_s": untraced["rep_wall_s"],
        "setup_wall_s": untraced["setup_wall_s"],
        "rep_host_speed": untraced["rep_host_speed"],
        "trace_overhead_ratio": traced["metrics"]["trace_overhead_ratio"],
        "span_coverage": traced["span_coverage"],
        "edges": traced["edges"],
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted,
        "failures": untraced["failures"] + traced["failures"],
        "notes": untraced["notes"],
    }


def _suite(args: argparse.Namespace, contract: dict[str, Any], script: Path,
           thread_pins: dict[str, str]) -> int:
    names = args.workload or [w["name"] for w in contract["workloads"]]
    why = {w["name"]: w["why"] for w in contract["workloads"]}
    out_path = args.out or script.parent / "out" / f"layered-seed{args.seed}-{args.scale}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    result: dict[str, Any] = {
        "schema": SCHEMA, "meta": _metadata(args, thread_pins), "workloads": {},
    }
    ok = True
    with tempfile.TemporaryDirectory(dir=out_path.parent) as scratch:
        for name in names:
            untraced = _child(script, args, name, 0, Path(scratch))
            traced = _child(script, args, name, 1, Path(scratch))
            if untraced is None or traced is None:
                ok = False
                continue
            entry = _entry(untraced, traced, why[name], contract)
            result["workloads"][name] = entry
            ok = ok and entry["failed"] == 0 and entry["digests_agree"]
            _print_workload(name, entry)
    # No gain is claimed: these numbers are the baseline later changes cite.
    result["claim"] = None
    out_path.write_text(json.dumps(result, indent=1))
    print(f"wrote {out_path}")
    return 0 if ok else 1


def _print_workload(name: str, entry: dict[str, Any]) -> None:
    print(f"== {name}: {entry['why']}")
    print(f"  {entry['reps']} repetitions, reference host seconds each: "
          + ", ".join(f"{s:.3f}" for s in entry["rep_host_s"])
          + "  (wall: " + ", ".join(f"{s:.3f}" for s in entry["rep_wall_s"]) + ")")
    for metric_name, metric in entry["end_to_end"].items():
        spread = ""
        if "rep_q1" in metric:
            spread = (f"  (repetitions: q1 {metric['rep_q1']:.6g}, "
                      f"median {metric['rep_median']:.6g}, q3 {metric['rep_q3']:.6g}, "
                      f"n={metric['n']})")
        print(f"  {metric_name:<22} {metric['value']:.6g} {metric['unit']}{spread}")
    print(f"  {'failed_fraction':<22} {entry['failed_fraction']:.6g} fraction "
          f"({entry['failed']} of {entry['attempted']})")
    print(f"  sim_digest {entry['sim_digest']} "
          f"({'traced run identical' if entry['digests_agree'] else 'TRACED RUN DIFFERS'})")
    for note, value in entry["notes"].items():
        print(f"  note: {note} = {value}")
    print(f"  span coverage of the traced measured wall: {entry['span_coverage']:.1%}")
    for line in entry["failures"]:
        print(f"  FAILED CHECK: {line}")
    _print_metrics("per layer (traced run):", entry["per_layer"], indent="  ")
