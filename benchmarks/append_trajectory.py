"""Append one benchmark summary line to the perf trajectory.

``BENCH_trajectory.jsonl`` is the committed long-term record: one JSON
line per benchmark run, so throughput trends survive artifact expiry.
A line condenses one ``layered-bench/1`` suite result (written by
``python3 benchmarks/layered/run.py --seed N --out FILE``): the six
end-to-end medians of every workload, with the commit and seed they
were measured at.  A PR that claims a host-speed gain commits one line
for its parent and one for itself; the nightly job appends its own and
uploads the file::

    python3 benchmarks/layered/run.py --seed 7 --out layered-nightly.json
    python benchmarks/append_trajectory.py layered-nightly.json \
        --out BENCH_trajectory.jsonl --label nightly-$(date -u +%F)

Lines are append-only and sorted by entry time, so ``jq`` / pandas can
chart the trajectory directly.  (The file's first line predates the
layered benchmark and has another row shape.)
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

LAYERED_SCHEMA = "layered-bench/1"
TRAJECTORY_SCHEMA = "repro-bench-trajectory/1"


def _now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def summarize(artifact: dict, label: str, timestamp: str | None = None) -> dict:
    """Condense one layered suite result into a single trajectory entry."""
    if artifact.get("schema") != LAYERED_SCHEMA:
        raise SystemExit(
            f"error: artifact schema {artifact.get('schema')!r} is not {LAYERED_SCHEMA}"
        )
    meta = artifact["meta"]
    rows = {}
    for name, workload in sorted(artifact["workloads"].items()):
        row = {metric: entry["value"] for metric, entry in workload["end_to_end"].items()}
        row["failed"] = workload["failed"]
        row["sim_digest"] = workload["sim_digest"][:12]
        rows[name] = row
    return {
        "schema": TRAJECTORY_SCHEMA,
        "source": LAYERED_SCHEMA,
        "label": label,
        "recorded_at": timestamp or _now(),
        "commit": meta["git_commit"] + ("+dirty" if meta["git_dirty"] else ""),
        "seed": meta["seed"],
        "scale": meta["scale"],
        "rows": rows,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifact", help=f"{LAYERED_SCHEMA} suite result (JSON)")
    parser.add_argument(
        "--out", default="BENCH_trajectory.jsonl", help="trajectory file to append to"
    )
    parser.add_argument("--label", default="manual", help="run label (e.g. nightly-2026-08-08)")
    parser.add_argument(
        "--timestamp", default=None, help="override the recorded_at timestamp (UTC ISO)"
    )
    args = parser.parse_args(argv)

    with open(args.artifact) as handle:
        artifact = json.load(handle)
    entry = summarize(artifact, args.label, args.timestamp)
    out = Path(args.out)
    with out.open("a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"appended {args.label}: {len(entry['rows'])} rows -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
