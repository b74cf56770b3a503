"""Append one benchmark summary line to the perf trajectory.

``BENCH_trajectory.jsonl`` is the committed long-term record: one JSON
line per benchmark run, so throughput trends survive artifact expiry.
Two kinds of artifact condense into a line:

- a ``repro-serving-bench/1`` artifact (the per-row
  ``wall_events_per_sec`` figures plus the simulated-domain
  fingerprint).  The nightly job runs::

      python benchmarks/append_trajectory.py BENCH_fresh.json \
          --out BENCH_trajectory.jsonl --label nightly-$(date -u +%F)

  and uploads the updated file; maintainers fold it back into the repo
  when refreshing the baseline;
- a ``layered-bench/1`` suite result (``benchmarks/layered/out/*.json``,
  written by ``python3 benchmarks/layered/run.py --seed N``): the six
  end-to-end medians of every workload, with the commit and seed they
  were measured at.  A PR that claims a host-speed gain commits one
  line for its parent and one for itself.

Lines are append-only and sorted by entry time, so ``jq`` / pandas can
chart the trajectory directly.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

SCHEMA = "repro-serving-bench/1"
LAYERED_SCHEMA = "layered-bench/1"
TRAJECTORY_SCHEMA = "repro-bench-trajectory/1"


def _now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def summarize_layered(artifact: dict, label: str, timestamp: str | None = None) -> dict:
    """Condense one layered suite result into a single trajectory entry."""
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


def summarize(artifact: dict, label: str, timestamp: str | None = None) -> dict:
    """Condense one bench artifact into a single trajectory entry."""
    if artifact.get("schema") == LAYERED_SCHEMA:
        return summarize_layered(artifact, label, timestamp)
    if artifact.get("schema") != SCHEMA:
        raise SystemExit(
            f"error: artifact schema {artifact.get('schema')!r} is neither "
            f"{SCHEMA} nor {LAYERED_SCHEMA}"
        )
    rows = {}
    for bench, bench_rows in sorted(artifact.get("results", {}).items()):
        for row in bench_rows:
            if "n_shards" in row:
                key = f"{bench}[{row['n_shards']}, {row['scheme']}]"
            elif "label" in row:
                key = f"{bench}[{row['label']}, {row['policy']}]"
            else:  # pragma: no cover - future benchmarks
                key = bench
            summary = {
                "wall_events_per_sec": row.get("wall_events_per_sec"),
                "qps": row.get("qps"),
                "p99_ns": row.get("p99_ns"),
            }
            if "p99_penalty" in row:
                # The ingest rows carry the committed p99-penalty bound;
                # track it so the trajectory shows the cost of ingest
                # over time, not just raw tail latency.
                summary["p99_penalty"] = row["p99_penalty"]
            rows[key] = summary
    return {
        "schema": TRAJECTORY_SCHEMA,
        "label": label,
        "recorded_at": timestamp or _now(),
        "rows": rows,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "artifact", help=f"fresh {SCHEMA} artifact or {LAYERED_SCHEMA} suite result (JSON)"
    )
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
