"""``run.py --compare BASE.json NEW.json``: the before/after tool.

One row per workload x end-to-end metric with base, new and ratio,
judged against the bound BENCHMARK.json fixes for that metric:

- ``regression``  the new median is worse than the base by more than
                  the bound;
- ``unresolved``  the repetitions' quartile spread on either side is
                  wider than the bound, so "no change" cannot be told
                  from noise — unless every repetition of one side beats
                  every repetition of the other;
- ``ok``          otherwise.

When both results come from the same commit and seed (an A/A run), every
simulated metric, every ``.calls`` counter and every ``sim_digest`` must
also be *exactly* equal; a difference there is nondeterminism, reported
as ``differs`` and failing the comparison.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

__all__ = ["compare_files", "compare"]


def _spread(metric: dict[str, Any]) -> float:
    if "rep_q1" not in metric or not metric["rep_median"]:
        return 0.0
    return abs(metric["rep_q3"] - metric["rep_q1"]) / abs(metric["rep_median"])


def _separated(base: dict[str, Any], new: dict[str, Any], key: str) -> bool:
    """Every timing of one side is below every timing of the other."""
    samples = "setup_host_s" if key == "setup_s" else "rep_host_s"
    a, b = base[samples], new[samples]
    return max(a) < min(b) or max(b) < min(a)


def compare(
    base: dict[str, Any], new: dict[str, Any], contract: dict[str, Any]
) -> tuple[list[str], bool]:
    """Rows of the comparison table and whether the new result passes."""
    same_run_inputs = (
        base["meta"]["git_commit"] == new["meta"]["git_commit"] != "unknown"
        and base["meta"]["seed"] == new["meta"]["seed"]
        and base["meta"]["scale"] == new["meta"]["scale"]
    )
    header = (
        f"base {base['meta']['git_commit'][:12]} seed {base['meta']['seed']}  ->  "
        f"new {new['meta']['git_commit'][:12]} seed {new['meta']['seed']}"
    )
    if same_run_inputs:
        header += "  (same commit and seed: simulated outputs must be identical)"
    rows = [
        header,
        f"{'workload':<14}{'metric':<20}{'base':>14}{'new':>14}{'new/base':>10}  verdict",
    ]
    passed = True
    for name, base_entry in base["workloads"].items():
        new_entry = new["workloads"].get(name)
        if new_entry is None:
            rows.append(f"{name:<14}missing from the new result")
            passed = False
            continue
        for metric in contract["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            b, n = base_entry["end_to_end"][key], new_entry["end_to_end"][key]
            ratio = n["value"] / b["value"] if b["value"] else float("inf")
            worse_by = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            verdict = "ok"
            if worse_by > bound:
                verdict = f"regression (worse by {worse_by:.1%}, bound {bound:.0%})"
                passed = False
            else:
                spread = max(_spread(b), _spread(n))
                if spread > bound and not _separated(base_entry, new_entry, key):
                    verdict = f"unresolved (spread {spread:.1%} > bound {bound:.0%})"
            simulated = not key.startswith(("host_", "setup_"))
            if same_run_inputs and simulated and n["value"] != b["value"]:
                verdict = "differs (must be identical)"
                passed = False
            rows.append(
                f"{name:<14}{key:<20}{b['value']:>14.6g}{n['value']:>14.6g}{ratio:>10.4f}"
                f"  {verdict}"
            )
        if new_entry["failed"] > base_entry["failed"]:
            rows.append(
                f"{name:<14}failed operations rose {base_entry['failed']} -> {new_entry['failed']}"
            )
            passed = False
        if same_run_inputs:
            exact = [
                key for key, value in base_entry["per_layer"].items()
                if key.endswith(".calls") and new_entry["per_layer"][key]["value"] != value["value"]
            ]
            if new_entry["sim_digest"] != base_entry["sim_digest"]:
                exact.append("sim_digest")
            if exact:
                rows.append(f"{name:<14}differs (must be identical): {', '.join(exact)}")
                passed = False
            else:
                rows.append(f"{name:<14}sim_digest and every .calls counter identical")
    rows.append("PASS" if passed else "FAIL")
    return rows, passed


def compare_files(base_path: Path, new_path: Path, contract: dict[str, Any]) -> int:
    rows, passed = compare(
        json.loads(base_path.read_text()), json.loads(new_path.read_text()), contract
    )
    print("\n".join(rows))
    return 0 if passed else 1
