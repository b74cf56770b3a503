"""SIM001 fixtures: what ``ingest.py`` posts to the run's one event heap.

Updates ride the shared heap as ``EVENT_UPDATE`` entries, and a
starting merge posts an ``EVENT_COMPLETION`` wake-up for every replica
session it submits to.  Pushed without the tag, either would tie-break
against the other classes by payload instead of by the pinned order.
"""

import heapq

EVENT_COMPLETION = 0
EVENT_UPDATE = 4

__all__ = [
    "EVENT_COMPLETION",
    "EVENT_UPDATE",
    "bad_untagged_update",
    "ok_tagged_update",
    "bad_untagged_merge_wakeup",
    "ok_tagged_merge_wakeup",
]


def bad_untagged_update(heap: list, time_ns: float, update_id: int) -> None:
    heapq.heappush(heap, (time_ns, update_id))  # expect[SIM001]


def ok_tagged_update(heap: list, time_ns: float, update_id: int) -> None:
    heapq.heappush(heap, (time_ns, EVENT_UPDATE, update_id))


def bad_untagged_merge_wakeup(events: list, now_ns: float, shard_id: int, replica: int) -> None:
    heapq.heappush(events, (now_ns, shard_id, replica))  # expect[SIM001]


def ok_tagged_merge_wakeup(events: list, now_ns: float, shard_id: int, replica: int) -> None:
    heapq.heappush(events, (now_ns, EVENT_COMPLETION, shard_id, replica))
