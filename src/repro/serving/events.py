"""The service run's one event heap: entry shapes and tie-order tags.

A :class:`~repro.serving.service.QueryService` run owns a single
``heapq`` list.  Everything that can happen at a simulated time is
*posted* to it as ``(time_ns, EVENT_<CLASS>, a, b)`` and the loop pops
entries in tuple order, so **tie order at equal timestamps is the
numeric order of the tags below** — completions before flushes, flushes
before hedges, hedges before arrivals, arrivals before updates — and a
new traffic class is one more tag and one more posting site, not
another polled source.  The order is part of the determinism contract
(regression tests pin one seed to a byte-identical ``ServiceReport``);
the SIM001 rule of ``repro lint`` checks statically that every push
under ``repro.serving`` carries a named tag at index 1.

Payloads and who posts them:

================  ==========================  ==========================
tag               ``(a, b)``                  posted by
================  ==========================  ==========================
EVENT_COMPLETION  ``(shard, replica)``        whoever submits work to
                                              that replica's session
                                              (lane flush, merge start);
                                              the loop re-posts after
                                              each ``step()``
EVENT_FLUSH       ``(shard, replica)``        the dispatcher, when a
                                              lane's oldest entry changes
EVENT_HEDGE       ``(seq, (query, shard))``   the dispatcher, arming a
                                              hedge timer
EVENT_ARRIVAL     ``(query_id, pool_index)``  the service (and closed-
                                              loop clients on completion)
EVENT_UPDATE      ``(update_id, update)``     the service
================  ==========================  ==========================

Entries are never removed or re-keyed in place.  The state they refer
to moves on instead, and a popped entry that no longer matches it is
*stale* and skipped without counting as an event: a session wake-up
whose session's ``next_ready_ns`` differs from the entry's time, a flush
deadline whose lane is empty or now due later, a hedge timer already
disarmed or fired.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "EVENT_COMPLETION",
    "EVENT_FLUSH",
    "EVENT_HEDGE",
    "EVENT_ARRIVAL",
    "EVENT_UPDATE",
    "TIE_ORDER",
    "Event",
]

#: A replica session with a task ready to resume (runs first at equal
#: times: a finishing sub-query frees its slot and disarms its hedge
#: timer before anything else at that instant).
EVENT_COMPLETION = 0
#: A dispatcher lane's micro-batch time trigger.
EVENT_FLUSH = 1
#: An armed hedge timer firing.
EVENT_HEDGE = 2
#: A client query arriving.
EVENT_ARRIVAL = 3
#: An ingest update (insert/delete) arriving (runs last at equal
#: times, so the query path of a no-ingest run is byte-identical to a
#: loop that never heard of updates).
EVENT_UPDATE = 4

#: The pinned processing order at equal timestamps.
TIE_ORDER = (EVENT_COMPLETION, EVENT_FLUSH, EVENT_HEDGE, EVENT_ARRIVAL, EVENT_UPDATE)

#: One heap entry: ``(time_ns, EVENT_*, a, b)`` — see the table above.
Event = tuple[float, int, int, Any]
