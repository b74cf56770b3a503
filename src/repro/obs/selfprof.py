"""Self-profiling of the simulator's own event loop.

The serving stack simulates millions of users; at that scale the
*simulator* — pure-Python per-event code — is the resource that runs
out first, so its wall-clock throughput (loop events per real second)
is a perf figure in its own right: the CLI prints it and the layered
benchmark (``benchmarks/layered``) reads it beside ``host_ops_per_s``.

:class:`LoopProfile` counts each event the service loop processes by
type (completion / flush / hedge / arrival / update) — plain integer
increments, cheap enough to leave always-on — and brackets the run
with ``time.perf_counter`` for the wall-clock rate.  Entries popped
off the event heap *stale* are not events and are not counted.  The
per-type counts are deterministic for a given seed; the wall-clock
figures obviously are not, which is why they live in the metrics
export, never in the trace.
"""

from __future__ import annotations

import time
from typing import Any

__all__ = ["LoopProfile"]


class LoopProfile:
    """Event counts and wall-clock throughput of one service run."""

    __slots__ = (
        "engine_steps",
        "flushes",
        "hedges",
        "arrivals",
        "rejections",
        "updates",
        "_wall_start",
        "wall_seconds",
    )

    def __init__(self) -> None:
        #: Engine-session resumptions (a task running until it parks or
        #: finishes) — the dominant event type at load.
        self.engine_steps = 0
        #: Time-trigger events; one releases every lane due at that instant.
        self.flushes = 0
        #: Hedge timers fired (or suppressed), one per timer — timers due
        #: at the same instant are separate events.
        self.hedges = 0
        self.arrivals = 0
        #: Arrivals shed by admission control (subset of ``arrivals``).
        self.rejections = 0
        #: Ingest updates offered to admission (second traffic class).
        self.updates = 0
        self._wall_start: float | None = None
        self.wall_seconds = 0.0

    def start(self) -> None:
        """Mark the wall-clock start of the loop."""
        self._wall_start = time.perf_counter()

    def stop(self) -> None:
        """Mark the wall-clock end of the loop."""
        if self._wall_start is None:
            raise RuntimeError("LoopProfile.stop() before start()")
        self.wall_seconds = time.perf_counter() - self._wall_start
        self._wall_start = None

    @property
    def events_total(self) -> int:
        """Loop iterations that processed an event."""
        return (
            self.engine_steps + self.flushes + self.hedges + self.arrivals + self.updates
        )

    def checkpoint(self) -> dict[str, float]:
        """Wall figures as of *now*, usable mid-run.

        Unlike :meth:`as_dict` this does not require :meth:`stop`; the
        service's ``--profile-interval-us`` sampler calls it per metrics
        tick so vectorization wins show up per-phase, not just as one
        end-of-run average.
        """
        if self._wall_start is not None:
            wall = time.perf_counter() - self._wall_start
        else:
            wall = self.wall_seconds
        events = self.events_total
        return {
            "events_total": float(events),
            "wall_seconds": wall,
            "events_per_sec": events / wall if wall > 0 else 0.0,
        }

    @property
    def events_per_sec(self) -> float:
        """Wall-clock event throughput of the simulator itself."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_total / self.wall_seconds

    def event_counts(self) -> dict[str, int]:
        """Deterministic per-event-type counts."""
        return {
            "engine_steps": self.engine_steps,
            "flushes": self.flushes,
            "hedges": self.hedges,
            "arrivals": self.arrivals,
            "rejections": self.rejections,
            "updates": self.updates,
        }

    def as_dict(self) -> dict[str, Any]:
        """Full profile including the (non-deterministic) wall figures."""
        payload: dict[str, Any] = dict(self.event_counts())
        payload["events_total"] = self.events_total
        payload["wall_seconds"] = self.wall_seconds
        payload["events_per_sec"] = self.events_per_sec
        return payload

    def publish(self, registry) -> None:
        """Mirror the profile into a :class:`MetricsRegistry`."""
        for name, value in self.event_counts().items():
            registry.counter(f"loop_{name}").inc(value)
        registry.gauge("loop_wall_seconds").set(self.wall_seconds)
        registry.gauge("loop_events_per_sec").set(self.events_per_sec)
