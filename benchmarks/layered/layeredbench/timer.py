"""LayerTimer: per-layer spans recorded from outside the program.

The benchmark measures each layer by rebinding the layer's *public*
callables for the duration of one traced run and restoring them after —
no span, counter, flag or environment variable is added to the program.
A span stack gives every name

- ``calls``: how often it was entered (exact, deterministic), and
- ``self_s``: its duration minus the part its child spans cover,

plus parent -> child call-count edges.  Everything is aggregated in
memory; nothing is written until the run ends.

How to read the numbers: wrapper overhead (two clock reads and a few
dict updates, roughly a microsecond) lands in the *parent's* self time,
so a span with very many cheap children reads slightly high.  Compare
``calls`` exactly and ``self_s`` as shares; the untraced run is the one
that measures speed.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

__all__ = ["LayerTimer"]

#: Called after a patched callable returns: ``tap(args, kwargs, result)``.
Tap = Callable[[tuple, dict, Any], None]


class LayerTimer:
    """Span-stack timer that patches callables and restores them."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        #: (parent span, child span) -> times the child was entered there.
        self.edges: dict[tuple[str, str], int] = {}
        #: Phase name -> wall seconds of that phase.
        self.phase_wall_s: dict[str, float] = {}
        # Frames are [name, seconds covered by child spans]; empty
        # outside a phase, where every wrapper is a plain pass-through.
        self._stack: list[list] = []
        #: (owner, attribute, original object, replacement).
        self._targets: list[tuple[Any, str, Any, Any]] = []
        self._active = False

    # -- declaring what to patch ---------------------------------------------

    def call_span(self, owner: Any, attr: str, name: str, tap: Tap | None = None) -> None:
        """``owner.attr`` (module or class attribute) becomes span ``name``."""
        self._add(owner, attr, lambda fn: self._call_wrapper(fn, name, tap), name)

    def generator_span(self, owner: Any, attr: str, name: str) -> None:
        """For a callable that returns a generator: the span covers every
        resumption of the generator, not the instant call that creates it;
        ``calls`` counts generators created."""

        def make(fn: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                generator = fn(*args, **kwargs)
                if not self._stack:
                    return generator
                self.calls[name] += 1
                return self._resumptions(generator, name, count_calls=False)

            return wrapper

        self._add(owner, attr, make, name)

    def task_span(
        self, owner: Any, attr: str, name: str, resume_name: str, tap: Tap | None = None
    ) -> None:
        """For a callable returning a list of generator tasks: the planning
        call is span ``name``; each returned task is wrapped in a timing
        proxy, so time inside task bodies is span ``resume_name`` — a child
        of whoever resumes the task — and its ``calls`` counts resumptions."""

        def make(fn: Callable) -> Callable:
            plan = self._call_wrapper(fn, name, tap)

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                tasks = plan(*args, **kwargs)
                if not self._stack:
                    return tasks
                return [self._resumptions(task, resume_name, count_calls=True) for task in tasks]

            return wrapper

        self._add(owner, attr, make, name, resume_name)

    def _add(
        self, owner: Any, attr: str, make: Callable[[Callable], Callable], *names: str
    ) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement: Any = type(raw)(make(raw.__func__))
        else:
            replacement = make(raw)
        self._targets.append((owner, attr, raw, replacement))
        for name in names:
            self.calls.setdefault(name, 0)
            self.self_s.setdefault(name, 0.0)

    # -- installing / restoring ------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["LayerTimer"]:
        """Rebind every registered target; restore all of them on exit."""
        if self._active:
            raise RuntimeError("LayerTimer is already installed")
        self._active = True
        try:
            for owner, attr, _, replacement in self._targets:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, raw, _ in self._targets:
                setattr(owner, attr, raw)
            self._active = False

    def restored(self) -> bool:
        """True when every target is, by identity, the object it was before."""
        return all(vars(owner)[attr] is raw for owner, attr, raw, _ in self._targets)

    # -- the wrappers ----------------------------------------------------------

    def _call_wrapper(self, fn: Callable, name: str, tap: Tap | None) -> Callable:
        stack, calls, self_s, edges, clock = (
            self._stack, self.calls, self.self_s, self.edges, time.perf_counter,
        )

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[name] += elapsed - frame[1]
                parent[1] += elapsed
                calls[name] += 1
                edge = (parent[0], name)
                edges[edge] = edges.get(edge, 0) + 1
            if tap is not None:
                tap(args, kwargs, result)
            return result

        return wrapper

    def _resumptions(self, generator: Any, name: str, count_calls: bool) -> Any:
        """Generator proxy: every resumption of ``generator`` is one span."""
        stack, calls, self_s, edges, clock = (
            self._stack, self.calls, self.self_s, self.edges, time.perf_counter,
        )
        send = generator.send
        value = None
        try:
            while True:
                if not stack:
                    try:
                        action = send(value)
                    except StopIteration as stop:
                        return stop.value
                else:
                    parent = stack[-1]
                    frame = [name, 0.0]
                    stack.append(frame)
                    start = clock()
                    try:
                        action = send(value)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        elapsed = clock() - start
                        stack.pop()
                        self_s[name] += elapsed - frame[1]
                        parent[1] += elapsed
                        if count_calls:
                            calls[name] += 1
                        edge = (parent[0], name)
                        edges[edge] = edges.get(edge, 0) + 1
                value = yield action
        finally:
            generator.close()

    # -- phases ----------------------------------------------------------------

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Root span of one phase; its self time is what no layer span covers."""
        if self._stack:
            raise RuntimeError("phases do not nest")
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.phase_wall_s[name] = self.phase_wall_s.get(name, 0.0) + elapsed
            self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - frame[1]

    def edge_counts(self) -> dict[str, int]:
        """Edges as ``"parent>child" -> count`` (JSON-ready, sorted)."""
        return {f"{parent}>{child}": count for (parent, child), count in sorted(self.edges.items())}
