"""Answer verification and the deterministic-output digest.

Every reported ``(id, distance)`` pair is recomputed in float64 against
the vector *the benchmark itself* holds for that id — the program's
outputs are never trusted to vouch for themselves.  Each violated check
counts as one failed operation (``failed_fraction``) and makes the
command exit non-zero.
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

__all__ = ["Digest", "bad_answers", "require"]

#: Reported distances come from the same float64 arithmetic the check
#: uses, summed in another order; this is far above that rounding noise
#: and far below any wrong neighbour.
_RTOL = 1e-9
_CHUNK = 512


def bad_answers(
    answers: Sequence[Any],
    queries: np.ndarray,
    vectors: np.ndarray,
    k: int,
) -> int:
    """How many answers fail verification.

    ``answers[i]`` answers ``queries[i]``; ``vectors[id]`` is the vector
    the benchmark holds for ``id``.  An answer fails when it is empty or
    longer than ``k``, names an id the benchmark does not hold or names
    one twice, reports a distance that is not the float64 distance to
    that vector, or is not sorted by non-decreasing distance.
    """
    bad = np.zeros(len(answers), dtype=bool)
    n = vectors.shape[0]
    for start in range(0, len(answers), _CHUNK):
        chunk = answers[start : start + _CHUNK]
        sizes = np.array([a.ids.size for a in chunk], dtype=np.int64)
        ids = np.concatenate([np.asarray(a.ids, dtype=np.int64) for a in chunk])
        reported = np.concatenate([np.asarray(a.distances, dtype=np.float64) for a in chunk])
        owner = np.repeat(np.arange(len(chunk)), sizes)
        in_range = (ids >= 0) & (ids < n)
        safe_ids = np.where(in_range, ids, 0)
        diffs = vectors[safe_ids].astype(np.float64) - queries[start + owner].astype(np.float64)
        exact = np.sqrt(np.einsum("nd,nd->n", diffs, diffs))
        entry_bad = ~in_range | ~np.isclose(reported, exact, rtol=_RTOL, atol=_RTOL)
        # Sortedness and duplicates, within each answer.
        entry_bad[1:] |= (owner[1:] == owner[:-1]) & (reported[1:] < reported[:-1])
        order = np.lexsort((ids, owner))
        entry_bad[order[1:]] |= (owner[order][1:] == owner[order][:-1]) & (
            ids[order][1:] == ids[order][:-1]
        )
        local_bad = (sizes < 1) | (sizes > k)
        local_bad |= np.bincount(owner[entry_bad], minlength=len(chunk)) > 0
        bad[start : start + len(chunk)] = local_bad
    return int(bad.sum())


def require(failures: list[str], condition: bool, message: str) -> None:
    """Record ``message`` as one failed check unless ``condition`` holds."""
    if not condition:
        failures.append(message)


class Digest:
    """sha256 over every deterministic simulated output of a run.

    Floats are hashed by their exact IEEE-754 bytes, so two runs agree
    only if they are bit-identical — the equality a "simulator-speed
    only" change must preserve.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, *values: Any) -> "Digest":
        for value in values:
            if isinstance(value, np.ndarray):
                self._hash.update(str(value.dtype).encode())
                self._hash.update(np.ascontiguousarray(value).tobytes())
            elif isinstance(value, bool) or value is None:
                self._hash.update(repr(value).encode())
            elif isinstance(value, (int, np.integer)):
                self._hash.update(b"i" + str(int(value)).encode())
            elif isinstance(value, (float, np.floating)):
                self._hash.update(b"f" + struct.pack("<d", float(value)))
            elif isinstance(value, str):
                self._hash.update(b"s" + value.encode())
            elif isinstance(value, dict):
                for key in sorted(value):
                    self.add(key, value[key])
            elif isinstance(value, Iterable):
                self._hash.update(b"[")
                for item in value:
                    self.add(item)
                self._hash.update(b"]")
            else:
                raise TypeError(f"cannot digest {type(value).__name__}")
        return self

    def add_answers(self, answers: Iterable[Any]) -> "Digest":
        """Ids, distances and issued I/Os of each answer, in order."""
        for answer in answers:
            self.add(answer.ids, answer.distances, answer.stats.ios_issued)
        return self

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
