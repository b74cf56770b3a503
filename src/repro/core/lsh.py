"""The p-stable LSH family and compound hashes (paper Eqs. 1 and 4).

One :class:`CompoundHashBank` holds the random projections for all
``L`` compound hashes of ``m`` functions each.  The same projections are
shared across the radius ladder: rung ``R`` only rescales the bucket
width to ``w * R`` (equivalent to hashing the data scaled by ``1/R``),
so ``X @ A`` is computed once and floored per rung.  This is the
standard E2LSH-package economy; rungs remain pairwise independent *in
the offsets* and the measured collision behaviour matches the per-rung
analysis, while index construction avoids an ``r``-fold matmul blowup.

Compound hash values are reduced to ``v = 32`` bits (Sec. 5.2) by a
per-table universal mix of the ``m`` integer lattice codes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import rng_for

__all__ = ["CompoundHashBank"]

#: SplitMix64 multiplier used to finalize the 32-bit compound hash value.
_FINALIZER = np.uint64(0x9E3779B97F4A7C15)

#: Rows hashed per pass of :meth:`CompoundHashBank.hash_projections`.
#: At ~2k rows the float64/int64 scratch of a few-hundred-column bank
#: stays cache-resident, where whole-matrix temporaries of an index
#: build (three ``(n, L*m)`` 8-byte arrays per rung) page-fault instead.
_HASH_CHUNK_ROWS = 2048


@dataclass(frozen=True)
class CompoundHashBank:
    """Random projections and mixers for L compound hashes of m functions."""

    #: Projection matrix of shape (d, L * m); columns are the ``a`` vectors.
    a: np.ndarray
    #: Uniform offsets in [0, 1), shape (L * m,) — the ``b / w`` of Eq. 1.
    b: np.ndarray
    #: Odd 64-bit multipliers for the universal mix, shape (L, m).
    mixers: np.ndarray
    m: int
    L: int
    w: float

    def __post_init__(self) -> None:
        columns, shapes = self.L * self.m, (self.a.shape[1:], self.b.shape, self.mixers.shape)
        if self.a.ndim != 2 or shapes != ((columns,), (columns,), (self.L, self.m)):
            raise ValueError(
                f"bank arrays {self.a.shape}, {shapes[1]}, {shapes[2]} do not fit m={self.m}, L={self.L}"
            )

    @classmethod
    def create(cls, d: int, m: int, L: int, w: float, seed: int) -> "CompoundHashBank":
        """Sample a bank for ``d``-dimensional data."""
        if d < 1 or m < 1 or L < 1:
            raise ValueError(f"d, m, L must be >= 1, got {d}, {m}, {L}")
        if w <= 0:
            raise ValueError(f"w must be positive, got {w}")
        rng = rng_for(seed, "compound-hash-bank")
        a = rng.standard_normal((d, L * m)).astype(np.float32)
        b = rng.random(L * m).astype(np.float64)
        mixers = (rng.integers(1, 2**63, size=(L, m), dtype=np.uint64) << np.uint64(1)) | np.uint64(1)
        return cls(a=a, b=b, mixers=mixers, m=m, L=L, w=w)

    @property
    def d(self) -> int:
        """Data dimensionality."""
        return int(self.a.shape[0])

    def with_m(self, m_new: int) -> "CompoundHashBank":
        """A bank using only the first ``m_new`` functions of each table.

        A prefix of a compound hash is itself a valid compound hash, so
        accuracy tuning via the paper's gamma knob (which only changes
        m, Sec. 3.3) can reuse one bank — and one projection pass —
        across all gamma values.
        """
        if not 1 <= m_new <= self.m:
            raise ValueError(f"m_new must be in [1, {self.m}], got {m_new}")
        if m_new == self.m:
            return self
        columns = (
            np.arange(self.L)[:, None] * self.m + np.arange(m_new)[None, :]
        ).reshape(-1)
        return CompoundHashBank(
            a=self.a[:, columns],
            b=self.b[columns],
            mixers=self.mixers[:, :m_new],
            m=m_new,
            L=self.L,
            w=self.w,
        )

    def select_tables(self, tables: "Sequence[int] | np.ndarray") -> "CompoundHashBank":
        """A bank holding only the given compound hashes (tables).

        Each compound hash is independent, so any subset is itself a
        valid bank over the same data.  This is how a table-partitioned
        deployment (PLSH-style) gives every shard its own disjoint slice
        of the L tables while all shards hash identically to the
        single-node index.
        """
        tables = np.asarray(tables, dtype=np.int64)
        if tables.size < 1:
            raise ValueError("need at least one table")
        if tables.min() < 0 or tables.max() >= self.L or np.unique(tables).size != tables.size:
            raise ValueError(f"tables must be distinct indices in [0, {self.L}), got {tables}")
        columns = (tables[:, None] * self.m + np.arange(self.m)[None, :]).reshape(-1)
        return CompoundHashBank(
            a=self.a[:, columns],
            b=self.b[columns],
            mixers=self.mixers[tables],
            m=self.m,
            L=int(tables.size),
            w=self.w,
        )

    def select_projection_columns(self, projections: np.ndarray, m_new: int) -> np.ndarray:
        """The first ``m_new`` projections per table, row-major (the input at full width)."""
        if projections.shape[1] != self.L * self.m:
            raise ValueError(
                f"projections have {projections.shape[1]} columns, expected {self.L * self.m}"
            )
        if not 1 <= m_new <= self.m:
            raise ValueError(f"m_new must be in [1, {self.m}], got {m_new}")
        if m_new == self.m:
            return projections
        n = projections.shape[0]
        prefix = projections.reshape(n, self.L, self.m)[:, :, :m_new]
        return np.ascontiguousarray(prefix).reshape(n, self.L * m_new)

    @property
    def memory_bytes(self) -> int:
        """DRAM footprint of the bank (kept in memory by E2LSHoS)."""
        return self.a.nbytes + self.b.nbytes + self.mixers.nbytes

    def project(self, points: np.ndarray) -> np.ndarray:
        """Dot products ``points @ a`` of shape (n, L * m), float64.

        This is the expensive part of hashing; callers cache it per
        query (or per build chunk) and reuse it for every rung.
        """
        points = np.asarray(points, dtype=np.float32)
        if points.ndim == 1:
            points = points[None, :]
        if points.shape[1] != self.d:
            raise ValueError(f"points have d={points.shape[1]}, bank expects {self.d}")
        return (points @ self.a).astype(np.float64)

    def project_rows(self, points: np.ndarray) -> np.ndarray:
        """Batch-invariant dot products, shape (n, L * m), float64.

        Same mathematics as :meth:`project`, but computed with a
        reduction whose per-row result is independent of how many rows
        share the call: row ``i`` of ``project_rows(Q)`` is bitwise
        identical to ``project_rows(Q[i:i+1])``.  BLAS matmul does not
        guarantee this (it blocks/reorders the float32 accumulation by
        operand shape), so the *query* hot path hashes through this
        method — a query planned inside a wave of B must land in exactly
        the buckets it would probe alone.  Build-time bulk hashing keeps
        the faster :meth:`project`.
        """
        points = np.asarray(points, dtype=np.float32)
        if points.ndim == 1:
            points = points[None, :]
        if points.shape[1] != self.d:
            raise ValueError(f"points have d={points.shape[1]}, bank expects {self.d}")
        return np.einsum("nd,dm->nm", points, self.a).astype(np.float64)

    def codes_for_radius(self, projections: np.ndarray, radius: float) -> np.ndarray:
        """Lattice codes ``floor(proj / (w R) + b)`` of shape (n, L, m)."""
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        width = self.w * radius
        codes = np.floor(projections / width + self.b).astype(np.int64)
        return codes.reshape(-1, self.L, self.m)

    def mix32(self, codes: np.ndarray) -> np.ndarray:
        """Reduce (n, L, m) lattice codes to (n, L) 32-bit hash values.

        Uses a per-table universal linear combination over Z/2^64
        followed by a SplitMix-style finalizer; the high 32 bits become
        the compound hash value ``v`` of Sec. 5.2.
        """
        if codes.ndim != 3 or codes.shape[1] != self.L or codes.shape[2] != self.m:
            raise ValueError(f"codes must have shape (n, {self.L}, {self.m})")
        unsigned = codes.astype(np.uint64)
        mixed = np.einsum("nlm,lm->nl", unsigned, self.mixers, dtype=np.uint64)
        mixed ^= mixed >> np.uint64(31)
        mixed *= _FINALIZER
        return (mixed >> np.uint64(32)).astype(np.uint32)

    def hash_projections(self, projections: np.ndarray, radius: float) -> np.ndarray:
        """32-bit compound hash values, shape (n, L), of one rung.

        Bitwise ``mix32(codes_for_radius(projections, radius))``, as the
        single-width case of :meth:`hash_prefixes`.  This is the hashing
        path of index builds, maintenance and query planning; the
        two-step form stays for callers that need the lattice codes
        themselves (multi-probe perturbs them).
        """
        return self.hash_prefixes(projections, radius, (self.m,))[0]

    def hash_prefixes(
        self, projections: np.ndarray, radius: float, widths: Sequence[int]
    ) -> list[np.ndarray]:
        """One rung's (n, L) hash values under ``with_m(m_new)`` for each width.

        A prefix bank's lattice codes are a column prefix of this bank's,
        so a gamma sweep quantizes once.  Every step is elementwise or
        exact modulo 2^64, fused and run in fixed row chunks through
        reused scratch: ``divide -> add b -> floor`` in place, one cast
        to int64 (viewed as uint64), then per width the mixer
        contraction over a view of the codes and the finalizer.
        """
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        columns = self.L * self.m
        if projections.ndim != 2 or projections.shape[1] != columns:
            raise ValueError(f"projections must have shape (n, {columns}), got {projections.shape}")
        if not all(1 <= m_new <= self.m for m_new in widths):
            raise ValueError(f"widths must be in [1, {self.m}], got {tuple(widths)}")
        n = projections.shape[0]
        width = self.w * radius
        outs = [np.empty((n, self.L), dtype=np.uint32) for _ in widths]
        rows = max(1, min(n, _HASH_CHUNK_ROWS))
        scaled_buffer = np.empty((rows, columns), dtype=np.float64)
        codes_buffer = np.empty((rows, columns), dtype=np.int64)
        mixed_buffer = np.empty((rows, self.L), dtype=np.uint64)
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            count = stop - start
            scaled, codes, mixed = scaled_buffer[:count], codes_buffer[:count], mixed_buffer[:count]
            np.divide(projections[start:stop], width, out=scaled)
            np.add(scaled, self.b, out=scaled)
            np.floor(scaled, out=scaled)
            np.copyto(codes, scaled, casting="unsafe")
            unsigned = codes.view(np.uint64).reshape(count, self.L, self.m)
            for out, m_new in zip(outs, widths):
                prefix, mixers = unsigned[:, :, :m_new], self.mixers[:, :m_new]
                np.einsum("nlm,lm->nl", prefix, mixers, dtype=np.uint64, out=mixed)
                mixed ^= mixed >> np.uint64(31)
                mixed *= _FINALIZER
                out[start:stop] = mixed >> np.uint64(32)
        return outs

    def hash_values(self, points: np.ndarray, radius: float) -> np.ndarray:
        """Convenience: 32-bit compound hash values of shape (n, L)."""
        return self.hash_projections(self.project(points), radius)
