"""E2LSH parameter derivation (paper Eq. 5 and Sec. 3.3).

With collision probabilities ``p1 = p_w(R)`` and ``p2 = p_w(cR)``::

    m = gamma * log_{1/p2} n      (gamma is the paper's accuracy knob)
    L = n ** rho
    S = 2 * L

``rho = ln(1/p1) / ln(1/p2)`` is the *theoretical* exponent; the paper
treats the effective rho (hence L, hence the index size) as a design
choice "large enough to achieve the desired range of accuracy" — real
datasets have near neighbors much closer than the rung radius, so their
effective p1 is far higher than the worst-case bound and much smaller L
suffices (their L is 16-51 where the worst-case bound would demand
hundreds).  We mirror that: ``rho`` is an explicit parameter defaulting
to a practical value, and ``gamma`` rescales ``m`` without touching the
index size, exactly as in Sec. 3.3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

from repro.core.collision import collision_probability

__all__ = ["E2LSHParams", "DEFAULT_C", "DEFAULT_W", "DEFAULT_RHO"]

#: The paper's approximation ratio for E2LSH (Sec. 3.3).
DEFAULT_C = 2.0
#: Bucket width in units of the rung radius; p2 = p_w(c) stays well below
#: p1 = p_w(1) at this setting.
DEFAULT_W = 4.0
#: Practical index-size exponent (see module docstring).
DEFAULT_RHO = 0.30


@dataclass(frozen=True)
class E2LSHParams:
    """Resolved E2LSH parameters for one database size.

    ``p1``, ``p2``, ``m``, ``L`` and ``S`` are pure functions of the
    frozen fields and sit in every query's rung loop, so each is
    resolved once per instance (``cached_property`` stores into the
    instance ``__dict__``, which a frozen dataclass allows).  Copies
    made by ``replace()`` start cold; equality, hashing and ``asdict``
    see only the declared fields.
    """

    n: int
    c: float = DEFAULT_C
    w: float = DEFAULT_W
    rho: float = DEFAULT_RHO
    #: Accuracy scaling of m (Sec. 3.3); smaller gamma widens buckets'
    #: effective reach (more candidates, higher accuracy, more work).
    gamma: float = 1.0
    #: Candidate-count multiplier: S = s_factor * L (the paper uses 2L).
    s_factor: float = 2.0
    #: Explicit overrides of the derived m / L / S.  The paper itself
    #: treats L as a per-dataset design choice (Table 4); a sharded
    #: deployment uses these to give every shard the *full* dataset's
    #: hash structure while n reflects only the shard's subset.
    m_explicit: int | None = None
    L_explicit: int | None = None
    S_explicit: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.c <= 1:
            raise ValueError(f"c must be > 1, got {self.c}")
        if self.w <= 0:
            raise ValueError(f"w must be positive, got {self.w}")
        if not 0 < self.rho < 1:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.s_factor <= 0:
            raise ValueError(f"s_factor must be positive, got {self.s_factor}")
        for label, value in (
            ("m_explicit", self.m_explicit),
            ("L_explicit", self.L_explicit),
            ("S_explicit", self.S_explicit),
        ):
            if value is not None and value < 1:
                raise ValueError(f"{label} must be >= 1, got {value}")

    @cached_property
    def p1(self) -> float:
        """Collision probability of points at the rung radius."""
        return float(collision_probability(self.w))

    @cached_property
    def p2(self) -> float:
        """Collision probability of points at c times the rung radius."""
        return float(collision_probability(self.w / self.c))

    @cached_property
    def m(self) -> int:
        """Hash functions per compound hash: ``ceil(gamma * log_{1/p2} n)``."""
        if self.m_explicit is not None:
            return self.m_explicit
        base = math.log(max(self.n, 2)) / math.log(1.0 / self.p2)
        return max(1, math.ceil(self.gamma * base))

    @cached_property
    def L(self) -> int:
        """Number of compound hashes (hash tables per radius): ``ceil(n^rho)``."""
        if self.L_explicit is not None:
            return self.L_explicit
        return max(1, math.ceil(self.n**self.rho))

    @cached_property
    def S(self) -> int:
        """Candidate budget per radius: ``s_factor * L`` (paper: 2L)."""
        if self.S_explicit is not None:
            return self.S_explicit
        return max(1, math.ceil(self.s_factor * self.L))

    @property
    def success_probability(self) -> float:
        """Datar et al.'s guarantee at gamma = 1: ``1/2 - 1/e``."""
        return 0.5 - 1.0 / math.e

    def with_gamma(self, gamma: float) -> "E2LSHParams":
        """Copy with a different accuracy scaling (does not change L)."""
        return replace(self, gamma=gamma)

    def with_s_factor(self, s_factor: float) -> "E2LSHParams":
        """Copy with a different candidate budget."""
        return replace(self, s_factor=s_factor)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"E2LSHParams(n={self.n}, c={self.c}, w={self.w}, rho={self.rho}, "
            f"gamma={self.gamma}: m={self.m}, L={self.L}, S={self.S}, "
            f"p1={self.p1:.3f}, p2={self.p2:.3f})"
        )
