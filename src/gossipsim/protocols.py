"""Gossip protocol variants and their forwarding probabilities.

All variants share the same base rule: forward with probability 1 for the
first `k` hops (hop < k), then with the base probability.  With k = 0 even
the source gossips probabilistically.

  Gossip1(p, k)                  -- the base protocol; Gossip1(1, 1) is flooding.
  Gossip2(p1, k, p2, n_thresh)   -- neighbors of a node with fewer than
                                    n_thresh neighbors use p2 >= p1 instead.
  Gossip3(p, k, m, timeout)      -- a node that declined and then heard fewer
                                    than m further copies within `timeout`
                                    rounds broadcasts anyway.
  Gossip4(p, k, zone_radius)     -- forwards like Gossip1; nodes know routes
                                    within `zone_radius` hops, which widens
                                    delivery (see metrics / route discovery).

Each spec checks its parameters when it is built and raises ValueError on
one out of range, so every spec in hand is valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


def _check_prob(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


def _check_k(k: int) -> None:
    if k < 0:
        raise ValueError("k must be non-negative")


@dataclass(frozen=True)
class Gossip1:
    p: float
    k: int

    def __post_init__(self):
        _check_prob(self.p, "p")
        _check_k(self.k)


@dataclass(frozen=True)
class Gossip2:
    p1: float
    k: int
    p2: float
    n_thresh: int

    def __post_init__(self):
        _check_prob(self.p1, "p1")
        _check_prob(self.p2, "p2")
        if self.p2 < self.p1:
            raise ValueError("p2 must be >= p1")
        if self.n_thresh < 1:
            raise ValueError("n_thresh must be positive")
        _check_k(self.k)


@dataclass(frozen=True)
class Gossip3:
    p: float
    k: int
    m: int
    timeout_rounds: int = 2

    def __post_init__(self):
        _check_prob(self.p, "p")
        if self.m < 0:
            raise ValueError("m must be non-negative")
        if self.timeout_rounds < 1:
            raise ValueError("timeout_rounds must be positive")
        _check_k(self.k)


@dataclass(frozen=True)
class Gossip4:
    p: float
    k: int
    zone_radius: int

    def __post_init__(self):
        _check_prob(self.p, "p")
        if self.zone_radius < 0:
            raise ValueError("zone_radius must be non-negative")
        _check_k(self.k)


ProtocolSpec = Union[Gossip1, Gossip2, Gossip3, Gossip4]

FLOODING = Gossip1(p=1.0, k=1)


def protocol_name(spec: ProtocolSpec) -> str:
    """Short human-readable tag, e.g. 'gossip1(0.65,4)'."""
    if isinstance(spec, Gossip1):
        if spec == FLOODING:
            return "flooding"
        return f"gossip1({spec.p:g},{spec.k})"
    if isinstance(spec, Gossip2):
        return f"gossip2({spec.p1:g},{spec.k},{spec.p2:g},{spec.n_thresh})"
    if isinstance(spec, Gossip3):
        return f"gossip3({spec.p:g},{spec.k},{spec.m},{spec.timeout_rounds})"
    return f"gossip4({spec.p:g},{spec.k},{spec.zone_radius})"
