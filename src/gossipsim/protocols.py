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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class Gossip1:
    p: float
    k: int


@dataclass(frozen=True)
class Gossip2:
    p1: float
    k: int
    p2: float
    n_thresh: int


@dataclass(frozen=True)
class Gossip3:
    p: float
    k: int
    m: int
    timeout_rounds: int = 2


@dataclass(frozen=True)
class Gossip4:
    p: float
    k: int
    zone_radius: int


ProtocolSpec = Union[Gossip1, Gossip2, Gossip3, Gossip4]

FLOODING = Gossip1(p=1.0, k=1)


def _check_prob(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


def validate_protocol(spec: ProtocolSpec) -> None:
    """Raise ValueError on out-of-range parameters."""
    if isinstance(spec, Gossip1):
        _check_prob(spec.p, "p")
    elif isinstance(spec, Gossip2):
        _check_prob(spec.p1, "p1")
        _check_prob(spec.p2, "p2")
        if spec.p2 < spec.p1:
            raise ValueError("p2 must be >= p1")
        if spec.n_thresh < 1:
            raise ValueError("n_thresh must be positive")
    elif isinstance(spec, Gossip3):
        _check_prob(spec.p, "p")
        if spec.m < 0:
            raise ValueError("m must be non-negative")
        if spec.timeout_rounds < 1:
            raise ValueError("timeout_rounds must be positive")
    elif isinstance(spec, Gossip4):
        _check_prob(spec.p, "p")
        if spec.zone_radius < 0:
            raise ValueError("zone_radius must be non-negative")
    else:
        raise TypeError(f"unknown protocol spec: {spec!r}")
    if spec.k < 0:
        raise ValueError("k must be non-negative")


def effective_probability(p: float, f: float) -> float:
    """Gossip probability adjusted for congestion drop probability `f`."""
    _check_prob(p, "p")
    if not 0.0 <= f < 1.0:
        raise ValueError(f"congestion drop probability must be in [0, 1), got {f}")
    return min(p / (1.0 - f), 1.0)


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
