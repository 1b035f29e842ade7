import pytest

from gossipsim import (
    FLOODING,
    Gossip1,
    Gossip2,
    Gossip3,
    Gossip4,
    protocol_name,
)


def test_flooding_alias():
    assert FLOODING == Gossip1(1.0, 1)
    assert protocol_name(FLOODING) == "flooding"


# (class, args): a spec checks itself when it is built, so a bad one cannot exist
@pytest.mark.parametrize(
    "spec",
    [
        (Gossip1, (1.2, 1)),
        (Gossip1, (-0.1, 1)),
        (Gossip1, (0.5, -1)),
        (Gossip2, (0.8, 4, 0.6, 6)),   # p2 < p1
        (Gossip2, (0.5, 4, 0.9, 0)),   # n_thresh < 1
        (Gossip3, (0.5, 4, -1, 2)),
        (Gossip3, (0.5, 4, 1, 0)),
        (Gossip4, (0.5, 4, -1)),
    ],
)
def test_validate_rejects_bad_parameters(spec):
    cls, args = spec
    with pytest.raises(ValueError):
        cls(*args)


def test_validate_accepts_degenerate_gossip3():
    Gossip3(0.5, 4, 0, 2)  # m = 0 degenerates to Gossip1


def test_protocol_names():
    assert protocol_name(Gossip2(0.6, 4, 1.0, 6)) == "gossip2(0.6,4,1,6)"
    assert protocol_name(Gossip3(0.65, 4, 1, 2)) == "gossip3(0.65,4,1,2)"
    assert protocol_name(Gossip4(0.65, 1, 3)) == "gossip4(0.65,1,3)"
