"""Fixtures shared across the tier-1 suite."""

import pytest

from repro.core.spec import OperatorSpec


@pytest.fixture()
def walk_visits(monkeypatch):
    """Count operator-tree node visits, as a one-element list the test
    may reset: ``OperatorSpec.walk`` recurses through the class
    attribute, so every node any walk yields passes through here. Cost
    claims about the model are asserted on this count, not on a clock."""
    visits = [0]
    walk = OperatorSpec.walk

    def counted(self):
        visits[0] += 1
        return walk(self)

    monkeypatch.setattr(OperatorSpec, "walk", counted)
    return visits
