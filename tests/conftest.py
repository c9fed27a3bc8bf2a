"""Fixtures and hooks shared across the tier-1 suite."""

import pytest

from repro.core.spec import OperatorSpec
from repro.db.session import Session


# Every Session opened while a fixture is set up or a test body runs is
# recorded in the innermost open scope (one list per scope, innermost
# last) and checked for quiescence when that scope ends.
_OPENED: list[list[Session]] = []
_SESSION_INIT = Session.__init__


def _recorded_init(self, *args, **kwargs):
    _SESSION_INIT(self, *args, **kwargs)
    if _OPENED:
        _OPENED[-1].append(self)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "in_flight: the test (or every test of the marked class or module, "
        "and its fixtures) leaves a Session with work in flight on purpose, "
        "so its sessions are not checked for quiescence",
    )
    Session.__init__ = _recorded_init


def pytest_unconfigure(config):
    Session.__init__ = _SESSION_INIT


def _check_quiescent(node, sessions):
    """Every :class:`Session` in ``sessions`` holds no work in flight
    (:meth:`Session.check_quiescent`): no live task, open grant,
    spill file, scan ticket or coordinator entry — unless
    ``node`` is marked ``in_flight``."""
    if node.get_closest_marker("in_flight") is None:
        for session in sessions:
            session.check_quiescent()


@pytest.hookimpl(wrapper=True)
def pytest_fixture_setup(fixturedef, request):
    """Sessions a fixture opens, of any scope, are checked once the
    fixture is torn down: the finalizer goes in before the fixture's
    own, so it runs after it."""
    opened = []
    node = request.node
    fixturedef.addfinalizer(lambda: _check_quiescent(node, opened))
    _OPENED.append(opened)
    try:
        return (yield)
    finally:
        _OPENED.pop()


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Sessions a test body opens are checked when it returns (a test
    that failed is not checked: its error is the report)."""
    opened = []
    _OPENED.append(opened)
    try:
        result = yield
    finally:
        _OPENED.pop()
    _check_quiescent(item, opened)
    return result


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
