"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class. Sub-hierarchies mirror the package
layout: model/spec errors, simulator errors, storage errors, and engine
errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SpecError(ReproError):
    """An analytical-model specification is malformed.

    Raised for negative work parameters, duplicate operator names,
    cyclic plan structures, and similar construction-time problems.
    """


class PivotError(SpecError):
    """A sharing pivot is invalid for the query group.

    Raised when the named pivot does not exist in a plan, or when the
    subtrees below the pivot differ across queries that are supposed to
    share (they must request the *same* operation to be mergeable).
    """


class EstimationError(ReproError):
    """Parameter estimation failed (e.g. a singular or empty system)."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class DeadlockError(SimulationError):
    """No runnable task exists but tasks remain blocked.

    Signals an execution graph whose bounded queues can never drain,
    e.g. a consumer that exited without closing its input.
    """


class StorageError(ReproError):
    """In-memory storage layer misuse (schema mismatch, unknown table)."""


class SchemaError(StorageError):
    """A row or expression does not match the table schema."""


class EngineError(ReproError):
    """Staged-engine construction or execution error."""


class QuiescenceError(EngineError):
    """A session holds work or resources after its work ended.

    Raised by :meth:`~repro.db.session.Session.check_quiescent`.
    ``leaks`` maps each kind of leftover (``"tasks"``, ``"grants"``,
    ``"spill files"``, ...) to the items found, each named by what
    owns it: a task name, a grant owner with its pages, a spill file
    with its owner and page count, a submission label.
    """

    def __init__(self, leaks: dict[str, list[str]]) -> None:
        self.leaks = leaks
        super().__init__(
            "session is not quiescent: "
            + "; ".join(f"{kind}: {', '.join(items)}" for kind, items in leaks.items())
        )


class PlanError(EngineError):
    """An engine physical plan is structurally invalid."""


class PolicyError(ReproError):
    """A sharing policy was configured or used incorrectly."""


class WorkloadError(ReproError):
    """Workload or closed-system driver misconfiguration."""
