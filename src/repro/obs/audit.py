"""The decision audit trail: what the advisor projected, and what
actually happened.

The paper's model-guided policies (Section 4) *project* shared and
unshared completion rates from profiled specs and choose by Z-score;
our reproduction made those choices silently, so there was no way to
ask the one question a self-tuning system needs answered: *how wrong
were the projections?* Every routing decision the
``SharingCoordinator`` makes — for ``Session.run_all``, for a
``Server``, on a raw engine handed a log — appends exactly one
:class:`AuditRecord` (as does a bare ``Session.advise``) capturing the
decision *inputs* (signature, group size, projected rates, Z-score,
projected extra I/O, spill pages, drift discount), *who* decided and
*what happened*. Every model-priced verdict carries its rates,
whichever decider priced it. The coordinator joins each record when
the record's last member finishes, with what the simulator measured —
latency, completion rate, and the pool misses from the decision to
that finish — so :attr:`AuditRecord.projection_error` quantifies the
gap per decision and :meth:`AuditLog.mean_abs_error` the gap per
workload, at every door. ``fig_audit`` plots this distribution over
the fig_mem/fig_drift sweeps.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable, Optional

__all__ = ["AuditRecord", "AuditLog"]

OUTCOMES = ("share", "solo", "attach", "parallel", "both", "queue", "shed")


@dataclass
class AuditRecord:
    """One routing decision: projections at decision time, and (once
    joined) the measurement of the arm that was actually run.

    ``source`` names who decided: ``"advisor"`` (the session's
    built-in decider, a ``ModelGuidedPolicy`` keyed by pivot
    signature), ``"policy"`` (an attached policy object),
    ``"forced"`` (the submitter pinned ``share=``), ``"solo"`` (no
    one was asked: no pivot, or nothing to share with and no explicit
    policy), or ``"server"`` (admission control). ``outcome`` says
    what happened: ``"share"`` (launched as one group), ``"solo"``
    (ran alone, serially), ``"attach"`` (joined a busy signature —
    its pending batch or, with mid-flight attach, the group in
    flight), ``"parallel"`` (ran alone with intra-query parallelism),
    ``"both"`` (split into several shared groups — the Section 8.1
    share-and-parallelize arrangement), ``"queue"`` (admission control
    held the arrival for a free slot), or ``"shed"`` (admission
    control rejected the arrival outright).

    Projection fields are in the model's units: rates are completion
    rates (queries per cost unit, the paper's X_shared/X_unshared) —
    present whenever the decider priced its verdict with the model,
    whatever the source, and ``None`` for unpriced verdicts
    (``AlwaysShare``, ``NeverShare``, online exploration, forced
    routing); ``projected_mode_rate`` is a four-way verdict's rate for
    the mode it chose (``group_size / makespans[mode]``) and ``None``
    for a binary one; ``projected_io_extra`` is the per-sibling extra
    pivot work the ResourceOutlook charged (negative = projected I/O
    *savings*), ``projected_spill_pages`` the broker's projected spill
    for the unshared plan, ``projected_drift_share`` the drift-bound
    discount factor on shared-scan savings.

    Measurement fields stay ``None`` until the coordinator joins the
    record when its last member finishes (never, for a record that
    launched nothing): ``measured_latency`` is first launch to last
    finish (simulated time), ``measured_rate`` is ``group_size /
    measured_latency``, and ``measured_physical_reads`` the pool
    misses from this decision to its last member's finish — records
    overlapping in time each count the reads made while both ran.
    """

    seq: int
    query: str
    signature: str
    group_size: int
    source: str
    outcome: str
    decided_at: float = 0.0
    projected_z: Optional[float] = None
    projected_shared_rate: Optional[float] = None
    projected_unshared_rate: Optional[float] = None
    projected_mode_rate: Optional[float] = None
    projected_io_extra: Optional[float] = None
    projected_spill_pages: Optional[int] = None
    projected_drift_share: Optional[float] = None
    measured_latency: Optional[float] = None
    measured_rate: Optional[float] = None
    measured_physical_reads: Optional[float] = None

    @property
    def projected_rate(self) -> Optional[float]:
        """The projected completion rate of the arm that was chosen (a
        ``parallel``/``both`` arm's four-way rate, never a serial one)."""
        if self.outcome in ("parallel", "both"):
            return self.projected_mode_rate
        if self.outcome in ("share", "attach"):
            return self.projected_shared_rate
        return self.projected_unshared_rate

    @property
    def joined(self) -> bool:
        return self.measured_latency is not None

    @property
    def projection_error(self) -> Optional[float]:
        """Relative error of the chosen arm's projected rate vs the
        measured rate: ``(projected - measured) / measured``.

        Positive = the model was optimistic (projected faster than
        reality), negative = pessimistic. ``None`` until the record is
        joined or when the decision carried no rate projection.
        """
        if self.projected_rate is None or not self.measured_rate:
            return None
        return (self.projected_rate - self.measured_rate) / self.measured_rate

    def join(
        self,
        latency: float,
        physical_reads: Optional[float] = None,
    ) -> None:
        """Attach the measured outcome of this decision's launch."""
        self.measured_latency = latency
        self.measured_rate = self.group_size / latency if latency > 0 else None
        self.measured_physical_reads = physical_reads

    def to_dict(self) -> dict:
        record = asdict(self)
        record["projected_rate"] = self.projected_rate
        record["projection_error"] = self.projection_error
        return record


class AuditLog:
    """Append-only sequence of :class:`AuditRecord`.

    One log per session (``Session.audit_log()``); policies and
    coordinators can share it or keep their own. Appends assign
    monotonically increasing ``seq`` numbers, so interleaved deciders
    stay ordered.
    """

    def __init__(self) -> None:
        self._records: list[AuditRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def __getitem__(self, index):
        return self._records[index]

    @property
    def records(self) -> tuple[AuditRecord, ...]:
        return tuple(self._records)

    def append(self, **fields_) -> AuditRecord:
        """Create and store a record; ``seq`` is assigned here."""
        outcome = fields_.get("outcome")
        if outcome not in OUTCOMES:
            raise ValueError(
                f"outcome must be one of {OUTCOMES}, got {outcome!r}"
            )
        record = AuditRecord(seq=len(self._records), **fields_)
        self._records.append(record)
        return record

    def joined_records(self) -> tuple[AuditRecord, ...]:
        """Records whose measurement has been joined."""
        return tuple(r for r in self._records if r.joined)

    def mean_abs_error(self) -> Optional[float]:
        """Mean absolute projection error over joined records that
        carry a rate projection; ``None`` when there are none."""
        errors = [
            abs(r.projection_error)
            for r in self._records
            if r.projection_error is not None
        ]
        return sum(errors) / len(errors) if errors else None

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(
            [r.to_dict() for r in self._records], indent=indent, sort_keys=True
        )

    def render(self, records: Optional[Iterable[AuditRecord]] = None) -> str:
        """Aligned table of decisions, one line per record."""
        rows = list(self._records if records is None else records)
        if not rows:
            return "(no audited decisions)"
        lines = [
            f"{'seq':>4}  {'query':<18} {'m':>3}  {'source':<11} "
            f"{'outcome':<7} {'proj Z':>8}  {'proj rate':>10}  "
            f"{'meas rate':>10}  {'error':>8}"
        ]
        for r in rows:
            z = f"{r.projected_z:.3f}" if r.projected_z is not None else "-"
            proj = (
                f"{r.projected_rate:.3e}" if r.projected_rate is not None else "-"
            )
            meas = (
                f"{r.measured_rate:.3e}" if r.measured_rate is not None else "-"
            )
            err = (
                f"{r.projection_error:+.1%}"
                if r.projection_error is not None
                else "-"
            )
            lines.append(
                f"{r.seq:>4}  {r.query:<18} {r.group_size:>3}  "
                f"{r.source:<11} {r.outcome:<7} {z:>8}  {proj:>10}  "
                f"{meas:>10}  {err:>8}"
            )
        return "\n".join(lines)
