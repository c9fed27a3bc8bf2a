"""The paper's primary contribution: the work-sharing/parallelism model.

Public surface:

* :mod:`repro.core.spec` — :class:`OperatorSpec` / :class:`QuerySpec`
  model-level plans (Table 1).
* :mod:`repro.core.metrics` — ``p_max``, peak rate *r*, total work
  *u'*, utilization *u* (Section 4.1).
* :mod:`repro.core.model` — shared/unshared rates and ``Z(m, n)``
  (Sections 4.2-4.3).
* :mod:`repro.core.closed_system` — mismatched rates, open vs. closed
  systems (Section 5.1).
* :mod:`repro.core.phases` — stop-&-go decomposition (Section 5.2).
* :mod:`repro.core.joins` — NLJ/MJ/HJ constructors (Section 5.3).
* :mod:`repro.core.contention` — the ``n^kappa`` hardware contention
  model (Section 4.1.4).
* :mod:`repro.core.sensitivity` — the Section 6 sweeps (Figure 4).
* :mod:`repro.core.decision` — :class:`ShareAdvisor`, the runtime
  binary decision (Section 8).
* :mod:`repro.core.estimation` — parameter fitting from profiles
  (Section 3.1).
"""

from repro.core.contention import NO_CONTENTION, PowerLawContention
from repro.core.decision import ShareAdvisor, ShareDecision
from repro.core.metrics import p_max, peak_rate, total_work, utilization
from repro.core.model import (
    SharedPlanMetrics,
    shared_metrics,
    shared_rate,
    sharing_benefit,
    unshared_rate,
)
from repro.core.phases import Phase, PhasedQuery, decompose
from repro.core.spec import OperatorSpec, QuerySpec, chain, op, sharers

__all__ = [
    "NO_CONTENTION",
    "PowerLawContention",
    "ShareAdvisor",
    "ShareDecision",
    "p_max",
    "peak_rate",
    "total_work",
    "utilization",
    "SharedPlanMetrics",
    "shared_metrics",
    "shared_rate",
    "sharing_benefit",
    "unshared_rate",
    "Phase",
    "PhasedQuery",
    "decompose",
    "OperatorSpec",
    "QuerySpec",
    "chain",
    "op",
    "sharers",
]
