"""repro — a reproduction of "To Share or Not To Share?" (VLDB 2007).

The package implements, from scratch:

* the paper's analytical model of the work-sharing/parallelism
  trade-off (:mod:`repro.core`),
* a discrete-event chip-multiprocessor simulator standing in for the
  UltraSparc T1 testbed (:mod:`repro.sim`),
* an in-memory columnar storage layer with memory governance — buffer
  pool, spill files, cooperative elevator scans (:mod:`repro.storage`)
  — and a deterministic TPC-H generator plus the paper's query plans
  (:mod:`repro.tpch`),
* a Cordoba-style staged execution engine with packet merging and
  pivot multiplexing (:mod:`repro.engine`),
* model parameter estimation from engine profiles
  (:mod:`repro.profiling`), sharing policies (:mod:`repro.policies`),
  and workload drivers (:mod:`repro.workload`),
* the :mod:`repro.db` facade — sessions, a fluent query builder, and
  policy-driven automatic sharing — which is the recommended entry
  point,
* one experiment driver per paper figure (:mod:`repro.experiments`).

Quickstart::

    from repro import Database, RuntimeConfig
    from repro.engine.expressions import col, lt
    from repro.tpch.generator import generate

    catalog = generate(scale_factor=0.001, seed=7)
    session = Database.open(catalog, RuntimeConfig.preset("cmp32"))
    query = (session.table("lineitem")
                    .where(lt(col("l_quantity"), 24.0))
                    .select("l_orderkey", "l_extendedprice"))

    for i in range(16):
        session.submit(query, label=f"client{i}")
    for result in session.run_all():   # the session decides sharing
        print(result.render())

The analytical model remains available standalone::

    from repro.core import QuerySpec, ShareAdvisor, chain, op, sharers

    q6 = QuerySpec(chain(op("scan", 9.66, 10.34), op("agg", 0.97)),
                   label="q6")
    decision = ShareAdvisor(processors=32).evaluate(
        sharers(q6, 10), pivot_name="scan"
    )
    print(decision.share, decision.benefit)
"""

from repro.core import (
    OperatorSpec,
    QuerySpec,
    ShareAdvisor,
    ShareDecision,
    chain,
    op,
    shared_rate,
    sharing_benefit,
    unshared_rate,
)
from repro.db import Database, QueryResult, RuntimeConfig, Session
from repro.errors import ReproError
from repro.server import Server

__version__ = "1.2.0"

__all__ = [
    "Database",
    "Server",
    "Session",
    "RuntimeConfig",
    "QueryResult",
    "OperatorSpec",
    "QuerySpec",
    "ShareAdvisor",
    "ShareDecision",
    "chain",
    "op",
    "shared_rate",
    "sharing_benefit",
    "unshared_rate",
    "ReproError",
    "__version__",
]
