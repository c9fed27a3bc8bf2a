"""Quickstart: open a session, submit queries, let the system decide.

The facade in four steps:

1. open a :class:`~repro.db.session.Session` on a TPC-H catalog with a
   named :class:`~repro.db.config.RuntimeConfig` preset — the session
   wires simulator, buffer pool, memory broker and scan sharing for
   you;
2. build TPC-H Q6 fluently (``table(...).where(...).agg(...)``) — the
   builder lowers to the engine's plan IR, so schema errors surface at
   build time;
3. submit 16 clients' worth and call ``run_all()``: the session groups
   identical submissions by pivot signature, consults the Section-4
   model (adjusted by the live resource outlook), and shares or runs
   independently on its own;
4. read everything from the returned ``QueryResult``s — rows,
   simulated latency, the sharing verdict, resource counters.

The hand-wired ``Engine`` path is shown once at the end as the
low-level escape hatch.

Run: ``python examples/quickstart.py``
"""

from repro import Database, RuntimeConfig
from repro.engine import AggSpec
from repro.engine.expressions import and_, col, lt, mul
from repro.storage import date_to_ordinal
from repro.tpch.generator import generate

CLIENTS = 16


def q6_builder(session):
    """TPC-H Q6, fluently: fused scan stage + scalar aggregation."""
    predicate = and_(
        lt(date_to_ordinal(1993, 1, 1) - 1, col("l_shipdate")),
        lt(col("l_shipdate"), date_to_ordinal(1996, 1, 1)),
        lt(col("l_discount"), 0.09),
        lt(col("l_quantity"), 45.0),
    )
    return (
        session.table("lineitem", columns=["l_shipdate", "l_discount",
                                           "l_quantity", "l_extendedprice"])
        .where(predicate)
        .agg(AggSpec("sum", "revenue",
                     mul(col("l_extendedprice"), col("l_discount"))))
        .named("q6")
    )


def session_api(catalog) -> None:
    """The facade decides: share on 1 cpu, run independently on 32."""
    print(f"1) Session API — {CLIENTS} identical Q6 clients, auto-shared")
    for processors in (1, 32):
        config = RuntimeConfig(processors=processors)
        session = Database.open(catalog, config)
        query = q6_builder(session)
        for i in range(CLIENTS):
            session.submit(query, label=f"q6#{i}")
        results = session.run_all()
        first = results[0]
        verdict = "SHARE" if first.shared else "run independently"
        decision = first.decision
        z = f"Z = {decision.benefit:.2f}" if decision is not None else "-"
        print(f"   {processors:>2} cpus: model says {verdict} ({z}); "
              f"batch finished at {first.makespan:,.0f} sim-units, "
              f"group of {first.group_size}")
    print()


def presets(catalog) -> None:
    """The same query under the named runtime presets."""
    print("2) Presets — one line of config wires the whole storage layer")
    for name in ("laptop", "cmp32", "unbounded"):
        session = Database.open(catalog, name)
        result = session.run(q6_builder(session), label="q6")
        metrics = result.metrics
        pool = (f"pool {metrics['buffer.hits']} hits / {metrics['buffer.misses']} misses, "
                f"memory high-water {metrics['memory.high_water']} pages"
                if "buffer.hits" in metrics else "no resource governance attached")
        print(f"   {name:>9}: {len(result.rows)} row(s) in "
              f"{result.latency:,.0f} sim-units | {pool}")
    print()


def escape_hatch(catalog) -> None:
    """The low-level layer is still public: hand-wire an Engine."""
    from repro.engine import Engine
    from repro.sim import Simulator
    from repro.tpch.queries import build

    query = build("q6", catalog)
    sim = Simulator(processors=32)
    engine = Engine(catalog, sim)
    engine.execute_group([query.plan] * CLIENTS, pivot_op_id=query.pivot,
                         labels=[f"q6#{i}" for i in range(CLIENTS)])
    sim.run()
    print("3) Low-level escape hatch — Engine.execute_group by hand")
    print(f"   forced sharing on 32 cpus: makespan {sim.now:,.0f} sim-units")
    print("   (the session above declined this for a reason: forced")
    print("   sharing serializes the scan pivot behind one consumer.)")


if __name__ == "__main__":
    catalog = generate(scale_factor=0.0005, seed=7)
    session_api(catalog)
    presets(catalog)
    escape_hatch(catalog)
