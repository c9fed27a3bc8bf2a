"""Capacity planning for a consolidated data warehouse.

Scenario from the paper's introduction: "a single machine could host a
significant subset of an enterprise's data warehousing operations",
with many analysts running the same dashboard queries concurrently.
The operator must choose (a) how large a sharing group to allow per
query type, and (b) whether sharing should be enabled at all on the
next hardware generation.

This example uses the profiler + model to produce a sizing table: for
each query type and machine size, the best sharing group size and the
predicted throughput gain — exactly the decision procedure Section 8
builds into the engine, used here offline for planning.

Run: ``python examples/warehouse_consolidation.py``
"""

from repro.core import ShareAdvisor, sharers
from repro.core.model import sharing_benefit
from repro.profiling import QueryProfiler
from repro.tpch.generator import generate
from repro.tpch.queries import QUERIES, build

MACHINE_SIZES = (1, 2, 8, 16, 32)
ANALYSTS = 24  # concurrent identical dashboards per query type


def main() -> None:
    catalog = generate(scale_factor=0.0005, seed=21)
    profiler = QueryProfiler(catalog)

    print(f"Sizing table for {ANALYSTS} concurrent analysts per query type")
    print(f"{'query':>6} {'kind':>11} | " +
          " | ".join(f"{n:>2} cpus" for n in MACHINE_SIZES))
    print("-" * (22 + 10 * len(MACHINE_SIZES)))

    for name in sorted(QUERIES):
        query = build(name, catalog)
        profile = profiler.profile(query.plan, query.pivot, label=name)
        spec = profile.to_query_spec()
        cells = []
        for processors in MACHINE_SIZES:
            advisor = ShareAdvisor(processors=processors)
            best = advisor.best_group_size(spec, query.pivot,
                                           max_size=ANALYSTS)
            group = sharers(spec, ANALYSTS, name)
            z = sharing_benefit(group, query.pivot, processors,
                                closed_system=True)
            cells.append(f"g={best:<2} Z={z:4.1f}"[:12].rjust(7))
        print(f"{name:>6} {query.kind:>11} | " + " | ".join(cells))

    print()
    print("g = best sharing group size the model recommends (1 = never")
    print("share); Z = predicted speedup of sharing all analysts at once.")
    print("Join-heavy queries keep their full sharing benefit on big CMPs;")
    print("scan-heavy queries must give up sharing as core counts grow.")


if __name__ == "__main__":
    main()
