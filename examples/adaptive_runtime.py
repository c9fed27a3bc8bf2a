"""A self-tuning engine: online estimation, no offline profiling.

The paper profiles queries offline and notes that online estimation
has "no significant barriers". This example runs the full loop live:

1. an open-system server (Poisson arrivals, nothing shed) feeds Q6 to
   a cold engine;
2. the online policy explores a couple of shared groups to identify
   the scan stage's per-consumer cost s;
3. from then on it decides from the learned model — sharing on the
   small machine, refusing to share on the CMP — with no human in the
   loop.

It also prints the Section 8.1 partitioning the learned model would
recommend for a burst of 24 identical queries.

Run: ``python examples/adaptive_runtime.py``
"""

from repro.core import ShareAdvisor
from repro.db import RuntimeConfig
from repro.policies import OnlineModelGuidedPolicy
from repro.server import AdmitAll, Server
from repro.tpch.generator import generate
from repro.tpch.queries import build
from repro.workload import WorkloadMix


def run_machine(catalog, q6, processors: int) -> None:
    policy = OnlineModelGuidedPolicy({"q6": q6}, exploration_budget=2)
    server = Server.open(
        catalog,
        RuntimeConfig(processors=processors),
        policy=policy,
        admission=AdmitAll(),
        keep_rows=False,
    )
    report = server.serve(
        WorkloadMix.single("q6", seed=11),
        {"q6": q6},
        arrival_rate=1.0 / 4_000.0,
        horizon=500_000.0,
        drain=100_000.0,
        seed=11,
    )
    estimator = policy.estimators["q6"]
    print(f"machine with {processors} processors:")
    print(f"  arrivals {report.submitted}, completed {report.completed}, "
          f"mean response {report.latency.mean:,.0f} sim-units")
    print(f"  exploration shares spent: {policy.exploration_shares}; "
          f"estimator ready: {estimator.ready()}")
    if estimator.ready():
        spec = estimator.current_spec()
        pivot = next(o for o in spec.operators() if o.name == q6.pivot)
        print(f"  learned scan stage: w = {pivot.work:,.0f}, "
              f"s = {pivot.output_cost:,.0f} per consumer")
        advisor = ShareAdvisor(processors=processors)
        plan = advisor.best_partitioning(spec, q6.pivot, clients=24)
        print(f"  Section 8.1 plan for a 24-query burst: "
              f"{plan.n_groups} group(s) of {plan.group_size} "
              f"on {plan.processors_per_group:.1f} cpus each")
    print()


def main() -> None:
    catalog = generate(scale_factor=0.0005, seed=11)
    q6 = build("q6", catalog)
    print("Cold start: the engine has never seen Q6 before.\n")
    run_machine(catalog, q6, processors=1)
    run_machine(catalog, q6, processors=32)
    print("Same code, opposite conclusions — learned from live traffic.")


if __name__ == "__main__":
    main()
