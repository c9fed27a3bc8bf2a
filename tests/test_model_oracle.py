"""Differential oracle for the sharing model (Sections 4.2, 4.3, 5.1, 8.1).

The production path derives each plan's quantities once, shares them
between relabelled twins, prices a run of twins through its first
member and short-circuits structural comparison on identity. The
oracle below does none of that: it is the paper's equations written
out plainly over bare operator trees — its own tree walk, nothing
cached, every member visited — and it is fed ``m`` *independently
constructed* plans (no node, root or derived state in common), while
production is fed twins that share as much as they can.

Both run in the same interpreter, so the comparison holds wherever
float ``sum`` behaves consistently with itself (it became compensated
in CPython 3.12): every :class:`ShareDecision` field, every
:class:`SharedPlanMetrics` field, ``Z`` and the Section 8.1
partitioning must agree to the last bit (``float.hex``), and inputs the
model rejects must be rejected with the same exception type.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decision import ShareAdvisor
from repro.core.model import shared_metrics, sharing_benefit
from repro.core.spec import OperatorSpec, QuerySpec, sharers
from repro.engine import CostModel
from repro.errors import PivotError, ReproError, SpecError
from repro.policies import ResourceOutlook, ResourceProfile
from repro.storage import BufferPool

# -- the oracle ---------------------------------------------------------


def walk(node):
    yield node
    for child in node.children:
        yield from walk(child)


def find(root, name):
    for node in walk(root):
        if node.name == name:
            return node
    raise PivotError(name)


def p(node):
    return node.work + node.output_cost * 1


def same_operation(a, b):
    facts_a = (a.name, a.work, a.output_cost, a.blocking, a.internal_work, a.emit_work)
    facts_b = (b.name, b.work, b.output_cost, b.blocking, b.internal_work, b.emit_work)
    return (
        facts_a == facts_b
        and len(a.children) == len(b.children)
        and all(same_operation(x, y) for x, y in zip(a.children, b.children))
    )


def check_group(roots):
    if not roots:
        raise SpecError("empty group")
    for root in roots:
        if any(node.blocking for node in walk(root)):
            raise SpecError("stop-&-go operator")


def oracle_shared_metrics(roots, pivot):
    """Section 4.3: one copy below the pivot, the pivot multiplexing to
    every consumer, each member's private operators above it."""
    check_group(roots)
    reference = find(roots[0], pivot)
    for root in roots[1:]:
        candidate = find(root, pivot)
        if candidate.work != reference.work:
            raise PivotError("pivot work differs")
        if len(candidate.children) != len(reference.children) or not all(
            same_operation(a, b) for a, b in zip(reference.children, candidate.children)
        ):
            raise PivotError("sub-plans differ below the pivot")
    p_pivot = reference.work + sum(find(root, pivot).output_cost for root in roots)
    p_below = [p(node) for child in reference.children for node in walk(child)]
    p_above = []
    for root in roots:
        shared = {id(node) for node in walk(find(root, pivot))}
        p_above += [p(node) for node in walk(root) if id(node) not in shared]
    p_max = max([p_pivot, *p_below, *p_above])
    total = sum(p_below) + p_pivot + sum(p_above)
    return {
        "m": len(roots),
        "p_pivot": p_pivot,
        "p_max": p_max,
        "total_work": total,
        "utilization": total / p_max,
    }


def plan_p_max(root):
    return max(p(node) for node in walk(root))


def plan_total_work(root):
    return sum(p(node) for node in walk(root))


def oracle_shared_rate(roots, pivot, n_eff):
    shared = oracle_shared_metrics(roots, pivot)
    return shared["m"] * min(1.0 / shared["p_max"], n_eff / shared["total_work"])


def oracle_unshared_rate(roots, n_eff):
    """Section 4.2, everyone throttled to the slowest query."""
    check_group(roots)
    worst = max(plan_p_max(root) for root in roots)
    total = sum(plan_total_work(root) for root in roots)
    return len(roots) * min(1.0 / worst, n_eff / total)


def oracle_unshared_rate_closed(roots, n_eff):
    """Section 5.1: harmonic-mean peak rate, per-query utilization."""
    check_group(roots)
    rate = len(roots) ** 2 / sum(plan_p_max(root) for root in roots)
    util = sum(plan_total_work(root) / plan_p_max(root) for root in roots)
    return rate * min(1.0, n_eff / util)


def effective(n, kappa):
    return float(n) ** (1.0 if kappa is None else kappa)


def oracle_decision(roots, pivot, n, kappa, closed, threshold):
    n_eff = effective(n, kappa)
    shared = oracle_shared_rate(roots, pivot, n_eff)
    unshared = oracle_unshared_rate(roots, n_eff)
    baseline = oracle_unshared_rate_closed(roots, n_eff) if closed else unshared
    benefit = shared / baseline
    return {
        "share": len(roots) > 1 and benefit > threshold,
        "benefit": benefit,
        "shared_rate": shared,
        "unshared_rate": unshared,
        "group_size": len(roots),
        "processors": float(n),
    }


def oracle_partitioning(build_root, pivot, clients, n, kappa):
    """Section 8.1: every group size g, ceil(clients / g) groups on an
    equal share of the processors, the last group possibly smaller."""
    best = None
    for group_size in range(1, clients + 1):
        n_groups = -(-clients // group_size)
        per_group_n = float(n) / n_groups
        n_eff = effective(per_group_n, kappa)
        full_groups, remainder = divmod(clients, group_size)
        rate = 0.0
        for size, count in ((group_size, full_groups), (remainder, 1 if remainder else 0)):
            if count == 0:
                continue
            roots = [build_root() for _ in range(size)]
            if size == 1:
                rate += count * oracle_unshared_rate(roots, n_eff)
            else:
                rate += count * oracle_shared_rate(roots, pivot, n_eff)
        if best is None or rate > best["predicted_rate"]:
            best = {
                "group_size": group_size,
                "n_groups": n_groups,
                "processors_per_group": per_group_n,
                "predicted_rate": rate,
            }
    return best


# -- plans as data, built fresh or with maximal sharing --------------------
#
# A shape is ``(name, work, output_cost, blocking, children)``. ``build``
# makes new nodes every call; given the ``(shape, node)`` registry of an
# earlier build it instead returns the earlier node for every subtree
# whose shape is unchanged — what ``with_extra_work`` does in production,
# and the case an identity short-circuit must not get wrong.


def build(shape, reuse=None, registry=None):
    name, work, output_cost, blocking, children = shape
    if reuse is not None and name in reuse and reuse[name][0] == shape:
        return reuse[name][1]
    node = OperatorSpec(
        name=name,
        work=work,
        output_cost=output_cost,
        children=tuple(build(child, reuse, registry) for child in children),
        blocking=blocking,
    )
    if registry is not None:
        registry[name] = (shape, node)
    return node


def edited(shape, target, **changes):
    """``shape`` with the named operator's fields replaced."""
    name, work, output_cost, blocking, children = shape
    fields = {"work": work, "output_cost": output_cost, "blocking": blocking}
    if name == target:
        fields.update(changes)
    return (
        name,
        fields["work"],
        fields["output_cost"],
        fields["blocking"],
        tuple(edited(child, target, **changes) for child in children),
    )


def names_of(shape):
    yield shape[0]
    for child in shape[4]:
        yield from names_of(child)


def subtree(shape, target):
    if shape[0] == target:
        return shape
    for child in shape[4]:
        found = subtree(child, target)
        if found is not None:
            return found
    return None


works = st.floats(min_value=0.01, max_value=1e4, allow_nan=False, allow_infinity=False)
output_costs = st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False)
bumps = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def bushy_shapes(draw):
    """A random operator tree: up to 3 inputs per operator, depth <= 3,
    names assigned pre-order."""
    counter = iter(range(10_000))

    def grow(depth):
        name = f"op{next(counter)}"
        fan_in = 0 if depth == 3 else draw(st.sampled_from((0, 1, 1, 2, 2, 3)))
        work, output_cost = draw(works), draw(output_costs)
        return (name, work, output_cost, False, tuple(grow(depth + 1) for _ in range(fan_in)))

    return grow(0)


GROUP_KINDS = (
    "homogeneous",
    "two_roots",  # differ above the pivot and in the pivot's s: legal
    "pivot_work_differs",  # PivotError
    "subtree_differs",  # PivotError (legal when the pivot is a leaf)
    "blocking",  # SpecError
    "missing_pivot",  # PivotError
    "empty",  # SpecError
)


@st.composite
def shapes_and_pivots(draw):
    """A bushy plan and one of its operators — any of them — as pivot."""
    shape = draw(bushy_shapes())
    return shape, draw(st.sampled_from(list(names_of(shape))))


@st.composite
def scenarios(draw):
    m = draw(st.integers(min_value=1, max_value=150))
    return {
        "plan": draw(shapes_and_pivots()),
        "kind": draw(st.sampled_from(GROUP_KINDS)),
        "m": m,
        # Which members run the second plan (two-plan kinds only).
        "second": draw(st.lists(st.booleans(), min_size=m, max_size=m)),
        "n": draw(st.integers(min_value=1, max_value=64)),
        "kappa": draw(st.sampled_from((None, 0.6, 0.85))),
        "closed": draw(st.booleans()),
        "threshold": draw(st.sampled_from((1.0, 1.25))),
        "delta": draw(bumps),
        # Cold pages the outlook projects (0 = no pivot-w adjustment).
        "cold_pages": draw(st.sampled_from((0, 0, 3, 94))),
    }


def second_shape(shape, kind, pivot, delta):
    """The other plan of a two-plan group, per ``kind``."""
    pivot_shape = subtree(shape, pivot)
    below = list(names_of(pivot_shape))[1:]
    above = [name for name in names_of(shape) if name not in (pivot, *below)]
    if kind == "two_roots":
        other = edited(shape, pivot, output_cost=pivot_shape[2] + delta)
        for name in above[:2]:
            other = edited(other, name, work=subtree(shape, name)[1] + delta)
        return other
    if kind == "pivot_work_differs":
        return edited(shape, pivot, work=pivot_shape[1] + delta)
    if kind == "subtree_differs" and below:
        deepest = below[-1]
        return edited(shape, deepest, work=subtree(shape, deepest)[1] + delta)
    return shape


def outcome(compute):
    """What a path produced: its values, or the type it raised."""
    try:
        return compute()
    except (ReproError, ZeroDivisionError) as exc:
        return type(exc)


def hexed(fields):
    return {
        key: value.hex() if isinstance(value, float) else value
        for key, value in fields.items()
    }


@given(scenarios())
@settings(max_examples=100, deadline=None)
def test_production_matches_plain_restatement(scenario):
    (shape, pivot), kind, m = scenario["plan"], scenario["kind"], scenario["m"]
    n, kappa = scenario["n"], scenario["kappa"]
    advisor = ShareAdvisor(
        n, contention=kappa, threshold=scenario["threshold"], closed_system=scenario["closed"]
    )
    # The outlook's pivot-w adjustment, from a cold pool of known size.
    outlook = ResourceOutlook(
        {"q": ResourceProfile(table="t", pages=scenario["cold_pages"])},
        costs=CostModel(io_page=400.0),
        pool=BufferPool(256),
    )
    extra = outlook.pivot_extra_work("q", m)

    if kind == "blocking":
        shape = edited(shape, list(names_of(shape))[-1], blocking=True)
    other = second_shape(shape, kind, pivot, scenario["delta"])
    asked = "no-such-operator" if kind == "missing_pivot" else pivot

    # Production: one root per plan, subtrees shared by identity
    # wherever the plans agree, members relabelled twins.
    registry = {}
    first = outlook.adjusted_spec("q", QuerySpec(build(shape, registry=registry)), pivot, m)
    if kind == "empty":
        group = []
    elif other == shape:
        group = sharers(first, m)
    else:
        second = outlook.adjusted_spec("q", QuerySpec(build(other, reuse=registry)), pivot, m)
        group = [
            (second if is_second else first).relabeled(f"q#{i}")
            for i, is_second in enumerate(scenario["second"])
        ]

    # Oracle: every member built from scratch, adjustment applied
    # to the data.
    def adjusted(plan):
        return edited(plan, pivot, work=subtree(plan, pivot)[1] + extra) if extra else plan

    if kind == "empty":
        roots = []
    elif other == shape:
        roots = [build(adjusted(shape)) for _ in range(m)]
    else:
        roots = [
            build(adjusted(other if is_second else shape)) for is_second in scenario["second"]
        ]

    expected = outcome(
        lambda: hexed(
            oracle_decision(roots, asked, n, kappa, scenario["closed"], scenario["threshold"])
        )
    )
    decision = outcome(lambda: hexed(vars(advisor.evaluate(group, asked))))
    assert decision == expected, (kind, pivot)

    # The defect each kind plants is really there (a two-plan kind
    # needs both plans present to disagree).
    if kind == "missing_pivot" or (
        kind == "pivot_work_differs" and len(set(scenario["second"])) == 2
    ):
        assert decision is PivotError
    if kind in ("blocking", "empty"):
        assert decision is SpecError

    assert outcome(lambda: hexed(vars(shared_metrics(group, asked)))) == outcome(
        lambda: hexed(oracle_shared_metrics(roots, asked))
    )
    if not isinstance(expected, type):
        z = sharing_benefit(group, asked, n, kappa, closed_system=scenario["closed"])
        assert z.hex() == expected["benefit"]


def test_identity_shortcut_does_not_admit_a_different_subtree():
    """Two plans sharing every node but one, deep below the pivot: the
    shared nodes compare equal by identity, the odd one must still be
    found — whichever side of it the reference is on."""
    scan = OperatorSpec("scan", 5.0, 1.0)
    build_side = OperatorSpec("build", 2.0, 0.5, (OperatorSpec("dim", 1.0, 0.2),))
    join = OperatorSpec("join", 3.0, 0.7, (scan, build_side))
    plan = QuerySpec(OperatorSpec("agg", 1.0, 0.1, (join,)), label="a")
    odd = plan.with_extra_work("dim", 0.25)
    assert odd["scan"] is plan["scan"] and odd["dim"] is not plan["dim"]
    advisor = ShareAdvisor(8)
    for group in (
        [*sharers(plan, 5), odd.relabeled("odd")],
        [odd.relabeled("odd"), *sharers(plan, 5)],
        [*sharers(plan, 2), odd.relabeled("odd"), *sharers(plan, 2)],
    ):
        assert outcome(lambda: advisor.evaluate(group, "join")) is PivotError
        # Above the difference the plans do share an operation.
        assert advisor.evaluate(group, "scan").group_size == len(group)


@given(
    shapes_and_pivots(),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=64),
    st.sampled_from((None, 0.7)),
)
@settings(max_examples=40, deadline=None)
def test_best_partitioning_matches_plain_restatement(plan, clients, n, kappa):
    shape, pivot = plan
    advisor = ShareAdvisor(n, contention=kappa)
    query = QuerySpec(build(shape), label="q")
    expected = hexed(oracle_partitioning(lambda: build(shape), pivot, clients, n, kappa))
    assert hexed(vars(advisor.best_partitioning(query, pivot, clients))) == expected
    # The capped group size is the last m whose group still shares.
    sizes = [
        size
        for size in range(2, clients + 1)
        if oracle_decision([build(shape) for _ in range(size)], pivot, n, kappa, True, 1.0)["share"]
    ]
    assert advisor.best_group_size(query, pivot, clients) == (sizes[-1] if sizes else 1)
