import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from robosync.orders import BudgetExhausted, find_cycle, topological_orders


@st.composite
def graphs(draw, acyclic):
    """Successor sets on at most 7 nodes.  Acyclic graphs only take edges
    that go up a random ranking of the nodes; the others may also hold
    self-loops."""
    n = draw(st.integers(min_value=0, max_value=7))
    rank = draw(st.permutations(range(n)))
    pairs = [(u, v) for u in range(n) for v in range(n)
             if not acyclic or rank[u] < rank[v]]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=12)) if pairs else set()
    succ = [set() for _ in range(n)]
    for u, v in edges:
        succ[u].add(v)
    return succ


def oracle_orders(succ):
    """Permutations of range(n) respecting every edge, in lexicographic order."""
    out = []
    for perm in itertools.permutations(range(len(succ))):
        pos = {u: p for p, u in enumerate(perm)}
        if all(pos[u] < pos[v] for u in range(len(succ)) for v in succ[u]):
            out.append(list(perm))
    return out


def budget_cut(orders, budget):
    """The longest prefix of `orders` whose distinct non-empty order-prefixes
    number at most `budget`, and whether the whole list needs more."""
    seen = set()
    for k, order in enumerate(orders):
        seen.update(tuple(order[:i]) for i in range(1, len(order) + 1))
        if len(seen) > budget:
            return orders[:k], True
    return orders, False


def collect(succ, budget):
    out = []
    try:
        for order in topological_orders(succ, budget):
            out.append(order)
    except BudgetExhausted:
        return out, True
    return out, False


@settings(max_examples=200, deadline=None)
@given(graphs(acyclic=True), st.integers(min_value=0, max_value=60))
def test_topological_orders_match_oracle_under_budget(succ, budget):
    expected = oracle_orders(succ)
    assert collect(succ, 10 ** 6) == (expected, False)
    assert collect(succ, budget) == budget_cut(expected, budget)


@settings(max_examples=200, deadline=None)
@given(graphs(acyclic=False))
def test_find_cycle_exactly_when_no_order(succ):
    cycle = find_cycle(succ)
    expected = oracle_orders(succ)
    assert (cycle is None) == bool(expected)
    if cycle is not None:
        assert len(cycle) >= 2 and cycle[0] == cycle[-1]
        assert all(v in succ[u] for u, v in zip(cycle, cycle[1:]))
        assert collect(succ, 10 ** 6) == ([], False)


@pytest.mark.parametrize("ring", [False, True])
def test_long_graphs_stay_iterative(ring):
    n = 5000
    succ = [{u + 1} for u in range(n - 1)] + [{0} if ring else set()]
    t0 = time.perf_counter()
    cycle = find_cycle(succ)
    orders = list(topological_orders(succ, node_budget=n))
    elapsed = time.perf_counter() - t0
    if ring:
        assert cycle == [*range(n), 0] and orders == []
    else:
        assert cycle is None and orders == [list(range(n))]
    assert elapsed < 1.0
