"""Cycle search and topological-order enumeration on the class precedence
graph.  The serializability check, the naturality search and the candidate
search all walk this graph; nodes are class indices 0..len(succ)-1 and
succ[u] holds the direct successors of u.

Both walks keep explicit stacks, so a graph of any length stays clear of
Python's recursion limit.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections.abc import Iterator


class BudgetExhausted(Exception):
    """The order enumeration placed as many nodes as its budget allows."""


def find_cycle(succ: list[set[int]]) -> list[int] | None:
    """A directed cycle as a closed walk [u, ..., u], or None when the graph
    is acyclic.  Depth-first from the lowest unvisited index, successors in
    index order; the witness is the first back edge met."""
    state = [0] * len(succ)  # 0 unvisited, 1 on the current path, 2 finished
    for root in range(len(succ)):
        if state[root]:
            continue
        state[root] = 1
        path = [root]
        pending = [iter(sorted(succ[root]))]
        while pending:
            for v in pending[-1]:
                if state[v] == 1:
                    return path[path.index(v):] + [v]
                if state[v] == 0:
                    state[v] = 1
                    path.append(v)
                    pending.append(iter(sorted(succ[v])))
                    break
            else:
                pending.pop()
                state[path.pop()] = 2
    return None


def topological_orders(succ: list[set[int]], node_budget: int) -> Iterator[list[int]]:
    """Every topological order, in lexicographic order.

    Backtracking over the ready nodes (all predecessors placed), lowest index
    first.  Each node placed costs one unit of `node_budget`; placing one
    more than the budget allows raises BudgetExhausted.  A cyclic graph
    yields nothing."""
    n = len(succ)
    indeg = [0] * n
    for u in range(n):
        for v in succ[u]:
            indeg[v] += 1
    ready = [u for u in range(n) if indeg[u] == 0]  # kept sorted
    order: list[int] = []
    last = [-1]  # last[d]: the node last placed at depth d, -1 before the first
    while last:
        if len(order) == n:
            yield list(order)
        else:
            k = bisect_right(ready, last[-1])
            if k < len(ready):
                node_budget -= 1
                if node_budget < 0:
                    raise BudgetExhausted()
                u = ready.pop(k)
                for v in succ[u]:
                    indeg[v] -= 1
                    if indeg[v] == 0:
                        insort(ready, v)
                last[-1] = u
                order.append(u)
                last.append(-1)
                continue
        # this depth is exhausted: take back the node placed one level up
        last.pop()
        if order:
            u = order.pop()
            for v in succ[u]:
                if indeg[v] == 0:
                    del ready[bisect_left(ready, v)]
                indeg[v] += 1
            insort(ready, u)
