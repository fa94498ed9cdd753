"""Trace conditions for asynchronous-to-semi-synchronous replay:
stationarity, pairwise alignment, consistency, serializability, naturality.

All checks are pure functions of a recorded trace prefix.  Clauses that
reference a cycle beyond the prefix (a robot's next move start) treat the
missing bound as +infinity; relations that hold only under that assumption
are flagged, and a serializability failure that depends on them is reported
as open-at-horizon rather than a firm violation.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

from .engine import Trace
from .geometry import is_visible
from .orders import BudgetExhausted, find_cycle, topological_orders

CycleId = tuple[int, int]

PASS = "pass"
FAIL = "fail"
OPEN = "open-at-horizon"

DEFAULT_NODE_BUDGET = 10 ** 6


# -- the relation pass -------------------------------------------------------

class _IdLists(dict):
    """Cycle id -> its JSON list, built at the first lookup of the id."""

    def __missing__(self, c: CycleId) -> list[int]:
        out = self[c] = list(c)
        return out


@dataclass
class ConcurrencyAnalysis:
    """The three cycle relations: concurrency and the classes of its closure,
    the overlapping pairs that are not concurrent, and the precedence
    structure; and the Looks that land inside a visible robot's move."""
    cycles: list[CycleId]
    classes: list[list[CycleId]]  # ordered by earliest Look, robot breaking ties
    class_of: dict[CycleId, int]
    concurrent: set[tuple[CycleId, CycleId]]       # (a, b), a before b in cycles
    misaligned: list[tuple[CycleId, CycleId]]      # overlapping, not concurrent
    hb_pairs: list[tuple[CycleId, CycleId, bool]]  # (a, b, only_at_horizon)
    class_edges: dict[tuple[int, int], bool]       # edge -> firm?
    self_loops: dict[int, bool]                    # class -> firm?, in hb_pairs order
    stationary: list[tuple[CycleId, CycleId]]      # (observer, mover), sorted

    def __post_init__(self) -> None:
        # one JSON list per cycle id, which every witness and report naming
        # the cycle shares (a lattice trace names each cycle in thousands of
        # witnesses), so those lists are read-only.  Neither it nor the kept
        # class graph (`class_graph`) is a field: `==` and `dataclasses.fields`
        # ignore both
        self.id_lists: dict[CycleId, list[int]] = _IdLists()
        self._class_graph: ClassGraph | None = None

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def class_graph(self) -> ClassGraph:
        """The class graph and its first cycles, built at the first call and
        kept.  The serializability check, the naturality search and the
        candidate search all read it, so a trace checked and then searched
        walks its graph once; one whose serializability fails on a firm
        self-loop never calls this."""
        if self._class_graph is None:
            succ = _successors(self, True)
            cycle = find_cycle(succ)
            # the firm edges are a subset: without a cycle over all edges
            # they have none
            firm_cycle = None if cycle is None else find_cycle(_successors(self, False))
            self._class_graph = ClassGraph(succ, cycle, firm_cycle)
        return self._class_graph


class ClassGraph(NamedTuple):
    """`succ[k]`: class k's direct successors over all edges (shared, so
    tuples).  `cycle` and `firm_cycle`: the first cycle `find_cycle` meets
    over all edges and over the firm edges alone, self-loops aside, or None
    (shared, so read-only)."""
    succ: tuple[tuple[int, ...], ...]
    cycle: list[int] | None
    firm_cycle: list[int] | None


def _successors(analysis: ConcurrencyAnalysis, include_horizon: bool
                ) -> tuple[tuple[int, ...], ...]:
    succ: list[list[int]] = [[] for _ in analysis.classes]
    for (k, k2), firm in analysis.class_edges.items():
        if firm or include_horizon:
            succ[k].append(k2)
    return tuple(map(tuple, succ))


def analyze(trace: Trace) -> ConcurrencyAnalysis:
    """The trace's relations, built at the first call and kept on the trace
    (`Trace._analysis`): every later call returns that one analysis.

    Build all three relations without visiting a pair of cycles.  For a
    cycle x and a robot r that x sees, one bisect finds r's first cycle k
    with a Look at or after x's; o < s < f and f_{j-1} < o_j leave each
    relation at most one candidate next to k.  If r's cycle k-1 still runs at
    x's Look, the two overlap (x's Look may land in its move) and k-2 precedes
    x when k-1's move starts no earlier (case 4).  Else r rests at x's Look:
    k-1 precedes x (case 4, horizon-only past r's last cycle), and k is
    concurrent with x if its Look comes by x's move start, or follows x (case
    3) if after x's move end.  Every pair that holds is found from the cycle
    that sees the other robot: for concurrency and case 3 the earlier Look,
    for overlap and case 4 the later one.  A robot's own cycles are never
    concurrent and precede each other j -> j+1.  The direct pairwise
    definitions, and this pass with a bisect per relation, are the tests'
    oracles (tests/oracles.py).

    One loop over each row builds the robot's timeline (its offset into the
    cycle list, its Look, move-start and end times) and its j -> j+1 edges.
    The classes come from a union-find over cycle indices (path halving); the
    pass that finds the roots keeps each class's earliest (Look, index), the
    order of (Look, robot, j) since ids are in index order.
    """
    if trace._analysis is not None:
        return trace._analysis
    ids: list[CycleId] = []
    look_of: list[float] = []  # aligned with ids
    timelines: list[tuple[int, list[float], list[float], list[float]]] = []
    hb: dict[tuple[CycleId, CycleId], bool] = {}  # (a, b) -> only_at_horizon
    for row in trace.records:
        base = len(ids)
        looks, starts, ends = [], [], []
        for rec in row:
            robot, j, o, s, f = rec.cycle
            c = (robot, j)
            if looks:
                hb[(ids[-1], c)] = False
            ids.append(c)
            looks.append(o)
            starts.append(s)
            ends.append(f)
        timelines.append((base, looks, starts, ends))
        look_of += looks
    parent = list(range(len(ids)))  # the union-find, over indices into ids
    concurrent: set[tuple[CycleId, CycleId]] = set()
    overlapping: set[tuple[CycleId, CycleId]] = set()
    stationary: list[tuple[CycleId, CycleId]] = []
    x = -1
    for row in trace.records:
        for rec in row:
            x += 1
            a = ids[x]
            robot, _, xo, xs, xf = rec.cycle
            for r in rec.visible_set:
                if r == robot:
                    continue
                base, looks, starts, ends = timelines[r]
                k = bisect_left(looks, xo)  # r's first Look at or after x's
                if k and xo <= ends[k - 1]:  # r's cycle k-1 runs at x's Look
                    b = ids[base + k - 1]
                    overlapping.add((a, b) if a < b else (b, a))
                    if starts[k - 1] < xo < ends[k - 1]:
                        stationary.append((a, b))
                    elif k > 1 and xo <= starts[k - 1]:
                        hb.setdefault((ids[base + k - 2], a), False)
                    continue
                if k:  # r rests at x's Look
                    hb.setdefault((ids[base + k - 1], a), k == len(looks))
                if k < len(looks):
                    if looks[k] <= xs:
                        b = ids[base + k]
                        concurrent.add((a, b) if a < b else (b, a))
                        ra = x
                        while parent[ra] != ra:
                            parent[ra] = ra = parent[parent[ra]]
                        rb = base + k
                        while parent[rb] != rb:
                            parent[rb] = rb = parent[parent[rb]]
                        parent[rb] = ra
                    elif looks[k] > xf:
                        hb[(a, ids[base + k])] = False
    misaligned = sorted(overlapping - concurrent)
    # by source cycle, robot-major in j order; the order of self_loops depends on it
    hb_pairs = sorted([(a, b, horizon_only) for (a, b), horizon_only in hb.items()])

    groups: dict[int, list[CycleId]] = {}
    first: dict[int, tuple[float, int]] = {}  # root -> its class's earliest (Look, x)
    for x, c in enumerate(ids):
        root = x
        while parent[root] != root:
            parent[root] = root = parent[parent[root]]
        if root not in first or look_of[x] < first[root][0]:
            first[root] = (look_of[x], x)
        groups.setdefault(root, []).append(c)
    classes: list[list[CycleId]] = []
    class_of: dict[CycleId, int] = {}
    for k, root in enumerate(sorted(groups, key=first.__getitem__)):
        classes.append(groups[root])
        for c in groups[root]:
            class_of[c] = k

    class_edges: dict[tuple[int, int], bool] = {}
    self_loops: dict[int, bool] = {}
    for a, b, horizon_only in hb_pairs:
        ka, kb = class_of[a], class_of[b]
        if ka == kb:
            self_loops[ka] = self_loops.get(ka, False) or not horizon_only
        else:
            class_edges[(ka, kb)] = class_edges.get((ka, kb), False) or not horizon_only
    stationary.sort()
    trace._analysis = ConcurrencyAnalysis(ids, classes, class_of, concurrent, misaligned,
                                          hb_pairs, class_edges, self_loops, stationary)
    return trace._analysis


# -- condition checks --------------------------------------------------------

@dataclass
class CheckResult:
    verdict: str
    witnesses: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.verdict == PASS

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "witnesses": self.witnesses}


def check_stationary(analysis: ConcurrencyAnalysis) -> CheckResult:
    """No Look may land strictly inside the move window of a visible robot
    (`analyze` finds these pairs).  The witnesses' cycle ids are the
    analysis's shared lists (`id_lists`): read-only."""
    ids = analysis.id_lists
    witnesses = [{"observer": ids[a], "mover": ids[b]} for a, b in analysis.stationary]
    return CheckResult(FAIL if witnesses else PASS, witnesses)


def check_pairwise_aligned(analysis: ConcurrencyAnalysis) -> CheckResult:
    """Every overlapping pair must be concurrent.  The witnesses' cycle ids
    are the analysis's shared lists (`id_lists`): read-only."""
    ids = analysis.id_lists
    witnesses = [{"pair": [ids[a], ids[b]]} for a, b in analysis.misaligned]
    return CheckResult(FAIL if witnesses else PASS, witnesses)


def check_consistent(trace: Trace, analysis: ConcurrencyAnalysis) -> CheckResult:
    """Within every concurrency class: visibility is symmetric, visible pairs
    are directly concurrent, invisible pairs are separated by more than the
    visibility range at their Looks.  The witnesses' cycle ids are the
    analysis's shared lists (`id_lists`): read-only."""
    ids = analysis.id_lists
    witnesses = []
    for cls in analysis.classes:
        if len(cls) < 2:  # no pair
            continue
        recs = [trace.record(*c) for c in cls]
        for x, (a, ra) in enumerate(zip(cls, recs)):
            for b, rb in zip(cls[x + 1:], recs[x + 1:]):
                sees_ab = b[0] in ra.visible_set
                sees_ba = a[0] in rb.visible_set
                if sees_ab != sees_ba:
                    witnesses.append({"pair": [ids[a], ids[b]], "clause": 1})
                    continue
                if sees_ab:
                    if (a, b) not in analysis.concurrent:
                        witnesses.append({"pair": [ids[a], ids[b]], "clause": 2})
                elif is_visible(ra.pos_at_look, rb.pos_at_look):
                    witnesses.append({"pair": [ids[a], ids[b]], "clause": 3})
    return CheckResult(FAIL if witnesses else PASS, witnesses)


def _class_loop(analysis: ConcurrencyAnalysis) -> tuple[str, list[int]] | None:
    """The class graph's loop that decides serializability, as (FAIL or OPEN,
    the loop), or None when the graph is acyclic.  A firm self-loop comes
    first, then a firm longer cycle; a loop resting on beyond-prefix bounds
    alone is open, a self-loop named [k, k] ahead of any longer cycle."""
    loops = analysis.self_loops
    for k, firm in loops.items():
        if firm:
            return FAIL, [k, k]
    graph = analysis.class_graph()
    k = next(iter(loops), None)
    cycle_all = graph.cycle if k is None else [k, k]
    if cycle_all is None:
        return None
    if graph.firm_cycle is not None:
        return FAIL, graph.firm_cycle
    return OPEN, cycle_all


def check_serializable(analysis: ConcurrencyAnalysis) -> CheckResult:
    """The class precedence graph must be acyclic.  A cycle that exists only
    thanks to beyond-prefix assumptions is reported open-at-horizon, and so
    is a self-loop whose class holds no firm within-class pair."""
    loop = _class_loop(analysis)
    if loop is None:
        return CheckResult(PASS)
    verdict, cycle = loop
    return CheckResult(verdict, [{"class_cycle": list(cycle)}])


# -- naturality --------------------------------------------------------------

def _natural_violations(trace: Trace, classes: list[list[CycleId]],
                        order: list[int]) -> list:
    """The first violation of the two naturality clauses under a class order
    (empty list if none).  Every order searched places a robot's cycles at
    strictly increasing positions (j -> j+1 is an edge and self-loops end the
    search), so robot i2's cycle straddling position p is the one after the
    last it has at or before p.  When that cycle lies beyond the prefix,
    clause 1 is skipped and clause 2 tests the point where the replay leaves
    i2, its last `pos_after_move` or its initial position; the witness then
    names i2's next, unrecorded cycle."""
    pos = [0] * len(classes)
    for p, k in enumerate(order):
        pos[k] = p
    placed: list[list[int]] = [[0] * len(row) for row in trace.records]
    for k, cls in enumerate(classes):
        for i, j in cls:
            placed[i][j - 1] = pos[k]
    for k, cls in enumerate(classes):
        for a in cls:
            rec = trace.record(*a)
            for i2 in range(trace.n):
                if i2 == a[0]:
                    continue
                row = trace.records[i2]
                j2 = bisect_right(placed[i2], pos[k])
                if i2 in rec.visible_set:
                    if j2 < len(row) and not rec.cycle.o < row[j2].cycle.o:
                        return [{"cycle": list(a), "other": [i2, j2 + 1], "clause": 1}]
                    continue
                if j2 < len(row):
                    there = row[j2].pos_at_look
                else:
                    there = row[-1].pos_after_move if row else trace.scenario.initial_positions[i2]
                if is_visible(rec.pos_at_look, there):
                    return [{"cycle": list(a), "other": [i2, j2 + 1], "clause": 2}]
    return []


def find_natural_sort(trace: Trace, analysis: ConcurrencyAnalysis,
                      node_budget: int = DEFAULT_NODE_BUDGET
                      ) -> tuple[CheckResult, list[list[CycleId]] | None]:
    """Search the topological orders of the class graph for one satisfying
    both naturality clauses, and return the verdict with that order.  Running
    out of orders fails, with the first violation met; hitting the node budget
    is open-at-horizon (a satisfying order may exist beyond it).  A class
    graph with a loop has no order: a firm loop fails, and one resting on
    beyond-prefix bounds alone is open (whether any order exists depends on
    unmaterialized cycles)."""
    loop = _class_loop(analysis)
    if loop is not None:
        if loop[0] == FAIL:
            return CheckResult(FAIL, [{"reason": "class graph is cyclic"}]), None
        return CheckResult(OPEN, [{"reason": "precedence loop open at horizon"}]), None
    sample: list = []
    try:
        for order in topological_orders(analysis.class_graph().succ, node_budget):
            violations = _natural_violations(trace, analysis.classes, order)
            if not violations:
                return CheckResult(PASS), [analysis.classes[k] for k in order]
            sample = sample or violations
    except BudgetExhausted:
        return CheckResult(OPEN, [{"reason": "search budget exhausted"}]), None
    return CheckResult(FAIL, sample), None


# -- propositions and the aggregate report ------------------------------------

def proposition_no_hb_within_class(analysis: ConcurrencyAnalysis) -> list:
    """The precedence pairs inside one class, as the analysis's shared
    (read-only) cycle-id lists."""
    ids = analysis.id_lists
    return [[ids[a], ids[b]] for a, b, _ in analysis.hb_pairs
            if analysis.class_of[a] == analysis.class_of[b]]


def proposition_one_cycle_per_robot(analysis: ConcurrencyAnalysis) -> list:
    """Indices of the classes that join two cycles of one robot."""
    return [k for k, cls in enumerate(analysis.classes)
            if len(cls) != len({robot for robot, _ in cls})]


@dataclass
class ConditionReport:
    stationary: CheckResult
    aligned: CheckResult
    consistent: CheckResult
    serializable: CheckResult
    natural: CheckResult
    analysis: ConcurrencyAnalysis
    natural_order: list[list[CycleId]] | None
    propositions: dict

    @property
    def results(self) -> dict[str, CheckResult]:
        """The five conditions by their report names, in report order."""
        return {"stationary": self.stationary, "pairwise_aligned": self.aligned,
                "consistent": self.consistent, "serializable": self.serializable,
                "natural": self.natural}

    @property
    def all_pass(self) -> bool:
        return all(r.ok for r in self.results.values())

    def to_json(self) -> dict:
        """The report as JSON; its cycle ids are the analysis's shared lists
        (`ConcurrencyAnalysis.id_lists`), so it is read-only."""
        ids = self.analysis.id_lists
        return {
            "schema": 1,
            "verdicts": {name: r.to_json() for name, r in self.results.items()},
            "all_pass": self.all_pass,
            "classes": [[ids[c] for c in cls] for cls in self.analysis.classes],
            "class_edges": [
                {"from": k, "to": k2, "firm": firm}
                for (k, k2), firm in sorted(self.analysis.class_edges.items())
            ],
            "natural_order": ([[ids[c] for c in cls] for cls in self.natural_order]
                              if self.natural_order is not None else None),
            "propositions": self.propositions,
        }


def check_all(trace: Trace, node_budget: int = DEFAULT_NODE_BUDGET) -> ConditionReport:
    """Run the five checks (none short-circuits) and, when the first three
    pass, assert the structural propositions they imply."""
    analysis = analyze(trace)
    stationary = check_stationary(analysis)
    aligned = check_pairwise_aligned(analysis)
    consistent = check_consistent(trace, analysis)
    serializable = check_serializable(analysis)

    natural, natural_order = find_natural_sort(trace, analysis, node_budget)

    propositions = {}
    if stationary.ok and aligned.ok and consistent.ok:
        propositions["no_hb_within_class"] = proposition_no_hb_within_class(analysis)
        propositions["one_cycle_per_robot_per_class"] = \
            proposition_one_cycle_per_robot(analysis)

    return ConditionReport(stationary, aligned, consistent, serializable, natural,
                           analysis, natural_order, propositions)
