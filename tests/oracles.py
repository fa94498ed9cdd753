"""Brute-force oracles for the checker's fast paths.

The three pairwise cycle relations (overlap, concurrency, happened-before)
as direct definitions, the transitive closure of concurrency, the
stationarity check as a double loop, the consistency check with a record
lookup per pair, and the naturality clauses with a scan over each other
robot's cycles.  `checker.analyze`, `checker.check_stationary`,
`checker.check_consistent` and `checker._natural_violations` must agree
with them on every trace.  Also the engine's snapshot as a Look once built
it whole, from every robot's point and color at the Look, and a stay-put
cycle's mid-move samples, from the schedule's Look times, which a record
whose Look left them to the first read must match.  And the async
schedule sampler with one `random.uniform` call per gap, which the sampler's
inlined arithmetic must match on every Python version.  And the similarity
test with `same_points` at every cycle, whose verdict and witness
`synthesis.similar` must give.  And the necessity sweep with each template
rebuilt from its builder at every seed, whose aggregate the sweep over one
shared run per template must equal.  And a route's construction with a
dataclass `==` and a `distance` call per segment, whose vertices, lengths and
errors `geometry.Route` must give, and a route's global image built as a
list of whole points and then deduplicated, whose vertices and errors
`geometry.route_to_global` must give.  And the relation pass with a bisect
per relation, a dict comprehension for the j -> j+1 edges and a `min` per
class, whose analysis `checker.analyze` must equal field by field.  And
the candidate search with each candidate replayed whole and then compared
record by record, whose verdict and count of orders tried
`synthesis.candidate_search` must give.
"""
from __future__ import annotations

import random
from bisect import bisect_left, bisect_right

from robosync.algorithms import as_controller
from robosync.checker import (
    DEFAULT_NODE_BUDGET,
    FAIL,
    PASS,
    CheckResult,
    ConcurrencyAnalysis,
    analyze,
    check_all,
)
from robosync.engine import BK, Adversary, CycleRecord, Trace, simulate
from robosync.errors import InputError, SimulationError
from robosync.experiments import NECESSITY_NODE_BUDGET
from robosync.geometry import (
    ORIGIN,
    FrameSpec,
    Point,
    Route,
    distance,
    point_along,
    same_points,
    squared_distance,
)
from robosync.orders import BudgetExhausted, find_cycle, topological_orders
from robosync.scheduling import (
    BETWEEN_CYCLES,
    LOOK_TO_MOVE,
    MOVE,
    TIME_GRID,
    Cycle,
    Schedule,
)
from robosync.scenarios import NECESSITY_TEMPLATES, TEMPLATE_TARGET_FIELD
from robosync.synthesis import (
    DEFAULT_ORDER_BUDGET,
    INCONCLUSIVE,
    NONE_AMONG_CANDIDATES,
    SIMILARITY_EPS,
    SIMILAR_FOUND,
    CandidateSearchResult,
    SimilarityResult,
    build_plan,
    candidate_search,
    replay_plan,
    similar,
)

CycleId = tuple[int, int]

NEG_INF = -float("inf")
POS_INF = float("inf")


# -- primitive accessors -----------------------------------------------------

def all_records(trace: Trace) -> list[CycleRecord]:
    """Every record of the trace, robot-major, in j order."""
    return [r for row in trace.records for r in row]


def _prev_f(trace: Trace, robot: int, j: int) -> float:
    """End of the previous move; -inf for a robot's first cycle."""
    if j <= 1:
        return NEG_INF
    return trace.record(robot, j - 1).cycle.f


def _next_s(trace: Trace, robot: int, j: int) -> float:
    """Start of the next move; +inf past the end of the prefix."""
    if j < len(trace.records[robot]):
        return trace.record(robot, j + 1).cycle.s
    return POS_INF


def _sees(trace: Trace, a: CycleId, other: int) -> bool:
    return other in trace.record(*a).visible_set


# -- pairwise relations ------------------------------------------------------

def cycles_overlap(trace: Trace, a: CycleId, b: CycleId) -> bool:
    """Time intervals intersect and the earlier-Look robot is visible at the
    later Look.  Defined for distinct robots only."""
    if a[0] == b[0]:
        raise InputError("overlap is defined for cycles of distinct robots")
    ca, cb = trace.record(*a).cycle, trace.record(*b).cycle
    if max(ca.o, cb.o) > min(ca.f, cb.f):
        return False
    if ca.o < cb.o:
        return _sees(trace, b, a[0])
    if cb.o < ca.o:
        return _sees(trace, a, b[0])
    return _sees(trace, b, a[0]) or _sees(trace, a, b[0])


def cycles_concurrent(trace: Trace, a: CycleId, b: CycleId) -> bool:
    """Mutual-observation concurrency: same cycle, or each Look falls inside
    the other's pre-move window with the partner visible."""
    if a[0] == b[0]:
        return a[1] == b[1]

    def one_way(x: CycleId, y: CycleId) -> bool:
        cx = trace.record(*x).cycle
        cy = trace.record(*y).cycle
        return (_prev_f(trace, *y) < cx.o <= cy.o
                and cx.o <= cy.o <= cx.s
                and _sees(trace, x, y[0]))

    return one_way(a, b) or one_way(b, a)


def happened_before(trace: Trace, a: CycleId, b: CycleId) -> tuple[bool, bool]:
    """Immediate-precedence relation.  Returns (holds, only_at_horizon):
    the second flag marks a relation that relies on the next move start of
    the earlier robot lying beyond the prefix."""
    (i, j), (i2, j2) = a, b
    ca = trace.record(i, j).cycle
    cb = trace.record(i2, j2).cycle
    if i2 == i:
        return (j2 == j + 1, False)
    case3 = (_sees(trace, a, i2)
             and _prev_f(trace, i2, j2) < ca.o < ca.f < cb.o)
    if case3:
        return (True, False)
    if _sees(trace, b, i) and cb.o > ca.f:
        bound = _next_s(trace, i, j)
        if cb.o <= bound:
            return (True, bound == POS_INF)
    return (False, False)


# -- whole-trace oracles -----------------------------------------------------

def closure_partition(trace: Trace) -> list[list[CycleId]]:
    """Warshall-style transitive closure of the pairwise concurrency matrix,
    returned in the checker's canonical class order."""
    ids = [r.cycle.ident for r in all_records(trace)]
    m = len(ids)
    reach = [[cycles_concurrent(trace, ids[a], ids[b]) for b in range(m)]
             for a in range(m)]
    for k in range(m):
        for a in range(m):
            if reach[a][k]:
                row_k = reach[k]
                row_a = reach[a]
                for b in range(m):
                    if row_k[b]:
                        row_a[b] = True
    seen = set()
    classes = []
    for a in range(m):
        if a in seen:
            continue
        group = [b for b in range(m) if reach[a][b] or a == b]
        seen.update(group)
        classes.append(sorted(ids[b] for b in group))

    def key(cls):
        return min((trace.record(*c).cycle.o, c[0], c[1]) for c in cls)

    return sorted(classes, key=key)


def stationary_oracle(trace: Trace) -> list[dict]:
    """Every observer against every cycle of each robot it sees."""
    witnesses = []
    for rec in all_records(trace):
        i, j = rec.cycle.ident
        for i2 in sorted(rec.visible_set - {i}):
            for rec2 in trace.records[i2]:
                if rec2.cycle.s < rec.cycle.o < rec2.cycle.f:
                    witnesses.append({"observer": [i, j],
                                      "mover": list(rec2.cycle.ident)})
    return witnesses


def consistency_oracle(trace: Trace, analysis: ConcurrencyAnalysis) -> CheckResult:
    """Every pair within each concurrency class, in class order."""
    witnesses = []
    for cls in analysis.classes:
        for x in range(len(cls)):
            for y in range(x + 1, len(cls)):
                a, b = cls[x], cls[y]
                sees_ab = _sees(trace, a, b[0])
                sees_ba = _sees(trace, b, a[0])
                if sees_ab != sees_ba:
                    witnesses.append({"pair": [list(a), list(b)], "clause": 1})
                    continue
                if sees_ab:
                    if (a, b) not in analysis.concurrent:
                        witnesses.append({"pair": [list(a), list(b)], "clause": 2})
                else:
                    sq = squared_distance(trace.record(*a).pos_at_look,
                                          trace.record(*b).pos_at_look)
                    if sq <= 1.0:
                        witnesses.append({"pair": [list(a), list(b)], "clause": 3})
    return CheckResult(FAIL if witnesses else PASS, witnesses)


def natural_violations(trace: Trace, classes: list[list[CycleId]],
                       order: list[int]) -> list:
    """The first violation of the two naturality clauses under a class order
    (empty list if none).  When the straddling cycle lies beyond the prefix,
    clause 1 is skipped and clause 2 tests the robot's rest point after its
    last cycle, naming its next, unrecorded cycle."""
    pos = {k: p for p, k in enumerate(order)}
    cycle_pos: dict[CycleId, int] = {}
    for k, cls in enumerate(classes):
        for c in cls:
            cycle_pos[c] = pos[k]
    violations = []
    for a in cycle_pos:
        k = cycle_pos[a]
        rec = trace.record(*a)
        for i2 in range(trace.n):
            if i2 == a[0]:
                continue
            jprime = None
            for j2 in range(1, len(trace.records[i2]) + 1):
                if cycle_pos[(i2, j2)] > k:
                    jprime = j2
                    break
            if _sees(trace, a, i2):
                if jprime is not None and \
                        not rec.cycle.o < trace.record(i2, jprime).cycle.o:
                    violations.append({"cycle": list(a), "other": [i2, jprime], "clause": 1})
            else:
                if jprime is None:
                    jprime = len(trace.records[i2]) + 1
                    there = point_at(trace, i2, float("inf"))
                else:
                    there = trace.record(i2, jprime).pos_at_look
                sq = squared_distance(rec.pos_at_look, there)
                if sq <= 1.0:
                    violations.append({"cycle": list(a), "other": [i2, jprime], "clause": 2})
            if violations:
                return violations
    return violations


# -- the engine's snapshot, built eagerly ------------------------------------

def point_at(trace: Trace, robot: int, t: float) -> Point:
    """The robot's point as a Look at t sees it: its rest position, or the
    sample of its move in progress (a move ending at t has ended)."""
    pos = trace.scenario.initial_positions[robot]
    for rec in trace.records[robot]:
        if t < rec.cycle.f:
            if rec.cycle.s < t:
                u = dict(rec.mid_move_samples)[t]
                return point_along(rec.route_global, u) if u > 0.0 else pos
            return pos
        pos = rec.pos_after_move
    return pos


def color_at(trace: Trace, robot: int, t: float) -> str:
    """The robot's light as a Look at t sees it: black before its first
    Look, and a new color from its move start on."""
    color = BK
    for rec in trace.records[robot]:
        if rec.cycle.o >= t:
            break
        color = rec.color_after if t >= rec.cycle.s and rec.color_after else rec.color_before
    return color


def snapshot_oracle(trace: Trace, robot: int, j: int
                    ) -> tuple[frozenset[int], tuple[Point, ...], tuple[str, ...]]:
    """The visible set, local snapshot and snapshot colors of a luminous
    cycle, from every robot's point and color at its Look: the observer
    first at its origin, the others sorted by (local x, local y, robot)."""
    cycle = trace.record(robot, j).cycle
    here = point_at(trace, robot, cycle.o)
    frame = trace.scenario.frames[robot]
    rows = []
    for k in range(trace.n):
        p = point_at(trace, k, cycle.o)
        dx, dy = p.x - here.x, p.y - here.y
        if k != robot and dx * dx + dy * dy <= 1.0:
            q = frame.local(dx, dy)
            rows.append((q.x, q.y, k, q, color_at(trace, k, cycle.o)))
    rows.sort()
    return (frozenset([robot, *[row[2] for row in rows]]),
            (ORIGIN, *[row[3] for row in rows]),
            (color_at(trace, robot, cycle.o), *[row[4] for row in rows]))


def stay_put_samples(trace: Trace, robot: int, j: int) -> tuple[tuple[float, float], ...]:
    """The mid-move samples of a cycle that stays put: arc 0 at each Look
    time of the trace's schedule strictly inside its move."""
    cycle = trace.record(robot, j).cycle
    looks = sorted({rec.cycle.o for rec in all_records(trace)})
    return tuple((t, 0.0) for t in looks if cycle.s < t < cycle.f)


# -- the async schedule sampler, one `uniform` call per gap -------------------

def async_schedule_oracle(seed: int, n: int, horizon: float) -> Schedule:
    """`scheduling.sample_async_schedule` with each gap drawn by
    `random.uniform`, snapped to the 1/64 grid and at least one grid step."""
    robots: list[list[Cycle]] = []
    for i in range(n):
        rng = random.Random(f"sched:{seed}:{i}")

        def draw(rg: tuple[float, float]) -> float:
            return max(1.0 / TIME_GRID, round(rng.uniform(*rg) * TIME_GRID) / TIME_GRID)

        cycles: list[Cycle] = []
        t = draw(BETWEEN_CYCLES)
        while True:
            o = t
            s = o + draw(LOOK_TO_MOVE)
            f = s + draw(MOVE)
            if f > horizon:
                break
            cycles.append(Cycle(i, len(cycles) + 1, o, s, f))
            t = f + draw(BETWEEN_CYCLES)
        robots.append(cycles)
    return Schedule(n=n, horizon=horizon, robots=robots)


# -- similarity, `same_points` at every cycle ----------------------------------

def similar_oracle(source: Trace, replayed: Trace) -> SimilarityResult:
    """`synthesis.similar` comparing every Look position and every snapshot
    with `same_points`, equal or not."""
    if source.n != replayed.n:
        raise InputError("traces cover different robot counts")
    for i in range(source.n):
        if len(source.records[i]) != len(replayed.records[i]):
            return SimilarityResult(False, {
                "robot": i, "reason": "cycle count",
                "source": len(source.records[i]), "replay": len(replayed.records[i])})
        for j, (ra, rb) in enumerate(zip(source.records[i], replayed.records[i]), start=1):
            if not same_points((ra.pos_at_look,), (rb.pos_at_look,), SIMILARITY_EPS):
                return SimilarityResult(False, {
                    "robot": i, "j": j, "reason": "footprint",
                    "source": ra.pos_at_look.as_pair(),
                    "replay": rb.pos_at_look.as_pair()})
            if not same_points(ra.snapshot_local, rb.snapshot_local, SIMILARITY_EPS):
                return SimilarityResult(False, {
                    "robot": i, "j": j, "reason": "snapshot",
                    "source": sorted(p.as_pair() for p in ra.snapshot_local),
                    "replay": sorted(p.as_pair() for p in rb.snapshot_local)})
    return SimilarityResult(True)


# -- the candidate search, each candidate replayed whole, then compared --------

def candidate_search_oracle(trace: Trace, order_budget: int = DEFAULT_ORDER_BUDGET,
                            node_budget: int = DEFAULT_NODE_BUDGET
                            ) -> CandidateSearchResult:
    """`synthesis.candidate_search` with each candidate built as a plan
    (`build_plan`), replayed to its end (`replay_plan`) and then compared
    record by record (`similar`), over successor sets built here from the
    class edges; the same budgets, and the same exceptions mean the
    candidate cannot be similar."""
    analysis = analyze(trace)
    succ: list[set[int]] = [set() for _ in analysis.classes]
    for k, k2 in analysis.class_edges:
        succ[k].add(k2)
    if analysis.self_loops or find_cycle(succ) is not None:
        return CandidateSearchResult(NONE_AMONG_CANDIDATES, 0)
    tried = 0
    try:
        for order in topological_orders(succ, node_budget):
            if tried >= order_budget:
                return CandidateSearchResult(INCONCLUSIVE, tried)
            tried += 1
            classes = [analysis.classes[k] for k in order]
            try:
                plan = build_plan(trace, classes)
                replayed = replay_plan(trace.scenario, plan)
            except (InputError, SimulationError):
                continue
            if similar(trace, replayed):
                return CandidateSearchResult(SIMILAR_FOUND, tried)
    except BudgetExhausted:
        return CandidateSearchResult(INCONCLUSIVE, tried)
    return CandidateSearchResult(NONE_AMONG_CANDIDATES, tried)


# -- necessity sweep, each template rebuilt at every seed ----------------------

def necessity_experiment_oracle(template: str, num_seeds: int) -> dict:
    """`experiments.necessity_experiment` with its default budgets, building
    the template afresh from its builder at every seed."""
    counts = {
        "seeds": num_seeds, "errors": 0, "materialized": 0,
        "found_given_violation": 0, "none_given_violation": 0,
        "inconclusive_given_violation": 0,
        "clean": 0, "clean_check_pass": 0, "clean_found": 0,
    }
    for seed in range(num_seeds):
        run = NECESSITY_TEMPLATES[template]()
        try:
            trace = simulate(run.scenario, run.schedule, as_controller(run.algorithm),
                             Adversary(seed, run.adversary_mode))
        except SimulationError:
            counts["errors"] += 1
            continue
        report = check_all(trace, NECESSITY_NODE_BUDGET)
        if run.target is None:
            violated = not report.all_pass
        else:
            violated = getattr(report, TEMPLATE_TARGET_FIELD[run.target]).verdict == FAIL
        search = candidate_search(trace, order_budget=DEFAULT_ORDER_BUDGET,
                                  node_budget=NECESSITY_NODE_BUDGET)
        if violated:
            counts["materialized"] += 1
            if search.verdict == SIMILAR_FOUND:
                counts["found_given_violation"] += 1
            elif search.verdict == NONE_AMONG_CANDIDATES:
                counts["none_given_violation"] += 1
            else:
                counts["inconclusive_given_violation"] += 1
        else:
            counts["clean"] += 1
            counts["clean_check_pass"] += int(report.all_pass)
            counts["clean_found"] += int(search.verdict == SIMILAR_FOUND)
    materialized = counts["materialized"]
    return {
        "schema": 1,
        "template": template,
        **counts,
        "found_rate_given_violation": (
            counts["found_given_violation"] / materialized if materialized else None),
        "inconclusive_rate": (
            counts["inconclusive_given_violation"] / materialized if materialized else None),
    }


# -- a route, a dataclass `==` and a `distance` call per segment ----------------

def route_oracle(vertices) -> tuple[tuple[Point, ...], tuple[float, ...]]:
    """The vertices and cumulative lengths `geometry.Route` holds, built
    segment by segment; refused with the same `InputError`, from the same
    check, in the same order."""
    verts = tuple(vertices)
    if not verts:
        raise InputError("route needs at least one vertex")
    for a, b in zip(verts, verts[1:]):
        if a == b:
            raise InputError("route has a zero-length segment")
    if len(verts) > 2:  # one segment is always simple
        Route._validate_simplicity(verts)
    cum = [0.0]
    for a, b in zip(verts, verts[1:]):
        cum.append(cum[-1] + distance(a, b))
    return verts, tuple(cum)


# -- a route's global image, a `Point` per vertex, then deduplicated -----------

def to_global(frame: FrameSpec, origin: Point, l: Point) -> Point:
    """The local point l of a robot at `origin` with frame `frame`, in the
    global frame: the inverse of `FrameSpec.local`."""
    c, s = frame.cos, frame.sin
    gx = frame.unit * (c * l.x - s * l.y)
    gy = frame.unit * (s * l.x + c * l.y)
    return Point(origin.x + gx, origin.y + gy)


def route_to_global_oracle(frame: FrameSpec, origin: Point, route: Route) -> Route:
    """`geometry.route_to_global` as two passes: every vertex's image as a
    `Point`, then the images equal to the one before them dropped."""
    verts = [to_global(frame, origin, v) for v in route.vertices]
    return Route([v for k, v in enumerate(verts) if k == 0 or v != verts[k - 1]])


# -- the relation pass, four bisects per (cycle, visible robot) -----------------

def analyze_oracle(trace: Trace) -> ConcurrencyAnalysis:
    """The relation pass with one bisect per relation, whose analysis
    `checker.analyze` must give field by field, in the same orders.

    Build all three relations without visiting a pair of cycles.  For a
    cycle x and a robot r that x sees, each relation below has at most one
    candidate among r's cycles, found by one bisect into r's timeline (every
    other cycle of r fails the relation's time bounds).  Every pair that
    holds is found from the cycle that sees the other robot: for concurrency
    and case 3 the earlier Look, for overlap and case 4 the later one.  A
    robot's own cycles are never concurrent and precede each other j -> j+1.
    The overlap probe also finds the stationarity witnesses: o < s < f and
    f_k < o_{k+1} put a move of r holding x's Look, if any, in r's last
    cycle with a Look at or before x's.

    A robot's timeline is its row's offset into the cycle list and its Look,
    move-start and end times, each strictly increasing (o < s < f and
    f_{j-1} < o_j), built in one loop over the row.  The classes come from a
    union-find over cycle indices (path halving), and each is keyed by its
    earliest (Look, robot, j), read from the timelines.
    """
    ids: list[CycleId] = []
    timelines: list[tuple[int, list[float], list[float], list[float]]] = []
    for row in trace.records:
        base = len(ids)
        looks, starts, ends = [], [], []
        for rec in row:
            robot, j, o, s, f = rec.cycle
            ids.append((robot, j))
            looks.append(o)
            starts.append(s)
            ends.append(f)
        timelines.append((base, looks, starts, ends))
    parent = list(range(len(ids)))  # the union-find, over indices into ids
    concurrent: set[tuple[CycleId, CycleId]] = set()
    overlapping: set[tuple[CycleId, CycleId]] = set()
    stationary: list[tuple[CycleId, CycleId]] = []
    hb: dict[tuple[CycleId, CycleId], bool] = {  # (a, b) -> only_at_horizon
        (ids[k], ids[k + 1]): False
        for base, looks, _, _ in timelines for k in range(base, base + len(looks) - 1)}
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
                # concurrency: the first Look of r at or after x's, before x's move
                k = bisect_left(looks, xo)
                if k < len(looks) and looks[k] <= xs and (k == 0 or ends[k - 1] < xo):
                    b = ids[base + k]
                    concurrent.add((a, b) if a < b else (b, a))
                    ra = x
                    while parent[ra] != ra:
                        parent[ra] = ra = parent[parent[ra]]
                    rb = base + k
                    while parent[rb] != rb:
                        parent[rb] = rb = parent[parent[rb]]
                    parent[rb] = ra
                # overlap: the last Look of r at or before x's, still running at it;
                # equal Looks are found from both sides, the set keeps one
                k = bisect_right(looks, xo) - 1
                if k >= 0 and xo <= ends[k]:
                    b = ids[base + k]
                    overlapping.add((a, b) if a < b else (b, a))
                    if starts[k] < xo < ends[k]:
                        stationary.append((a, b))
                # case 3, x -> v: the first Look of r after x ends, r at rest at x's Look
                k = bisect_right(looks, xf)
                if k < len(looks) and (k == 0 or ends[k - 1] < xo):
                    hb[(a, ids[base + k])] = False
                # case 4, u -> x: the last cycle of r ending before x's Look, whose
                # next move starts no earlier; past r's last cycle that bound is
                # assumed, so the edge is horizon-only unless case 3 also holds
                k = bisect_left(ends, xo) - 1
                if k >= 0:
                    beyond = k + 1 == len(looks)
                    if beyond or xo <= starts[k + 1]:
                        hb.setdefault((ids[base + k], a), beyond)
    misaligned = sorted(overlapping - concurrent)
    # by source cycle, robot-major in j order; the order of self_loops depends on it
    hb_pairs = sorted((a, b, horizon_only) for (a, b), horizon_only in hb.items())

    groups: dict[int, list[int]] = {}
    for x in range(len(ids)):
        root = x
        while parent[root] != root:
            parent[root] = root = parent[parent[root]]
        groups.setdefault(root, []).append(x)
    look_of = [o for _, looks, _, _ in timelines for o in looks]  # aligned with ids
    classes = [[ids[x] for x in members] for members in sorted(
        groups.values(), key=lambda members: min((look_of[x], ids[x]) for x in members))]
    class_of = {c: k for k, cls in enumerate(classes) for c in cls}

    class_edges: dict[tuple[int, int], bool] = {}
    self_loops: dict[int, bool] = {}
    for a, b, horizon_only in hb_pairs:
        ka, kb = class_of[a], class_of[b]
        if ka == kb:
            self_loops[ka] = self_loops.get(ka, False) or not horizon_only
        else:
            class_edges[(ka, kb)] = class_edges.get((ka, kb), False) or not horizon_only
    return ConcurrencyAnalysis(ids, classes, class_of, concurrent, misaligned,
                               hb_pairs, class_edges, self_loops, sorted(stationary))
