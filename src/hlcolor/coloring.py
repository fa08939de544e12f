"""Exact enumeration of G-flows, MCQ-colorings and MCB-colorings.

Local rules.  At a positive crossing, writing oi/oo for the over strand's
in/out semi-arcs and ui/uo for the under strand's, an MCB coloring satisfies

    under[ui, oo] = uo        over[oo, ui] = oi

and a negative crossing imposes the same equations with in/out swapped on
both strands.  At a vertex (merge: e1, e2 in, e3 out; split: e3 in, e1, e2
out) the three colors satisfy, in both cases on the same slots,

    e1 = b over e2,   e3 = b . e2     for a block element b of e2's block.

MCQ colorings live on arcs with the plain rules:  star[ui, over] = uo at a
positive crossing (in/out swapped at a negative one) and e3 = e1 . e2 at
vertices.  A G-flow is a coloring by G's conjugation MCQ (one block G,
x * y = y^-1 x y, the group product at vertices), so a group enters the
engine only as that MCQ and the flow rules are the MCQ rules.

A coloring by a G-family is a G-flow plus colors that obey the operations at
the flow's values.  In the associated MCB/MCQ, element i * |G| + g carries
flow value g, so the colorings by one flow are those that keep each
variable on the fibre of its flow value; colorings_by_flow runs the
associated structure's plan on the fibres of its tables, which are the
family's own tables, once per flow.

On structures with abelian blocks, this rule set passes the kink, slide and
triangle invariance tests together with the MCB/MCQ correspondence and
reverse-mirror transfer on the structure corpus; it is pinned by those tests
rather than by figure inspection (see README).  On S3-block structures,
counts change at R4a, R5a and R5b.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from hlcolor.diagram import Diagram, arcs_of
from hlcolor.gfamily import GFamilyB, GFamilyQ, _unit_powers, associated_mcb, associated_mcq
from hlcolor.groups import FiniteGroup
from hlcolor.mcqb import MCB, MCQ, conjugation_mcq
from hlcolor.oracle import semiarc_rules_hold
from hlcolor.plan import KEYS as _KEYS
from hlcolor.plan import on_fibres
from hlcolor.plan import count as _plan_count
from hlcolor.plan import depth_first as _depth_first
from hlcolor.rings import SizeBoundExceededError, compile_homogeneous, run_homogeneous


@dataclass(frozen=True)
class Flow:
    """Assignment of group elements to arcs (by arc representative)."""

    group: FiniteGroup
    assignment: tuple[tuple[str, int], ...]

    def as_dict(self) -> dict[str, int]:
        return dict(self.assignment)

    @staticmethod
    def from_dict(group: FiniteGroup, d: dict[str, int]) -> "Flow":
        return Flow(group, tuple(sorted(d.items())))


@dataclass
class Coloring:
    """Assignment of structure elements to semi-arcs (MCB) or arcs (MCQ)."""

    target: object
    assignment: dict[str, int]

    def restrict(self, keys) -> tuple[int, ...]:
        return tuple(self.assignment[k] for k in keys)


@dataclass
class ColoringSetReport:
    count: int
    colorings: list[Coloring] | None = None
    module_info: tuple[int, list] | None = None  # (dimension, basis vectors)
    nodes: int | None = None  # values tried (on the row executor, rows each level keeps)


class FlowInvalidError(ValueError):
    pass


class NotBraidShapedError(ValueError):
    pass


# -- the local rules as table equations ------------------------------------------
#
# Every rule is a conjunction of equations tbl[a, b] == c on variable names,
# written (a, b, c, table) with a _RuleTable; the constraint builders return
# flat lists of them.


class _RuleTable:
    """A rule table tbl[a, b] == c, -1 where undefined, with what the plan
    (hlcolor.plan) derives from it, built when it is first asked for.

    lookups[i] gives slot i from the other two slots, indexed by them in the
    order _KEYS[i], -1 where no entry has them; it is None where some pair of
    them allows several values.  support(s, i)[u, w] says some entry holds u
    in slot s and w in slot i, and candidates lists the values one slot takes
    beside known ones.  The depth-first executor and the coloring transport
    read lookups and candidates as nested lists (lookup_lists,
    candidate_lists); the row executor reads the numpy arrays.  fibre gives
    the table of an associated structure on one fibre of each slot.
    """

    def __init__(self, tbl: np.ndarray):
        self.n = n = len(tbl)
        self.tbl = tbl
        a, b = np.nonzero(tbl >= 0)
        self.slots = (a, b, tbl[a, b])
        self.density = len(a) / (n * n)  # share of slot pairs with an entry
        self._support: dict = {}
        self._share: dict = {}
        self._candidates: dict = {}
        self._candidate_lists: dict = {}
        self._fibres: dict = {}

    def support(self, s: int, i: int) -> np.ndarray:
        seen = self._support.get((s, i))
        if seen is None:
            seen = self._support[s, i] = np.zeros((self.n, self.n), dtype=bool)
            seen[self.slots[s], self.slots[i]] = True
        return seen

    def share(self, s: int, i: int) -> float:
        """The share of value pairs that support(s, i) allows."""
        share = self._share.get((s, i))
        if share is None:
            share = self._share[s, i] = float(self.support(s, i).mean())
        return share

    @cached_property
    def lookups(self) -> tuple:
        n = self.n
        out = []
        for i, (k, m) in _KEYS.items():
            key = self.slots[k] * n + self.slots[m]
            table = np.full(n * n, -1, dtype=self.tbl.dtype)
            table[key] = self.slots[i]
            out.append(table.reshape(n, n) if np.count_nonzero(table >= 0) == len(key) else None)
        return tuple(out)

    @cached_property
    def lookup_lists(self) -> tuple:
        """lookups as nested lists, for reads of one value at a time."""
        return tuple(None if t is None else t.tolist() for t in self.lookups)

    def candidates(self, keys: tuple[int, ...], i: int) -> tuple[np.ndarray, np.ndarray]:
        """(start, values): beside the value u of slot keys[0] (and w of slot
        keys[1]), slot i takes values[start[k]:start[k + 1]], k = u (u * n + w)."""
        found = self._candidates.get((keys, i))
        if found is None:
            n = self.n
            if len(keys) == 1:
                key, values = np.nonzero(self.support(keys[0], i))
            else:
                key = self.slots[keys[0]] * n + self.slots[keys[1]]
                order = np.lexsort((self.slots[i], key))
                key, values = key[order], self.slots[i][order]
            start = np.zeros(n ** len(keys) + 1, dtype=np.intp)
            np.cumsum(np.bincount(key, minlength=n ** len(keys)), out=start[1:])
            found = self._candidates[keys, i] = (start, values)
        return found

    def candidate_lists(self, keys: tuple[int, ...], i: int) -> list:
        """candidates as nested lists: beside u (and w), slot i takes the
        values lists[u] (lists[u][w])."""
        found = self._candidate_lists.get((keys, i))
        if found is None:
            start, values = self.candidates(keys, i)
            start, values = start.tolist(), values.tolist()
            found = [values[lo:hi] for lo, hi in zip(start, start[1:])]
            if len(keys) == 2:
                found = [found[u * self.n:(u + 1) * self.n] for u in range(self.n)]
            self._candidate_lists[keys, i] = found
        return found

    def fibre(self, ga: int, gb: int, ng: int) -> _RuleTable:
        """The table on the fibres of ga and gb, for the table of a structure
        associated with a family over a group of ng elements, whose element
        i * ng + g carries g (hlcolor.gfamily): entry [i, j] is
        tbl[i * ng + ga, j * ng + gb] // ng, -1 kept.  That entry's group
        element is fixed by ga and gb, so the fibre drops it.  Built on
        first use and kept by (ga, gb); equal fibres share one table, and
        so what the plan derives from it (a family's operation at gb is the
        fibre at every ga)."""
        found = self._fibres.get((ga, gb))
        if found is None:
            tbl = self.tbl[ga::ng, gb::ng] // ng
            found = self._fibres.get(tbl.tobytes())
            if found is None:
                found = self._fibres[tbl.tobytes()] = _RuleTable(tbl)
            self._fibres[ga, gb] = found
        return found


def _rule_tables(x: MCB | MCQ) -> dict[str, _RuleTable]:
    """The rule tables of x, built once per structure object and stored on it.

    The MCB vertex table is V[e1, e2] = (e1 over^-1 e2) . e2, so V[e1, e2] = e3
    says e1 = b over e2 and e3 = b . e2 for a block element b; the MCQ vertex
    table is prod.  Both are -1 across blocks.
    """
    tables = getattr(x, "_rule_tables", None)
    if tables is None:
        if isinstance(x, MCB):
            vertex = x.prod[x.over_inv, np.arange(x.n)[None, :]]
            tables = {"under": x.under, "over": x.over, "vertex": vertex}
        else:
            tables = {"star": x.star, "vertex": x.prod}
        tables = {name: _RuleTable(tbl) for name, tbl in tables.items()}
        x._rule_tables = tables
    return tables


def _flow_mcq(g: FiniteGroup) -> MCQ:
    """The conjugation MCQ of g, whose colorings are g's flows, built once per
    group object and stored on it."""
    x = getattr(g, "_flow_mcq", None)
    if x is None:
        x = g._flow_mcq = conjugation_mcq(g)
    return x


def coloring_vars(d: Diagram, on_arcs: bool) -> list[str]:
    if on_arcs:
        return sorted(set(arcs_of(d).values()))
    return sorted(set(d.semiarcs) | set(d.loops))


def _crossing_slots(c) -> tuple[str, str, str, str]:
    """(oi, oo, ui, uo), with in and out swapped on both strands if negative."""
    if c.sign > 0:
        return c.over_in, c.over_out, c.under_in, c.under_out
    return c.over_out, c.over_in, c.under_out, c.under_in


def _mcb_constraints(d: Diagram, x: MCB) -> list:
    t = _rule_tables(x)
    eqs: list = []
    for c in d.crossings:
        oi, oo, ui, uo = _crossing_slots(c)
        eqs += [(ui, oo, uo, t["under"]), (oo, ui, oi, t["over"])]
    for v in d.vertices:
        eqs.append((v.e1, v.e2, v.e3, t["vertex"]))
    return eqs


def _mcq_constraints(d: Diagram, x: MCQ, arcs: dict[str, str]) -> list:
    """star[ui, over] = uo and vertex[e1, e2] = e3 on the arcs of d."""
    t = _rule_tables(x)
    eqs: list = []
    for c in d.crossings:
        _, _, ui, uo = _crossing_slots(c)
        eqs.append((arcs[ui], arcs[c.over_in], arcs[uo], t["star"]))
    for v in d.vertices:
        eqs.append((arcs[v.e1], arcs[v.e2], arcs[v.e3], t["vertex"]))
    return eqs


# -- the constraint network --------------------------------------------------------


class _Network:
    """The integer-indexed constraint network of one (diagram, structure) pair.

    Variable i is the i-th name in sorted order; eqs holds every equation as
    (a, b, c, table) on variable indices, in the order of the diagram's
    records, and n is the number of values.  var_eqs[i] lists the equations
    that hold variable i, and order lists the variables in the order in
    which they first appear in eqs, then those in none.  plans holds the
    plans of hlcolor.plan compiled for it: the depth-first executor's by the
    set of fixed variables, the row executor's under None.  transports holds
    what moves.transport_coloring needs of a plan, by the names of the
    source coloring.
    """

    def __init__(self, all_vars, domain_size: int, constraints):
        self.names = sorted(all_vars)
        self.index = index = {v: i for i, v in enumerate(self.names)}
        self.n = domain_size
        self.eqs: list[tuple] = []
        self.var_eqs: list[list[int]] = [[] for _ in self.names]
        self.order: list[int] = []
        seen = [False] * len(self.names)
        for e, (a, b, c, t) in enumerate(constraints):
            a, b, c = index[a], index[b], index[c]
            self.eqs.append((a, b, c, t))
            for v in (a, b, c) if a != b != c != a else dict.fromkeys((a, b, c)):  # each once
                self.var_eqs[v].append(e)
                if not seen[v]:
                    seen[v] = True
                    self.order.append(v)
        self.order += [v for v, hit in enumerate(seen) if not hit]
        self.plans: dict = {}
        self.transports: dict = {}


def _network(d: Diagram, x: MCB | MCQ | FiniteGroup) -> _Network:
    """The network of d's coloring rules for x, built once and stored on d; a
    group's is that of its conjugation MCQ.

    The first call for a structure object validates d.  The entry holds x
    itself, so it lives as long as d does and its id cannot be reused.
    """
    if isinstance(x, FiniteGroup):
        x = _flow_mcq(x)
    networks = getattr(d, "_networks", None)
    if networks is None:
        networks = d._networks = {}
    entry = networks.get(id(x))
    if entry is None:
        d.validate(allow_open=True)
        if isinstance(x, MCB):
            net = _Network(coloring_vars(d, False), x.n, _mcb_constraints(d, x))
        else:
            arcs = arcs_of(d)
            net = _Network(set(arcs.values()), x.n, _mcq_constraints(d, x, arcs))
        entry = networks[id(x)] = (x, net)
    return entry[1]


# Counts whose widest domain is smaller take the depth-first executor, larger
# ones the row executor; both run the same plan.  A per-flow count
# (colorings_by_flow) picks its executor by the family's size, the number of
# values each variable takes on its fibre.  Timed cold (the 12 corpus
# diagrams parsed afresh, as the CLI does; every corpus MCB/MCQ, associated
# MCB/MCQ and Q(X), best of 3, summed by size), depth-first against row:
# 6 elements (11 structures) 10 against 13 ms, 20 (4) 14 against 6 ms,
# 48 (2) 24 against 5 ms, 72 (2) 91 against 16 ms (2-core VM, Python 3.11,
# numpy 2.4).  The corpus has no structure between 6 and 20 elements.
_PLAN_MIN_DOMAIN = 16


def _report(
    d: Diagram, x, want_list: bool, fixed=None, domains=None, budget=None
) -> ColoringSetReport:
    net = _network(d, x)
    widest = max((len({u for u in domains[v] if 0 <= u < net.n}) if v in domains else net.n
                  for v in net.names), default=0) if domains else net.n
    if not want_list and not fixed and widest >= _PLAN_MIN_DOMAIN:
        count, nodes = _plan_count(net, domains, budget)
        return ColoringSetReport(count=count, nodes=nodes)
    run = _depth_first(net, fixed, domains, budget)
    if want_list:
        out = [Coloring(x, dict(zip(net.names, row))) for row in run.rows().tolist()]
        return ColoringSetReport(count=len(out), colorings=out, nodes=run.nodes)
    return ColoringSetReport(count=run.count(), nodes=run.nodes)


# -- public operations -----------------------------------------------------------


def enumerate_colorings_mcb(
    d: Diagram, x: MCB, want_list: bool = False, fixed=None, domains=None, budget=None,
) -> ColoringSetReport:
    return _report(d, x, want_list, fixed, domains, budget)


def enumerate_colorings_mcq(
    d: Diagram, x: MCQ, want_list: bool = False, fixed=None, domains=None, budget=None,
) -> ColoringSetReport:
    return _report(d, x, want_list, fixed, domains, budget)


def enumerate_colorings(d: Diagram, x, **kw) -> ColoringSetReport:
    if isinstance(x, MCB):
        return enumerate_colorings_mcb(d, x, **kw)
    return enumerate_colorings_mcq(d, x, **kw)


def brute_force_colorings(d: Diagram, x, bound: int = 10**6) -> int:
    """Independent oracle: test every assignment against the local rules."""
    from itertools import product as iproduct

    on_arcs = isinstance(x, MCQ)
    vars_ = coloring_vars(d, on_arcs)
    total = x.n ** len(vars_)
    if total > bound:
        raise SizeBoundExceededError(f"brute force space {total} exceeds bound {bound}")
    # each semi-arc takes the color of its arc (of itself on an MCB)
    of = arcs_of(d) if on_arcs else {v: v for v in vars_}
    slot = {s: vars_.index(a) for s, a in of.items()}
    return sum(
        semiarc_rules_hold(d, x, {s: combo[i] for s, i in slot.items()})
        for combo in iproduct(range(x.n), repeat=len(vars_))
    )


def enumerate_flows(d: Diagram, g: FiniteGroup, budget=None) -> list[Flow]:
    """All G-flows, in lexicographic order of the values in sorted arc order:
    the colorings by g's conjugation MCQ."""
    names, rows = coloring_rows(d, _flow_mcq(g), budget=budget)
    return [Flow(g, tuple(zip(names, row))) for row in rows.tolist()]


def coloring_problem(d: Diagram, x: MCB | MCQ | FiniteGroup, assignment: dict) -> str | None:
    """Why the assignment is not a coloring of d by x, or None if it is one:
    it must name each variable of d's network for x (semi-arcs for an MCB,
    arcs for an MCQ or a group) and no other, with values in range(0, x.n),
    and hold every equation of that network."""
    net = _network(d, x)
    got, want = assignment.keys(), net.index.keys()
    if got != want:
        missing, unknown = sorted(want - got), sorted(got - want)
        return f"missing {missing}, unknown {unknown}"
    bad = [a for a in net.names if not 0 <= assignment[a] < net.n]
    if bad:
        return f"values out of range(0, {net.n}) on {bad}"
    vals = [assignment[a] for a in net.names]
    for a, b, c, t in net.eqs:
        if t.lookup_lists[2][vals[a]][vals[b]] != vals[c]:
            names = " ".join(net.names[v] for v in (a, b, c))
            return f"it breaks the rule on {names}"
    return None


def _check_flow(
    d: Diagram, group: FiniteGroup, flow: Flow
) -> tuple[dict[str, str], dict[str, int]]:
    """d's semi-arc -> arc map and the flow as an arc -> element dict.

    Raises FlowInvalidError unless the flow is over the group and is a
    coloring of d by its conjugation MCQ (``coloring_problem``).
    """
    if flow.group is not group and flow.group != group:
        raise FlowInvalidError(f"flow group (order {flow.group.n}) is not the family's group "
                               f"(order {group.n})")
    fd = flow.as_dict()
    problem = coloring_problem(d, group, fd)
    if problem is not None:
        raise FlowInvalidError(problem)
    return arcs_of(d), fd


def _fibre_run(d: Diagram, f: GFamilyQ | GFamilyB, flow: Flow, lists: bool, budget) -> tuple:
    """The associated MCQ/MCB of f, its network on d, each variable's group
    element at the flow and a run of the network's plan on the flow's fibres
    (``plan.on_fibres``), depth-first if lists, else on rows; raises
    FlowInvalidError unless flow is a G-flow."""
    arcs, fd = _check_flow(d, f.group, flow)
    on_arcs = isinstance(f, GFamilyQ)
    x = associated_mcq(f) if on_arcs else associated_mcb(f)
    net = _network(d, x)
    values = [fd[v] if on_arcs else fd[arcs[v]] for v in net.names]
    return x, net, values, on_fibres(net, values, f.group.n, lists, budget)


def colorings_by_flow(
    d: Diagram, f: GFamilyQ | GFamilyB, flow: Flow, want_list: bool = False, budget=None
) -> ColoringSetReport:
    """Colorings of the associated MCQ/MCB whose group projection equals the flow.

    Each variable keeps to the fibre of its flow value g, the elements
    i * |G| + g, so the plan of the associated structure runs once per flow
    on the fibres of its tables, which are f's own tables.  A count of a
    family of _PLAN_MIN_DOMAIN elements or more takes the row executor, any
    other count or a listing the depth-first one; nodes and budget are the
    fibre run's.
    """
    if want_list:
        x, names, rows, nodes = _flow_rows(d, f, flow, budget)
        out = [Coloring(x, dict(zip(names, row))) for row in rows.tolist()]
        return ColoringSetReport(count=len(out), colorings=out, nodes=nodes)
    *_, run = _fibre_run(d, f, flow, f.n < _PLAN_MIN_DOMAIN, budget)
    return ColoringSetReport(count=run.count(), nodes=run.nodes)


def _flow_rows(d: Diagram, f: GFamilyQ | GFamilyB, flow: Flow, budget) -> tuple:
    """(x, names, rows, nodes): the associated structure, the variables in
    sorted order, every coloring by the flow as its values in that order, in
    lexicographic order, and the depth-first run's nodes."""
    x, net, values, run = _fibre_run(d, f, flow, True, budget)
    rows = run.rows().astype(np.min_scalar_type(net.n - 1))
    # value i on the fibre of g is i * |G| + g, a map that keeps the row order
    rows *= f.group.n
    rows += np.array(values, dtype=rows.dtype)
    return x, net.names, rows, run.nodes


def flow_coloring_rows(
    d: Diagram, f: GFamilyQ | GFamilyB, flow: Flow, budget=None
) -> tuple[list[str], np.ndarray]:
    """coloring_rows for the colorings by the flow: the rows of the listing
    ``colorings_by_flow(want_list=True)``, without a Coloring per row."""
    _, names, rows, _ = _flow_rows(d, f, flow, budget)
    return names, rows


def coloring_rows(d: Diagram, x: MCB | MCQ, budget=None) -> tuple[list[str], list]:
    """The variables in sorted order and every coloring as its values in that
    order, the rows in the order of a listing (want_list=True)."""
    net = _network(d, x)
    return net.names, _depth_first(net, budget=budget).rows()


def per_flow_counts(d: Diagram, f: GFamilyQ | GFamilyB, budget=None) -> dict[Flow, int]:
    return {
        flow: colorings_by_flow(d, f, flow, budget=budget).count
        for flow in enumerate_flows(d, f.group, budget=budget)
    }


@dataclass
class CorrespondenceReport:
    count_mcb: int
    count_mcq: int
    equal: bool
    per_flow_equal: bool | None = None
    per_flow: list[tuple[Flow, int, int]] | None = None
    dims_equal: bool | None = None


def verify_correspondence(
    d: Diagram, x: MCB, family: GFamilyB | None = None, budget=None
) -> CorrespondenceReport:
    """Compare |Col_X(D)| with |Col_{Q(X)}(D)|.

    Given the G-family behind an associated MCB, per-flow counts are compared
    as well, plus module dimensions on the linear path for Alexander families
    over a field.
    """
    from hlcolor.gfamily import qg_map
    from hlcolor.mcqb import q_functor_mcb

    count_mcb = enumerate_colorings_mcb(d, x, budget=budget).count
    qx = q_functor_mcb(x)
    count_mcq = enumerate_colorings_mcq(d, qx, budget=budget).count
    report = CorrespondenceReport(count_mcb, count_mcq, count_mcb == count_mcq)
    if family is not None:
        qfam = qg_map(family)
        counts_b = per_flow_counts(d, family, budget=budget)
        counts_q = per_flow_counts(d, qfam, budget=budget)
        report.per_flow = [(flow, nb, counts_q[flow]) for flow, nb in counts_b.items()]
        report.per_flow_equal = counts_b == counts_q
        if getattr(family, "alexander", None) is not None and family.alexander[1].is_field:
            report.dims_equal = all(
                linear_colorings(d, family, flow).module_info[0]
                == linear_colorings(d, qfam, flow).module_info[0]
                for flow in counts_b
            )
    return report


def _linear_program(d: Diagram, f: GFamilyQ | GFamilyB) -> tuple:
    """The ``rings.compile_homogeneous`` program of d's rows for the Alexander
    family f, a row's slot the arc whose flow value picks its entries, kept
    on d in an entry that holds f (the entries on f).  A quandle family's rows
    are the biquandle family's with t = u and s = 1, read on arcs; a repeated
    column (a kink, or two semi-arcs of one arc) sums its entries."""
    programs = vars(d).setdefault("_linear_programs", {})
    if id(f) not in programs:
        arcs = arcs_of(d)
        on_arcs = isinstance(f, GFamilyQ)
        vars_ = sorted(set(arcs.values()) if on_arcs else arcs)
        index = {v: i for i, v in enumerate(vars_)}
        if on_arcs:
            index = {k: index[a] for k, a in arcs.items()}
        ring, t = f.alexander[1:3]
        tb, n = ring.tables, f.group.n
        coefs = getattr(f, "_linear_coefs", None)  # each entry by h, and if always a unit
        if coefs is None:
            s = ring.one if on_arcs else f.alexander[3]
            t_pows, s_pows = (_unit_powers(ring, n, x).tolist() for x in (t, s))
            base = {"1": [tb.one] * n, "-1": [tb.neg[tb.one]] * n,
                    "-t": [tb.neg[p] for p in t_pows], "-s": [tb.neg[p] for p in s_pows],
                    "t-s": [tb.sub[p][q] for p, q in zip(t_pows, s_pows)]}
            coefs = f._linear_coefs = {k: (c, all(tb.inv[x] >= 0 for x in c))
                                       for k, c in base.items()}
        rows: list = []

        def row(selector: str, *terms) -> None:
            """A row whose entries are read at the flow on selector's arc."""
            kept: dict[int, str] = {}  # each column's entry, by name
            for var, name in terms:
                j = index[var]
                if j in kept:  # a sum, also kept on f by its name
                    key = f"{kept[j]}+{name}"
                    if key not in coefs:
                        c = [tb.add[a][b] for a, b in zip(coefs[kept[j]][0], coefs[name][0])]
                        coefs[key] = (c, all(tb.inv[x] >= 0 for x in c))
                    name = key
                kept[j] = name
            terms = [(j, *entry) for j, name in kept.items() if any((entry := coefs[name])[0])]
            if terms:
                rows.append((arcs[selector], terms))

        for c in d.crossings:
            oi, oo, ui, uo = _crossing_slots(c)
            # uo = t^h ui + (s^h - t^h) oo with h the flow on oi;  oi = s^g oo, g the flow on ui
            row(oi, (uo, "1"), (ui, "-t"), (oo, "t-s"))
            row(ui, (oi, "1"), (oo, "-s"))
        for v in d.vertices:
            # e1 = b over e2 and e3 = b . e2:  x_e1 = s^{flow(e2)} x_e2, x_e3 = x_e2
            row(v.e2, (v.e1, "1"), (v.e2, "-s"))
            row(v.e2, (v.e3, "1"), (v.e2, "-1"))
        programs[id(f)] = (f, compile_homogeneous(len(vars_), rows))
    return programs[id(f)][1]


def linear_colorings(d: Diagram, f: GFamilyQ | GFamilyB, flow: Flow) -> ColoringSetReport:
    """Flow-filtered colorings of an Alexander family via exact linear algebra.

    One linear equation over the family's coefficient ring per local rule,
    propagated along the diagram by a program compiled once per (diagram,
    family) (``_linear_program``) and run per flow; over a field the report
    carries the solution module's dimension and a basis (vectors indexed by
    sorted variable order).
    """
    if getattr(f, "alexander", None) is None:
        raise ValueError("linear path requires an Alexander family")
    _, fd = _check_flow(d, f.group, flow)
    sol = run_homogeneous(f.alexander[1], _linear_program(d, f), fd)
    module_info = None if sol.dimension is None else (sol.dimension, sol.basis)
    return ColoringSetReport(count=sol.cardinality, module_info=module_info)


def braid_boundary_determinism(d: Diagram, x) -> bool:
    """True iff distinct colorings restrict to distinct top-boundary tuples."""
    d.validate(allow_open=True)
    top = d.top_boundary()
    if d.is_closed() or not top:
        raise NotBraidShapedError("diagram has no top boundary semi-arcs")
    if isinstance(x, MCQ):
        arcs = arcs_of(d)
        keys = sorted({arcs[s] for s in top})
    else:
        keys = top
    seen = set()
    rep = enumerate_colorings(d, x, want_list=True)
    for col in rep.colorings:
        key = col.restrict(keys)
        if key in seen:
            return False
        seen.add(key)
    return True
