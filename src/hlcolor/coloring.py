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
vertices.  G-flows are the group shadows of these rules: conjugation of the
under arc by the over arc at crossings, flow(e3) = flow(e1) . flow(e2) at
vertices.

This rule set is the unique one (up to a global mirror relabeling) that
passes the kink, slide and triangle invariance tests together with the
MCB/MCQ correspondence and reverse-mirror transfer on the structure corpus;
it is pinned by those tests rather than by figure inspection (see README).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hlcolor.algebra import _column_inverse
from hlcolor.diagram import Diagram, arcs_of
from hlcolor.gfamily import GFamilyB, GFamilyQ, associated_mcb, associated_mcq
from hlcolor.groups import FiniteGroup
from hlcolor.mcqb import MCB, MCQ
from hlcolor.oracle import semiarc_rules_hold
from hlcolor.rings import SizeBoundExceededError


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
    per_flow: dict[Flow, int] | None = None


class FlowInvalidError(ValueError):
    pass


class NotBraidShapedError(ValueError):
    pass


# -- the local rules as table equations ------------------------------------------
#
# Every rule is a conjunction of equations tbl[a, b] == c on variable names,
# written (a, b, c, (tbl, col, row)).  The optional column-solve table gives
# a = col[c, b] and the optional row-solve table gives b = row[a, c].  Tables
# are nested lists; -1 marks an undefined entry and _MANY a solve entry that
# several values fit, which forces nothing.

_MANY = -2


class _TableConstraint:
    """Conjunction of table equations tbl[a, b] == c over variable names."""

    def __init__(self, *eqs):
        self.eqs = eqs
        self.vars = tuple(sorted({v for eq in eqs for v in eq[:3]}))

    def check(self, assign) -> bool:
        return all(tbl[assign[a]][assign[b]] == assign[c] for a, b, c, (tbl, _, _) in self.eqs)

    def propagate(self, assign):
        """Return list of (var, value) forced by the equations, or False on conflict."""
        forced = []
        local = {v: assign.get(v) for v in self.vars}
        changed = True
        while changed:
            changed = False
            for a, b, c, (tbl, col, row) in self.eqs:
                va, vb, vc = local[a], local[b], local[c]
                if va is not None and vb is not None:
                    var, want = c, tbl[va][vb]
                elif vc is not None and vb is not None and col is not None:
                    var, want = a, col[vc][vb]
                elif va is not None and vc is not None and row is not None:
                    var, want = b, row[va][vc]
                else:
                    continue
                if want == _MANY:
                    continue
                if want < 0:
                    return False
                if local[var] is None:
                    local[var] = want
                    forced.append((var, want))
                    changed = True
                elif local[var] != want:
                    return False
        return forced


def _with_solvers(tbl: np.ndarray) -> tuple[list, list, list]:
    """(tbl, col, row) for a square table whose undefined entries are -1."""
    n = len(tbl)
    a, b = np.nonzero(tbl >= 0)
    c = tbl[a, b]

    def solver(keys, values) -> list:
        out = np.full((n, n), -1, dtype=np.int64)
        out[keys] = values
        hits = np.zeros((n, n), dtype=np.int64)
        np.add.at(hits, keys, 1)
        out[hits > 1] = _MANY
        return out.tolist()

    return tbl.tolist(), solver((c, b), a), solver((a, c), b)


def _rule_tables(x: MCB | MCQ) -> dict[str, tuple]:
    """The (tbl, col, row) tables of x's local rules, built once per structure.

    The MCB vertex table is V[e1, e2] = (e1 over^-1 e2) . e2, so V[e1, e2] = e3
    says e1 = b over e2 and e3 = b . e2 for a block element b; the MCQ vertex
    table is prod.  Both are -1 across blocks.
    """
    tables = getattr(x, "_rule_tables", None)
    if tables is None:
        if isinstance(x, MCB):
            tables = {
                "under": (x.under.tolist(), x.under_inv.tolist(), None),
                "over": (x.over.tolist(), x.over_inv.tolist(), None),
                "vertex": _with_solvers(x.prod[x.over_inv, np.arange(x.n)[None, :]]),
            }
        else:
            tables = {
                "star": (x.star.tolist(), x.star_inv.tolist(), None),
                "vertex": _with_solvers(x.prod),
            }
        x._rule_tables = tables
    return tables


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
    cons: list = []
    for c in d.crossings:
        oi, oo, ui, uo = _crossing_slots(c)
        cons.append(_TableConstraint((ui, oo, uo, t["under"]), (oo, ui, oi, t["over"])))
    for v in d.vertices:
        cons.append(_TableConstraint((v.e1, v.e2, v.e3, t["vertex"])))
    return cons


def _arc_constraints(d: Diagram, crossing, vertex) -> list:
    """crossing[ui, over] = uo and vertex[e1, e2] = e3 on arcs."""
    arcs = arcs_of(d)
    cons: list = []
    for c in d.crossings:
        _, _, ui, uo = _crossing_slots(c)
        cons.append(_TableConstraint((arcs[ui], arcs[c.over_in], arcs[uo], crossing)))
    for v in d.vertices:
        cons.append(_TableConstraint((arcs[v.e1], arcs[v.e2], arcs[v.e3], vertex)))
    return cons


def _mcq_constraints(d: Diagram, x: MCQ) -> list:
    t = _rule_tables(x)
    return _arc_constraints(d, t["star"], t["vertex"])


def _flow_constraints(d: Diagram, g: FiniteGroup) -> list:
    """The group shadows: conjugation at crossings, products at vertices."""
    prod, conj = g.cayley, g.conj_table()
    return _arc_constraints(
        d, (conj.tolist(), _column_inverse(conj, "group conjugation").tolist(), None),
        (prod.tolist(), _column_inverse(prod, "group product").tolist(), None),
    )


# -- the search engine ---------------------------------------------------------


def _enumerate(
    all_vars: list[str],
    domain_size: int,
    constraints: list,
    fixed: dict[str, int] | None = None,
    domains: dict[str, list[int]] | None = None,
    collect: bool = True,
    budget: int | None = None,
):
    """Backtracking enumeration with constraint propagation.

    Yields assignment dicts in deterministic order: branch variables are
    most-constrained-first with lexicographic tie-break, values ascending.
    """
    var_cons: dict[str, list] = {v: [] for v in all_vars}
    for con in constraints:
        for v in con.vars:
            var_cons[v].append(con)
    full_domains = {v: (domains[v] if domains and v in domains else None) for v in all_vars}
    nodes = 0

    def in_domain(v: str, val: int) -> bool:
        dom = full_domains[v]
        return dom is None or val in dom

    def propagate(assign, trail, queue) -> bool:
        while queue:
            con = queue.pop()
            result = con.propagate(assign)
            if result is False:
                return False
            for var, val in result:
                if var in assign:
                    if assign[var] != val:
                        return False
                    continue
                if not in_domain(var, val):
                    return False
                assign[var] = val
                trail.append(var)
                for c2 in var_cons[var]:
                    queue.append(c2)
        return True

    def pick_var(assign) -> str | None:
        best = None
        best_score = -1
        for v in all_vars:
            if v in assign:
                continue
            score = 0
            for con in var_cons[v]:
                score += sum(1 for w in con.vars if w in assign)
            if score > best_score or (score == best_score and best is not None and v < best):
                best, best_score = v, score
        return best

    def search(assign):
        nonlocal nodes
        var = pick_var(assign)
        if var is None:
            yield dict(assign) if collect else assign
            return
        dom = full_domains[var]
        values = dom if dom is not None else range(domain_size)
        for val in values:
            nodes += 1
            if budget is not None and nodes > budget:
                raise SizeBoundExceededError(f"enumeration exceeded branch budget {budget}")
            trail = [var]
            assign[var] = val
            queue = list(var_cons[var])
            if propagate(assign, trail, queue):
                yield from search(assign)
            for v in trail:
                del assign[v]

    init = dict(fixed) if fixed else {}
    for v, val in init.items():
        if not in_domain(v, val):
            return
    trail0: list[str] = []
    queue0 = [c for v in init for c in var_cons.get(v, [])]
    base = dict(init)
    if propagate(base, trail0, queue0):
        yield from search(base)


def _report(
    d: Diagram,
    x,
    on_arcs: bool,
    constraints,
    domain_size: int,
    want_list: bool,
    fixed=None,
    domains=None,
    budget=None,
) -> ColoringSetReport:
    vars_ = coloring_vars(d, on_arcs)
    count = 0
    out: list[Coloring] | None = [] if want_list else None
    for assign in _enumerate(
        vars_, domain_size, constraints, fixed=fixed, domains=domains, collect=want_list,
        budget=budget,
    ):
        count += 1
        if want_list:
            out.append(Coloring(x, dict(assign)))
    return ColoringSetReport(count=count, colorings=out)


# -- public operations -----------------------------------------------------------


def enumerate_colorings_mcb(
    d: Diagram, x: MCB, want_list: bool = False, fixed=None, domains=None, budget=None,
) -> ColoringSetReport:
    d.validate(allow_open=True)
    return _report(d, x, False, _mcb_constraints(d, x), x.n, want_list, fixed, domains, budget)


def enumerate_colorings_mcq(
    d: Diagram, x: MCQ, want_list: bool = False, fixed=None, domains=None, budget=None,
) -> ColoringSetReport:
    d.validate(allow_open=True)
    return _report(d, x, True, _mcq_constraints(d, x), x.n, want_list, fixed, domains, budget)


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
    """All G-flows by constraint propagation over arcs, deterministic order."""
    d.validate(allow_open=True)
    vars_ = coloring_vars(d, True)
    cons = _flow_constraints(d, g)
    flows = []
    for assign in _enumerate(vars_, g.n, cons, budget=budget):
        flows.append(Flow(g, tuple(sorted(assign.items()))))
    return flows


def _check_flow(d: Diagram, group: FiniteGroup, flow: Flow) -> dict[str, int]:
    """The flow as an arc -> element dict; FlowInvalidError unless it is a G-flow of d."""
    if flow.group != group:
        raise FlowInvalidError(f"flow group has order {flow.group.n}, the family's has {group.n}")
    arcs = arcs_of(d)
    fd = flow.as_dict()
    missing = sorted({a for a in arcs.values() if a not in fd})
    if missing:
        raise FlowInvalidError(f"flow misses arcs {missing}")
    bad = sorted(a for a in set(arcs.values()) if not 0 <= fd[a] < group.n)
    if bad:
        raise FlowInvalidError(f"flow values out of range(0, {group.n}) on arcs {bad}")
    for c in d.crossings:
        _, _, ui, uo = _crossing_slots(c)
        if group.conj(fd[arcs[ui]], fd[arcs[c.over_in]]) != fd[arcs[uo]]:
            raise FlowInvalidError(f"flow breaks the crossing relation at under arc {arcs[ui]}")
    for v in d.vertices:
        if group.mul(fd[arcs[v.e1]], fd[arcs[v.e2]]) != fd[arcs[v.e3]]:
            raise FlowInvalidError(f"flow breaks the vertex relation at {v.e1} {v.e2} {v.e3}")
    return fd


def colorings_by_flow(
    d: Diagram, f: GFamilyQ | GFamilyB, flow: Flow, want_list: bool = False, budget=None
) -> ColoringSetReport:
    """Colorings of the associated MCQ/MCB whose group projection equals the flow."""
    fd = _check_flow(d, f.group, flow)
    arcs = arcs_of(d)
    on_arcs = isinstance(f, GFamilyQ)
    ng = f.group.n
    domains = {
        k: [x * ng + fd[k if on_arcs else arcs[k]] for x in range(f.n)]
        for k in coloring_vars(d, on_arcs)
    }
    if on_arcs:
        return enumerate_colorings_mcq(
            d, associated_mcq(f), want_list=want_list, domains=domains, budget=budget
        )
    return enumerate_colorings_mcb(
        d, associated_mcb(f), want_list=want_list, domains=domains, budget=budget
    )


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
        alexander_field = (
            getattr(family, "alexander", None) is not None and family.alexander[1].is_field
        )
        rows = []
        ok = True
        dims_ok = True if alexander_field else None
        for flow in enumerate_flows(d, family.group, budget=budget):
            nb = colorings_by_flow(d, family, flow, budget=budget).count
            nq = colorings_by_flow(d, qfam, flow, budget=budget).count
            rows.append((flow, nb, nq))
            ok = ok and nb == nq
            if alexander_field:
                dim_b = linear_colorings(d, family, flow).module_info[0]
                dim_q = linear_colorings(d, qfam, flow).module_info[0]
                dims_ok = dims_ok and dim_b == dim_q
        report.per_flow_equal = ok
        report.per_flow = rows
        report.dims_equal = dims_ok
    return report


def linear_colorings(
    d: Diagram, f: GFamilyQ | GFamilyB, flow: Flow, bound: int = 10**6
) -> ColoringSetReport:
    """Flow-filtered colorings of an Alexander family via exact linear algebra.

    One linear equation over the family's coefficient ring per local rule;
    over a field the report carries the solution module's dimension and a
    basis (vectors indexed by sorted variable order).
    """
    from hlcolor.rings import solve_linear

    if getattr(f, "alexander", None) is None:
        raise ValueError("linear path requires an Alexander family")
    fd = _check_flow(d, f.group, flow)
    arcs = arcs_of(d)
    on_arcs = isinstance(f, GFamilyQ)
    vars_ = coloring_vars(d, on_arcs)
    index = {v: i for i, v in enumerate(vars_)}
    if on_arcs:
        kind, ring, u = f.alexander
    else:
        kind, ring, t, s = f.alexander
    rows: list[list] = []
    rhs: list = []

    def row(*terms):
        r = [ring.zero] * len(vars_)
        for var, coef in terms:
            r[index[var]] = ring.add(r[index[var]], coef)
        rows.append(r)
        rhs.append(ring.zero)

    one, neg_one = ring.one, ring.neg(ring.one)
    for c in d.crossings:
        h = fd[arcs[c.over_in]]
        if on_arcs:
            uh = ring.pow(u, h)
            a_in, a_out, a_ov = arcs[c.under_in], arcs[c.under_out], arcs[c.over_in]
            src, dst = (a_in, a_out) if c.sign > 0 else (a_out, a_in)
            # dst = u^h src + (1 - u^h) over
            row((dst, one), (src, ring.neg(uh)), (a_ov, ring.sub(uh, one)))
        else:
            th, sh = ring.pow(t, h), ring.pow(s, h)
            if c.sign > 0:
                g = fd[arcs[c.under_in]]
                # uo = t^h ui + (s^h - t^h) oo ;  oi = s^g oo
                row((c.under_out, one), (c.under_in, ring.neg(th)),
                    (c.over_out, ring.sub(th, sh)))
                row((c.over_in, one), (c.over_out, ring.neg(ring.pow(s, g))))
            else:
                g = fd[arcs[c.under_out]]
                row((c.under_in, one), (c.under_out, ring.neg(th)),
                    (c.over_in, ring.sub(th, sh)))
                row((c.over_out, one), (c.over_in, ring.neg(ring.pow(s, g))))
    for v in d.vertices:
        if on_arcs:
            a1, a2, a3 = arcs[v.e1], arcs[v.e2], arcs[v.e3]
            if a1 != a2:
                row((a1, one), (a2, neg_one))
            if a3 != a2:
                row((a3, one), (a2, neg_one))
        else:
            # e1 = b over e2 and e3 = b . e2:  x_e1 = s^{flow(e2)} x_e2, x_e3 = x_e2
            sg = ring.pow(s, fd[arcs[v.e2]])
            row((v.e1, one), (v.e2, ring.neg(sg)))
            row((v.e3, one), (v.e2, neg_one))
    if not rows:
        rows = [[ring.zero] * len(vars_)]
        rhs = [ring.zero]
    sol = solve_linear(ring, rows, rhs, bound=bound)
    module_info = None
    if sol.dimension is not None:
        module_info = (sol.dimension, sol.basis)
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
