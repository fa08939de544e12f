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
from functools import cached_property
from itertools import islice

import numpy as np

from hlcolor.diagram import Diagram, arcs_of
from hlcolor.gfamily import GFamilyB, GFamilyQ, associated_mcb, associated_mcq
from hlcolor.groups import FiniteGroup
from hlcolor.mcqb import MCB, MCQ
from hlcolor.oracle import semiarc_rules_hold
from hlcolor.plan import KEYS as _KEYS
from hlcolor.plan import count as _plan_count
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
    nodes: int | None = None  # values tried (rows an expansion keeps on the plan path)


class FlowInvalidError(ValueError):
    pass


class NotBraidShapedError(ValueError):
    pass


# -- the local rules as table equations ------------------------------------------
#
# Every rule is a conjunction of equations tbl[a, b] == c on variable names,
# written (a, b, c, table) with a _RuleTable; the constraint builders return
# flat lists of them.


def _bitmasks(m: np.ndarray) -> list:
    """Nested lists of ints whose bit j is m[..., j], for a boolean array m."""
    words = -(-m.shape[-1] // 64)
    padded = np.zeros(m.shape[:-1] + (64 * words,), dtype=bool)
    padded[..., : m.shape[-1]] = m
    word = np.packbits(padded, axis=-1, bitorder="little").view("<u8").astype(object)
    masks = word[..., 0]
    for k in range(1, words):
        masks = masks | word[..., k] << 64 * k
    return masks.tolist()


def _pair_masks(p: np.ndarray, q: np.ndarray, v: np.ndarray, n: int) -> list:
    """masks[p][q] with bit v set for every entry (p, q, v) of the index arrays.

    Built a slab of p values at a time, so the dense support stays near 2^16
    booleans rather than n^3.
    """
    order = np.argsort(p, kind="stable")
    p, q, v = p[order], q[order], v[order]
    step = max(1, 2**16 // (n * n))
    masks: list = []
    for first in range(0, n, step):
        last = min(first + step, n)
        lo, hi = np.searchsorted(p, (first, last))
        support = np.zeros((last - first, n, n), dtype=bool)
        support[p[lo:hi] - first, q[lo:hi], v[lo:hi]] = True
        masks += _bitmasks(support)
    return masks


class _RuleTable:
    """A rule table tbl[a, b] == c, -1 where undefined, with what each engine
    derives from it, built when that engine first asks.

    For the bitset search, built by masks(): ab[a][b] is the c the table gives.  With c and b
    known, a lies in the mask cb[c][b]; with a and c known, b lies in
    ac[a][c].  With only slot s known to hold v, each other slot i lies in
    masks[v] for (i, masks) in given[s]; projections that are full filter
    nothing and are left out.

    For the lookup plan: lookups[i] gives slot i from the other two slots,
    indexed by them in the order _KEYS[i], -1 where no entry has them; it is
    None where some pair of them allows several values.  The coloring
    transport reads them as lookup_lists.  support(s, i)[u, w]
    says some entry holds u in slot s and w in slot i, and candidates lists
    the values one slot takes beside known ones.
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
        # plain attributes, not properties: the search reads them per equation
        self.ab: list | None = None
        self.cb: list = []
        self.ac: list = []
        self.given: tuple[list, list, list] = ([], [], [])

    def masks(self) -> None:
        """Build ab, cb, ac and given, once."""
        if self.ab is not None:
            return
        a, b, c = self.slots
        self.cb = _pair_masks(c, b, a, self.n)
        self.ac = _pair_masks(a, c, b, self.n)
        for s, i in ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)):
            seen = self.support(s, i)
            if not seen.all():
                self.given[s].append((i, _bitmasks(seen)))
        self.ab = self.tbl.tolist()

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


def _rule_tables(x: MCB | MCQ | FiniteGroup) -> dict[str, _RuleTable]:
    """The rule tables of x, built once per structure object and stored on it.

    The MCB vertex table is V[e1, e2] = (e1 over^-1 e2) . e2, so V[e1, e2] = e3
    says e1 = b over e2 and e3 = b . e2 for a block element b; the MCQ vertex
    table is prod.  Both are -1 across blocks.  A group's tables are its
    conjugation (the flow rule at crossings) and its product (at vertices).
    """
    tables = getattr(x, "_rule_tables", None)
    if tables is None:
        if isinstance(x, MCB):
            vertex = x.prod[x.over_inv, np.arange(x.n)[None, :]]
            tables = {"under": x.under, "over": x.over, "vertex": vertex}
        elif isinstance(x, MCQ):
            tables = {"star": x.star, "vertex": x.prod}
        else:
            tables = {"conj": x.conj_table(), "prod": x.cayley}
        tables = {name: _RuleTable(tbl) for name, tbl in tables.items()}
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
    eqs: list = []
    for c in d.crossings:
        oi, oo, ui, uo = _crossing_slots(c)
        eqs += [(ui, oo, uo, t["under"]), (oo, ui, oi, t["over"])]
    for v in d.vertices:
        eqs.append((v.e1, v.e2, v.e3, t["vertex"]))
    return eqs


def _arc_constraints(d: Diagram, arcs: dict[str, str], crossing, vertex) -> list:
    """crossing[ui, over] = uo and vertex[e1, e2] = e3 on the arcs of d."""
    eqs: list = []
    for c in d.crossings:
        _, _, ui, uo = _crossing_slots(c)
        eqs.append((arcs[ui], arcs[c.over_in], arcs[uo], crossing))
    for v in d.vertices:
        eqs.append((arcs[v.e1], arcs[v.e2], arcs[v.e3], vertex))
    return eqs


# -- the search engine ---------------------------------------------------------


def _propagate(dom: list[int], queue: list[int], var_eqs: list) -> bool:
    """Forward checking (Mackworth, AI 8, 1977) from the queued variables;
    False on an empty domain.

    A variable is known when its domain is a single bit.  In every equation of
    a queued variable, two known slots narrow the third to the values the table
    allows, and one known slot narrows the other two to its partners.  A domain
    that shrinks to one bit is queued in turn, so on success every equation
    whose slots are all known holds.  The equations are _Network.masks()'s
    flat records, unpacked in place.
    """
    while queue:
        for a, b, c, ab, cb, ac, ga, gb, gc in var_eqs[queue.pop()]:
            da, db, dc = dom[a], dom[b], dom[c]
            ka, kb, kc = not da & (da - 1), not db & (db - 1), not dc & (dc - 1)
            if ka and kb:
                want = ab[da.bit_length() - 1][db.bit_length() - 1]
                if want < 0 or not dc >> want & 1:
                    return False
                if not kc:
                    dom[c] = 1 << want
                    queue.append(c)
                continue
            if kb and kc:
                var, mask = a, cb[dc.bit_length() - 1][db.bit_length() - 1]
            elif ka and kc:
                var, mask = b, ac[da.bit_length() - 1][dc.bit_length() - 1]
            else:
                if ka:
                    v, given = da.bit_length() - 1, ga
                elif kb:
                    v, given = db.bit_length() - 1, gb
                elif kc:
                    v, given = dc.bit_length() - 1, gc
                else:
                    continue
                for var, masks in given:
                    d = dom[var]
                    new = d & masks[v]
                    if new != d:
                        if not new:
                            return False
                        dom[var] = new
                        if not new & (new - 1):
                            queue.append(var)
                continue
            d = dom[var]
            new = d & mask
            if new != d:
                if not new:
                    return False
                dom[var] = new
                if not new & (new - 1):
                    queue.append(var)
    return True


class _Network:
    """The integer-indexed constraint network of one (diagram, structure) pair.

    Variable i is the i-th name in sorted order; eqs holds every equation as
    (a, b, c, table) on variable indices, full the domain with every value
    possible, plans the lookup plans of hlcolor.plan compiled for it, by the
    set of known variables, and transports the schedules of
    moves.transport_coloring, by the names of the source coloring.  The
    search's equation records are built by masks().
    """

    def __init__(self, all_vars, domain_size: int, constraints):
        self.names = sorted(all_vars)
        self.index = {v: i for i, v in enumerate(self.names)}
        self.eqs = [(self.index[a], self.index[b], self.index[c], t) for a, b, c, t in constraints]
        self.full = (1 << domain_size) - 1
        self.plans: dict = {}
        self.transports: dict = {}
        self.records: list | None = None
        self.var_eqs: list[list] = []

    def masks(self) -> None:
        """Turn each equation into one flat record, once: (a, b, c, ab, cb, ac,
        ga, gb, gc) with the rule table's lists (see _RuleTable) and, for each
        slot, the (variable, masks) pairs that narrow when only that slot is
        known.  var_eqs[i] lists the records of the equations that mention
        variable i, sharing them."""
        if self.records is not None:
            return
        self.records = []
        self.var_eqs = [[] for _ in self.names]
        for a, b, c, t in self.eqs:
            t.masks()
            slots = (a, b, c)
            given = [[(slots[i], masks) for i, masks in t.given[s]] for s in range(3)]
            record = (a, b, c, t.ab, t.cb, t.ac, *given)
            self.records.append(record)
            for v in set(slots):
                self.var_eqs[v].append(record)


def _network(d: Diagram, x: MCB | MCQ | FiniteGroup) -> _Network:
    """The network of d's coloring rules for x, built once and stored on d.

    The first call for a structure object validates d.  The entry holds x
    itself, so it lives as long as d does and its id cannot be reused.
    """
    networks = getattr(d, "_networks", None)
    if networks is None:
        networks = d._networks = {}
    entry = networks.get(id(x))
    if entry is None:
        d.validate(allow_open=True)
        if isinstance(x, MCB):
            net = _Network(coloring_vars(d, False), x.n, _mcb_constraints(d, x))
        else:
            # an MCQ, or a group's shadows: conjugation at crossings, products at vertices
            t = _rule_tables(x)
            rules = (t["star"], t["vertex"]) if isinstance(x, MCQ) else (t["conj"], t["prod"])
            arcs = arcs_of(d)
            net = _Network(set(arcs.values()), x.n, _arc_constraints(d, arcs, *rules))
        entry = networks[id(x)] = (x, net)
    return entry[1]


class _Search:
    """Forward-checking search over one constraint network (see _Network).

    A domain is an int whose bit v says that value v is still possible.  After
    the fixed values and domains are propagated (_propagate), the unknown
    variables split into the connected components of the equations that
    still hold two or more of them; each component is searched on its own and
    the counts multiply.  The search branches on a variable of smallest
    domain, the first in sorted order on a tie, and tries its values in
    ascending order; _count and _solutions recurse on the propagated children
    directly.  ``nodes`` counts the values tried, over all components; past
    ``budget`` the search raises SizeBoundExceededError.  ``widest`` is the
    largest domain given, before fixed values and propagation; it picks the
    counting path.  A transport (moves.transport_coloring) runs it only when
    table lookups leave a variable open.
    """

    def __init__(self, net: _Network, fixed=None, domains=None, budget=None):
        self.net = net
        self.names = net.names
        index, full = net.index, net.full
        dom = [full] * len(self.names)
        for v, vals in (domains or {}).items():
            dom[index[v]] = sum(1 << val for val in set(vals)) & full
        for v, val in (fixed or {}).items():
            dom[index[v]] &= 1 << val
        self.widest = max(map(int.bit_count, dom), default=0) if domains else full.bit_length()
        self.budget = budget
        self.nodes = 0
        self.dom = dom if all(dom) and self._settle(dom) else None
        self.components = [] if self.dom is None else self._components(net.eqs)

    @classmethod
    def settled(cls, net: _Network, dom: list[int], eqs: list) -> _Search:
        """The search on domains that are already settled and propagated, as
        __init__ leaves them; eqs must hold every equation with an open
        variable."""
        self = cls.__new__(cls)
        self.net, self.names, self.dom = net, net.names, dom
        self.widest, self.budget, self.nodes = net.full.bit_length(), None, 0
        self.components = self._components(eqs)
        return self

    def _settle(self, dom: list[int]) -> bool:
        """Propagate the initial domains; False on a conflict.

        Equations whose three slots are known are checked here, once each;
        only the known variables that share an equation with an unknown one
        need to be queued, since narrowing starts from known slots alone.
        """
        if not any(not d & (d - 1) for d in dom):
            return True  # nothing is known, so nothing narrows
        self.net.masks()
        queue = set()
        for a, b, c, ab, *_ in self.net.records:
            da, db, dc = dom[a], dom[b], dom[c]
            ka, kb, kc = not da & (da - 1), not db & (db - 1), not dc & (dc - 1)
            if ka and kb and kc:
                if ab[da.bit_length() - 1][db.bit_length() - 1] != dc.bit_length() - 1:
                    return False
            elif ka or kb or kc:
                queue.update(v for v, k in ((a, ka), (b, kb), (c, kc)) if k)
        return _propagate(dom, sorted(queue), self.net.var_eqs)

    def _components(self, eqs: list) -> list[list[int]]:
        dom = self.dom
        parent = {i: i for i, d in enumerate(dom) if d & (d - 1)}
        if not parent:
            return []

        def root(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for eq in eqs:
            open_ = [v for v in eq[:3] if v in parent]
            for v in open_[1:]:
                parent[root(v)] = root(open_[0])
        groups: dict[int, list[int]] = {}
        for i in parent:
            groups.setdefault(root(i), []).append(i)
        return sorted(groups.values())

    def _tried(self) -> None:
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise SizeBoundExceededError(f"enumeration exceeded branch budget {self.budget}")

    def _count(self, dom: list[int], comp: list[int]) -> int:
        var = _branch_var(dom, comp)
        if var < 0:
            return 1
        total, d, var_eqs = 0, dom[var], self.net.var_eqs
        while d:
            bit = d & -d
            d ^= bit
            self._tried()
            child = dom[:]
            child[var] = bit
            if _propagate(child, [var], var_eqs):
                total += self._count(child, comp)
        return total

    def _solutions(self, dom: list[int], comp: list[int]):
        """Yield the values of comp in each solution below dom, in search order."""
        var = _branch_var(dom, comp)
        if var < 0:
            yield [dom[v].bit_length() - 1 for v in comp]
            return
        d, var_eqs = dom[var], self.net.var_eqs
        while d:
            bit = d & -d
            d ^= bit
            self._tried()
            child = dom[:]
            child[var] = bit
            if _propagate(child, [var], var_eqs):
                yield from self._solutions(child, comp)

    def count(self) -> int:
        self.net.masks()
        total = 0 if self.dom is None else 1
        for comp in self.components:
            total *= self._count(self.dom, comp)
            if not total:
                break
        return total

    def rows(self) -> np.ndarray:
        """Every solution as a row of its values in sorted variable order, the
        rows in lexicographic order, in the smallest unsigned dtype."""
        dtype = np.min_scalar_type(self.net.full.bit_length() - 1)
        if self.dom is None:
            return np.zeros((0, len(self.names)), dtype=dtype)
        self.net.masks()
        rows = np.array([[d.bit_length() - 1 for d in self.dom]], dtype=dtype)
        for comp in self.components:
            found = np.array(list(self._solutions(self.dom, comp)), dtype=dtype)
            # every row so far with every solution of comp
            rows = np.repeat(rows, len(found), axis=0)
            if len(found):
                rows[:, comp] = np.tile(found, (len(rows) // len(found), 1))
        return rows[np.lexsort(rows.T[::-1])] if rows.shape[1] else rows

    def assignments(self):
        """Yield every solution as a dict, in the order of rows()."""
        for row in self.rows().tolist():
            yield dict(zip(self.names, row))

    def unique(self) -> dict[str, int] | None:
        """The solution as a dict if there is exactly one, else None.

        Each component is searched only until a second solution turns up.
        """
        if self.dom is None:
            return None
        self.net.masks()
        dom = self.dom[:]
        for comp in self.components:
            found = list(islice(self._solutions(self.dom, comp), 2))
            if len(found) != 1:
                return None
            for v, val in zip(comp, found[0]):
                dom[v] = 1 << val
        return {name: d.bit_length() - 1 for name, d in zip(self.names, dom)}


def _branch_var(dom: list[int], comp: list[int]) -> int:
    """The open variable of comp with the smallest domain, the first on a tie;
    -1 when every variable of comp is known."""
    var, size = -1, 0
    for v in comp:
        d = dom[v]
        if d & (d - 1) and (var < 0 or d.bit_count() < size):
            var, size = v, d.bit_count()
    return var


# Counts whose widest domain is smaller take the search.  Timed over the 12
# corpus diagrams, parsed afresh as the CLI does, the search is faster at 6 and
# 10 elements, the two paths are mixed at 12 and 14, and the plan is faster
# from 18 on (2-core VM, Python 3.11, numpy 2.4).
_PLAN_MIN_DOMAIN = 16


def _report(
    d: Diagram, x, want_list: bool, fixed=None, domains=None, budget=None
) -> ColoringSetReport:
    net = _network(d, x)
    search = _Search(net, fixed, domains, budget)
    if want_list:
        out = [Coloring(x, assign) for assign in search.assignments()]
        return ColoringSetReport(count=len(out), colorings=out, nodes=search.nodes)
    if not fixed and search.dom is not None and search.widest >= _PLAN_MIN_DOMAIN:
        count, nodes = _plan_count(net, search, budget)
        return ColoringSetReport(count=count, nodes=nodes)
    return ColoringSetReport(count=search.count(), nodes=search.nodes)


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
    """All G-flows by constraint propagation over arcs, deterministic order."""
    search = _Search(_network(d, g), budget=budget)
    return [Flow(g, tuple(assign.items())) for assign in search.assignments()]


def _check_flow(
    d: Diagram, group: FiniteGroup, flow: Flow
) -> tuple[dict[str, str], dict[str, int]]:
    """d's semi-arc -> arc map and the flow as an arc -> element dict.

    Raises FlowInvalidError unless the flow is a G-flow of d.
    """
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
    return arcs, fd


def flow_domains(d: Diagram, f: GFamilyQ | GFamilyB, flow: Flow) -> tuple[MCB | MCQ, dict]:
    """The associated MCQ/MCB of f and the domains that keep each variable on
    the flow's group element; raises FlowInvalidError unless flow is a G-flow."""
    arcs, fd = _check_flow(d, f.group, flow)
    on_arcs = isinstance(f, GFamilyQ)
    x = associated_mcq(f) if on_arcs else associated_mcb(f)
    ng = f.group.n
    domains = {
        k: [i * ng + fd[k if on_arcs else arcs[k]] for i in range(f.n)]
        for k in _network(d, x).names
    }
    return x, domains


def colorings_by_flow(
    d: Diagram, f: GFamilyQ | GFamilyB, flow: Flow, want_list: bool = False, budget=None
) -> ColoringSetReport:
    """Colorings of the associated MCQ/MCB whose group projection equals the flow."""
    x, domains = flow_domains(d, f, flow)
    enumerate_ = enumerate_colorings_mcq if isinstance(f, GFamilyQ) else enumerate_colorings_mcb
    return enumerate_(d, x, want_list=want_list, domains=domains, budget=budget)


def coloring_rows(d: Diagram, x: MCB | MCQ, domains=None, budget=None) -> tuple[list[str], list]:
    """The variables in sorted order and every coloring as its values in that
    order, the rows in the order of a listing (want_list=True)."""
    search = _Search(_network(d, x), domains=domains, budget=budget)
    return search.names, search.rows()


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


def linear_colorings(d: Diagram, f: GFamilyQ | GFamilyB, flow: Flow) -> ColoringSetReport:
    """Flow-filtered colorings of an Alexander family via exact linear algebra.

    One linear equation over the family's coefficient ring per local rule;
    over a field the report carries the solution module's dimension and a
    basis (vectors indexed by sorted variable order).
    """
    from hlcolor.rings import solve_linear

    if getattr(f, "alexander", None) is None:
        raise ValueError("linear path requires an Alexander family")
    arcs, fd = _check_flow(d, f.group, flow)
    on_arcs = isinstance(f, GFamilyQ)
    vars_ = sorted(set(arcs.values()) if on_arcs else arcs)
    index = {v: i for i, v in enumerate(vars_)}
    if on_arcs:
        kind, ring, u = f.alexander
    else:
        kind, ring, t, s = f.alexander
    zero, one, neg_one = ring.zero, ring.one, ring.neg(ring.one)
    rows: list[list] = []
    rhs: list = []

    def row(*terms):
        r = [zero] * len(vars_)
        for var, coef in terms:
            i = index[var]
            r[i] = coef if r[i] == zero else ring.add(r[i], coef)
        rows.append(r)
        rhs.append(zero)

    def powers(x):
        """x^h for h = 0, 1, ..., |G| - 1."""
        out = [one]
        for _ in range(f.group.n - 1):
            out.append(ring.mul(out[-1], x))
        return out

    # the row coefficients -u^h, u^h - 1, -t^h, -s^h and t^h - s^h for each h in G
    if on_arcs:
        u_pows = powers(u)
        neg_u = [ring.neg(p) for p in u_pows]
        u_minus_one = [ring.sub(p, one) for p in u_pows]
    else:
        t_pows, s_pows = powers(t), powers(s)
        neg_t = [ring.neg(p) for p in t_pows]
        neg_s = [ring.neg(p) for p in s_pows]
        t_minus_s = [ring.sub(tp, sp) for tp, sp in zip(t_pows, s_pows)]
    for c in d.crossings:
        h = fd[arcs[c.over_in]]
        if on_arcs:
            a_in, a_out, a_ov = arcs[c.under_in], arcs[c.under_out], arcs[c.over_in]
            src, dst = (a_in, a_out) if c.sign > 0 else (a_out, a_in)
            # dst = u^h src + (1 - u^h) over
            row((dst, one), (src, neg_u[h]), (a_ov, u_minus_one[h]))
        elif c.sign > 0:
            g = fd[arcs[c.under_in]]
            # uo = t^h ui + (s^h - t^h) oo ;  oi = s^g oo
            row((c.under_out, one), (c.under_in, neg_t[h]), (c.over_out, t_minus_s[h]))
            row((c.over_in, one), (c.over_out, neg_s[g]))
        else:
            g = fd[arcs[c.under_out]]
            row((c.under_in, one), (c.under_out, neg_t[h]), (c.over_in, t_minus_s[h]))
            row((c.over_out, one), (c.over_in, neg_s[g]))
    for v in d.vertices:
        if on_arcs:
            a1, a2, a3 = arcs[v.e1], arcs[v.e2], arcs[v.e3]
            if a1 != a2:
                row((a1, one), (a2, neg_one))
            if a3 != a2:
                row((a3, one), (a2, neg_one))
        else:
            # e1 = b over e2 and e3 = b . e2:  x_e1 = s^{flow(e2)} x_e2, x_e3 = x_e2
            row((v.e1, one), (v.e2, neg_s[fd[arcs[v.e2]]]))
            row((v.e3, one), (v.e2, neg_one))
    if not rows:
        rows = [[zero] * len(vars_)]
        rhs = [zero]
    sol = solve_linear(ring, rows, rhs)
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
