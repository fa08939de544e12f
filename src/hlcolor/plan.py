"""The compiled plan that solves a constraint network (coloring._Network:
equations tbl[a, b] == c on integer variables), and its two executors.

One compiler turns a network and a set of fixed variables into levels, kept
in the network's ``plans``.  Each level branches one variable over the values
a rule table allows beside its placed neighbours, places every variable a
single-valued lookup then fixes, and checks every equation whose three slots
are placed.  The variable branched next is the open one in the most
equations with a placed variable, the first to appear in the equations on a
tie, so the plan depends on the order of a diagram's records and not on its
names.  The compiler walks the open variables once: a component of them ends
when no open variable shares an equation with one of its variables, and each
component has levels of its own; the components' counts multiply.  It writes
each level in the form of the executor that runs it.

The depth-first executor counts, lists and extends colorings one value at a
time, on nested lists; a coloring transport (moves.transport_coloring) runs
it on the plan for the kept variables.  The row executor counts on large
structures: the partial colorings of one component are the rows of a numpy
array, column j holding variable j, and each level expands every row at
once, then keeps the rows its lookups and checks allow.  Both run the same
levels, so they give the same count.

A count or listing by one G-flow (``on_fibres``) takes the row executor's
plan of the associated structure and swaps each table for its fibre at the
flow, then runs the result on either executor.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from hlcolor.rings import SizeBoundExceededError

_BLOCK_ROWS = 4096  # a level past this many rows runs slice by slice

# the two slots that determine slot i of tbl[a, b] == c, in the order a lookup
# of slot i is indexed by: a from (c, b), b from (a, c), c from (a, b)
KEYS = {0: (2, 1), 1: (0, 2), 2: (0, 1)}


def getter(keys: list):
    """itemgetter(*keys), returning a tuple however many keys there are."""
    if len(keys) > 1:
        return itemgetter(*keys)
    return lambda items: tuple(items[k] for k in keys)


# -- the compiler -------------------------------------------------------------------


class _Levels:
    """The plan of one network given its fixed variables, in one executor's form.

    ``prefix`` is the (lookups, checks) that run once the fixed values are
    in; ``parts`` holds each component's (variables, levels, take), take
    reading the component's values from a full assignment.  A level is
    (var, source, lookups, checks).  In the row executor's form var takes
    the values of source, which is (table, keys, slot, a, b) for the values
    slot ``slot`` of a rule table (coloring._RuleTable) takes beside the
    values of variables a and b in the slots keys (b is -1 for one key), or
    None for every value; each lookup (table, slot, a, b, c) sets c to the
    one value that slot takes beside a and b, in the slots KEYS[slot]; each
    check (table, a, b, c) asks table[a, b] == c.  In the depth-first form
    (``lists``) the tables are nested lists: a source is (lists, a, b),
    where var takes lists[vals[a]] (lists[vals[a]][vals[b]]), and each lookup
    and check is (lists, a, b, c) on lists[vals[a]][vals[b]].

    A lookup or check holds the variables of its equation's three slots; a
    source holds two at most, so ``sources`` names, part by part and level
    by level, the variables in slots 0 and 1 of the source's equation, or
    None for no source.
    """

    def __init__(self, n: int, size: int, prefix: tuple, parts: list, sources: list):
        self.n, self.size = n, size
        self.full = [True] * n + [False]  # index -1, an undefined entry, is never allowed
        self.prefix, self.parts, self.sources = prefix, parts, sources


class _Placer:
    """What the compiler has placed so far: the variables, the equations done
    (checked, or held by construction), per variable the number of its
    equations that hold a placed variable, and the open variables that share
    an equation with a variable of the current component (``near``)."""

    def __init__(self, net, fixed: frozenset, lists: bool):
        self.net, self.lists = net, lists
        self.placed, self.done, self.near = set(fixed), set(), set()
        self.touched = [False] * len(net.eqs)
        self.score = [0] * len(net.names)

    def settle(self, new: list[int]) -> tuple[list, list]:
        """Place every variable that lookups fix once new is placed: the
        lookups, and the checks of the equations they leave placed in full."""
        eqs, placed, done = self.net.eqs, self.placed, self.done
        touched, score, lists = self.touched, self.score, self.lists
        lookups, checks, queue = [], [], list(new)
        for v in queue:
            for e in self.net.var_eqs[v]:
                if e in done:
                    continue
                a, b, c, t = slots = eqs[e]
                if not touched[e]:
                    touched[e] = True
                    score[a] += 1
                    score[b] += b != a
                    score[c] += c != a and c != b
                known = (a in placed, b in placed, c in placed)
                if all(known):
                    done.add(e)
                    checks.append((t.lookup_lists[2], a, b, c) if lists else (t, a, b, c))
                    continue
                i = known.index(False)
                if sum(known) == 2 and t.lookups[i] is not None:
                    k, m = KEYS[i]
                    w = slots[i]
                    lookups.append((t.lookup_lists[i], slots[k], slots[m], w) if lists
                                   else (t, i, slots[k], slots[m], w))
                    placed.add(w)
                    done.add(e)
                    queue.append(w)
                else:
                    self.near.update(slots[:3])
        return lookups, checks

    def branch_var(self, left: list[int]) -> int:
        """The open variable in the most equations with a placed one, the
        first in left on a tie."""
        return max(left, key=self.score.__getitem__)

    def source(self, var: int) -> tuple:
        """Where var takes its values, the rule-table slot with the fewest
        values expected beside var's placed neighbours, and the variables in
        slots 0 and 1 of its equation; (None, None) if there is none."""
        net, placed, n = self.net, self.placed, self.net.n
        source, fan = None, n
        for e in net.var_eqs[var]:
            a, b, c, t = slots = net.eqs[e]
            if (a, b, c).count(var) != 1:
                continue
            i = slots.index(var)
            k, m = KEYS[i]
            if slots[k] in placed and slots[m] in placed:
                keys, guess = (k, m), t.density / t.share(k, m)
            elif slots[k] in placed or slots[m] in placed:
                keys = (k,) if slots[k] in placed else (m,)
                guess = t.share(keys[0], i) * n
            else:
                continue
            if guess < fan:
                source, fan = (e, keys, i), guess
        if source is None:
            return None, None
        e, keys, i = source
        slots = net.eqs[e]
        t, a, b = slots[3], slots[keys[0]], -1
        if len(keys) == 2:
            b = slots[keys[1]]
            self.done.add(e)  # the candidates satisfy it
        if self.lists:
            return (t.candidate_lists(keys, i), a, b), slots[:2]
        return (t, keys, i, a, b), slots[:2]

    def parts(self) -> tuple[list, list]:
        """Walk the open variables once, in the order of the network's
        records; a component ends when no open variable shares an equation
        with one of its variables, and the next starts.  Returns the parts
        and the slot-0 and slot-1 variables of their sources (_Levels)."""
        placed = self.placed
        left = [v for v in self.net.order if v not in placed]
        parts, sources = [], []
        while left:
            near = [v for v in left if v in self.near]
            if not near:
                comp, levels, named = [], [], []
                parts.append((comp, levels))
                sources.append(named)
            var = self.branch_var(near or left)
            source, ab = self.source(var)
            named.append(ab)
            placed.add(var)
            lookups, checks = self.settle([var])
            levels.append((var, source, lookups, checks))
            comp.append(var)
            comp += [lookup[-1] for lookup in lookups]
            left = [v for v in left if v not in placed]
        return [(comp, levels, getter(comp)) for comp, levels in parts], sources


def _levels(net, fixed: frozenset, lists: bool = True) -> _Levels:
    """The network's plan for the fixed variables, compiled once per set of
    them for the depth-first executor and once, with nothing fixed, for the
    row executor, kept under None."""
    key = fixed if lists else None
    plan = net.plans.get(key)
    if plan is None:
        placer = _Placer(net, fixed, lists)
        prefix = placer.settle([v for v in net.order if v in fixed])
        placer.near.clear()  # the fixed variables belong to no component
        plan = net.plans[key] = _Levels(net.n, len(net.names), prefix, *placer.parts())
    return plan


# -- the depth-first executor --------------------------------------------------------


class _Enough(Exception):
    """A listing has found as many solutions as it was asked for."""


def depth_first(net, fixed=None, domains=None, budget=None) -> _Run:
    """A depth-first run of the network's plan for the fixed variables; fixed
    maps names to values and domains maps names to the values they may take."""
    fixed = {net.index[v]: u for v, u in (fixed or {}).items()}
    plan = _levels(net, frozenset(fixed))
    return _Run(plan, fixed, {net.index[v]: vals for v, vals in (domains or {}).items()}, budget)


class _Run:
    """One pass over a plan: a count or the rows.

    A domain is a list of n + 1 booleans, false at -1; it filters the values
    a level branches on and the values its lookups give.  ``nodes`` counts
    the values tried, over all components; past ``budget`` a run raises
    SizeBoundExceededError.
    """

    def __init__(self, plan: _Levels, fixed: dict, domains: dict, budget=None):
        self.plan, self.fixed, self.budget = plan, fixed, budget
        self.prefix, self.parts = plan.prefix, plan.parts
        self.n, self.full = plan.n, plan.full
        self.nodes = 0
        self.dom = [plan.full] * plan.size
        for v, values in domains.items():
            allowed = self.dom[v] = [False] * (plan.n + 1)
            for u in values:
                if 0 <= u < plan.n:
                    allowed[u] = True
        self.vals = [0] * plan.size
        self.out: list | None = None  # where a listing collects its solutions

    def _start(self) -> bool:
        """Place the fixed values and run the prefix; False on a conflict."""
        vals, dom = self.vals, self.dom
        for v, u in self.fixed.items():
            if not 0 <= u < self.n or not dom[v][u]:
                return False
            vals[v] = u
        lookups, checks = self.prefix
        for table, a, b, c in lookups:
            u = table[vals[a]][vals[b]]
            if not dom[c][u]:
                return False
            vals[c] = u
        return all(table[vals[a]][vals[b]] == vals[c] for table, a, b, c in checks)

    def _walk(self, levels: list, i: int) -> int:
        """The number of solutions of levels[i:] beside the values placed so
        far; a listing appends each to ``out``."""
        var, source, lookups, checks = levels[i]
        vals, dom = self.vals, self.dom
        if source is None:
            values = range(self.n)
        else:
            lists, a, b = source
            values = lists[vals[a]] if b < 0 else lists[vals[a]][vals[b]]
        allowed = dom[var]
        if allowed is not self.full:
            values = [u for u in values if allowed[u]]
        self.nodes += len(values)
        if self.budget is not None and self.nodes > self.budget:
            raise SizeBoundExceededError(f"enumeration exceeded branch budget {self.budget}")
        i += 1
        last = i == len(levels)
        out = self.out
        if last and out is None and not lookups and not checks:
            return len(values)
        total = 0
        for u in values:
            vals[var] = u
            for table, a, b, c in lookups:
                w = table[vals[a]][vals[b]]
                if not dom[c][w]:
                    break
                vals[c] = w
            else:
                for table, a, b, c in checks:
                    if table[vals[a]][vals[b]] != vals[c]:
                        break
                else:
                    if not last:
                        total += self._walk(levels, i)
                    else:
                        total += 1
                        if out is not None:
                            out.append(self.take(vals))
                            if len(out) == self.limit:
                                raise _Enough
        return total

    def _solutions(self, levels: list, take, limit: int = 0) -> list[tuple]:
        """take(vals) for each solution of the levels, up to limit if set."""
        self.out, self.take, self.limit = [], take, limit
        try:
            self._walk(levels, 0)
        except _Enough:
            pass
        found, self.out = self.out, None
        return found

    def count(self) -> int:
        if not self._start():
            return 0
        total = 1
        for _, levels, _ in self.parts:
            total *= self._walk(levels, 0)
            if not total:
                break
        return total

    def rows(self) -> np.ndarray:
        """Every solution as a row of its values in variable order, the rows
        in lexicographic order, in the smallest unsigned dtype."""
        dtype = np.min_scalar_type(self.n - 1)
        if not self._start():
            return np.zeros((0, self.plan.size), dtype=dtype)
        rows = np.array([self.vals], dtype=dtype)
        for comp, levels, take in self.parts:
            found = np.array(self._solutions(levels, take), dtype=dtype).reshape(-1, len(comp))
            # every row so far with every solution of comp
            rows = np.repeat(rows, len(found), axis=0)
            if not len(rows):
                break
            rows[:, comp] = np.tile(found, (len(rows) // len(found), 1))
        return rows[np.lexsort(rows.T[::-1])] if rows.shape[1] else rows


def extend(plan: _Levels, vals: list[int]) -> list[int] | None:
    """vals, which holds the fixed values in their places, completed to the
    plan's unique solution, or None if there is none or more than one.  The
    prefix rejects where a lookup finds no entry or a check fails; each
    component is walked only up to a second solution."""
    lookups, checks = plan.prefix
    for table, a, b, c in lookups:
        u = table[vals[a]][vals[b]]
        if u < 0:
            return None
        vals[c] = u
    for table, a, b, c in checks:
        if table[vals[a]][vals[b]] != vals[c]:
            return None
    if plan.parts:
        run = _Run(plan, {}, {})
        run.vals = vals
        for comp, levels, take in plan.parts:
            found = run._solutions(levels, take, limit=2)
            if len(found) != 1:
                return None
            for v, u in zip(comp, found[0]):
                vals[v] = u
    return vals


# -- the row executor ----------------------------------------------------------------


class _RowCount:
    """One count over the plan with nothing fixed, on numpy rows.

    A domain is a boolean mask of n + 1 entries, false at -1; it filters the
    values a level expands into and the values its lookups give.  ``nodes``
    counts the rows each level keeps after its lookups and checks, over all
    components; past ``budget`` a count raises SizeBoundExceededError.
    """

    def __init__(self, plan: _Levels, domains: dict, budget=None):
        self.plan, self.budget = plan, budget
        self.nodes = 0
        self.masks = {}
        for v, values in domains.items():
            mask = self.masks[v] = np.zeros(plan.n + 1, dtype=bool)
            mask[[u for u in values if 0 <= u < plan.n]] = True

    def count(self) -> int:
        total = 1
        dtype = np.min_scalar_type(self.plan.n - 1)
        for _, levels, _ in self.plan.parts:
            total *= self._run(levels, 0, np.zeros((1, self.plan.size), dtype=dtype))
            if not total:
                break
        return total

    def _run(self, levels: list, i: int, rows: np.ndarray) -> int:
        n, masks = self.plan.n, self.masks
        while i < len(levels) and len(rows):
            var, source, lookups, checks = levels[i]
            mask = masks.get(var)
            if source is None:
                values = np.arange(n, dtype=rows.dtype) if mask is None else np.flatnonzero(mask)
                counts = np.full(len(rows), len(values))
            else:
                table, keys, slot, a, b = source
                start, values = table.candidates(keys, slot)
                key = rows[:, a].astype(np.intp)
                if b >= 0:
                    key = key * n + rows[:, b]
                lo = start[key]
                counts = start[key + 1] - lo
            ends = np.cumsum(counts)
            total = int(ends[-1])
            if total > _BLOCK_ROWS and len(rows) > 1:
                cuts = [0]
                while cuts[-1] < len(rows):
                    done = int(ends[cuts[-1] - 1]) if cuts[-1] else 0
                    cut = int(np.searchsorted(ends, done + _BLOCK_ROWS, side="right"))
                    cuts.append(max(cut, cuts[-1] + 1))
                return sum(self._run(levels, i, rows[a:b]) for a, b in zip(cuts, cuts[1:]))
            if source is None:
                new = np.tile(values, len(rows))
            else:
                new = values[np.repeat(lo - ends + counts, counts) + np.arange(total)]
            rows = np.repeat(rows, counts, axis=0)
            rows[:, var] = new
            if mask is not None and source is not None:
                rows = rows[mask[new]]
            for table, slot, a, b, c in lookups:
                got = table.lookups[slot][rows[:, a], rows[:, b]]
                ok = masks[c][got] if c in masks else got >= 0
                if not ok.all():
                    rows, got = rows[ok], got[ok]
                rows[:, c] = got
            ok = None
            for table, a, b, c in checks:
                hit = table.tbl[rows[:, a], rows[:, b]] == rows[:, c]
                ok = hit if ok is None else ok & hit
            if ok is not None:
                rows = rows[ok]
            self.nodes += len(rows)
            if self.budget is not None and self.nodes > self.budget:
                raise SizeBoundExceededError(f"enumeration exceeded branch budget {self.budget}")
            i += 1
        return len(rows)


def count(net, domains=None, budget=None) -> tuple[int, int]:
    """(count, nodes) of the network's solutions inside the domains (name ->
    values), by the row executor on the plan with nothing fixed.

    nodes is the number of rows each level keeps after its lookups and
    checks; past budget the count raises SizeBoundExceededError.
    """
    plan = _levels(net, frozenset(), lists=False)
    run = _RowCount(plan, {net.index[v]: vals for v, vals in (domains or {}).items()}, budget)
    return run.count(), run.nodes


# -- runs on fibres ------------------------------------------------------------------

# the places in a row-form lookup (table, slot, a, b, c) of the variables in
# slots 0 and 1 of its equation, by slot: a and b fill the slots KEYS[slot],
# and c fills slot itself
_LOOKUP_AB = {i: tuple(2 + keys.index(s) if s in keys else 4 for s in (0, 1))
              for i, keys in KEYS.items()}


def on_fibres(net, flow: list[int], ng: int, lists: bool, budget=None) -> _Run | _RowCount:
    """A run of the row executor's plan of the network of an associated MCB
    or MCQ (hlcolor.gfamily) with each table swapped for its fibre at the
    flow: on the depth-first executor if lists, else on the row executor.

    flow holds each variable's group element in a group of ng elements; an
    equation reads its table's fibre (coloring._RuleTable.fibre) at the
    elements of its slot-0 and slot-1 variables, and value i of a variable
    stands for i * ng + its element.
    """
    plan = _levels(net, frozenset(), lists=False)
    parts = []
    for (comp, levels, take), sources in zip(plan.parts, plan.sources):
        out = []
        for (var, source, lookups, checks), ab in zip(levels, sources):
            if source is not None:
                t, keys, slot, a, b = source
                t = t.fibre(flow[ab[0]], flow[ab[1]], ng)
                source = (t.candidate_lists(keys, slot), a, b) if lists else (t, keys, slot, a, b)
            fibred = []
            for lookup in lookups:
                t, slot, *abc = lookup
                p, q = _LOOKUP_AB[slot]
                t = t.fibre(flow[lookup[p]], flow[lookup[q]], ng)
                fibred.append((t.lookup_lists[slot], *abc) if lists else (t, slot, *abc))
            checks = [(t.fibre(flow[a], flow[b], ng), a, b, c) for t, a, b, c in checks]
            if lists:
                checks = [(t.lookup_lists[2], a, b, c) for t, a, b, c in checks]
            out.append((var, source, fibred, checks))
        parts.append((comp, out, take))
    levels = _Levels(net.n // ng, len(net.names), ([], []), parts, plan.sources)
    return _Run(levels, {}, {}, budget) if lists else _RowCount(levels, {}, budget)
