"""The compiled plans that solve a constraint network (coloring._Network:
equations tbl[a, b] == c on integer variables), kept in the network's
``plans``.

A depth-first plan, compiled once per set of fixed variables, counts, lists
and extends colorings one value at a time on nested lists.  Each level
branches one variable over the values a rule table allows beside its placed
neighbours, places every variable a single-valued lookup then fixes, and
checks every equation whose three slots are placed.  The variable branched
next is the open one in the most equations with a placed variable, the first
to appear in the equations on a tie, so the plan depends on the order of a
diagram's records and not on its names.

A row plan counts on large structures.  The partial colorings of one
component are the rows of a numpy array, grown a variable at a time.  A
variable whose equation has its other two slots in the rows is a lookup,
through an inverse table when the rule is single-valued in its slot.
Otherwise the plan expands the next variable into the values that occur
beside one or two known slots, and keeps the rows that every equation of the
new variable still allows beside one other known slot.  The joins are exact,
so the count equals the depth-first plan's.

Both plans solve each connected component of the open variables on its own;
the components' counts multiply.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from hlcolor.rings import SizeBoundExceededError

_BLOCK_ROWS = 4096  # an expansion past this many rows runs slice by slice

# the two slots that determine slot i of tbl[a, b] == c, in the order a lookup
# of slot i is indexed by: a from (c, b), b from (a, c), c from (a, b)
KEYS = {0: (2, 1), 1: (0, 2), 2: (0, 1)}


def components(net, open_) -> list[list[int]]:
    """The connected components of the open variables under the network's
    equations, each sorted, in sorted order."""
    left = set(open_)
    comps = []
    for v in sorted(left):
        if v not in left:
            continue
        left.discard(v)
        comp = [v]
        for u in comp:
            for e in net.var_eqs[u]:
                for w in net.eqs[e][:3]:
                    if w in left:
                        left.discard(w)
                        comp.append(w)
        comps.append(sorted(comp))
    return comps


def getter(keys: list):
    """itemgetter(*keys), returning a tuple however many keys there are."""
    if len(keys) > 1:
        return itemgetter(*keys)
    return lambda items: tuple(items[k] for k in keys)


# -- the depth-first plan ------------------------------------------------------------


class _Enough(Exception):
    """A listing has found as many solutions as it was asked for."""


class _DepthFirst:
    """The depth-first plan of one network given its fixed variables.

    ``prefix`` is the (lookups, checks) that run once the fixed values are
    in; ``parts`` holds each component's variables and levels.  A level is
    (var, source, lookups, checks): var takes the values of source, which is
    (lists, a, b) for the candidate lists of a rule table indexed by the
    values of variables a and b (b is -1 for one key), or None for every
    value.  Each lookup (table, a, b, c) sets c to table[a][b]; each check
    (table, a, b, c) asks table[a][b] == c, on the nested lists of the rule
    tables (coloring._RuleTable).
    """

    def __init__(self, net, fixed: frozenset):
        self.n, self.size = net.n, len(net.names)
        self.full = [True] * net.n + [False]  # index -1, an undefined entry, is never allowed
        self.dtype = np.min_scalar_type(net.n - 1)
        placer = _Placer(net, fixed)
        self.prefix = placer.settle(sorted(fixed, key=net.rank.__getitem__))
        open_ = [v for v in range(self.size) if v not in placer.placed]
        comps = components(net, open_)
        comps.sort(key=lambda comp: min(net.rank[v] for v in comp))
        self.parts = [(comp, placer.levels(comp)) for comp in comps]


class _Placer:
    """What a depth-first plan has placed while it compiles: the variables,
    the equations done (checked, or held by construction) and, per variable,
    the number of its equations that hold a placed variable."""

    def __init__(self, net, fixed: frozenset):
        self.net = net
        self.placed, self.done = set(fixed), set()
        self.touched = [False] * len(net.eqs)
        self.score = [0] * len(net.names)

    def settle(self, new: list[int]) -> tuple[list, list]:
        """Place every variable that lookups fix once new is placed: the
        lookups, and the checks of the equations they leave placed in full."""
        eqs, placed, done = self.net.eqs, self.placed, self.done
        touched, score = self.touched, self.score
        lookups, checks, queue = [], [], list(new)
        for v in queue:
            for e in self.net.var_eqs[v]:
                if e in done:
                    continue
                a, b, c, t = eqs[e]
                if not touched[e]:
                    touched[e] = True
                    score[a] += 1
                    score[b] += b != a
                    score[c] += c != a and c != b
                known = (a in placed, b in placed, c in placed)
                if all(known):
                    done.add(e)
                    checks.append((t.lookup_lists[2], a, b, c))
                    continue
                i = known.index(False)
                if sum(known) == 2 and t.lookup_lists[i] is not None:
                    k, m = KEYS[i]
                    slots = (a, b, c)
                    lookups.append((t.lookup_lists[i], slots[k], slots[m], slots[i]))
                    placed.add(slots[i])
                    done.add(e)
                    queue.append(slots[i])
        return lookups, checks

    def levels(self, comp: list[int]) -> list[tuple]:
        net, placed, n = self.net, self.placed, self.net.n
        levels = []
        left = sorted(comp, key=net.rank.__getitem__)
        while left:
            # the open variable in the most equations with a placed one
            var = max(left, key=self.score.__getitem__)
            source, fan = None, n
            for e in net.var_eqs[var]:
                a, b, c, t = net.eqs[e]
                slots = (a, b, c)
                if slots.count(var) != 1:
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
            if source is not None:
                e, keys, i = source
                slots = net.eqs[e]
                source = (slots[3].candidate_lists(keys, i), slots[keys[0]],
                          slots[keys[1]] if len(keys) == 2 else -1)
                if len(keys) == 2:
                    self.done.add(e)  # the candidates satisfy it
            placed.add(var)
            levels.append((var, source, *self.settle([var])))
            left = [v for v in left if v not in placed]
        return levels


def depth_first(net, fixed=None, domains=None, budget=None) -> _Run:
    """A run of the network's depth-first plan for the fixed variables, which
    is compiled once per set of them; fixed maps names to values and domains
    maps names to the values they may take."""
    fixed = {net.index[v]: u for v, u in (fixed or {}).items()}
    key = frozenset(fixed)
    plan = net.plans.get(key)
    if plan is None:
        plan = net.plans[key] = _DepthFirst(net, key)
    return _Run(plan, fixed, {net.index[v]: vals for v, vals in (domains or {}).items()}, budget)


class _Run:
    """One pass over a depth-first plan: a count, the rows or the unique solution.

    A domain is a list of n + 1 booleans, false at -1; it filters the values
    a level branches on and the values its lookups give.  ``nodes`` counts
    the values tried, over all components; past ``budget`` a run raises
    SizeBoundExceededError.
    """

    def __init__(self, plan: _DepthFirst, fixed: dict, domains: dict, budget=None):
        self.plan, self.fixed, self.budget = plan, fixed, budget
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
        lookups, checks = self.plan.prefix
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

    def _solutions(self, comp: list[int], levels: list, limit: int = 0) -> list[tuple]:
        """The values of comp in each solution of its levels, up to limit if set."""
        self.out, self.take, self.limit = [], getter(comp), limit
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
        for _, levels in self.plan.parts:
            total *= self._walk(levels, 0)
            if not total:
                break
        return total

    def rows(self) -> np.ndarray:
        """Every solution as a row of its values in variable order, the rows
        in lexicographic order, in the smallest unsigned dtype."""
        dtype = self.plan.dtype
        if not self._start():
            return np.zeros((0, self.plan.size), dtype=dtype)
        rows = np.array([self.vals], dtype=dtype)
        for comp, levels in self.plan.parts:
            found = np.array(self._solutions(comp, levels), dtype=dtype).reshape(-1, len(comp))
            # every row so far with every solution of comp
            rows = np.repeat(rows, len(found), axis=0)
            if not len(rows):
                break
            rows[:, comp] = np.tile(found, (len(rows) // len(found), 1))
        return rows[np.lexsort(rows.T[::-1])] if rows.shape[1] else rows

    def unique(self) -> list[int] | None:
        """Every variable's value if there is exactly one solution, else None;
        each component stops at a second solution."""
        if not self._start():
            return None
        for comp, levels in self.plan.parts:
            found = self._solutions(comp, levels, limit=2)
            if len(found) != 1:
                return None
            for v, u in zip(comp, found[0]):
                self.vals[v] = u
        return self.vals


# -- the row plan -------------------------------------------------------------------


@dataclass
class _Step:
    """One step of a plan, on rows whose column j holds the variable placed j-th.

    An expansion first joins ``var`` through ``source``: (start, values,
    columns) from coloring._RuleTable.candidates, or None for its whole
    domain.  Then each lookup (array, cols_a, cols_b) appends the columns
    array[a, b] and drops rows where one is -1, and each check (array,
    cols_a, cols_b, cols_c) keeps the rows where array[a, b] == c, or where
    array[a, b] is true when cols_c is None.  ``new`` lists the (variable,
    column) pairs it places.
    """

    lookups: list
    checks: list
    new: list
    var: int = -1
    source: tuple | None = None


class _PartBuilder:
    """Compiles the steps of one component; ``rows`` estimates the rows left
    after the steps so far, each filter scaling it by the share it keeps."""

    def __init__(self, net):
        self.eqs, self.var_eqs, self.n = net.eqs, net.var_eqs, net.n
        self.col: dict[int, int] = {}
        self.state = [0] * len(net.eqs)  # 0 open, 1 its pair checked, 2 done
        self.rows = 1.0
        self.steps: list[_Step] = []

    def trial(self) -> _PartBuilder:
        """A copy to try an expansion on, with no steps of its own."""
        other = copy.copy(self)
        other.col, other.state, other.steps = dict(self.col), self.state[:], []
        return other

    def _place(self, v: int, step: _Step) -> None:
        self.col[v] = len(self.col)
        step.new.append((v, self.col[v]))

    def _check(self, placed, step: _Step) -> None:
        """Filter by every open equation of the placed variables that is now
        known in all three slots, or in two slots that no lookup can extend."""
        col, n = self.col, self.n
        full: dict = {}
        pairs: dict = {}
        for e in sorted({e for v in placed for e in self.var_eqs[v]}):
            if self.state[e] == 2:
                continue
            *slots, t = self.eqs[e]
            unknown = [i for i in range(3) if slots[i] not in col]
            if not unknown:
                self.state[e] = 2
                self.rows *= t.density / n
                cols = full.setdefault(id(t), (t.tbl, [], [], []))
                for k in range(3):
                    cols[k + 1].append(col[slots[k]])
            elif len(unknown) == 1 and not self.state[e] and t.lookups[unknown[0]] is None:
                self.state[e] = 1
                k, m = KEYS[unknown[0]]
                if t.share(k, m) < 1:
                    self.rows *= t.share(k, m)
                    cols = pairs.setdefault((id(t), k, m), (t.support(k, m), [], [], None))
                    cols[1].append(col[slots[k]])
                    cols[2].append(col[slots[m]])
        step.checks += list(full.values()) + list(pairs.values())

    def settle(self, placed) -> None:
        """Append lookup levels until no variable is a lookup."""
        col = self.col
        while placed:
            found: dict[int, tuple] = {}
            for e in sorted({e for v in placed for e in self.var_eqs[v]}):
                if self.state[e] == 2:
                    continue
                *slots, t = self.eqs[e]
                unknown = [i for i in range(3) if slots[i] not in col]
                if len(unknown) == 1 and slots[unknown[0]] not in found:
                    if t.lookups[unknown[0]] is not None:
                        found[slots[unknown[0]]] = (e, unknown[0])
            step = _Step([], [], [])
            groups: dict = {}
            for v, (e, i) in found.items():
                *slots, t = self.eqs[e]
                self.state[e] = 2
                self.rows *= t.density
                k, m = KEYS[i]
                groups.setdefault((id(t), i), (t.lookups[i], [], [], []))
                groups[id(t), i][1].append(col[slots[k]])
                groups[id(t), i][2].append(col[slots[m]])
                groups[id(t), i][3].append(v)
            for table, cols_a, cols_b, made in groups.values():
                step.lookups.append((table, cols_a, cols_b))
                for v in made:
                    self._place(v, step)
            placed = [v for _, _, _, made in groups.values() for v in made]
            if placed:
                self._check(placed, step)
                self.steps.append(step)

    def expand(self, v: int) -> None:
        """Append the expansion of v through its fewest candidates, then settle."""
        col, n = self.col, self.n
        best, fan = None, float(n)
        for e in self.var_eqs[v]:
            if self.state[e] == 2:
                continue
            *slots, t = self.eqs[e]
            if slots.count(v) != 1:
                continue
            i = slots.index(v)
            keys = tuple(k for k in KEYS[i] if slots[k] in col)
            if not keys:
                continue
            guess = t.density if len(keys) == 2 else t.share(keys[0], i) * n
            if guess < fan:
                best, fan = (e, keys, i), guess
        step = _Step([], [], [], var=v)
        if best is not None:
            e, keys, i = best
            *slots, t = self.eqs[e]
            start, values = t.candidates(keys, i)
            step.source = (start, values, [col[slots[k]] for k in keys])
            self.state[e] = 2 if len(keys) == 2 else 1
        self.rows *= fan
        self._place(v, step)
        self._check([v], step)
        self.steps.append(step)
        self.settle([v])


def _compile_part(net, comp: list[int]) -> list[_Step]:
    """The steps that count one component."""
    builder = _PartBuilder(net)
    while len(builder.col) < len(comp):
        builder.expand(_next_var(builder, [v for v in comp if v not in builder.col]))
    return builder.steps


def _next_var(builder: _PartBuilder, open_: list[int]) -> int:
    """The variable whose expansion and lookups leave the fewest rows, among
    those that share an equation with a placed one if any do."""
    near = [v for v in open_ if any(
        u in builder.col for e in builder.var_eqs[v] for u in builder.eqs[e][:3])]
    best, least = open_[0], None
    for v in near or open_:
        trial = builder.trial()
        trial.expand(v)
        if least is None or trial.rows < least:
            best, least = v, trial.rows
    return best


class _Plan:
    """The row plan of one network: the steps of each component."""

    def __init__(self, net):
        self.n = n = net.n
        self.dtype = np.uint8 if n <= 2**8 else np.uint16 if n <= 2**16 else np.int32
        self.parts = [_compile_part(net, comp) for comp in components(net, range(len(net.names)))]


class _PlanCount:
    """One count over a row plan: the domains' masks, nodes and budget."""

    def __init__(self, plan: _Plan, domains: dict, budget=None):
        self.plan, self.budget = plan, budget
        self.nodes = 0
        self.masks = {}
        for v, values in domains.items():
            mask = self.masks[v] = np.zeros(plan.n, dtype=bool)
            mask[[u for u in values if 0 <= u < plan.n]] = True

    def count(self) -> int:
        total = 1
        for steps in self.plan.parts:
            total *= self._run(steps, 0, np.zeros((1, 0), dtype=self.plan.dtype))
            if not total:
                break
        return total

    def _run(self, steps: list[_Step], i: int, rows: np.ndarray) -> int:
        n, dtype = self.plan.n, self.plan.dtype
        while i < len(steps) and len(rows):
            step = steps[i]
            if step.var >= 0:
                mask = self.masks.get(step.var)
                if step.source is None:
                    values = np.arange(n, dtype=dtype) if mask is None else np.flatnonzero(mask)
                    counts = np.full(len(rows), len(values))
                else:
                    start, values, keys = step.source
                    key = rows[:, keys[0]].astype(np.intp)
                    if len(keys) == 2:
                        key = key * n + rows[:, keys[1]]
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
                    return sum(self._run(steps, i, rows[a:b]) for a, b in zip(cuts, cuts[1:]))
                if step.source is None:
                    new = np.tile(values, len(rows))
                else:
                    new = values[np.repeat(lo - ends + counts, counts) + np.arange(total)]
                rows = np.repeat(rows, counts, axis=0)
                rows = np.concatenate([rows, new[:, None].astype(dtype)], axis=1)
            if step.lookups:
                made = [table[rows[:, a], rows[:, b]] for table, a, b in step.lookups]
                made = np.concatenate(made, axis=1) if len(made) > 1 else made[0]
                rows = np.concatenate([rows, made.astype(dtype)], axis=1)
                defined = (made >= 0).all(axis=1)
                if not defined.all():
                    rows = rows[defined]
            ok = None
            for table, a, b, c in step.checks:
                got = table[rows[:, a], rows[:, b]]
                hit = (got if c is None else got == rows[:, c]).all(axis=1)
                ok = hit if ok is None else ok & hit
            for v, j in step.new:
                mask = self.masks.get(v)
                if mask is not None:
                    hit = mask[rows[:, j]]
                    ok = hit if ok is None else ok & hit
            if ok is not None:
                rows = rows[ok]
            if step.var >= 0:
                self.nodes += len(rows)
                if self.budget is not None and self.nodes > self.budget:
                    raise SizeBoundExceededError(
                        f"enumeration exceeded branch budget {self.budget}")
            i += 1
        return len(rows)


def count(net, domains=None, budget=None) -> tuple[int, int]:
    """(count, nodes) of the network's solutions inside the domains (name ->
    values), by the row plan, compiled once per network.

    nodes is the number of rows that survive each expansion's filters; past
    budget the count raises SizeBoundExceededError.
    """
    plan = net.plans.get(None)
    if plan is None:
        plan = net.plans[None] = _Plan(net)
    run = _PlanCount(plan, {net.index[v]: vals for v, vals in (domains or {}).items()}, budget)
    return run.count(), run.nodes
