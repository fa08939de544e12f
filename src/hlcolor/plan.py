"""Counting colorings by a lookup plan over numpy row blocks.

The second counting path of hlcolor.coloring, which takes it for counts on
large structures.  The partial colorings of one component of a constraint
network (coloring._Network: equations tbl[a, b] == c on integer variables)
are the rows of a numpy array, grown a variable at a time by a plan compiled
once per network and set of known variables.  A variable whose equation has
its other two slots in the rows is a lookup, through an inverse table when
the rule is single-valued in its slot.  Otherwise the plan expands the next
variable into the values that occur beside one or two known slots, and keeps
the rows that every equation of the new variable still allows beside one
other known slot, as forward checking would.  The joins are exact, so the
count equals the search's; the components' counts multiply.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from hlcolor.rings import SizeBoundExceededError

_BLOCK_ROWS = 4096  # an expansion past this many rows runs slice by slice

# the two slots that determine slot i of tbl[a, b] == c, in the order a lookup
# of slot i is indexed by: a from (c, b), b from (a, c), c from (a, b)
KEYS = {0: (2, 1), 1: (0, 2), 2: (0, 1)}


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

    def __init__(self, eqs: list, consts: list[int], n: int):
        self.eqs, self.n = eqs, n
        self.var_eqs: dict[int, list[int]] = {}
        for e, eq in enumerate(eqs):
            for v in set(eq[:3]):
                self.var_eqs.setdefault(v, []).append(e)
        self.col = {v: j for j, v in enumerate(consts)}
        self.state = [0] * len(eqs)  # 0 open, 1 its pair checked, 2 done
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
        for e in sorted({e for v in placed for e in self.var_eqs.get(v, ())}):
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
            for e in sorted({e for v in placed for e in self.var_eqs.get(v, ())}):
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
        for e in self.var_eqs.get(v, ()):
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


def _compile_part(eqs: list, comp: list[int], n: int) -> tuple[list[int], list[_Step]]:
    """The constants and the steps that count one component."""
    inside = set(comp)
    consts = sorted({v for eq in eqs for v in eq[:3]} - inside)
    builder = _PartBuilder(eqs, consts, n)
    builder.settle(consts)
    while len(builder.col) < len(consts) + len(comp):
        builder.expand(_next_var(builder, [v for v in comp if v not in builder.col]))
    return consts, builder.steps


def _next_var(builder: _PartBuilder, open_: list[int]) -> int:
    """The variable whose expansion and lookups leave the fewest rows, among
    those that share an equation with a placed one if any do."""
    near = [v for v in open_ if any(
        u in builder.col for e in builder.var_eqs.get(v, ()) for u in builder.eqs[e][:3])]
    best, least = open_[0], None
    for v in near or open_:
        trial = builder.trial()
        trial.expand(v)
        if least is None or trial.rows < least:
            best, least = v, trial.rows
    return best


class _Plan:
    """The compiled plan of one network given its known variables: the
    constants and steps of each component of the search."""

    def __init__(self, net, comps: list[list[int]]):
        self.n = n = net.full.bit_length()
        self.dtype = np.uint8 if n <= 2**8 else np.uint16 if n <= 2**16 else np.int32
        where = {v: k for k, comp in enumerate(comps) for v in comp}
        eqs: list[list] = [[] for _ in comps]
        for eq in net.eqs:
            open_ = [v for v in eq[:3] if v in where]
            if len(open_) >= 2:
                eqs[where[open_[0]]].append(eq)
        self.parts = [_compile_part(part, comp, n) for part, comp in zip(eqs, comps)]
        self.comps = comps


class _PlanCount:
    """One count over a plan: the search's settled domains, nodes and budget."""

    def __init__(self, plan: _Plan, dom: list[int], budget=None):
        self.plan, self.dom, self.budget = plan, dom, budget
        self.nodes = 0
        n = plan.n
        full = (1 << n) - 1
        self.masks = {}
        for comp in plan.comps:
            for v in comp:
                if dom[v] != full:
                    bits = np.frombuffer(dom[v].to_bytes(-(-n // 8), "little"), dtype=np.uint8)
                    self.masks[v] = np.unpackbits(bits, bitorder="little")[:n].astype(bool)

    def count(self) -> int:
        total = 1
        for consts, steps in self.plan.parts:
            row = np.array([[self.dom[v].bit_length() - 1 for v in consts]], dtype=self.plan.dtype)
            total *= self._run(steps, 0, row)
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


def count(net, search, budget=None) -> tuple[int, int]:
    """(count, nodes) of the network's solutions within the search's settled
    domains, by the plan for its known variables, compiled once per network.

    nodes is the number of rows that survive each expansion's filters; past
    budget the count raises SizeBoundExceededError.
    """
    known = frozenset(i for i, d in enumerate(search.dom) if not d & (d - 1))
    plan = net.plans.get(known)
    if plan is None:
        plan = net.plans[known] = _Plan(net, search.components)
    run = _PlanCount(plan, search.dom, budget)
    return run.count(), run.nodes
