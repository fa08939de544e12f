"""Reidemeister move engine: R1-R6 as one table of local pictures.

Each move of handlebody-link diagrams (Ishii, "Moves and invariants for
knotted handlebodies", 2008) is a pair of local pictures.  ``_PICTURES`` holds
one row per variant of a move; ``apply`` matches the row's left side at the
site and builds its right side, ``undo`` reads the same row right to left.
Site conventions:

  R1a/R1b apply (s,)        kink a semi-arc or loop; variant "under"/"over"
                            picks which pass comes first (R1a positive sign,
                            R1b negative)
  R1a/R1b undo (mid,)       mid is the kink's middle semi-arc
  R2a apply (s, u)          slide s over a parallel strand u; variant "+-"
                            or "-+" gives the first crossing's sign
  R2b apply (s, u)          antiparallel variant
  R2a/R2b undo (m_over,)    m_over is the over strand's middle semi-arc
  R3 apply/undo (a, b, c)   the three in-ids of the braid-relation pattern
  R4a apply (e, s)          slide strand s (under the vertex edge e crosses
                            it at the site crossing) past the vertex; R4b
                            the over version; e, s are the crossing's in-ids
  R4a/R4b undo (sm,)        sm is the strand's middle semi-arc; variant
                            "merge"/"split" picks the vertex when ambiguous
  R5a/R5b apply/undo (e3,)  twist/untwist the vertex with third edge e3
                            (R5a positive twist crossing, R5b negative);
                            variant "merge"/"split" disambiguates shared e3
  R6 apply/undo (m,)        reassociate the two vertices joined by m

Picture syntax, one row per line::

    move variant | site : records | site : records | strands

Records are written as in a diagram file (``x+``/``x-`` over_in over_out
under_in under_out, ``v<``/``v>`` e1 e2 e3), separated by commas, over local
names; ``-`` is the empty variant.  A letter names a boundary semi-arc, which
keeps its id on both sides.  A number names an inner semi-arc of its side: it
goes with the matched records, and building the side gives it a fresh id
``<move>#<n>``, in numeric order.  The site lists the names a ``MoveSite``'s ids
bind.  A strand ``s>2`` (R1, R2) has no records on the left: apply moves the
old consumer of s onto the exit 2, and a loop s keeps its id as the exit;
undo joins the exit back onto s and closes a loop when the strand meets itself;
a strand that runs on into the other strand does not match.

An empty variant takes the first picture that matches (``under`` for R1
apply, ``+-`` for R2 apply, merge for R4 apply), except that R4 undo and R5
ask for the variant when pictures of both vertex kinds match.  An inverse
site carries the variant of the picture used.  Rewrites preserve flow and
coloring counts for every structure; colorings transport uniquely across
each rewrite (``transport_coloring``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter

from hlcolor.coloring import Coloring, _network, _propagate, _Search
from hlcolor.diagram import Crossing, Diagram, Vertex, arcs_of
from hlcolor.mcqb import MCQ
from hlcolor.plan import KEYS


class SiteMismatchError(ValueError):
    """The requested move pattern is not present at the given site."""


@dataclass(frozen=True)
class MoveSite:
    move: str
    direction: str  # "apply" | "undo"
    ids: tuple[str, ...]
    variant: str = ""


@dataclass
class MoveResult:
    diagram: Diagram
    inverse: MoveSite
    fresh: tuple[str, ...]


_PICTURES = """
R1a under | s :                         | 1 : x+ 1 2 s 1                       | s>2
R1a over  | s :                         | 1 : x+ s 1 1 2                       | s>2
R1b under | s :                         | 1 : x- 1 2 s 1                       | s>2
R1b over  | s :                         | 1 : x- s 1 1 2                       | s>2
R2a +-    | s u :                       | 1 : x+ s 1 u 2, x- 1 3 2 4           | s>3 u>4
R2a -+    | s u :                       | 1 : x- s 1 u 2, x+ 1 3 2 4           | s>3 u>4
R2b +-    | s u :                       | 1 : x+ s 1 2 4, x- 1 3 u 2           | s>3 u>4
R2b -+    | s u :                       | 1 : x- s 1 2 4, x+ 1 3 u 2           | s>3 u>4
R3  -     | a b c : x+ a 1 b 2, x+ 1 f c 3, x+ 2 h 3 i | a b c : x+ b 1 c 2, x+ a 3 2 i, x+ 3 f 1 h |
R4a merge | 1 s : x+ 1 o s t, v< k l 1  | 3 : x+ l 2 s 3, x+ k 1 3 t, v< 1 2 o |
R4a merge | 1 s : x- 1 o s t, v< k l 1  | 3 : x- k 1 s 3, x- l 2 3 t, v< 1 2 o |
R4a split | e s : x+ e 1 s t, v> k l 1  | 3 : x+ 2 l s 3, x+ 1 k 3 t, v> 1 2 e |
R4a split | e s : x- e 1 s t, v> k l 1  | 3 : x- 1 k s 3, x- 2 l 3 t, v> 1 2 e |
R4b merge | 1 s : x+ s t 1 o, v< k l 1  | 3 : x+ s 3 k 1, x+ 3 t l 2, v< 1 2 o |
R4b merge | 1 s : x- s t 1 o, v< k l 1  | 3 : x- s 3 l 2, x- 3 t k 1, v< 1 2 o |
R4b split | e s : x+ s t e 1, v> k l 1  | 3 : x+ s 3 1 k, x+ 3 t 2 l, v> 1 2 e |
R4b split | e s : x- s t e 1, v> k l 1  | 3 : x- s 3 2 l, x- 3 t 1 k, v> 1 2 e |
R5a merge | e : v< a b e                | e : x+ a 1 b 2, v< 2 1 e             |
R5a split | e : v> a b e                | e : x+ 2 b 1 a, v> 2 1 e             |
R5b merge | e : v< a b e                | e : x- b 2 a 1, v< 2 1 e             |
R5b split | e : v> a b e                | e : x- 1 a 2 b, v> 2 1 e             |
R6  -     | 1 : v< a b 1, v< 1 c o      | 1 : v< b c 1, v< a 1 o               |
R6  -     | 1 : v> a 1 i, v> b c 1      | 1 : v> 1 c i, v> a b 1               |
R6  -     | 1 : v< a b 1, v> c d 1      | 1 : v> c 1 a, v< 1 b d               |
"""

# (move kind, direction) pairs whose empty variant must not pick between vertex kinds
_ASK_VARIANT = {("R4", "undo"), ("R5", "apply"), ("R5", "undo")}

# the slots that consume a semi-arc, by record kind
_IN_SLOTS = (("x+", 0), ("x+", 2), ("x-", 0), ("x-", 2), ("v<", 0), ("v<", 1), ("v>", 2))


@dataclass(frozen=True)
class _Side:
    site: tuple[str, ...]
    records: tuple[tuple[str, tuple[str, ...]], ...]  # in build order
    plan: tuple[tuple[str, tuple[str, ...]], ...]  # in match order: each meets a bound name
    names: frozenset[str]
    inner: tuple[str, ...]  # numbered names, in allocation order
    loose: tuple[str, ...]  # site names on no record


@dataclass(frozen=True)
class _Picture:
    variant: str
    src: _Side  # the side matched
    dst: _Side  # the side built
    strands: tuple[tuple[str, str], ...]  # (entry, exit)


def _side(text: str) -> _Side:
    site, _, body = text.partition(":")
    site = tuple(site.split())
    records = tuple((r.split()[0], tuple(r.split()[1:])) for r in body.split(",") if r.strip())
    bound, plan, todo = set(site), [], list(records)
    while todo:
        rec = next(r for r in todo if bound.intersection(r[1]))
        todo.remove(rec)
        plan.append(rec)
        bound.update(rec[1])
    names = frozenset(bound)
    on_records = {v for _, vs in records for v in vs}
    return _Side(site, records, tuple(plan), names,
                 tuple(sorted((v for v in names if v.isdigit()), key=int)),
                 tuple(v for v in site if v not in on_records))


def _parse_pictures(text: str) -> dict[tuple[str, str], list[_Picture]]:
    table: dict[tuple[str, str], list[_Picture]] = {}
    for row in text.strip().splitlines():
        head, left, right, strands = row.split("|")
        move, variant = head.split()
        variant = "" if variant == "-" else variant
        left, right = _side(left), _side(right)
        if {v for v in left.names if not v.isdigit()} != {v for v in right.names if not v.isdigit()}:
            raise ValueError(f"the sides of {move} {variant} have different boundaries")
        pairs = tuple(tuple(s.split(">")) for s in strands.split())
        table.setdefault((move, "apply"), []).append(_Picture(variant, left, right, pairs))
        table.setdefault((move, "undo"), []).append(_Picture(variant, right, left, pairs))
    return table


_TABLE = _parse_pictures(_PICTURES)


class _Records:
    """A diagram's records, indexed by (semi-arc id, record kind, slot)."""

    def __init__(self, d: Diagram):
        self.d = d
        self.ids = set(d.semiarcs) | set(d.loops)
        self.records = [("x+" if c.sign > 0 else "x-", c.slots()) for c in d.crossings]
        self.records += [("v<" if v.kind == "merge" else "v>", v.slots()) for v in d.vertices]
        self.index = {
            (s, kind, j): i for i, (kind, slots) in enumerate(self.records) for j, s in enumerate(slots)
        }

    def consumer(self, s: str):
        """(record, slot) where semi-arc s ends, or None."""
        for kind, j in _IN_SLOTS:
            i = self.index.get((s, kind, j))
            if i is not None:
                return i, j
        return None

    def match(self, pic: _Picture, ids):
        """Bind the site to ids (None: bound by matching) and match the records
        of the picture's source side; returns (bindings, matched records) or None."""
        side = pic.src
        env = {v: s for v, s in zip(side.site, ids) if s is not None}
        used: list[int] = []
        for kind, names in side.plan:
            j = next(j for j, v in enumerate(names) if v in env)
            i = self.index.get((env[names[j]], kind, j))
            if i is None or i in used:
                return None
            for v, s in zip(names, self.records[i][1]):
                if env.setdefault(v, s) != s:
                    return None
            used.append(i)
        site = [env.get(v) for v in side.site]
        if None in site or len(set(site)) < len(site):
            return None
        if any(env[v] not in self.ids for v in side.loose):
            return None
        # a strand may close on itself, but must not run on into another one
        for entry, exit_ in pic.strands:
            if exit_ in env and any(env[exit_] == env[e] for e, _ in pic.strands if e != entry):
                return None
        return env, used

    def find(self, move: str, direction: str, ids, variant: str):
        """The picture matching at the site, with its bindings, or None."""
        hits = []
        for pic in _TABLE[move, direction]:
            if variant and pic.variant != variant:
                continue
            found = self.match(pic, ids)
            if found is None:
                continue
            if variant or (move[:2], direction) not in _ASK_VARIANT:
                return (pic, *found)
            hits.append((pic, *found))
        if len(hits) > 1:
            raise SiteMismatchError(
                f"both vertex kinds match at {','.join(ids)}; set the variant to merge/split"
            )
        return hits[0] if hits else None

    def build(self, site: MoveSite, pic: _Picture, env: dict, used: list[int]) -> MoveResult:
        """Replace the matched records by the picture's other side."""
        d, dst = self.d, pic.dst
        out = {v: env[v] for v in dst.names if not v.isdigit()}
        loops = set(d.loops)
        for entry, exit_ in pic.strands:
            if exit_ in dst.names and env[entry] in loops:
                loops.discard(env[entry])
                out[exit_] = env[entry]
        prefix = site.move.lower()
        pat = re.compile(re.escape(prefix) + r"#(\d+)$")
        top = max((int(m.group(1)) for m in map(pat.match, self.ids) if m), default=0)
        fresh = []
        for v in dst.inner:
            if v not in out:
                top += 1
                out[v] = f"{prefix}#{top}"
                fresh.append(out[v])
        # semi-arcs on no record stay declared, and so does a strand joined onto no record
        free = set(d.semiarcs) - {s for s, _, _ in self.index}
        edits: dict[int, list[str]] = {}
        for entry, exit_ in pic.strands:
            if exit_ in dst.names:  # cut: the strand's old consumer takes the exit
                s, new = env[entry], out[exit_]
            else:  # join: the exit's consumer takes the entry
                s, new = env[exit_], env[entry]
                free.add(new)
                if s == new:
                    loops.add(s)
            where = self.consumer(s)
            if s != new and where is not None:
                edits.setdefault(where[0], list(self.records[where[0]][1]))[where[1]] = new
        nx = len(d.crossings)
        crossings = [Crossing(c.sign, *edits[i]) if i in edits else c
                     for i, c in enumerate(d.crossings) if i not in used]
        vertices = [Vertex(v.kind, *edits[i]) if i in edits else v
                    for i, v in enumerate(d.vertices, nx) if i not in used]
        for kind, names in dst.records:
            ids = [out[v] for v in names]
            if kind[0] == "x":
                crossings.append(Crossing(1 if kind == "x+" else -1, *ids))
            else:
                vertices.append(Vertex("merge" if kind == "v<" else "split", *ids))
        d2 = Diagram(crossings, vertices, loops, free - loops)
        d2.validate(allow_open=True)
        other = "undo" if site.direction == "apply" else "apply"
        inverse = MoveSite(site.move, other, tuple(out[v] for v in dst.site), pic.variant)
        return MoveResult(d2, inverse, tuple(fresh))


def apply_move(d: Diagram, site: MoveSite) -> MoveResult:
    """Rewrite the diagram at the given move site; raises SiteMismatchError."""
    pics = _TABLE.get((site.move, site.direction))
    if pics is None:
        raise SiteMismatchError(f"unknown move {site.move!r} or direction {site.direction!r}")
    if len(site.ids) != len(pics[0].src.site):
        raise SiteMismatchError(
            f"{site.move} {site.direction} takes {len(pics[0].src.site)} site id(s), "
            f"got {len(site.ids)}"
        )
    view = _Records(d)
    hit = view.find(site.move, site.direction, site.ids, site.variant)
    if hit is None:
        variant = f" {site.variant}" if site.variant else ""
        raise SiteMismatchError(
            f"no {site.move} {site.direction}{variant} picture at {','.join(site.ids)}"
        )
    return view.build(site, *hit)


def find_sites(d: Diagram, move: str, direction: str) -> list[MoveSite]:
    """Enumerate every site where the move applies, in deterministic order."""
    if (move, direction) not in _TABLE:
        return []
    candidates: list[tuple[tuple, str]] = []  # (ids, variant); None marks an id the match binds
    semiarcs = sorted(d.semiarcs)
    if move in ("R1a", "R1b"):
        if direction == "apply":
            ids = sorted(set(d.semiarcs) | set(d.loops))
            candidates = [((s,), v) for s in ids for v in ("under", "over")]
        else:
            candidates = [((s,), "") for s in semiarcs]
    elif move in ("R2a", "R2b"):
        if direction == "apply":
            candidates = [((s, u), v) for s in semiarcs for u in semiarcs if s != u
                          for v in ("+-", "-+")]
        else:
            candidates = [((s,), "") for s in semiarcs]
    elif move == "R3":
        ins = [(c.over_in, c.under_in) for c in d.crossings if c.sign == 1]
        if direction == "apply":
            candidates = [((a, b, None), "") for a, b in ins]
        else:
            candidates = [((None, b, c), "") for b, c in ins]
    elif move in ("R4a", "R4b"):
        if direction == "apply":
            ins = [(c.over_in, c.under_in) for c in d.crossings]
            candidates = [((o, u) if move == "R4a" else (u, o), "") for o, u in ins]
        else:
            candidates = [((s,), v) for s in semiarcs for v in ("merge", "split")]
    elif move in ("R5a", "R5b"):
        candidates = [((v.e3,), v.kind) for v in d.vertices]
    elif move == "R6":
        candidates = [((s,), "") for s in semiarcs]
    if not candidates:
        return []
    view = _Records(d)
    sites = []
    for ids, variant in candidates:
        try:
            hit = view.find(move, direction, ids, variant)
        except SiteMismatchError:
            continue
        if hit is not None:
            pic, env, _ = hit
            sites.append(MoveSite(move, direction, tuple(env[v] for v in pic.src.site), variant))
    return sites


# -- coloring transport ---------------------------------------------------------


class _Transport:
    """How colorings with one set of names move onto one network.

    Built from (target name, source name) pairs: each kept semi-arc on an
    MCB; on an MCQ each new arc with the old arc of every shared semi-arc.
    Values sit at positions, one per variable in ``placed``.  ``read`` takes
    the fed values, one source each, and the further sources in ``same``
    must agree.  Each of ``lookups`` places one more variable from two placed
    slots of an equation single-valued in its slot, so every value is forced;
    ``checks`` tests every other equation whose slots are all placed.

    ``open`` says some variable is placed by neither (a kink's new semi-arc
    sits in two slots of one equation).  The search then starts from the
    placed variables in ``queue``, which share an equation with an open one,
    and needs only the equations in ``near``, which hold an open variable.
    """

    def __init__(self, net, pairs):
        sources: dict[int, list[str]] = {}
        for target, source in sorted(pairs):
            sources.setdefault(net.index[target], []).append(source)
        placed = sorted(sources)
        at = {v: p for p, v in enumerate(placed)}
        self.read = _getter([sources[v][0] for v in placed])
        self.same = [(at[v], name) for v in placed for name in sources[v][1:]]
        self.n = net.full.bit_length()
        self.lookups, used = [], set()
        grew = True
        while grew:
            grew = False
            for e, (*slots, t) in enumerate(net.eqs):
                unknown = [i for i in range(3) if slots[i] not in at]
                if len(unknown) == 1 and t.lookup_lists[unknown[0]] is not None:
                    i = unknown[0]
                    k, m = KEYS[i]
                    self.lookups.append((at[slots[k]], at[slots[m]], t.lookup_lists[i]))
                    at[slots[i]] = len(placed)
                    placed.append(slots[i])
                    used.add(e)
                    grew = True
        self.checks = [(at[a], at[b], at[c], t.lookup_lists[2]) for e, (a, b, c, t) in enumerate(net.eqs)
                       if e not in used and a in at and b in at and c in at]
        self.placed = placed
        self.names = [net.names[v] for v in placed]
        self.open = len(placed) < len(net.names)
        if self.open:
            self.near = [eq for eq in net.eqs if not all(v in at for v in eq[:3])]
            self.queue = sorted({v for eq in self.near for v in eq[:3] if v in at})
        else:
            self.order = _getter([at[v] for v in range(len(net.names))])

    def settle(self, vals: list[int]) -> bool:
        """Append the looked-up values to vals, which holds the fed ones;
        False when a lookup finds no entry or a check fails."""
        for k, m, table in self.lookups:
            val = table[vals[k]][vals[m]]
            if val < 0:
                return False
            vals.append(val)
        for a, b, c, table in self.checks:
            if table[vals[a]][vals[b]] != vals[c]:
                return False
        return True


def _getter(keys: list):
    """itemgetter(*keys), returning a tuple however many keys there are."""
    if len(keys) > 1:
        return itemgetter(*keys)
    return lambda items: tuple(items[k] for k in keys)


def transport_coloring(d: Diagram, d2: Diagram, c, x) -> Coloring:
    """The unique coloring of d2 agreeing with c away from the rewrite site.

    d2 must be the result of a move on d; failure to find exactly one
    extension indicates a wiring bug and raises RuntimeError.

    The transport is a _Transport, compiled once per (network of d2, names
    of c) and kept in the network's ``transports``.  Its key holds names (on
    an MCQ, arc pairs), not ids, so a reused id cannot hit a stale entry.
    Table lookups fix every new semi-arc except at kinks and bigons
    (R1a/R1b/R2b apply), where the network's search (coloring._Search) fills
    the open ones.
    """
    net = _network(d2, x)
    if isinstance(x, MCQ):
        old_arcs, new_arcs = arcs_of(d), arcs_of(d2)
        key = frozenset((new_arcs[s], old_arcs[s]) for s in old_arcs.keys() & new_arcs.keys())
    else:
        key = frozenset(c.assignment)
    plan = net.transports.get(key)
    if plan is None:
        pairs = key if isinstance(x, MCQ) else [(s, s) for s in key if s in net.index]
        plan = net.transports[key] = _Transport(net, pairs)
    source = c.assignment
    fed = plan.read(source)
    for p, name in plan.same:
        if source[name] != fed[p]:
            raise RuntimeError("inconsistent arc transport; wiring bug")
    vals = list(fed)
    if (not fed or 0 <= min(fed) and max(fed) < plan.n) and plan.settle(vals):
        if not plan.open:
            return Coloring(x, dict(zip(net.names, plan.order(vals))))
        # the search, from where _Search(net, placed values) would start after settling
        dom = [net.full] * len(net.names)
        for v, val in zip(plan.placed, vals):
            dom[v] = 1 << val
        net.masks()
        if _propagate(dom, plan.queue[:], net.var_eqs):
            assignment = _Search.settled(net, dom, plan.near).unique()
            if assignment is not None:
                return Coloring(x, assignment)
    found = _Search(net, dict(zip(plan.names, fed))).count()
    raise RuntimeError(f"transport expected a unique extension, found {found}; wiring bug")
