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
site carries the variant of the picture used.  On structures with abelian
blocks, every rewrite preserves flow and coloring counts and each coloring
transports uniquely across it (``transport_coloring``).  On S3-block
structures, counts change at R4a, R5a and R5b, and a transport there can
fail (``TransportError``).

``find_sites`` matches each picture from the diagram's records, not from
candidate ids.  The first record of a picture's match order is its anchor:
one match starts at each of the diagram's records of the anchor's kind, and
the rest of the side follows from the names that record binds.  A strand
picture (R1 and R2 apply) has no records and matches at any ids: every
semi-arc or loop for R1, every ordered pair of distinct semi-arcs for R2.
Matches are keyed by their site ids.  A per-move list of candidates (sorted
semi-arcs, or crossings and vertices in diagram order) gives the output
order and each site's variant, and where several pictures match at one
candidate, the first in table order wins, as in ``apply_move``.  A
diagram's record index is built once and kept on the diagram.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from hlcolor.coloring import Coloring, _network
from hlcolor.diagram import Crossing, Diagram, Vertex, arcs_of
from hlcolor.mcqb import MCQ
from hlcolor.plan import _levels, _Run, extend, getter


class SiteMismatchError(ValueError):
    """The requested move pattern is not present at the given site."""


class TransportError(RuntimeError):
    """A coloring has no unique extension across a rewrite."""


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
    """A diagram's records, indexed by (semi-arc id, record kind, slot) and by kind."""

    def __init__(self, d: Diagram):
        self.ids = set(d.semiarcs) | set(d.loops)
        self.records = [("x+" if c.sign > 0 else "x-", c.slots()) for c in d.crossings]
        self.records += [("v<" if v.kind == "merge" else "v>", v.slots()) for v in d.vertices]
        self.index = {
            (s, kind, j): i for i, (kind, slots) in enumerate(self.records) for j, s in enumerate(slots)
        }
        self.by_kind: dict[str, list[int]] = {}
        for i, (kind, _) in enumerate(self.records):
            self.by_kind.setdefault(kind, []).append(i)

    def consumer(self, s: str):
        """(record, slot) where semi-arc s ends, or None."""
        for kind, j in _IN_SLOTS:
            i = self.index.get((s, kind, j))
            if i is not None:
                return i, j
        return None

    def match(self, pic: _Picture, env: dict, used=()):
        """Match the records of the picture's source side from the names env
        binds, used holding the records that the first records of its plan
        matched; returns (bindings, matched records) or None."""
        side = pic.src
        env, used = dict(env), list(used)
        for kind, names in side.plan[len(used):]:
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

    def anchored(self, pic: _Picture) -> dict:
        """Every match of the picture's source side, by its site ids: one match
        starts at each record of the anchor's kind that binds its names."""
        side = pic.src
        kind, names = side.plan[0]
        hits = {}
        for i in self.by_kind.get(kind, ()):
            slots = self.records[i][1]
            env = dict(zip(names, slots))
            if all(env[v] == s for v, s in zip(names, slots)):
                found = self.match(pic, env, (i,))
                if found is not None:
                    hits[tuple(found[0][v] for v in side.site)] = found
        return hits

    def find(self, move: str, direction: str, ids, variant: str):
        """The picture matching at the site, with its bindings, or None; an id
        None is bound by matching."""
        return _first(move, direction, ids, variant, (
            (pic, self.match(pic, {v: s for v, s in zip(pic.src.site, ids) if s is not None}))
            for pic in _TABLE[move, direction] if not variant or pic.variant == variant))

    def build(self, d: Diagram, site: MoveSite, pic: _Picture, env: dict, used: list[int]) -> MoveResult:
        """Replace the matched records of d by the picture's other side."""
        dst = pic.dst
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


def _first(move: str, direction: str, ids, variant: str, matches):
    """The first (picture, bindings, matched records) of matches, pairs of a
    picture and its match or None in table order, or None; raises
    SiteMismatchError where an empty variant must not pick a vertex kind."""
    hits = []
    for pic, found in matches:
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


def _view(d: Diagram) -> _Records:
    """d's record index, built once and stored on d."""
    view = getattr(d, "_records", None)
    if view is None:
        view = d._records = _Records(d)
    return view


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
    view = _view(d)
    hit = view.find(site.move, site.direction, site.ids, site.variant)
    if hit is None:
        variant = f" {site.variant}" if site.variant else ""
        raise SiteMismatchError(
            f"no {site.move} {site.direction}{variant} picture at {','.join(site.ids)}"
        )
    return view.build(d, site, *hit)


def _candidates(d: Diagram, move: str, direction: str) -> list[tuple[tuple, str]]:
    """(ids, variant) of each possible site of the move, in output order; None
    marks an id the match binds."""
    semiarcs = sorted(d.semiarcs)
    if move in ("R1a", "R1b"):
        if direction == "apply":
            ids = sorted(set(d.semiarcs) | set(d.loops))
            return [((s,), v) for s in ids for v in ("under", "over")]
        return [((s,), "") for s in semiarcs]
    if move in ("R2a", "R2b"):
        if direction == "apply":
            return [((s, u), v) for s in semiarcs for u in semiarcs if s != u
                    for v in ("+-", "-+")]
        return [((s,), "") for s in semiarcs]
    if move == "R3":
        ins = [(c.over_in, c.under_in) for c in d.crossings if c.sign == 1]
        if direction == "apply":
            return [((a, b, None), "") for a, b in ins]
        return [((None, b, c), "") for b, c in ins]
    if move in ("R4a", "R4b"):
        if direction == "apply":
            ins = [(c.over_in, c.under_in) for c in d.crossings]
            return [((o, u) if move == "R4a" else (u, o), "") for o, u in ins]
        return [((s,), v) for s in semiarcs for v in ("merge", "split")]
    if move in ("R5a", "R5b"):
        return [((v.e3,), v.kind) for v in d.vertices]
    return [((s,), "") for s in semiarcs]  # R6


def find_sites(d: Diagram, move: str, direction: str) -> list[MoveSite]:
    """Enumerate every site where the move applies, in deterministic order."""
    pics = _TABLE.get((move, direction))
    if pics is None:
        return []
    if not pics[0].src.records:  # a strand picture matches at every candidate
        return [MoveSite(move, direction, ids, variant)
                for ids, variant in _candidates(d, move, direction)]
    hits = [_view(d).anchored(pic) for pic in pics]
    if not any(hits):
        return []
    candidates = _candidates(d, move, direction)
    # key each match as the candidates name it: None where they leave an id to the match
    mask = [s is None for s in candidates[0][0]]
    keyed = [{tuple(None if m else s for m, s in zip(mask, ids)): found for ids, found in hit.items()}
             for hit in hits]
    sites = []
    for ids, variant in candidates:  # a vertex-kind choice always has its variant here
        found = _first(move, direction, ids, variant, (
            (pic, hit.get(ids)) for pic, hit in zip(pics, keyed)
            if not variant or pic.variant == variant))
        if found is not None:
            pic, env, _ = found
            sites.append(MoveSite(move, direction, tuple(env[v] for v in pic.src.site), variant))
    return sites


# -- coloring transport ---------------------------------------------------------


def transport_coloring(d: Diagram, d2: Diagram, c, x) -> Coloring:
    """The unique coloring of d2 agreeing with c away from the rewrite site.

    d2 must be the result of a move on d.  Failure to find exactly one
    extension raises TransportError: on structures with abelian blocks it
    indicates a wiring bug, and on S3-block structures it can happen at R4a,
    R5a and R5b, whose pictures the vertex rule does not yet agree with.

    The values kept from c are those of each kept semi-arc on an MCB and, on
    an MCQ, of each new arc from the old arc of a shared semi-arc.  They fix
    the variables of the network of d2's depth-first plan for them
    (hlcolor.plan), compiled once per (network, names of c) and kept in the
    network's ``transports`` with the kept variables and where each reads
    its value.  The key holds names (on an MCQ, arc pairs), not ids, so a
    reused id cannot hit a stale entry.  The plan's prefix places every new
    semi-arc by lookups, and rejects where a lookup finds no entry or a check
    fails, except at kinks and bigons (R1a/R1b/R2b apply), where its parts
    branch and stop at a second solution.
    """
    net = _network(d2, x)
    if isinstance(x, MCQ):
        old_arcs, new_arcs = arcs_of(d), arcs_of(d2)
        key = frozenset((new_arcs[s], old_arcs[s]) for s in old_arcs.keys() & new_arcs.keys())
    else:
        key = frozenset(c.assignment)
    entry = net.transports.get(key)
    if entry is None:
        pairs = key if isinstance(x, MCQ) else [(s, s) for s in key if s in net.index]
        sources: dict[int, list[str]] = {}
        for target, source in sorted(pairs):
            sources.setdefault(net.index[target], []).append(source)
        kept = sorted(sources)
        read = getter([sources[v][0] for v in kept])
        same = [(p, name) for p, v in enumerate(kept) for name in sources[v][1:]]
        at = {v: p for p, v in enumerate(kept)}
        spread = getter([at.get(v, len(kept)) for v in range(len(net.names))])
        entry = net.transports[key] = (_levels(net, frozenset(kept)), kept, read, same, spread)
    plan, kept, read, same, spread = entry
    source = c.assignment
    fed = read(source)
    for p, name in same:
        if source[name] != fed[p]:
            raise TransportError("inconsistent arc transport; wiring bug")
    if not fed or 0 <= min(fed) and max(fed) < net.n:
        found = extend(plan, list(spread(fed + (0,))))
        if found is not None:
            return Coloring(x, dict(zip(net.names, found)))
    found = _Run(plan, dict(zip(kept, fed)), {}).count()
    raise TransportError(f"transport expected a unique extension, found {found}; wiring bug")
