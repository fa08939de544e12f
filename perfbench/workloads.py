"""The four benchmark workloads.

Each ``setup_<name>(ctx)`` parses and builds its inputs from the seed and
returns a list of ``Instance``; ``Context`` imports ``hlcolor``.  An
instance's ``run`` makes the calls that make up one unit of user work and
raises ``WrongAnswer`` when a result disagrees with the reference answer or
with a second path.  Calls go through module attributes (``ctx.coloring.x``)
so that the tracer's patched functions are the ones called.

Why these workloads (see also README.md):

- count: the paper's headline batch job, dominated by the 72-element GF(9)
  MCB search on the larger corpus diagrams.
- per-flow: per-flow structure building (associated MCB/MCQ rebuilt per flow)
  and small-domain searches.
- moves: thousands of tiny searches with fixed partial assignments, which
  exposes per-call overhead that a faster search core could raise.
- linear: the exact linear-algebra path (Gaussian elimination over GF(9),
  Smith normal form over Z_9), absent from the other workloads.

There is no relabeling workload: the search breaks ties between variables by
name (``pick_var``), so the cost of one diagram depends on its semi-arc names
by orders of magnitude (see README.md).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))


class WrongAnswer(Exception):
    """A result differs from the reference answer or from a second path."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


@dataclass
class Instance:
    key: str
    run: Callable[[], None]
    deadline_s: float


class Context:
    """Seeded input generation plus the hlcolor modules the workloads call."""

    def __init__(self, root: str, seed: int):
        self.root = root
        self.rng = random.Random(seed)
        for name in ("cli", "coloring", "diagram", "gfamily", "groups", "mcqb", "moves",
                     "rings", "structio"):
            setattr(self, name, importlib.import_module(f"hlcolor.{name}"))

    @staticmethod
    def rng_for(key: str) -> random.Random:
        """An instance's own generator, the same on every pass and every seed.

        The seed draws the braids and the order of the instances; what an
        instance samples depends on the instance alone, so the corpus part of
        a workload is the same for every seed.
        """
        return random.Random(key)

    def structure_path(self, name: str) -> str:
        return os.path.join(self.root, "corpus", "structures", f"{name}.txt")

    def structure(self, name: str):
        return self.structio.parse_structure_file(self.structure_path(name))

    def diagram_path(self, name: str) -> str:
        return os.path.join(self.root, "corpus", "diagrams", f"{name}.txt")

    def corpus_diagrams(self) -> dict:
        names = sorted(f[:-4] for f in os.listdir(os.path.join(self.root, "corpus", "diagrams"))
                       if f.endswith(".txt"))
        out = {}
        for name in names:
            with open(self.diagram_path(name), encoding="utf-8") as fh:
                out[name] = self.diagram.parse_diagram(fh.read())
        return out

    def handlebody_braid(self, strands: int, crossings: int, splits: int):
        """A closed braid of the given shape with random positions and signs.

        The word is: the splits, one crossing at every position (so no
        component is a free loop), the remaining crossings, then the merges
        back to ``strands``.  It has ``2 * crossings + 3 * splits`` semi-arcs.
        With one strand the diagram is a connected trivalent graph of first
        Betti number ``splits + 1``, so it has ``|G|^(splits + 1)`` G-flows
        for an abelian G.
        """
        rng = self.rng
        word = []
        width = strands
        for _ in range(splits):
            word.append(("s", rng.randrange(width)))
            width += 1
        positions = list(range(width - 1))
        positions += [rng.randrange(width - 1) for _ in range(crossings - len(positions))]
        word += [("x", i, rng.choice((1, -1))) for i in positions]
        while width > strands:
            word.append(("m", rng.randrange(width - 1)))
            width -= 1
        return self.diagram.build_braid(strands, word)


# -- count -----------------------------------------------------------------------

# count_mcb for every corpus MCB and G-family of biquandles on every corpus
# diagram, as `hlcolor --format machine verify S D` printed it at 23552e8.
REFERENCE_COUNTS = os.path.join(HERE, "reference_counts.json")
COUNT_DEADLINE_S = 60.0


def setup_count(ctx: Context) -> list[Instance]:
    with open(REFERENCE_COUNTS, encoding="utf-8") as fh:
        reference = json.load(fh)
    instances = []
    for sname, row in reference.items():
        spath = ctx.structure_path(sname)
        expect(os.path.isfile(spath), f"missing corpus structure {sname}")
        for dname, want in row.items():
            dpath = ctx.diagram_path(dname)
            expect(os.path.isfile(dpath), f"missing corpus diagram {dname}")
            instances.append(Instance(f"{sname}/{dname}", _verify_call(ctx, spath, dpath, want),
                                      COUNT_DEADLINE_S))
    ctx.rng.shuffle(instances)
    return instances


def _verify_call(ctx: Context, spath: str, dpath: str, want: int):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = ctx.cli.main(["--format", "machine", "verify", spath, dpath])
        expect(code == 0, f"exit code {code}")
        fields = dict(line.split("=", 1) for line in out.getvalue().splitlines())
        # Both counts are checked against the reference, so a defect that
        # shifts both sides equally still fails.
        expect(fields.get("count_mcb") == str(want), f"count_mcb={fields.get('count_mcb')} want {want}")
        expect(fields.get("count_mcq") == str(want), f"count_mcq={fields.get('count_mcq')} want {want}")
        expect(fields.get("equal") == "true", "equal is not true")

    return run


# -- per-flow ----------------------------------------------------------------------

PER_FLOW_FAMILIES = ("gf9-z8-family", "z5-z4-family", "z3-z2-family")
FLOWS_PER_PAIR = 8
PER_FLOW_DEADLINE_S = 10.0


def setup_per_flow(ctx: Context) -> list[Instance]:
    diagrams = ctx.corpus_diagrams()
    instances = []
    for fname in PER_FLOW_FAMILIES:
        fam = ctx.structure(fname)
        qfam = ctx.gfamily.qg_map(fam)
        for dname, d in diagrams.items():
            flows = ctx.coloring.enumerate_flows(d, fam.group)
            for i, flow in enumerate(ctx.rng.choices(flows, k=FLOWS_PER_PAIR)):
                instances.append(
                    Instance(f"{fname}/{dname}/{i}:{_flow_text(flow)}",
                             _per_flow_call(ctx, d, fam, qfam, flow), PER_FLOW_DEADLINE_S)
                )
    ctx.rng.shuffle(instances)
    return instances


def _flow_text(flow) -> str:
    return " ".join(f"{a}:{v}" for a, v in flow.assignment)


def _per_flow_call(ctx: Context, d, fam, qfam, flow):
    size = fam.alexander[1].size

    def run():
        nb = ctx.coloring.colorings_by_flow(d, fam, flow).count
        nq = ctx.coloring.colorings_by_flow(d, qfam, flow).count
        lb = ctx.coloring.linear_colorings(d, fam, flow)
        lq = ctx.coloring.linear_colorings(d, qfam, flow)
        expect(nb == nq, f"B-family count {nb} != Q_G count {nq}")
        expect(lb.count == nb and lq.count == nq,
               f"linear counts {lb.count}/{lq.count} != backtracking {nb}/{nq}")
        # every per-flow family is over a field, so dimensions are reported
        dim_b, dim_q = lb.module_info[0], lq.module_info[0]
        expect(dim_b == dim_q, f"dimensions {dim_b} != {dim_q}")
        expect(nb == size**dim_b, f"count {nb} != {size}^{dim_b}")

    return run


# -- moves -------------------------------------------------------------------------

ALL_MOVES = ("R1a", "R1b", "R2a", "R2b", "R3", "R4a", "R4b", "R5a", "R5b", "R6")
MOVES_BRAIDS = 12
MOVES_BRAID_SHAPE = dict(strands=2, crossings=3, splits=1)
SITES_PER_INSTANCE = 8
TRANSPORTS_PER_SITE = 16
MOVES_DEADLINE_S = 10.0


def setup_moves(ctx: Context) -> list[Instance]:
    x = ctx.gfamily.associated_mcb(ctx.structure("z3-z2-family"))
    qx = ctx.mcqb.q_functor_mcb(x)
    z2 = ctx.groups.cyclic_group(2)
    diagrams = ctx.corpus_diagrams()
    for i in range(MOVES_BRAIDS):
        diagrams[f"braid{i}"] = ctx.handlebody_braid(**MOVES_BRAID_SHAPE)
    instances = []
    for dname, d in diagrams.items():
        colorings = ctx.coloring.enumerate_colorings_mcb(d, x, want_list=True).colorings
        base = (len(colorings), ctx.coloring.enumerate_colorings_mcq(d, qx).count,
                len(ctx.coloring.enumerate_flows(d, z2)))
        for move in ALL_MOVES:
            for direction in ("apply", "undo"):
                key = f"{dname}/{move}/{direction}"
                run = _moves_call(ctx, key, d, move, direction, x, qx, z2, base, colorings)
                instances.append(Instance(key, run, MOVES_DEADLINE_S))
    ctx.rng.shuffle(instances)
    return instances


def _moves_call(ctx: Context, key, d, move, direction, x, qx, z2, base, colorings):
    def run():
        rng = ctx.rng_for(key)
        sites = ctx.moves.find_sites(d, move, direction)
        for site in rng.sample(sites, min(SITES_PER_INSTANCE, len(sites))):
            where = f"site {','.join(site.ids)} {site.variant}".rstrip()
            d2 = ctx.moves.apply_move(d, site).diagram
            now = (ctx.coloring.enumerate_colorings_mcb(d2, x).count,
                   ctx.coloring.enumerate_colorings_mcq(d2, qx).count,
                   len(ctx.coloring.enumerate_flows(d2, z2)))
            expect(now == base, f"{where}: counts {now} != {base}")
            for col in rng.sample(colorings, min(TRANSPORTS_PER_SITE, len(colorings))):
                try:
                    moved = ctx.moves.transport_coloring(d, d2, col, x)
                    back = ctx.moves.transport_coloring(d2, d, moved, x)
                except RuntimeError as exc:
                    raise RuntimeError(f"{where}: {exc}") from exc
                expect(back.assignment == col.assignment,
                       f"{where}: transport does not round-trip")

    return run


# -- linear ------------------------------------------------------------------------

# (family, braids, braid shape, deadline).  One-strand braids, so every braid
# of a set has the same number of flows.  The Z_9 braids come in two sizes:
# small ones whose Smith normal form solves in about a millisecond, and ones
# with 18 semi-arcs, on which the integer SNF (not reduced mod 9) blows up for
# nearly every flow.  A correct Z_9 solve takes milliseconds, so its deadline
# is short; the GF(9) deadline is ten times a slow instance.
LINEAR_SETS = (
    ("gf9", 32, dict(strands=1, crossings=12, splits=1), 5.0),
    ("z9", 8, dict(strands=1, crossings=2, splits=1), 0.5),
    ("z9", 4, dict(strands=1, crossings=6, splits=2), 0.5),
)
FLOWS_PER_BRAID = 6


def setup_linear(ctx: Context) -> list[Instance]:
    gf9 = ctx.structure("gf9-z8-family")
    z9 = ctx.rings.ring_make(9)
    families = {
        "gf9": gf9,
        "z9": ctx.gfamily.gfamily_alexander_b(z9, 6, z9.element([2]), z9.element([4])),
    }
    images = {name: ctx.gfamily.qg_map(fam) for name, fam in families.items()}
    instances = []
    for fname, n, shape, deadline_s in LINEAR_SETS:
        for _ in range(n):
            d = ctx.handlebody_braid(**shape)
            key = f"{fname}/braid{len(instances)}-{len(d.semiarcs)}sa"
            run = _linear_call(ctx, key, d, families[fname], images[fname])
            instances.append(Instance(key, run, deadline_s))
    ctx.rng.shuffle(instances)
    return instances


def _linear_call(ctx: Context, key, d, fam, qfam):
    ring = fam.alexander[1]

    def run():
        rng = ctx.rng_for(key)
        flows = ctx.coloring.enumerate_flows(d, fam.group)
        for flow in rng.choices(flows, k=FLOWS_PER_BRAID):
            lb = ctx.coloring.linear_colorings(d, fam, flow)
            lq = ctx.coloring.linear_colorings(d, qfam, flow)
            where = f"flow {_flow_text(flow)}"
            expect(lb.count == lq.count, f"{where}: counts {lb.count} != {lq.count}")
            if ring.is_field:
                dim_b, dim_q = lb.module_info[0], lq.module_info[0]
                expect(dim_b == dim_q, f"{where}: dimensions {dim_b} != {dim_q}")
                expect(lb.count == ring.size**dim_b, f"{where}: count {lb.count} != |R|^{dim_b}")

    return run


WORKLOADS = {
    "count": setup_count,
    "per-flow": setup_per_flow,
    "moves": setup_moves,
    "linear": setup_linear,
}
