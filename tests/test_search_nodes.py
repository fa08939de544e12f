"""The depth-first plan's counts and node counts on the corpus, pinned.

``nodes`` counts the values the plan tries, so it moves with any change to
the variable order or to what a level's candidates and lookups rule out.  The
table covers every corpus (structure, diagram) pair that takes the
depth-first plan: each MCB and MCQ of under 16 elements among the corpus
files, the associated MCBs and MCQs of the family files and the Q(X) of every
such MCB, plus the G-flows of every corpus group and family group, and the
per-flow counts of the small families, run on each flow's fibres.  The plan's order follows the records
of a diagram, not its names, so relabeled diagrams give the same table, and
the row executor, which runs the same plan, gives the same (count, nodes) on
relabeled diagrams for every target it counts.

Regenerate with ``python tests/test_search_nodes.py > tests/data/search-nodes.txt``
(with ``src`` on the path) only for a change that is meant to move them, and
say why.
"""

import os
import random

import pytest

from hlcolor.coloring import (
    _network,
    colorings_by_flow,
    enumerate_colorings,
    enumerate_flows,
)
from hlcolor.diagram import relabel
from hlcolor.gfamily import GFamilyB, GFamilyQ, associated_mcb, associated_mcq
from hlcolor.groups import FiniteGroup
from hlcolor.mcqb import MCB, MCQ, q_functor_mcb
from hlcolor.plan import count, depth_first

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "search-nodes.txt")

SEARCH_MAX = 15  # counts on more elements take the row executor
PER_FLOW_MAX = 15  # per-flow counts on larger families take the row executor


def _targets(structures):
    """Each corpus MCB and MCQ, each family's associated MCB or MCQ, and the
    Q(X) of every such MCB."""
    out = []
    for name, obj in sorted(structures.items()):
        if isinstance(obj, (MCB, MCQ)):
            out.append((name, obj))
        elif isinstance(obj, GFamilyB):
            out.append((f"assoc({name})", associated_mcb(obj)))
        elif isinstance(obj, GFamilyQ):
            out.append((f"assoc({name})", associated_mcq(obj)))
    out += [(f"Q({name})", q_functor_mcb(x)) for name, x in out if isinstance(x, MCB)]
    return out


def _groups(structures):
    out = []
    for name, obj in sorted(structures.items()):
        if isinstance(obj, FiniteGroup):
            out.append((name, obj))
        elif isinstance(obj, (GFamilyB, GFamilyQ)):
            out.append((f"{name}.group", obj.group))
    return out


def search_node_lines(structures, diagrams) -> list[str]:
    lines = []
    for sname, x in _targets(structures):
        if x.n > SEARCH_MAX:
            continue
        for dname, d in sorted(diagrams.items()):
            rep = enumerate_colorings(d, x)
            lines.append(f"color {sname} {dname} count={rep.count} nodes={rep.nodes}")
    for gname, g in _groups(structures):
        for dname, d in sorted(diagrams.items()):
            run = depth_first(_network(d, g))
            found = len(run.rows())
            lines.append(f"flows {gname} {dname} count={found} nodes={run.nodes}")
    for fname, f in sorted(structures.items()):
        if not isinstance(f, (GFamilyB, GFamilyQ)) or f.n > PER_FLOW_MAX:
            continue
        for dname, d in sorted(diagrams.items()):
            reps = [colorings_by_flow(d, f, flow) for flow in enumerate_flows(d, f.group)]
            lines.append(f"per-flow {fname} {dname} flows={len(reps)} "
                         f"count={sum(r.count for r in reps)} nodes={sum(r.nodes for r in reps)}")
    return lines


def _golden() -> list[str]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return fh.read().splitlines()


def test_search_node_counts_are_unchanged(corpus_structures, corpus_diagrams):
    assert search_node_lines(corpus_structures, corpus_diagrams) == _golden()


def _renamed(diagrams, seed: int) -> dict:
    """Every diagram with its semi-arc and loop names shuffled."""
    rng = random.Random(seed)
    renamed = {}
    for name, d in diagrams.items():
        names = list(d.semiarcs + d.loops)
        renamed[name] = relabel(d, dict(zip(names, rng.sample(names, len(names)))))
    return renamed


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_node_counts_do_not_depend_on_names(seed, corpus_structures, corpus_diagrams):
    assert search_node_lines(corpus_structures, _renamed(corpus_diagrams, seed)) == _golden()


def row_node_lines(structures, diagrams) -> list[str]:
    """The row executor's count and nodes on every diagram for every target of
    more than SEARCH_MAX elements: the MCBs of 20, 48 and 72 elements (a
    corpus file and the families' associated MCBs) and their Q(X)."""
    targets = [(name, x) for name, x in _targets(structures) if x.n > SEARCH_MAX]
    lines = []
    for sname, x in targets:
        for dname, d in sorted(diagrams.items()):
            found, nodes = count(_network(d, x))
            lines.append(f"rows {sname} {dname} count={found} nodes={nodes}")
    return lines


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_row_node_counts_do_not_depend_on_names(seed, corpus_structures, corpus_diagrams):
    assert (row_node_lines(corpus_structures, _renamed(corpus_diagrams, seed))
            == row_node_lines(corpus_structures, corpus_diagrams))


if __name__ == "__main__":
    import glob

    from hlcolor.diagram import parse_diagram
    from hlcolor.structio import parse_structure_file

    corpus = os.path.join(os.path.dirname(__file__), "..", "corpus")
    structures = {
        os.path.splitext(os.path.basename(p))[0]: parse_structure_file(p)
        for p in sorted(glob.glob(os.path.join(corpus, "structures", "*.txt")))
    }
    diagrams = {}
    for p in sorted(glob.glob(os.path.join(corpus, "diagrams", "*.txt"))):
        with open(p, encoding="utf-8") as fh:
            diagrams[os.path.splitext(os.path.basename(p))[0]] = parse_diagram(fh.read())
    print("\n".join(search_node_lines(structures, diagrams)))
