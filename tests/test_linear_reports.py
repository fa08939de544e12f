"""The linear path's answers on the corpus, pinned.

One line per (Alexander family of the corpus or its Q_G image, corpus
diagram): the number of G-flows and a sha256 over every flow's count,
dimension and basis from ``linear_colorings``, in the order of
``enumerate_flows``.  The file was written by the Gauss-Jordan solve on the
full system that propagation along the diagram replaced, so any change to a
count, a dimension or a basis vector shows here.

Regenerate with ``python tests/test_linear_reports.py > tests/data/linear-reports.txt``
(with ``src`` on the path) only for a change that is meant to move them, and
say why.
"""

import glob
import hashlib
import os

from hlcolor.coloring import enumerate_flows, linear_colorings
from hlcolor.diagram import parse_diagram
from hlcolor.gfamily import qg_map
from hlcolor.structio import parse_structure_file

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "linear-reports.txt")
CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def _families() -> list[tuple[str, object]]:
    out = []
    for path in sorted(glob.glob(os.path.join(CORPUS, "structures", "*.txt"))):
        obj = parse_structure_file(path)
        if getattr(obj, "alexander", None) is not None and hasattr(obj, "group"):
            name = os.path.splitext(os.path.basename(path))[0]
            out += [(name, obj), (f"Q_G({name})", qg_map(obj))]
    return out


def _diagrams() -> list[tuple[str, object]]:
    out = []
    for path in sorted(glob.glob(os.path.join(CORPUS, "diagrams", "*.txt"))):
        with open(path, encoding="utf-8") as fh:
            out.append((os.path.splitext(os.path.basename(path))[0], parse_diagram(fh.read())))
    return out


def report_lines() -> list[str]:
    lines = []
    diagrams = _diagrams()
    for fname, fam in _families():
        for dname, d in diagrams:
            flows = enumerate_flows(d, fam.group)
            digest = hashlib.sha256()
            for flow in flows:
                rep = linear_colorings(d, fam, flow)
                dim, basis = rep.module_info or (None, None)
                digest.update(f"{rep.count} {dim} {basis}\n".encode())
            lines.append(f"{fname} {dname} flows={len(flows)} sha256={digest.hexdigest()}")
    return lines


def test_every_linear_report_matches_the_golden_file():
    with open(GOLDEN, encoding="utf-8") as fh:
        want = fh.read().splitlines()
    got = report_lines()
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"line {i + 1}"
    assert len(got) == len(want) == 96


if __name__ == "__main__":
    print("\n".join(report_lines()))
