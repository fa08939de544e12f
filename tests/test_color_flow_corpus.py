"""The per-flow CLI calls pinned on the corpus families.

One line per (family, corpus diagram) for each of the first, middle and last
G-flow of the diagram, in ``enumerate_flows`` order: a sha256 over the exit
code, stdout and stderr of ``hlcolor --format machine color F D --flow FLOW``
without ``--list`` and one over those of the same call with ``--list``.  One
more line per (family, diagram) holds the sha256 of ``hlcolor --format
machine verify --per-flow F D``.

Regenerate with ``python tests/test_color_flow_corpus.py > tests/data/color-flow-corpus.txt``
(with ``src`` on the path) only for a change that is meant to move them, and
say why.
"""

import contextlib
import glob
import hashlib
import io
import os
import tempfile

from hlcolor.cli import main
from hlcolor.coloring import enumerate_flows
from hlcolor.diagram import parse_diagram
from hlcolor.gfamily import GFamilyB, GFamilyQ
from hlcolor.structio import parse_structure_file, serialize_flow

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "color-flow-corpus.txt")
CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def _paths(kind: str) -> list[tuple[str, str]]:
    return [(os.path.splitext(os.path.basename(path))[0], path)
            for path in sorted(glob.glob(os.path.join(CORPUS, kind, "*.txt")))]


def _cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--format", "machine", *argv])
    return code, out.getvalue(), err.getvalue()


def _digest(result: tuple[int, str, str]) -> str:
    code, out, err = result
    return hashlib.sha256(f"{code}\n{out}\n{err}".encode()).hexdigest()


def report_lines(workdir: str) -> list[str]:
    """The table, writing each flow file into workdir."""
    families = [(name, path, parse_structure_file(path)) for name, path in _paths("structures")]
    families = [(n, p, f) for n, p, f in families if isinstance(f, (GFamilyB, GFamilyQ))]
    flow_file = os.path.join(workdir, "flow.txt")
    lines = []
    for fname, fpath, f in families:
        for dname, dpath in _paths("diagrams"):
            with open(dpath, encoding="utf-8") as fh:
                flows = enumerate_flows(parse_diagram(fh.read()), f.group)
            for i in sorted({0, len(flows) // 2, len(flows) - 1}):
                with open(flow_file, "w", encoding="utf-8") as fh:
                    fh.write(serialize_flow(flows[i]))
                count = _cli("color", fpath, dpath, "--flow", flow_file)
                listing = _cli("color", fpath, dpath, "--flow", flow_file, "--list")
                lines.append(f"color {fname} {dname} flow={i} count-sha256={_digest(count)} "
                             f"list-sha256={_digest(listing)}")
            verify = _cli("verify", "--per-flow", fpath, dpath)
            lines.append(f"verify {fname} {dname} sha256={_digest(verify)}")
    return lines


def test_color_flow_cli_output_matches_the_golden_file(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        want = fh.read().splitlines()
    got = report_lines(str(tmp_path))
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"line {i + 1}"
    assert len(got) == len(want)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        print("\n".join(report_lines(workdir)))
