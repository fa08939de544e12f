"""G-flows as colorings by the conjugation MCQ, and the ``flows`` CLI pinned.

One line per (group, corpus diagram), for ``--zn`` 1..6 and ``--group
corpus/structures/s3.txt``: a sha256 over the exit code, stdout and stderr
of ``hlcolor --format machine flows D ...`` without ``--list`` and one over
those of the same call with ``--list``.

Regenerate with ``python tests/test_flows_corpus.py > tests/data/flows-corpus.txt``
(with ``src`` on the path) only for a change that is meant to move them, and
say why.
"""

import contextlib
import glob
import hashlib
import io
import os

import pytest

from hlcolor import coloring
from hlcolor.cli import main
from hlcolor.coloring import coloring_rows, enumerate_flows
from hlcolor.groups import cyclic_group
from hlcolor.mcqb import conjugation_mcq
from hlcolor.structio import parse_structure_file

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "flows-corpus.txt")
CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
S3 = os.path.join(CORPUS, "structures", "s3.txt")
GROUP_ARGS = [(f"zn={k}", ["--zn", str(k)]) for k in range(1, 7)] + [("s3", ["--group", S3])]


def _diagram_paths() -> list[tuple[str, str]]:
    return [(os.path.splitext(os.path.basename(path))[0], path)
            for path in sorted(glob.glob(os.path.join(CORPUS, "diagrams", "*.txt")))]


def _flows_cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--format", "machine", "flows", *argv])
    return code, out.getvalue(), err.getvalue()


def _digest(result: tuple[int, str, str]) -> str:
    code, out, err = result
    return hashlib.sha256(f"{code}\n{out}\n{err}".encode()).hexdigest()


def report_lines() -> list[str]:
    lines = []
    for gname, gargs in GROUP_ARGS:
        for dname, path in _diagram_paths():
            count = _flows_cli(path, *gargs)
            listing = _flows_cli(path, *gargs, "--list")
            lines.append(f"{gname} {dname} count-sha256={_digest(count)} "
                         f"list-sha256={_digest(listing)}")
    return lines


def test_flows_cli_output_matches_the_golden_file():
    with open(GOLDEN, encoding="utf-8") as fh:
        want = fh.read().splitlines()
    got = report_lines()
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"line {i + 1}"
    assert len(got) == len(want) == 84


@pytest.mark.parametrize("gname, gargs", GROUP_ARGS, ids=[g for g, _ in GROUP_ARGS])
def test_flows_are_the_colorings_by_the_conjugation_mcq(monkeypatch, corpus_diagrams,
                                                        gname, gargs):
    g = parse_structure_file(S3) if gname == "s3" else cyclic_group(int(gargs[1]))
    x = conjugation_mcq(g)
    counts = {}
    for dname, d in corpus_diagrams.items():
        names, rows = coloring_rows(d, x)
        want = [tuple(zip(names, row)) for row in rows.tolist()]
        assert [flow.assignment for flow in enumerate_flows(d, g)] == want, dname
        counts[dname] = len(want)

    def no_flow(*args):
        raise AssertionError("flows without --list built a Flow")

    # a count prints the listing's count and builds no Flow
    monkeypatch.setattr(coloring, "Flow", no_flow)
    for dname, path in _diagram_paths():
        assert _flows_cli(path, *gargs) == (0, f"count={counts[dname]}\n", ""), dname


if __name__ == "__main__":
    print("\n".join(report_lines()))
