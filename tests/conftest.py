import glob
import os
import re

import pytest

from hlcolor.diagram import parse_diagram
from hlcolor.gfamily import associated_mcb
from hlcolor.mcqb import MCB, MCQ
from hlcolor.rings import FiniteRing, parse_ring_literal
from hlcolor.structio import parse_structure_file

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def corpus_path(*parts) -> str:
    return os.path.join(CORPUS, *parts)


def corpus_rings() -> dict[str, FiniteRing]:
    """The coefficient ring of each corpus structure file that names one."""
    out = {}
    for path in sorted(glob.glob(corpus_path("structures", "*.txt"))):
        with open(path, encoding="utf-8") as fh:
            found = re.search(r"ring=(ring m=\d+(?: poly=[\d,]+)?)", fh.read())
        if found:
            out[os.path.splitext(os.path.basename(path))[0]] = parse_ring_literal(found.group(1))
    return out


@pytest.fixture(scope="session")
def corpus_structures():
    out = {}
    for path in sorted(glob.glob(corpus_path("structures", "*.txt"))):
        name = os.path.splitext(os.path.basename(path))[0]
        out[name] = parse_structure_file(path)
    return out


@pytest.fixture(scope="session")
def corpus_diagrams():
    out = {}
    for path in sorted(glob.glob(corpus_path("diagrams", "*.txt"))):
        name = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as fh:
            out[name] = parse_diagram(fh.read())
    return out


@pytest.fixture(scope="session")
def corpus_mcbs(corpus_structures):
    """All corpus MCBs, including those built from the family files."""
    out = {
        name: obj
        for name, obj in corpus_structures.items()
        if isinstance(obj, MCB)
    }
    out["assoc-gf9-z8-mcb"] = associated_mcb(corpus_structures["gf9-z8-family"])
    return out


@pytest.fixture(scope="session")
def corpus_mcqs(corpus_structures):
    out = {
        name: obj
        for name, obj in corpus_structures.items()
        if isinstance(obj, MCQ)
    }
    return out
