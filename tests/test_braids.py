"""Counts and listings on generated handlebody braids, against brute force,
and their counts and transports under every move.

The corpus has 12 diagrams; these are closed braid words over
``diagram.build_braid`` with 1-3 strands, up to 4 crossings and 0-2
split/merge pairs, drawn by a derandomized hypothesis strategy.
"""

import itertools

import pytest

from hlcolor import coloring
from hlcolor.coloring import (
    brute_force_colorings,
    coloring_vars,
    enumerate_colorings,
    enumerate_flows,
)
from hlcolor.diagram import build_braid
from hlcolor.groups import cyclic_group
from hlcolor.mcqb import MCQ, q_functor_mcb
from hlcolor.moves import apply_move, find_sites, transport_coloring
from hlcolor.oracle import local_rules_hold

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

BRUTE_FORCE_MAX = 6**5  # assignments; larger spaces compare the two plans only
ALL_MOVES = ("R1a", "R1b", "R2a", "R2b", "R3", "R4a", "R4b", "R5a", "R5b", "R6")


@st.composite
def braid_words(draw, min_pairs: int = 0, max_strands: int = 3):
    """(strands, word): splits, crossings and merges in any order, each merge
    that would leave fewer than one strand held back until a split."""
    strands = draw(st.integers(1, max_strands))
    pairs = draw(st.integers(min_pairs, 2))
    ops = draw(st.permutations(["x"] * draw(st.integers(0, 4)) + ["s", "m"] * pairs))
    word, width, held = [], strands, 0
    for op in ops:
        if op == "m" and width < 2:
            held += 1
        elif op == "s":
            word.append(("s", draw(st.integers(0, width - 1))))
            width += 1
            while held and width >= 2:
                word.append(("m", draw(st.integers(0, width - 2))))
                width -= 1
                held -= 1
        elif width >= 2:
            i = draw(st.integers(0, width - 2))
            if op == "x":
                word.append(("x", i, draw(st.sampled_from([1, -1]))))
            else:
                word.append(("m", i))
                width -= 1
    return strands, word


@pytest.fixture(scope="module")
def mcb(corpus_structures):
    x = corpus_structures["assoc-z3-z2-mcb"]
    return x, q_functor_mcb(x)


def _brute_force_rows(d, x) -> list[tuple]:
    """Every assignment that the oracle accepts, in lexicographic order of the
    values in sorted variable order."""
    vars_ = coloring_vars(d, isinstance(x, MCQ))
    return [combo for combo in itertools.product(range(x.n), repeat=len(vars_))
            if local_rules_hold(d, x, dict(zip(vars_, combo)))]


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(braid_words())
def test_generated_braids_match_brute_force(mcb, braid):
    d = build_braid(*braid)
    counts = []
    for x in mcb:
        count = enumerate_colorings(d, x).count
        with pytest.MonkeyPatch.context() as m:
            m.setattr(coloring, "_PLAN_MIN_DOMAIN", 1)  # every count on the row executor
            assert enumerate_colorings(d, x).count == count, braid
        listed = enumerate_colorings(d, x, want_list=True).colorings
        assert len(listed) == count, braid
        vars_ = coloring_vars(d, isinstance(x, MCQ))
        if x.n ** len(vars_) <= BRUTE_FORCE_MAX:
            assert brute_force_colorings(d, x) == count, braid
            assert [c.restrict(vars_) for c in listed] == _brute_force_rows(d, x), braid
        counts.append(count)
    assert counts[0] == counts[1], braid


@hypothesis.settings(derandomize=True, max_examples=8, deadline=None)
@hypothesis.given(braid_words(min_pairs=1))
def test_generated_braids_keep_their_counts_and_transport_under_every_move(mcb, braid):
    """Every site of every move and direction, kinks and bigons included:
    the X, Q(X) and Z_2-flow counts stay, and every X-coloring transports to
    a coloring the oracle accepts and back to itself."""
    x, qx = mcb
    z2 = cyclic_group(2)
    d = build_braid(*braid)
    cols = enumerate_colorings(d, x, want_list=True).colorings
    counts = (len(cols), enumerate_colorings(d, qx).count, len(enumerate_flows(d, z2)))
    for move in ALL_MOVES:
        for direction in ("apply", "undo"):
            for site in find_sites(d, move, direction):
                d2 = apply_move(d, site).diagram
                now = (enumerate_colorings(d2, x).count, enumerate_colorings(d2, qx).count,
                       len(enumerate_flows(d2, z2)))
                assert now == counts, (braid, site)
                for col in cols:
                    moved = transport_coloring(d, d2, col, x)
                    assert local_rules_hold(d2, x, moved.assignment), (braid, site)
                    back = transport_coloring(d2, d, moved, x)
                    assert back.assignment == col.assignment, (braid, site)
