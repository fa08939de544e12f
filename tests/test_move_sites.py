"""find_sites against the candidate scan it replaced.

``scan_sites`` lists every possible site of a move and matches each one on its
own through ``_Records.find``, the way ``apply_move`` checks a site.
``find_sites`` starts each picture's match from the diagram's records of its
anchor kind instead, and lists strand pictures straight from the ids; both
must give the same sites in the same order.
"""

import pytest

from hlcolor import moves
from hlcolor.diagram import build_braid, build_braid_open
from hlcolor.moves import MoveSite, SiteMismatchError, find_sites
from tests.test_braids import braid_words

hypothesis = pytest.importorskip("hypothesis")

ALL_MOVES = ("R1a", "R1b", "R2a", "R2b", "R3", "R4a", "R4b", "R5a", "R5b", "R6")


def scan_sites(d, move: str, direction: str) -> list[MoveSite]:
    """Every site of the move, one candidate at a time through _Records.find."""
    if (move, direction) not in moves._TABLE:
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
    view = moves._Records(d)
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


def assert_same_sites(d, where) -> int:
    found = 0
    for move in ALL_MOVES:
        for direction in ("apply", "undo"):
            sites = find_sites(d, move, direction)
            assert sites == scan_sites(d, move, direction), (where, move, direction)
            found += len(sites)
    return found


def test_corpus_sites_match_the_candidate_scan(corpus_diagrams):
    assert {"loop", "union-loop-loop"} <= corpus_diagrams.keys()
    for name, d in sorted(corpus_diagrams.items()):
        assert_same_sites(d, name)


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(braid_words())
def test_generated_closed_braid_sites_match_the_candidate_scan(braid):
    assert_same_sites(build_braid(*braid), braid)


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(braid_words())
def test_generated_open_braid_sites_match_the_candidate_scan(braid):
    assert_same_sites(build_braid_open(*braid)[0], braid)


def test_open_braids_with_semiarcs_on_no_record_match_the_candidate_scan():
    for word in ([("x", 0, 1)], [("x", 1, -1), ("s", 1)], [("s", 0), ("m", 0)], []):
        d = build_braid_open(3, word)[0]
        on_records = {s for c in d.crossings for s in c.slots()}
        on_records |= {s for v in d.vertices for s in v.slots()}
        assert set(d.semiarcs) - on_records, word
        assert assert_same_sites(d, word)


def test_a_picture_starts_one_match_per_record_of_its_anchor_kind(corpus_diagrams, monkeypatch):
    """find_sites matches a picture once from each of the diagram's records of
    the kind of its first record, and never a strand picture."""
    starts = []
    match = moves._Records.match

    def counting(view, pic, env, used=()):
        starts.append((view, pic, tuple(used)))
        return match(view, pic, env, used)

    monkeypatch.setattr(moves._Records, "match", counting)
    for name, d in sorted(corpus_diagrams.items()):
        for move in ALL_MOVES:
            for direction in ("apply", "undo"):
                starts.clear()
                find_sites(d, move, direction)
                pics = moves._TABLE[move, direction]
                if not pics[0].src.records:
                    assert starts == [], (name, move, direction)
                    continue
                seen = set()
                for view, pic, used in starts:
                    (i,) = used
                    assert view.records[i][0] == pic.src.plan[0][0], (name, move, direction)
                    seen.add((id(pic), i))
                assert len(seen) == len(starts), (name, move, direction)
                by_kind = moves._view(d).by_kind
                assert len(starts) <= sum(len(by_kind.get(p.src.plan[0][0], ())) for p in pics)
