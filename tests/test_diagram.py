import pytest

from hlcolor.coloring import enumerate_colorings_mcb
from hlcolor.diagram import (
    Crossing,
    Diagram,
    DiagramError,
    Vertex,
    arc_classes,
    build_braid,
    build_braid_open,
    diagrams_isomorphic,
    disjoint_union,
    figure_eight,
    handcuff_clasp,
    loop_diagram,
    mirror,
    parse_diagram,
    relabel,
    reverse,
    reverse_mirror,
    serialize_diagram,
    theta_curve,
    trefoil,
)


def test_trefoil_shape():
    tr = trefoil()
    assert len(tr.semiarcs) == 6
    assert len(tr.crossings) == 3
    assert all(c.sign == 1 for c in tr.crossings)
    assert tr.is_closed()
    assert len(arc_classes(tr)) == 3


def test_theta_shape():
    th = theta_curve()
    assert len(th.semiarcs) == 3
    assert len(th.vertices) == 2
    assert len(arc_classes(th)) == 3


def test_loop_and_fig8_and_clasp():
    assert len(arc_classes(loop_diagram())) == 1
    f8 = figure_eight()
    assert len(f8.crossings) == 4
    assert sorted(c.sign for c in f8.crossings) == [-1, -1, 1, 1]
    cl = handcuff_clasp()
    assert len(cl.crossings) == 2 and len(cl.vertices) == 2


def test_arc_count_equals_semiarcs_minus_crossings(corpus_diagrams):
    for name, d in corpus_diagrams.items():
        n_semi = len(d.semiarcs) + len(d.loops)
        assert len(arc_classes(d)) == n_semi - len(d.crossings), name


def test_roundtrip_canonical(corpus_diagrams):
    for name, d in corpus_diagrams.items():
        text = serialize_diagram(d)
        again = parse_diagram(text)
        assert again == d, name
        assert serialize_diagram(again) == text, name


def test_parse_errors_name_the_offender():
    with pytest.raises(DiagramError, match="'a'"):
        parse_diagram("x+ a b a c\nx+ c d b e\n")
    with pytest.raises(DiagramError, match="no start"):
        parse_diagram("semiarc z\n" + serialize_diagram(trefoil()))
    with pytest.raises(DiagramError, match="line 1"):
        parse_diagram("x+ a b c\n")
    with pytest.raises(DiagramError, match="loop"):
        parse_diagram("loop a\nx+ a b a b\n")


def test_open_diagrams_validate_and_boundaries():
    d, tops, bottoms = build_braid_open(2, [("x", 0, 1)])
    assert d.top_boundary() == sorted(tops)
    assert sorted(d.bottom_boundary()) == sorted(bottoms)
    with pytest.raises(DiagramError):
        parse_diagram(serialize_diagram(d))  # closed parse rejects open diagrams
    parse_diagram(serialize_diagram(d), allow_open=True)


def test_reverse_involution_and_mirror(corpus_diagrams):
    for name, d in corpus_diagrams.items():
        assert reverse(reverse(d)) == d, name
        m = mirror(d)
        assert [c.sign for c in m.crossings] == [-c.sign for c in d.crossings]
        assert mirror(m) == d
        rm = reverse_mirror(d)
        assert set(rm.semiarcs) == set(d.semiarcs)


def test_disjoint_union_counts_and_renaming():
    du = disjoint_union(trefoil(), theta_curve())
    assert len(du.semiarcs) == 9
    du2 = disjoint_union(trefoil(), trefoil())
    assert len(du2.semiarcs) == 12
    du2.validate()
    lp = disjoint_union(loop_diagram(), loop_diagram())
    assert len(lp.loops) == 2


def test_transforms_keep_declared_semiarcs_on_no_record(corpus_structures):
    # strand 2 of the open braid crosses nothing, so t2 is declared but on no record
    d = build_braid_open(3, [("x", 0, 1)])[0]
    assert "t2" in d.semiarcs and len(d.semiarcs) == 5
    x = corpus_structures["assoc-z3-z2-mcb"]
    assert enumerate_colorings_mcb(d, x).count == 216
    renamed = relabel(d, {"t2": "free"})
    assert "free" in renamed.semiarcs and "t2" not in renamed.semiarcs
    for image in (relabel(d, {}), renamed, reverse(d), mirror(d), reverse_mirror(d)):
        assert len(image.semiarcs) == 5
        assert enumerate_colorings_mcb(image, x).count == 216
    du = disjoint_union(d, d)
    assert len(du.semiarcs) == 10 and {"t2", "t2'"} <= set(du.semiarcs)
    assert enumerate_colorings_mcb(du, x).count == 216**2


def test_braid_closure_free_strand_becomes_loop():
    d = build_braid(2, [])
    assert len(d.loops) == 2 and not d.semiarcs


def test_braid_negative_generator_orientation():
    d, tops, bottoms = build_braid_open(2, [("x", 0, -1)])
    c = d.crossings[0]
    assert c.sign == -1
    assert c.over_in == tops[1]
    assert c.under_in == tops[0]


def test_isomorphism_check():
    tr = trefoil()
    assert diagrams_isomorphic(tr, relabel(tr, {s: "w" + s for s in tr.semiarcs}))
    assert not diagrams_isomorphic(tr, figure_eight())
    assert not diagrams_isomorphic(theta_curve(), handcuff_clasp())


def test_vertex_and_crossing_records():
    d = parse_diagram("semiarc a b c\nv< a b c\nv> a b c\n")
    assert d.vertices[0].kind == "merge"
    assert d.vertices[1].kind == "split"
    with pytest.raises(DiagramError, match="sign"):
        Diagram([Crossing(2, "a", "b", "c", "d")]).validate(allow_open=True)
    with pytest.raises(DiagramError, match="kind"):
        Diagram(vertices=[Vertex("junction", "a", "b", "c")]).validate(allow_open=True)
