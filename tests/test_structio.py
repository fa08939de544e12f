import numpy as np
import pytest

from hlcolor.algebra import Biquandle, Quandle, dihedral_quandle
from hlcolor.coloring import Flow, enumerate_flows
from hlcolor.diagram import theta_curve
from hlcolor.gfamily import GFamilyB, GFamilyQ, qg_map
from hlcolor.groups import FiniteGroup, cyclic_group, symmetric_group
from hlcolor.mcqb import MCB, MCQ
from hlcolor.structio import (
    StructParseError,
    parse_coloring_assignment,
    parse_flow,
    parse_structure,
    serialize_flow,
    serialize_structure,
)


def test_roundtrip_quandle():
    q = dihedral_quandle(3)
    again = parse_structure(serialize_structure(q))
    assert isinstance(again, Quandle)
    assert np.array_equal(again.table, q.table)


def test_roundtrip_all_corpus_structures(corpus_structures):
    for name, obj in corpus_structures.items():
        if isinstance(obj, (GFamilyQ, GFamilyB)) and getattr(obj, "alexander", None):
            continue  # literal constructor files; explicit form tested below
        text = serialize_structure(obj)
        again = parse_structure(text)
        assert type(again) is type(obj), name
        assert serialize_structure(again) == text, name


def test_explicit_gfamily_roundtrip(corpus_structures):
    fam = corpus_structures["z3-z2-family"]
    text = serialize_structure(fam)
    again = parse_structure(text)
    assert isinstance(again, GFamilyB)
    assert np.array_equal(again.under_ops, fam.under_ops)
    assert np.array_equal(again.over_ops, fam.over_ops)
    qfam = qg_map(fam)
    qtext = serialize_structure(qfam)
    qagain = parse_structure(qtext)
    assert np.array_equal(qagain.ops, qfam.ops)


def test_alexander_literal_parses(corpus_structures):
    b = corpus_structures["alex-z5-s2-t3"]
    assert isinstance(b, Biquandle) and b.n == 5
    assert corpus_structures["alex-z81-s-neg-t"].n == 81


def test_zkm_family_file_reference(corpus_structures):
    fam = corpus_structures["dihedral-z2-family"]
    assert isinstance(fam, GFamilyQ)
    assert fam.group.n == 2


def test_group_files(corpus_structures):
    assert isinstance(corpus_structures["z8"], FiniteGroup)
    assert corpus_structures["z8"] == cyclic_group(8)
    assert corpus_structures["s3"].n == 6


def test_mcq_mcb_files(corpus_structures):
    assert isinstance(corpus_structures["assoc-dihedral-z2-mcq"], MCQ)
    assert isinstance(corpus_structures["assoc-z5-z4-mcb"], MCB)
    assert corpus_structures["assoc-z5-z4-mcb"].n == 20


def test_parse_errors_carry_line_numbers():
    with pytest.raises(StructParseError, match="line 1"):
        parse_structure("")
    with pytest.raises(StructParseError, match="line 1"):
        parse_structure("quandle m=3")
    with pytest.raises(StructParseError, match="line 2"):
        parse_structure("quandle n=2\n0 1 1\n1 0\n")
    with pytest.raises(StructParseError, match="partition"):
        parse_structure("mcq n=2\nprod:\n0 1\n1 0\nstar:\n0 0\n1 1\n")


def test_flow_roundtrip():
    flow = Flow.from_dict(cyclic_group(8), {"s1": 3, "s2": 5})
    text = serialize_flow(flow)
    again = parse_flow(text)
    assert again == flow


def test_serialize_flow_rejects_a_group_that_zn_cannot_name():
    # an S3 flow used to be written as flow zn=6 and read back as a Z_6 flow
    flow = enumerate_flows(theta_curve(), symmetric_group(3))[7]
    with pytest.raises(ValueError, match="another group of that order"):
        serialize_flow(flow)


def test_flow_group_reference(tmp_path):
    text = "flow group=g.txt\nassign a 2\n"
    (tmp_path / "g.txt").write_text("group zn n=4\n")
    flow = parse_flow(text, base_dir=str(tmp_path))
    assert flow.group.n == 4 and flow.as_dict() == {"a": 2}


def test_coloring_assignment_roundtrip():
    from hlcolor.coloring import Coloring
    from hlcolor.structio import serialize_coloring

    col = Coloring(None, {"s1": 4, "s2": 0})
    text = serialize_coloring(col)
    assert parse_coloring_assignment(text) == {"s1": 4, "s2": 0}
    with pytest.raises(StructParseError):
        parse_coloring_assignment("assign s1 4\n")
    with pytest.raises(StructParseError, match="line 2"):
        parse_coloring_assignment("coloring\nassign s1 abc\n")
