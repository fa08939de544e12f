import os
import subprocess
import sys

import numpy as np
import pytest

from hlcolor.cli import main
from tests.conftest import corpus_path

PINNED_LIST = os.path.join(os.path.dirname(__file__), "data",
                           "color-list-assoc-z3-z2-mcb-stem-clasp.txt")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_check_valid_structures(capsys):
    for name in ("dihedral3", "gf9-z8-family", "assoc-z5-z4-mcb", "s3-conj-mcq", "s3"):
        code, out = run(capsys, "check", corpus_path("structures", f"{name}.txt"))
        assert code == 0, (name, out)
        assert "ok: true" in out


def test_check_mutated_structure(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("quandle n=3\n0 2 1\n2 1 0\n1 0 0\n")
    code, out = run(capsys, "check", str(path))
    assert code == 1
    assert "violation" in out


def test_check_parse_error(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    code, _ = run(capsys, "check", str(path))
    assert code == 2


def test_functor_produces_checkable_mcq(capsys, tmp_path):
    src = corpus_path("structures", "assoc-z5-z4-mcb.txt")
    out_path = tmp_path / "q.txt"
    code, _ = run(capsys, "functor", src, "-o", str(out_path))
    assert code == 0
    code, out = run(capsys, "check", str(out_path))
    assert code == 0 and "MCQ" in out


def test_functor_on_quandle_lift_star_equals_under(capsys, tmp_path):
    from hlcolor.structio import parse_structure_file

    src = corpus_path("structures", "lift-dihedral-mcb.txt")
    out_path = tmp_path / "q.txt"
    assert run(capsys, "functor", src, "-o", str(out_path))[0] == 0
    lifted = parse_structure_file(src)
    q = parse_structure_file(str(out_path))
    assert np.array_equal(q.star, lifted.under)


def test_qg_output_matches_expected_family(capsys, tmp_path):
    from hlcolor.gfamily import qg_map
    from hlcolor.structio import parse_structure_file

    src = corpus_path("structures", "gf9-z8-family.txt")
    out_path = tmp_path / "qg.txt"
    assert run(capsys, "qg", src, "-o", str(out_path))[0] == 0
    got = parse_structure_file(str(out_path))
    want = qg_map(parse_structure_file(src))
    assert np.array_equal(got.ops, want.ops)
    code, out = run(capsys, "check", str(out_path))
    assert code == 0


def test_build_assoc_zkm_conj_lift(capsys, tmp_path):
    out_path = tmp_path / "out.txt"
    cases = [
        ("assoc", corpus_path("structures", "dihedral-z2-family.txt")),
        ("zkm", corpus_path("structures", "dihedral3.txt")),
        ("conj", corpus_path("structures", "s3.txt")),
        ("lift", corpus_path("structures", "assoc-dihedral-z2-mcq.txt")),
        ("tables", corpus_path("structures", "z5-z4-family.txt")),
    ]
    for what, src in cases:
        code, _ = run(capsys, "build", what, src, "-o", str(out_path))
        assert code == 0, what
        code, out = run(capsys, "check", str(out_path))
        assert code == 0, (what, out)


def test_flows_counts(capsys):
    code, out = run(capsys, "flows", corpus_path("diagrams", "theta.txt"), "--zn", "2")
    assert code == 0 and "count: 4" in out
    code, out = run(
        capsys, "flows", corpus_path("diagrams", "trefoil.txt"),
        "--group", corpus_path("structures", "s3.txt"), "--list",
    )
    assert code == 0


def test_color_counts(capsys):
    code, out = run(
        capsys, "color",
        corpus_path("structures", "assoc-dihedral-z2-mcq.txt"),
        corpus_path("diagrams", "trefoil.txt"),
        "--count",
    )
    assert code == 0 and "count: 12" in out
    code, out = run(
        capsys, "color",
        corpus_path("structures", "assoc-z3-z2-mcb.txt"),
        corpus_path("diagrams", "loop.txt"),
    )
    assert code == 0 and "count: 6" in out


def test_color_per_flow_and_dim(capsys, tmp_path):
    code, out = run(
        capsys, "color",
        corpus_path("structures", "dihedral-z2-family.txt"),
        corpus_path("diagrams", "trefoil.txt"),
        "--per-flow",
    )
    assert code == 0 and "count: 12" in out
    flow_file = tmp_path / "flow.txt"
    flow_file.write_text("flow zn=8\nassign s1 2\nassign s2 2\nassign s4 2\n")
    code, out = run(
        capsys, "color",
        corpus_path("structures", "gf9-z8-family.txt"),
        corpus_path("diagrams", "trefoil.txt"),
        "--dim", "--flow", str(flow_file), "--list",
    )
    assert code == 0 and "dimension: 2" in out and "basis" in out


@pytest.mark.parametrize("flags", [
    ("--dim",),
    ("--per-flow",),
    ("--flow", "FLOW"),
    ("--dim", "--per-flow", "--flow", "FLOW"),
])
def test_flow_flags_on_an_mcb_are_a_usage_error(capsys, tmp_path, flags):
    # FLOW names no file: the flags are rejected before any flow is read
    flags = [str(tmp_path / "nonexistent.txt") if f == "FLOW" else f for f in flags]
    for structure in ("assoc-z3-z2-mcb.txt", "s3-conj-mcq.txt"):
        code, out = run(
            capsys, "color",
            corpus_path("structures", structure),
            corpus_path("diagrams", "trefoil.txt"),
            *flags,
        )
        assert code == 2 and out == ""


@pytest.mark.parametrize("flags", [("--dim",), ("--flow", "FLOW"), ("--dim", "--flow", "FLOW")])
def test_per_flow_with_flow_or_dim_is_a_usage_error(capsys, tmp_path, flags):
    # a Z_3 flow on the Z_8 family: read, it would exit 1 with "invalid flow"
    flow_file = tmp_path / "flow.txt"
    flow_file.write_text("flow zn=3\nassign s1 1\nassign s2 1\nassign s4 1\n")
    flags = [str(flow_file) if f == "FLOW" else f for f in flags]
    code, out = run(
        capsys, "color",
        corpus_path("structures", "gf9-z8-family.txt"),
        corpus_path("diagrams", "trefoil.txt"),
        "--per-flow", *flags,
    )
    assert code == 2 and out == ""


def test_color_budget_exit(capsys):
    code, _ = run(
        capsys, "color",
        corpus_path("structures", "assoc-z5-z4-mcb.txt"),
        corpus_path("diagrams", "fig8.txt"),
        "--budget", "5",
    )
    assert code == 3


@pytest.mark.parametrize("structure", ["gf9-z8-family", "assoc-z5-z4-mcb"])
def test_color_count_budget_exit_on_the_plan_path(capsys, structure):
    code, _ = run(
        capsys, "color",
        corpus_path("structures", f"{structure}.txt"),
        corpus_path("diagrams", "fig8.txt"),
        "--count", "--budget", "5",
    )
    assert code == 3


def test_the_parser_is_built_once_and_parses_each_call_afresh(capsys, monkeypatch):
    from hlcolor import cli

    calls = [
        ["--format", "machine", "color", corpus_path("structures", "gf9-z8-family.txt"),
         corpus_path("diagrams", "trefoil.txt"), "--count"],
        ["verify", corpus_path("structures", "assoc-z3-z2-mcb.txt"),
         corpus_path("diagrams", "theta.txt")],
        ["flows", corpus_path("diagrams", "theta.txt"), "--zn", "2"],
    ]
    reused = [run(capsys, *argv) for argv in calls]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert reused == [run(capsys, *argv) for argv in calls]
    assert reused[0][1].startswith("count=") and "count: 4" in reused[2][1]


@pytest.mark.parametrize("command", ["color", "verify"])
def test_negative_budget_is_a_usage_error(capsys, command):
    code, _ = run(
        capsys, command,
        corpus_path("structures", "assoc-z3-z2-mcb.txt"),
        corpus_path("diagrams", "trefoil.txt"),
        "--budget", "-1",
    )
    assert code == 2


def test_missing_flow_file_is_a_parse_error(capsys, tmp_path):
    code, _ = run(
        capsys, "color",
        corpus_path("structures", "gf9-z8-family.txt"),
        corpus_path("diagrams", "trefoil.txt"),
        "--flow", str(tmp_path / "nonexistent.txt"),
    )
    assert code == 2


@pytest.mark.parametrize("text", [
    "flow zn=8\nassign s1 abc\n",
    "flow zn=abc\n",
    "flow zn=0\n",
])
def test_malformed_flow_file_is_a_parse_error(capsys, tmp_path, text):
    from hlcolor.structio import StructParseError, parse_flow

    with pytest.raises(StructParseError):
        parse_flow(text)
    flow_file = tmp_path / "flow.txt"
    flow_file.write_text(text)
    code, _ = run(
        capsys, "color",
        corpus_path("structures", "gf9-z8-family.txt"),
        corpus_path("diagrams", "trefoil.txt"),
        "--flow", str(flow_file),
    )
    assert code == 2


@pytest.mark.parametrize("group", ["group zn n=0\n", "quandle n=2\n0 0\n1 1\n"])
def test_flow_naming_a_file_that_is_no_group_is_a_parse_error(capsys, tmp_path, group):
    # found by the flow fuzz: a group= file that fails to build ended in a traceback
    (tmp_path / "group.txt").write_text(group)
    flow_file = tmp_path / "flow.txt"
    flow_file.write_text("flow group=group.txt\nassign s1 0\nassign s2 0\nassign s4 0\n")
    code = main(["color", corpus_path("structures", "z3-z2-family.txt"),
                 corpus_path("diagrams", "trefoil.txt"), "--flow", str(flow_file)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err.startswith("parse error:")


def test_dim_on_a_family_that_is_not_alexander_is_a_usage_error(capsys, tmp_path):
    # found by the flow fuzz: the linear path's ValueError ended in a traceback
    flow_file = tmp_path / "flow.txt"
    flow_file.write_text("flow zn=2\nassign s1 0\nassign s2 0\nassign s4 0\n")
    code = main(["color", corpus_path("structures", "dihedral-z2-family.txt"),
                 corpus_path("diagrams", "trefoil.txt"), "--dim", "--flow", str(flow_file)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == "--dim needs an Alexander family\n"


def test_list_into_a_closed_pipe_prints_no_traceback():
    # the listing (about 100 kB) outgrows the pipe buffer, so the writer
    # still has output left when the reader goes away after one line
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "hlcolor.cli", "color",
         corpus_path("structures", "assoc-z5-z4-mcb.txt"),
         corpus_path("diagrams", "union-trefoil-theta.txt"), "--list"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"count:")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err.decode()
    assert proc.returncode in (0, 1, 2, 3)


def test_python_dash_m_hlcolor_runs_the_cli():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "hlcolor", "--help"], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.startswith(b"usage: hlcolor")


def test_verify_corpus_and_injection(capsys, monkeypatch):
    code, out = run(
        capsys, "verify",
        corpus_path("structures", "assoc-z3-z2-mcb.txt"),
        corpus_path("diagrams", "trefoil.txt"),
    )
    assert code == 0 and "equal: true" in out
    code, out = run(
        capsys, "verify",
        corpus_path("structures", "gf9-z8-family.txt"),
        corpus_path("diagrams", "theta.txt"),
        "--per-flow",
    )
    assert code == 0 and "per_flow_equal: true" in out
    # a wrong Q(X): the image's star post-composed with an in-block
    # transposition, so the compared counts must disagree
    import hlcolor.mcqb
    from hlcolor.mcqb import MCQ

    q_functor_mcb = hlcolor.mcqb.q_functor_mcb

    def wrong_q(x):
        q = q_functor_mcb(x)
        block0 = [i for i in range(q.n) if q.block_of[i] == q.block_of[0]]
        sigma = np.arange(q.n)
        sigma[[block0[0], block0[1]]] = sigma[[block0[1], block0[0]]]
        return MCQ(q.block_of.copy(), q.prod.copy(), sigma[q.star])

    monkeypatch.setattr(hlcolor.mcqb, "q_functor_mcb", wrong_q)
    code, out = run(
        capsys, "verify",
        corpus_path("structures", "assoc-z3-z2-mcb.txt"),
        corpus_path("diagrams", "trefoil.txt"),
    )
    assert code == 1


def test_move_roundtrip_and_transport(capsys, tmp_path):
    out1 = tmp_path / "moved.txt"
    code, _ = run(
        capsys, "move", corpus_path("diagrams", "trefoil.txt"),
        "--move", "R1a", "--site", "s1", "--variant", "under", "-o", str(out1),
    )
    assert code == 0
    code, out = run(
        capsys, "move", str(out1),
        "--move", "R1a", "--direction", "undo", "--site", "r1a#1",
    )
    assert code == 0
    # transport a coloring across an R2 slide
    col_file = tmp_path / "col.txt"
    from hlcolor.coloring import enumerate_colorings
    from hlcolor.structio import parse_structure_file, serialize_coloring

    x = parse_structure_file(corpus_path("structures", "assoc-dihedral-z2-mcq.txt"))
    from hlcolor.diagram import parse_diagram

    tr = parse_diagram(open(corpus_path("diagrams", "trefoil.txt")).read())
    col = enumerate_colorings(tr, x, want_list=True).colorings[-1]
    col_file.write_text(serialize_coloring(col))
    out2 = tmp_path / "moved2.txt"
    tcol = tmp_path / "tcol.txt"
    code, _ = run(
        capsys, "move", corpus_path("diagrams", "trefoil.txt"),
        "--move", "R2a", "--site", "s1,s2", "-o", str(out2),
        "--transport", str(col_file),
        "--structure", corpus_path("structures", "assoc-dihedral-z2-mcq.txt"),
        "--transport-out", str(tcol),
    )
    assert code == 0
    moved = parse_diagram(open(out2).read())
    from hlcolor.coloring import enumerate_colorings as ec

    count_before = ec(tr, x).count
    assert ec(moved, x).count == count_before
    assert tcol.read_text().startswith("coloring")


def test_move_transport_round_trip_through_r4b_ids(capsys, tmp_path):
    """A coloring transported onto ids that R4b makes (r4b#1, ...) reads back:
    a ``#`` inside a token is id text in coloring files too."""
    from hlcolor.coloring import enumerate_colorings
    from hlcolor.diagram import parse_diagram
    from hlcolor.structio import (
        parse_coloring_assignment,
        parse_structure_file,
        serialize_coloring,
    )

    structure = corpus_path("structures", "assoc-z3-z2-mcb.txt")
    with open(corpus_path("diagrams", "stem-clasp.txt"), encoding="utf-8") as fh:
        d = parse_diagram(fh.read())
    col = enumerate_colorings(d, parse_structure_file(structure), want_list=True).colorings[36]
    (tmp_path / "c0.txt").write_text(serialize_coloring(col))
    code, _ = run(
        capsys, "move", corpus_path("diagrams", "stem-clasp.txt"),
        "--move", "R4b", "--site", "s4,s5", "-o", str(tmp_path / "d1.txt"),
        "--transport", str(tmp_path / "c0.txt"), "--structure", structure,
        "--transport-out", str(tmp_path / "c1.txt"),
    )
    assert code == 0
    assert "assign r4b#1 " in (tmp_path / "c1.txt").read_text()
    code, _ = run(
        capsys, "move", str(tmp_path / "d1.txt"),
        "--move", "R4b", "--direction", "undo", "--site", "r4b#3", "--variant", "split",
        "--transport", str(tmp_path / "c1.txt"), "--structure", structure,
        "--transport-out", str(tmp_path / "c2.txt"),
    )
    assert code == 0
    # the undo names the rejoined semi-arc s7 r4b#4
    back = parse_coloring_assignment((tmp_path / "c2.txt").read_text())
    assert back == {"r4b#4" if k == "s7" else k: v for k, v in col.assignment.items()}


def _transport_across_trefoil_r2a(capsys, col_path):
    code = main([
        "move", corpus_path("diagrams", "trefoil.txt"), "--move", "R2a", "--site", "s1,s2",
        "--transport", str(col_path),
        "--structure", corpus_path("structures", "assoc-z3-z2-mcb.txt"),
    ])
    return code, capsys.readouterr()


def test_move_missing_transport_file_is_a_parse_error(capsys, tmp_path):
    code, captured = _transport_across_trefoil_r2a(capsys, tmp_path / "nonexistent.txt")
    assert code == 2
    assert captured.err.startswith("parse error:")


@pytest.mark.parametrize("body", [
    "assign s1 1\nassign s2 0\nassign s3 0\nassign s4 0\nassign s5 0\nassign s6 0\n",
    "assign s1 99\nassign s2 99\nassign s3 99\nassign s4 99\nassign s5 99\nassign s6 99\n",
    "assign s1 0\n",
    "assign s1 0\nassign s2 0\nassign s3 0\nassign s4 0\nassign s5 0\nassign s6 0\n"
    "assign s7 0\n",
], ids=["breaks-a-rule", "out-of-range", "partial", "extra-semiarc"])
def test_move_transport_rejects_a_non_coloring(capsys, tmp_path, body):
    col_file = tmp_path / "col.txt"
    col_file.write_text("coloring\n" + body)
    code, captured = _transport_across_trefoil_r2a(capsys, col_file)
    assert code == 1
    assert captured.err.startswith("invalid coloring:")
    assert captured.out == ""


@pytest.mark.parametrize("structure", ["dihedral3", "z8", "alex-z5-s2-t3"])
def test_move_transport_rejects_a_structure_that_colors_no_diagram(capsys, tmp_path, structure):
    """A quandle, group or biquandle file is no MCQ/MCB: exit 1, no traceback
    (found by the move fuzz test)."""
    col_file = tmp_path / "col.txt"
    col_file.write_text("coloring\n" + "".join(f"assign s{i} 0\n" for i in range(1, 7)))
    code = main([
        "move", corpus_path("diagrams", "trefoil.txt"), "--move", "R1a", "--site", "s1",
        "--transport", str(col_file), "--structure", corpus_path("structures", f"{structure}.txt"),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "--transport expects an MCQ/MCB or G-family structure\n"
    assert captured.out == ""


def test_flows_zn_with_group_is_a_usage_error(capsys):
    # --zn used to win silently: count 4 (the Z_2 flows) and exit 0
    code = main(["flows", corpus_path("diagrams", "theta.txt"), "--zn", "2",
                 "--group", corpus_path("structures", "s3.txt")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "--zn cannot be combined with --group\n"
    code, out = run(capsys, "flows", corpus_path("diagrams", "theta.txt"),
                    "--group", corpus_path("structures", "s3.txt"))
    assert code == 0 and out == "count: 36\n"


@pytest.mark.parametrize("zn", ["-1", "0"])
def test_flows_zn_must_be_positive(capsys, zn):
    code, _ = run(capsys, "flows", corpus_path("diagrams", "theta.txt"), "--zn", zn)
    assert code == 2


@pytest.mark.parametrize("k", ["-1", "0"])
def test_build_zkm_k_must_be_positive(capsys, k):
    # --k 0 used to end in a ValueError traceback from the constructor
    code = main(["build", "zkm", corpus_path("structures", "dihedral3.txt"), "--k", k])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--k: must be at least 1" in captured.err


def _non_bijective_mcb(tmp_path) -> str:
    """lift-dihedral-mcb with its second ``over`` row set to 0 1 1 1 1 1, so
    that over column 0 is no permutation; it parses, and check rejects it."""
    with open(corpus_path("structures", "lift-dihedral-mcb.txt"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    over = lines.index("over:")
    lines[over + 2] = "0 1 1 1 1 1"
    path = tmp_path / "bad-mcb.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("command", ["color", "verify", "move"])
def test_a_non_bijective_mcb_column_exits_1_with_one_line(capsys, tmp_path, command):
    """color, verify and move --transport used to end in a ValueError
    traceback from the column inverse that the rules take."""
    structure = _non_bijective_mcb(tmp_path)
    trefoil = corpus_path("diagrams", "trefoil.txt")
    if command == "move":
        col_file = tmp_path / "col.txt"
        col_file.write_text("coloring\n" + "".join(f"assign s{i} 0\n" for i in range(1, 7)))
        argv = ["move", trefoil, "--move", "R1a", "--site", "s1", "--transport", str(col_file),
                "--structure", structure]
    else:
        argv = [command, structure, trefoil]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (
        "axiom violation: mcb over column 0 is not a permutation; no inverse table\n")


BAD_QUANDLE = "quandle n=3\n0 2 1\n2 1 0\n1 0 0\n"  # check rejects it


def test_build_zkm_rejects_a_source_that_fails_its_axioms(capsys, tmp_path):
    # it used to exit 0 and write a family that check rejects
    (tmp_path / "bad.txt").write_text(BAD_QUANDLE)
    code = main(["build", "zkm", str(tmp_path / "bad.txt"), "-o", str(tmp_path / "out.txt")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "input fails its axioms\n"
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("command", ["check", "color"])
def test_a_zkm_family_of_a_source_that_fails_its_axioms_is_a_parse_error(
    capsys, tmp_path, command
):
    (tmp_path / "bad.txt").write_text(BAD_QUANDLE)
    (tmp_path / "family.txt").write_text("zkm-family from=bad.txt k=1\n")
    argv = [command, str(tmp_path / "family.txt")]
    code = main(argv + [corpus_path("diagrams", "trefoil.txt")] * (command == "color"))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "parse error: line 1: zkm-family source fails its axioms\n"


def test_running_out_of_memory_exits_1_with_one_line(capsys, monkeypatch):
    from hlcolor import cli

    def too_large(obj, k):
        raise MemoryError("Unable to allocate 29.1 TiB")

    makers, expects, fails = cli._CONSTRUCTIONS["zkm"]
    monkeypatch.setitem(cli._CONSTRUCTIONS, "zkm",
                        (dict.fromkeys(makers, too_large), expects, fails))
    code = main(["build", "zkm", corpus_path("structures", "dihedral3.txt"), "--k", "1000000"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.count("\n") == 1 and "out of memory" in captured.err


def test_flow_group_path_is_relative_to_the_flow_file(capsys, tmp_path, monkeypatch):
    flows = tmp_path / "flows"
    flows.mkdir()
    with open(corpus_path("structures", "z8.txt"), encoding="utf-8") as fh:
        (flows / "z8.txt").write_text(fh.read())
    (flows / "flow.txt").write_text("flow group=z8.txt\nassign s1 0\nassign s2 0\nassign s4 0\n")
    monkeypatch.chdir(tmp_path)
    code, out = run(
        capsys, "color",
        corpus_path("structures", "gf9-z8-family.txt"),
        corpus_path("diagrams", "trefoil.txt"),
        "--flow", str(flows / "flow.txt"),
    )
    assert code == 0 and "count: 9" in out


def test_color_flow_reads_a_flow_on_r4b_ids(capsys, tmp_path):
    """A flow of a diagram rewritten by R4b, saved as a flow file, reads back:
    a ``#`` inside a token is id text in flow files too."""
    from hlcolor.coloring import colorings_by_flow, enumerate_flows
    from hlcolor.diagram import parse_diagram
    from hlcolor.structio import parse_structure_file, serialize_flow

    structure = corpus_path("structures", "z3-z2-family.txt")
    diagram = corpus_path("diagrams", "stem-clasp-slid-over.txt")
    with open(diagram, encoding="utf-8") as fh:
        d = parse_diagram(fh.read())
    family = parse_structure_file(structure)
    flow = enumerate_flows(d, family.group)[2]
    assert "r4b#1" in flow.as_dict()
    flow_file = tmp_path / "flow.txt"
    flow_file.write_text(serialize_flow(flow))
    code, out = run(capsys, "--format", "machine", "color", structure, diagram,
                    "--flow", str(flow_file))
    assert code == 0
    assert out == f"count={colorings_by_flow(d, family, flow).count}\n"


@pytest.mark.parametrize("extra", [(), ("--dim",)])
def test_color_flow_over_a_nonfield_quotient_ring(capsys, tmp_path, extra):
    # Z_4[t]/(t^2+t+1) is not a field: --dim solves it over Z_4
    flow_file = tmp_path / "flow.txt"
    flow_file.write_text("flow zn=3\nassign s1 1\nassign s2 1\nassign s4 1\n")
    code, out = run(
        capsys, "color",
        corpus_path("structures", "gr16-z3-family.txt"),
        corpus_path("diagrams", "trefoil.txt"),
        "--flow", str(flow_file), *extra,
    )
    assert code == 0 and "count: 64" in out


def test_move_bad_site(capsys):
    code, _ = run(
        capsys, "move", corpus_path("diagrams", "trefoil.txt"),
        "--move", "R5a", "--site", "s1",
    )
    assert code == 1


def _move(capsys, diagram, *argv):
    code = main(["move", diagram, *argv])
    return code, capsys.readouterr()


@pytest.mark.parametrize("move, site", [("R1a", "s1,s2"), ("R2a", "s1")])
def test_move_with_the_wrong_number_of_site_ids_is_a_site_mismatch(capsys, move, site):
    code, captured = _move(capsys, corpus_path("diagrams", "trefoil.txt"),
                           "--move", move, "--site", site)
    assert code == 1
    assert captured.err.startswith("site mismatch:")


def test_move_r3_on_two_crossings_read_as_three_is_a_site_mismatch(capsys, tmp_path):
    # the braid pattern's first and third crossing would be the same record
    path = tmp_path / "kinked.txt"
    path.write_text("x+ s2 s1 r1a#2 s2\nx+ s1 r1a#1 r1a#1 r1a#2\n")
    code, captured = _move(capsys, str(path), "--move", "R3", "--site", "s2,r1a#2,r1a#1")
    assert code == 1
    assert captured.err.startswith("site mismatch:")


def test_move_r5_asks_for_the_variant_when_both_vertex_kinds_match(capsys):
    clasp = corpus_path("diagrams", "clasp.txt")
    code, captured = _move(capsys, clasp, "--move", "R5a", "--site", "s7")
    assert code == 1
    assert captured.err.startswith("site mismatch:") and "set the variant" in captured.err
    code, captured = _move(capsys, clasp, "--move", "R5a", "--site", "s7", "--variant", "merge")
    assert code == 0 and captured.err == ""


@pytest.mark.parametrize("variant", ["-+", "+-"])
def test_move_takes_an_r2_variant_as_a_separate_argument(capsys, tmp_path, variant):
    trefoil = corpus_path("diagrams", "trefoil.txt")
    outputs = []
    for spelling in (["--variant", variant], [f"--variant={variant}"]):
        out = tmp_path / f"out{len(outputs)}.txt"
        code, captured = _move(capsys, trefoil, "--move", "R2a", "--site", "s1,s2",
                               *spelling, "-o", str(out))
        assert code == 0 and captured.err == ""
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]


def test_machine_color_list_is_pinned(capsys):
    # the exact listing order, with crossing and vertex rules both in play
    code, out = run(
        capsys, "--format", "machine", "color",
        corpus_path("structures", "assoc-z3-z2-mcb.txt"),
        corpus_path("diagrams", "stem-clasp.txt"),
        "--list",
    )
    assert code == 0
    with open(PINNED_LIST, encoding="utf-8") as fh:
        assert out == fh.read()
    assert out.startswith("count=72\n")


def _trefoil_gf9_flow(capsys, tmp_path, body: str, *extra):
    flow_file = tmp_path / "flow.txt"
    flow_file.write_text(body)
    return run(
        capsys, "color",
        corpus_path("structures", "gf9-z8-family.txt"),
        corpus_path("diagrams", "trefoil.txt"),
        "--flow", str(flow_file), *extra,
    )


@pytest.mark.parametrize("extra", [(), ("--dim",)])
@pytest.mark.parametrize("body", [
    "flow zn=8\nassign s1 1\nassign s2 2\nassign s4 3\n",  # breaks the crossing relation
    "flow zn=8\nassign s1 99\nassign s2 99\nassign s4 99\n",  # out of range
    "flow zn=4\nassign s1 2\nassign s2 2\nassign s4 2\n",  # Z_4 flow, Z_8 family
    "flow zn=8\nassign zz 5\nassign s1 0\nassign s2 0\nassign s4 0\n",  # no such semi-arc
    "flow zn=8\nassign s3 7\nassign s1 0\nassign s2 0\nassign s4 0\n",  # s3 lies on arc s2
])
def test_invalid_flow_exits_1_on_both_paths(capsys, tmp_path, body, extra):
    code, out = _trefoil_gf9_flow(capsys, tmp_path, body, *extra)
    assert code == 1 and "count" not in out


GFAMILY_Q_ENTRY = "gfamily-q n=3 gn=1\nop 0:\n0 2 1\n2 1 0\n1 0 {}\n"


@pytest.mark.parametrize("argv", [
    ["check", "{file}"],
    ["color", "{file}", corpus_path("diagrams", "trefoil.txt")],
], ids=["check", "color"])
@pytest.mark.parametrize("text", [
    GFAMILY_Q_ENTRY.format(3),
    GFAMILY_Q_ENTRY.format(-1),
    "gfamily-q n=0 gn=1\nop 0:\n",
    "gfamily-alexander-q ring=ring m=7 n=0 u=2\n",
    "gfamily-alexander-b ring=ring m=7 n=0 t=2 s=3\n",
    "mcq n=1\npartition: -1\nprod:\n0\nstar:\n0\n",
    "mcb n=1\npartition: -1\nprod:\n0\nunder:\n0\nover:\n0\n",
], ids=["gfq-entry-n", "gfq-entry-neg", "gfq-empty", "alex-q-order-0", "alex-b-order-0",
        "mcq-neg-block", "mcb-neg-block"])
def test_malformed_structure_is_a_parse_error(capsys, tmp_path, argv, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code = main([a.format(file=path) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("parse error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, prefix", [
    (["check", "{dir}"], "parse error:"),
    (["flows", corpus_path("diagrams", "theta.txt"), "--group", "{dir}"], "parse error:"),
    (["functor", corpus_path("structures", "assoc-z3-z2-mcb.txt"), "-o", "{dir}"], "write error:"),
    (["move", corpus_path("diagrams", "trefoil.txt"), "--move", "R1a", "--site", "s1",
      "-o", "{dir}"], "write error:"),
], ids=["check", "flows-group", "functor-out", "move-out"])
def test_a_directory_for_a_file_exits_2_without_a_traceback(capsys, tmp_path, argv, prefix):
    code = main([a.format(dir=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(prefix) and err.count("\n") == 1, err


KLEIN_FOUR = "group table n=4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n"


def test_a_flow_by_another_group_of_the_same_order_says_the_groups_differ(capsys, tmp_path):
    # it used to print "flow group has order 4, the family's has 4"
    (tmp_path / "klein.txt").write_text(KLEIN_FOUR)
    (tmp_path / "f.txt").write_text("flow group=klein.txt\nassign s1 1\nassign s2 2\nassign s3 3\n")
    code = main(["color", corpus_path("structures", "z5-z4-family.txt"),
                 corpus_path("diagrams", "theta.txt"), "--flow", str(tmp_path / "f.txt")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "invalid flow: flow group (order 4) is not the family's group (order 4)\n"


def _transport_across_theta_r5a(structure: str) -> list[str]:
    """R5a apply split on theta, with a coloring that has no extension
    across it by an S3-block structure."""
    return ["move", corpus_path("diagrams", "theta.txt"), "--move", "R5a", "--site", "s3",
            "--variant", "split", "--transport", "col.txt",
            "--structure", corpus_path("structures", f"{structure}.txt"),
            "-o", "d2.txt", "--transport-out", "moved.txt"]


# One call per entry of cli._ERRORS: (argv in a directory holding FILES,
# the stderr prefix, the exit code).
ERROR_CALLS = {
    "parse": (["move", corpus_path("diagrams", "trefoil.txt"), "--move", "R1a", "--site", "s1",
               "--transport", "bad-col.txt",
               "--structure", corpus_path("structures", "assoc-z3-z2-mcb.txt")],
              "parse error", 2),
    "axiom": (["color", "bad-mcb.txt", corpus_path("diagrams", "trefoil.txt")],
              "axiom violation", 1),
    "flow": (["color", corpus_path("structures", "gf9-z8-family.txt"),
              corpus_path("diagrams", "trefoil.txt"), "--flow", "z4-flow.txt"],
             "invalid flow", 1),
    "site": (["move", corpus_path("diagrams", "trefoil.txt"), "--move", "R5a", "--site", "s1"],
             "site mismatch", 1),
    "budget": (["color", corpus_path("structures", "assoc-z5-z4-mcb.txt"),
                corpus_path("diagrams", "fig8.txt"), "--budget", "5"],
               "budget exceeded", 3),
    "transport-mcb": (_transport_across_theta_r5a("lift-s3-conj-mcb"), "transport failed", 1),
    "transport-mcq": (_transport_across_theta_r5a("s3-conj-mcq"), "transport failed", 1),
}


@pytest.mark.parametrize("case", sorted(ERROR_CALLS))
def test_each_error_exits_with_its_code_and_one_stderr_line(tmp_path, case):
    argv, prefix, exit_code = ERROR_CALLS[case]
    (tmp_path / "bad-col.txt").write_text("colouring\nassign s1 0\n")
    _non_bijective_mcb(tmp_path)  # bad-mcb.txt
    (tmp_path / "z4-flow.txt").write_text("flow zn=4\nassign s1 2\nassign s2 2\nassign s4 2\n")
    (tmp_path / "col.txt").write_text("coloring\nassign s1 1\nassign s2 3\nassign s3 5\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "hlcolor", *argv], capture_output=True,
                          text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                          timeout=60)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == exit_code
    assert proc.stderr.startswith(f"{prefix}: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert not (tmp_path / "d2.txt").exists() and not (tmp_path / "moved.txt").exists()
