"""Command-line front end for batch structure checks, constructions,
move rewriting and coloring/flow computations.

Exit codes: 0 success, 1 semantic failure (axiom violation, count mismatch,
site mismatch, invalid flow or coloring, failed transport), 2 parse or usage
error, 3 search budget exceeded.  ``_ERRORS`` maps each error a command
raises to its stderr line and exit code.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from hlcolor.algebra import AxiomError, Biquandle, Quandle, biquandle_check, quandle_check
from hlcolor.coloring import (
    Coloring,
    FlowInvalidError,
    coloring_problem,
    coloring_rows,
    coloring_vars,
    colorings_by_flow,
    enumerate_colorings,
    enumerate_flows,
    flow_coloring_rows,
    linear_colorings,
    per_flow_counts,
    verify_correspondence,
)
from hlcolor.diagram import parse_diagram_file, serialize_diagram
from hlcolor.gfamily import (
    GFamilyB,
    GFamilyQ,
    associated_mcb,
    associated_mcq,
    gfb_check,
    gfq_check,
    qg_map,
    zkm_family_from_biquandle,
    zkm_family_from_quandle,
)
from hlcolor.groups import FiniteGroup, cyclic_group, group_check
from hlcolor.mcqb import (
    MCB,
    MCQ,
    conjugation_mcq,
    mcb_check,
    mcq_check,
    q_functor_mcb,
    quandle_lift_mcb,
)
from hlcolor.moves import MoveSite, SiteMismatchError, TransportError, apply_move, transport_coloring
from hlcolor.rings import SizeBoundExceededError, format_element
from hlcolor.structio import (
    StructParseError,
    parse_coloring_assignment,
    parse_flow_file,
    parse_structure_file,
    serialize_coloring,
    serialize_structure,
)

EXIT_OK, EXIT_FAIL, EXIT_PARSE, EXIT_BUDGET = 0, 1, 2, 3

# Each error a command lets through: (the prefix of its one stderr line, exit code).
_ERRORS = {
    StructParseError: ("parse error", EXIT_PARSE),
    AxiomError: ("axiom violation", EXIT_FAIL),
    FlowInvalidError: ("invalid flow", EXIT_FAIL),
    SiteMismatchError: ("site mismatch", EXIT_FAIL),
    SizeBoundExceededError: ("budget exceeded", EXIT_BUDGET),
    TransportError: ("transport failed", EXIT_FAIL),
}


def _emit(args, key, value):
    if args.format == "machine":
        print(f"{key}={value}")
    else:
        print(f"{key}: {value}")


def _load(path: str, parse=parse_structure_file):
    """parse(path), by default a structure file; a parse error exits 2."""
    try:
        return parse(path)
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE) from None


def _emit_flow(args, i: int, flow, tail: str = "") -> None:
    """The line of flow i: its arc:value pairs, then tail."""
    _emit(args, f"flow {i}", " ".join(f"{a}:{v}" for a, v in flow.assignment) + tail)


_CHECKERS = {Quandle: quandle_check, Biquandle: biquandle_check, MCQ: mcq_check, MCB: mcb_check,
             GFamilyQ: gfq_check, GFamilyB: gfb_check, FiniteGroup: group_check}

# A G-family colors a diagram through its associated MCQ or MCB.
_ASSOCIATED = {GFamilyQ: associated_mcq, GFamilyB: associated_mcb}
_COLORS = (MCQ, MCB, *_ASSOCIATED)  # the structures that color a diagram

# functor, qg and each build target: (input class -> constructor, the message
# for any other input, the message when the input fails its axioms or None to
# skip the check).  zkm's constructors also take --k.
_CONSTRUCTIONS = {
    "functor": ({MCB: q_functor_mcb}, "functor expects an MCB file", "input fails mcb axioms"),
    "qg": ({GFamilyB: qg_map}, "qg expects a G-family of biquandles",
           "input fails G-family axioms"),
    "assoc": (_ASSOCIATED, "assoc expects a G-family file", None),
    "zkm": ({Quandle: zkm_family_from_quandle, Biquandle: zkm_family_from_biquandle},
            "zkm expects a quandle or biquandle file", "input fails its axioms"),
    "conj": ({FiniteGroup: conjugation_mcq}, "conj expects a group file", None),
    "lift": ({MCQ: quandle_lift_mcb}, "lift expects an MCQ file", None),
    "tables": (dict.fromkeys(_CHECKERS, lambda obj: obj), None, None),
}


def _colored_by(obj, kinds: tuple, expects: str):
    """The MCQ or MCB that obj colors with: itself, or a G-family's associated
    structure.  An obj of none of kinds exits 1 with the line expects."""
    if not isinstance(obj, kinds):
        print(expects, file=sys.stderr)
        raise SystemExit(EXIT_FAIL)
    make = _ASSOCIATED.get(type(obj))
    return make(obj) if make else obj


def _write_out(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    obj = _load(args.structure)
    report = _CHECKERS[type(obj)](obj)
    _emit(args, "kind", type(obj).__name__)
    _emit(args, "ok", str(report.ok).lower())
    for axiom, witness in report.violations:
        _emit(args, "violation", f"{axiom} at {','.join(map(str, witness))}")
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_construct(args) -> int:
    """functor, qg and build: load, check the input's kind (and axioms), write."""
    makers, expects, fails = _CONSTRUCTIONS[args.what]
    obj = _load(args.source)
    make = makers.get(type(obj))
    if make is None:
        print(expects, file=sys.stderr)
        return EXIT_FAIL
    if fails and not _CHECKERS[type(obj)](obj).ok:
        print(fails, file=sys.stderr)
        return EXIT_FAIL
    out = make(obj, args.k) if args.what == "zkm" else make(obj)
    _write_out(args.out, serialize_structure(out))
    return EXIT_OK


def _group_from_args(args):
    if args.zn is not None and args.group:
        print("--zn cannot be combined with --group", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    if args.zn is not None:
        return cyclic_group(args.zn)
    if args.group:
        g = _load(args.group)
        if not isinstance(g, FiniteGroup):
            print("--group file must contain a group", file=sys.stderr)
            raise SystemExit(EXIT_PARSE)
        return g
    print("flows needs --zn or --group", file=sys.stderr)
    raise SystemExit(EXIT_PARSE)


def cmd_flows(args) -> int:
    d = _load(args.diagram, parse_diagram_file)
    g = _group_from_args(args)
    if not args.list:
        # a count of the colorings by g's conjugation MCQ, without a Flow per row
        _emit(args, "count", enumerate_colorings(d, conjugation_mcq(g)).count)
        return EXIT_OK
    flows = enumerate_flows(d, g)
    _emit(args, "count", len(flows))
    for i, flow in enumerate(flows):
        _emit_flow(args, i, flow)
    return EXIT_OK


def cmd_color(args) -> int:
    obj = _load(args.structure)
    d = _load(args.diagram, parse_diagram_file)
    family = type(obj) in _ASSOCIATED
    if not family and (args.dim or args.flow or args.per_flow):
        print("--dim, --flow and --per-flow need a G-family structure", file=sys.stderr)
        return EXIT_PARSE
    if args.per_flow and (args.dim or args.flow):
        print("--per-flow cannot be combined with --flow or --dim", file=sys.stderr)
        return EXIT_PARSE
    if args.dim and getattr(obj, "alexander", None) is None:
        print("--dim needs an Alexander family", file=sys.stderr)
        return EXIT_PARSE
    if args.dim and not args.flow:
        print("--dim needs --flow", file=sys.stderr)
        return EXIT_PARSE
    flow = _load(args.flow, parse_flow_file) if args.flow else None
    if args.per_flow:
        table = per_flow_counts(d, obj, budget=args.budget)
        _emit(args, "count", sum(table.values()))
        for i, (fl, n) in enumerate(table.items()):
            _emit_flow(args, i, fl, f" count={n}")
        return EXIT_OK
    if args.dim:
        rep = linear_colorings(d, obj, flow)
        _emit(args, "count", rep.count)
        if rep.module_info is not None:
            _emit(args, "dimension", rep.module_info[0])
            if args.list and rep.module_info[1]:
                vars_ = coloring_vars(d, isinstance(obj, GFamilyQ))
                for i, vec in enumerate(rep.module_info[1]):
                    body = " ".join(f"{v}:{format_element(e)}" for v, e in zip(vars_, vec))
                    _emit(args, f"basis {i}", body)
        return EXIT_OK
    x = obj if flow is not None else _colored_by(
        obj, _COLORS, "color expects an MCQ/MCB or G-family structure")
    # a listing prints from the sorted rows, without a Coloring per row
    if args.list:
        names, rows = (coloring_rows(d, x, budget=args.budget) if flow is None
                       else flow_coloring_rows(d, x, flow, budget=args.budget))
        count = len(rows)
    elif flow is not None:
        count = colorings_by_flow(d, x, flow, budget=args.budget).count
    else:
        count = enumerate_colorings(d, x, budget=args.budget).count
    _emit(args, "count", count)
    if args.list:
        for i, row in enumerate(rows):
            _emit(args, f"coloring {i}", " ".join(f"{k}:{v}" for k, v in zip(names, row.tolist())))
    return EXIT_OK


def cmd_verify(args) -> int:
    obj = _load(args.structure)
    d = _load(args.diagram, parse_diagram_file)
    x = _colored_by(obj, (MCB, GFamilyB), "verify expects an MCB or G-family-of-biquandles file")
    family = obj if args.per_flow and isinstance(obj, GFamilyB) else None
    report = verify_correspondence(d, x, family=family, budget=args.budget)
    _emit(args, "count_mcb", report.count_mcb)
    _emit(args, "count_mcq", report.count_mcq)
    _emit(args, "equal", str(report.equal).lower())
    ok = report.equal
    if args.per_flow and report.per_flow is not None:
        _emit(args, "per_flow_equal", str(report.per_flow_equal).lower())
        if report.dims_equal is not None:
            _emit(args, "dims_equal", str(report.dims_equal).lower())
            ok = ok and report.dims_equal
        for i, (fl, nb, nq) in enumerate(report.per_flow):
            _emit_flow(args, i, fl, f" mcb={nb} mcq={nq}")
        ok = ok and report.per_flow_equal
    return EXIT_OK if ok else EXIT_FAIL


def cmd_move(args) -> int:
    d = _load(args.diagram, parse_diagram_file)
    site = MoveSite(args.move, args.direction, tuple(args.site.split(",")), args.variant)
    result = apply_move(d, site)
    moved = None
    if args.transport:
        if not args.structure:
            print("--transport needs --structure", file=sys.stderr)
            return EXIT_FAIL
        x = _colored_by(_load(args.structure), _COLORS,
                        "--transport expects an MCQ/MCB or G-family structure")
        with open(args.transport, encoding="utf-8") as fh:
            assignment = parse_coloring_assignment(fh.read())
        problem = coloring_problem(d, x, assignment)
        if problem is not None:
            print(f"invalid coloring: {problem}", file=sys.stderr)
            return EXIT_FAIL
        moved = transport_coloring(d, result.diagram, Coloring(x, assignment), x)
    _write_out(args.out, serialize_diagram(result.diagram))
    if moved is not None:
        _write_out(args.transport_out, serialize_coloring(moved))
    return EXIT_OK


def _at_least(least: int):
    """The argparse type of an integer option no smaller than least."""

    def integer(text: str) -> int:
        n = int(text)
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n

    return integer


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hlcolor",
        description="Coloring invariants of handlebody-links and spatial trivalent graphs",
    )
    p.add_argument("--format", choices=("text", "machine"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("check", help="verify structure axioms")
    sc.add_argument("structure")
    sc.set_defaults(func=cmd_check)

    for name, help_ in (("functor", "MCB -> MCQ by x*y = (x under y) over-inv y"),
                        ("qg", "G-family of biquandles -> G-family of quandles")):
        sf = sub.add_parser(name, help=help_)
        sf.add_argument("source", metavar="structure")
        sf.add_argument("-o", "--out")
        sf.set_defaults(func=cmd_construct, what=name)

    sb = sub.add_parser("build", help="run a constructor and write the structure file")
    sb.add_argument("what", choices=("assoc", "zkm", "conj", "lift", "tables"))
    sb.add_argument("source")
    sb.add_argument("--k", type=_at_least(1), default=1)
    sb.add_argument("-o", "--out")
    sb.set_defaults(func=cmd_construct)

    sfl = sub.add_parser("flows", help="enumerate G-flows of a diagram")
    sfl.add_argument("diagram")
    sfl.add_argument("--zn", type=_at_least(1))
    sfl.add_argument("--group")
    sfl.add_argument("--list", action="store_true")
    sfl.set_defaults(func=cmd_flows)

    sco = sub.add_parser("color", help="count or list colorings")
    sco.add_argument("structure")
    sco.add_argument("diagram")
    sco.add_argument("--count", action="store_true")
    sco.add_argument("--list", action="store_true")
    sco.add_argument("--dim", action="store_true")
    sco.add_argument("--per-flow", dest="per_flow", action="store_true")
    sco.add_argument("--flow")
    sco.add_argument("--budget", type=_at_least(0))
    sco.set_defaults(func=cmd_color)

    sv = sub.add_parser("verify", help="compare MCB and Q(MCB) coloring counts")
    sv.add_argument("structure")
    sv.add_argument("diagram")
    sv.add_argument("--per-flow", dest="per_flow", action="store_true")
    sv.add_argument("--budget", type=_at_least(0))
    sv.set_defaults(func=cmd_verify)

    sm = sub.add_parser("move", help="apply a Reidemeister move at a site")
    sm.add_argument("diagram")
    sm.add_argument("--move", required=True)
    sm.add_argument("--site", required=True, help="comma-separated semi-arc ids")
    sm.add_argument("--direction", choices=("apply", "undo"), default="apply")
    sm.add_argument("--variant", default="")
    sm.add_argument("--transport", help="coloring file to transport across the move")
    sm.add_argument("--structure", help="structure file for --transport")
    sm.add_argument("--transport-out")
    sm.add_argument("-o", "--out")
    sm.set_defaults(func=cmd_move)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call; each parse makes a fresh namespace."""
    return build_parser()


def _attach_variants(argv: list[str]) -> list[str]:
    """argv with each ``--variant V`` as ``--variant=V``: argparse would read
    an R2 variant such as ``-+`` as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--variant" and not arg.startswith("--"):
            out[-1] = f"--variant={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = None
    try:
        args = _parser().parse_args(_attach_variants(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except tuple(_ERRORS) as exc:
        prefix, code = next(v for cls, v in _ERRORS.items() if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    except MemoryError:
        print("error: out of memory (the structure is too large to build)", file=sys.stderr)
        return EXIT_FAIL
    except BrokenPipeError:
        # the reader closed stdout early (``| head``); point stdout at devnull
        # so that the flush at interpreter exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except OSError as exc:
        # -o and --transport-out name the only files a command writes; it reads all others
        outputs = {getattr(args, "out", None), getattr(args, "transport_out", None)} - {None}
        kind = "write error" if exc.filename in outputs else "parse error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
