"""Every axiom checker's report, pinned line by line against a golden file.

The file was captured from the element-loop checkers that the law lists
replaced.  It covers every corpus structure, each family's associated MCB or
MCQ and each associated MCB's functor image Q(X): for each, its own report
and 8 seeded mutants with 1-3 entries changed in an operation table or an
in-block product entry, plus ``hom_check`` between each MCB/MCQ, a relabeled
copy and its mutants.
"""

import glob
import os
import random

import numpy as np

from hlcolor.algebra import Biquandle, Quandle, biquandle_check, quandle_check
from hlcolor.gfamily import (
    GFamilyB,
    GFamilyQ,
    associated_mcb,
    associated_mcq,
    gfb_check,
    gfq_check,
)
from hlcolor.groups import FiniteGroup, group_check
from hlcolor.mcqb import MCB, MCQ, hom_check, mcb_check, mcq_check, q_functor_mcb
from hlcolor.structio import parse_structure_file
from tests.conftest import corpus_path

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "check-reports.txt")
MUTANTS = 8

CHECKERS = {
    Quandle: quandle_check,
    Biquandle: biquandle_check,
    FiniteGroup: group_check,
    MCQ: mcq_check,
    MCB: mcb_check,
    GFamilyQ: gfq_check,
    GFamilyB: gfb_check,
}


def _structures() -> dict[str, object]:
    out = {}
    for path in sorted(glob.glob(corpus_path("structures", "*.txt"))):
        name = os.path.splitext(os.path.basename(path))[0]
        out[name] = obj = parse_structure_file(path)
        if isinstance(obj, GFamilyQ):
            out[f"assoc({name})"] = associated_mcq(obj)
        elif isinstance(obj, GFamilyB):
            out[f"assoc({name})"] = x = associated_mcb(obj)
            out[f"Q(assoc({name}))"] = q_functor_mcb(x)
    return out


def _tables(obj) -> tuple[list[np.ndarray], object]:
    """Copies of obj's tables and the constructor that takes them back."""
    if isinstance(obj, Quandle):
        return [obj.table.copy()], Quandle
    if isinstance(obj, Biquandle):
        return [obj.under.copy(), obj.over.copy()], Biquandle
    if isinstance(obj, FiniteGroup):
        return [obj.cayley.copy()], FiniteGroup
    if isinstance(obj, MCQ):
        return [obj.prod.copy(), obj.star.copy()], lambda p, s: MCQ(obj.block_of, p, s)
    if isinstance(obj, MCB):
        return ([obj.prod.copy(), obj.under.copy(), obj.over.copy()],
                lambda p, u, o: MCB(obj.block_of, p, u, o))
    if isinstance(obj, GFamilyQ):
        return [obj.ops.copy()], lambda ops: GFamilyQ(obj.group, ops)
    return ([obj.under_ops.copy(), obj.over_ops.copy()],
            lambda u, o: GFamilyB(obj.group, u, o))


def _mutant(obj, rng: random.Random):
    """obj with 1-3 entries changed; a product table changes only inside a block.
    Raises ValueError when the constructor rejects the result."""
    tables, build = _tables(obj)
    partitioned = isinstance(obj, (MCQ, MCB))
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(tables))
        tbl = tables[i]
        if partitioned and i == 0:
            members = rng.choice(obj.blocks)
            at = (rng.choice(members), rng.choice(members))
        else:
            at = tuple(rng.randrange(k) for k in tbl.shape)
        tbl[at] = (tbl[at] + rng.randrange(1, obj.n)) % obj.n
    return build(*tables)


def _relabeled(x, phi: np.ndarray):
    """The copy of the MCB/MCQ x whose element phi[a] plays the part of a."""
    inv = np.argsort(phi)
    prod = np.where(x.prod[np.ix_(inv, inv)] < 0, -1, phi[x.prod[np.ix_(inv, inv)]])
    tables = (x.star,) if isinstance(x, MCQ) else (x.under, x.over)
    ops = [phi[t[np.ix_(inv, inv)]] for t in tables]
    return type(x)(x.block_of[inv], prod, *ops)


def _report_line(name: str, index: int, obj) -> str:
    report = CHECKERS[type(obj)](obj)
    found = ";".join(f"{axiom}@{','.join(map(str, w))}" for axiom, w in report.violations)
    return f"{name} {index} {str(report.ok).lower()} {found or '-'}"


def report_lines() -> list[str]:
    lines = []
    for name, obj in _structures().items():
        rng = random.Random(name)
        lines.append(_report_line(name, 0, obj))
        mutants = []
        for i in range(1, MUTANTS + 1):
            try:
                mutant = _mutant(obj, rng)
            except ValueError as exc:
                lines.append(f"{name} {i} rejected {exc}")
                continue
            lines.append(_report_line(name, i, mutant))
            mutants.append(mutant)
        if isinstance(obj, (MCQ, MCB)):
            phi = np.array(rng.sample(range(obj.n), obj.n))
            ident = range(obj.n)
            homs = [hom_check(ident, obj, obj), hom_check(phi, obj, _relabeled(obj, phi)),
                    hom_check(phi, obj, obj)]
            homs += [hom_check(ident, obj, m) for m in mutants]
            homs += [hom_check(phi, m, _relabeled(obj, phi)) for m in mutants]
            lines.append(f"{name} hom {''.join('1' if h else '0' for h in homs)}")
    return lines


def test_every_check_report_matches_the_golden_file():
    with open(GOLDEN, encoding="utf-8") as fh:
        want = fh.read().splitlines()
    got = report_lines()
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"line {i + 1}"
    assert len(got) == len(want)
