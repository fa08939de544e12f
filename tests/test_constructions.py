"""The quandle and biquandle constructors' tables, pinned.

One line per construction: the sha256 of ``serialize_structure`` and the
value of ``type_of``.  A family's type is that of the structure it gives at
the generator 1 of its cyclic group.  The constructions:

- ``alexander_quandle`` for every unit t of five rings: Z_5, Z_9, GF(9) =
  Z_3[t]/(t^2+t+2), Z_4[t]/(t^2+t+1) and Z_3[t]/(t^4-1);
- ``gfamily_alexander_q`` for each of those units u, at n = the order of u
  and at twice that order;
- ``zkm_family_from_quandle`` (on quandles) and ``zkm_family_from_biquandle``
  (on biquandles and on quandle lifts) at k = 1 and 2, over the corpus
  quandles and biquandles, ``dihedral_quandle(1..7)``, ``trivial_quandle(3)``
  and those Alexander quandles.

Regenerate with ``python tests/test_constructions.py > tests/data/constructions.txt``
(with ``src`` on the path) only for a change that is meant to move them, and
say why.
"""

import glob
import hashlib
import os

from hlcolor.algebra import (
    Biquandle,
    Quandle,
    alexander_quandle,
    dihedral_quandle,
    quandle_lift,
    trivial_quandle,
    type_of,
)
from hlcolor.gfamily import (
    GFamilyQ,
    gfamily_alexander_q,
    zkm_family_from_biquandle,
    zkm_family_from_quandle,
)
from hlcolor.rings import format_element, format_ring_literal, ring_make
from hlcolor.structio import parse_structure_file, serialize_structure

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "constructions.txt")
CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")

RINGS = (ring_make(5), ring_make(9), ring_make(3, [2, 1, 1]), ring_make(4, [1, 1, 1]),
         ring_make(3, [2, 0, 0, 0, 1]))


def _type(obj) -> int:
    if isinstance(obj, (Quandle, Biquandle)):
        return type_of(obj)
    g = 1 % obj.group.n
    if isinstance(obj, GFamilyQ):
        return type_of(Quandle(obj.ops[g]))
    return type_of(Biquandle(obj.under_ops[g], obj.over_ops[g]))


def _line(name: str, obj) -> str:
    digest = hashlib.sha256(serialize_structure(obj).encode()).hexdigest()
    return f"{name} type={_type(obj)} sha256={digest}"


def _alexander() -> list[tuple[str, object]]:
    """(name, ring, unit) for every unit of every ring."""
    return [(f"{format_ring_literal(ring)} t={format_element(t)}", ring, t)
            for ring in RINGS for t in ring.elements() if ring.is_unit(t)]


def _sources() -> list[tuple[str, object]]:
    out = []
    for path in sorted(glob.glob(os.path.join(CORPUS, "structures", "*.txt"))):
        obj = parse_structure_file(path)
        if isinstance(obj, (Quandle, Biquandle)):
            out.append((os.path.splitext(os.path.basename(path))[0], obj))
    out += [(f"dihedral{n}", dihedral_quandle(n)) for n in range(1, 8)]
    out.append(("trivial3", trivial_quandle(3)))
    out += [(f"alexander {name}", alexander_quandle(ring, t)) for name, ring, t in _alexander()]
    return out


def report_lines() -> list[str]:
    lines = []
    for name, ring, t in _alexander():
        lines.append(_line(f"alexander_quandle {name}", alexander_quandle(ring, t)))
        order = ring.unit_order(t)
        for n in (order, 2 * order):
            lines.append(_line(f"gfamily_alexander_q {name} n={n}", gfamily_alexander_q(ring, n, t)))
    for name, obj in _sources():
        for k in (1, 2):
            if isinstance(obj, Quandle):
                lines.append(_line(f"zkm_family_from_quandle {name} k={k}",
                                   zkm_family_from_quandle(obj, k)))
                obj_b, name_b = quandle_lift(obj), f"lift({name})"
            else:
                obj_b, name_b = obj, name
            lines.append(_line(f"zkm_family_from_biquandle {name_b} k={k}",
                               zkm_family_from_biquandle(obj_b, k)))
    return lines


def test_every_construction_matches_the_golden_file():
    with open(GOLDEN, encoding="utf-8") as fh:
        want = fh.read().splitlines()
    got = report_lines()
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"line {i + 1}"
    assert len(got) == len(want)


if __name__ == "__main__":
    print("\n".join(report_lines()))
