"""The result records of the layers: their fields, in order, and their text.

Each record is built positionally and read back by field name, so the
field order is pinned along with the names; its repr is pinned as text.
"""

from fractions import Fraction

import pytest

from qsetalg.liecore import CatalogEntry, rotation3
from qsetalg.palev import CarrierTriple, PalevMode, carrier_triple
from qsetalg.qset import RankFrame, SignatureReport, signature_report
from qsetalg.scalars import UnitTag
from qsetalg.spectra import AccumulationResult, accumulate_coordinate
from qsetalg.vertexnet import ParityFlag, ParityReport
from qsetalg.yang import DefectReport, HpTarget

FLAG = ParityFlag(2, "iota", "why")

# (class, positional values, field names in order, repr)
RECORDS = [
    (CatalogEntry, ("so3", None, "compact"), ("algebra", "weights", "note"),
     "CatalogEntry(algebra='so3', weights=None, note='compact')"),
    (SignatureReport, (1, 1, 2, 4), ("n_plus", "n_minus", "n_zero", "dimension"),
     "SignatureReport(n_plus=1, n_minus=1, n_zero=2, dimension=4)"),
    (ParityFlag, (2, "iota", "why"), ("vertex", "kind", "reason"),
     "ParityFlag(vertex=2, kind='iota', reason='why')"),
    (ParityReport, (False, (FLAG,)), ("ok", "flags"),
     "ParityReport(ok=False, flags=(ParityFlag(vertex=2, kind='iota', reason='why'),))"),
    (HpTarget, ("lim", True, True, False, True, False),
     ("constants", "central_charge", "coordinates_commute", "momenta_commute", "heisenberg_pairing",
      "killing_degenerate"),
     "HpTarget(constants='lim', central_charge=True, coordinates_commute=True, momenta_commute=False, "
     "heisenberg_pairing=True, killing_degenerate=False)"),
    (DefectReport, (Fraction(1, 4), Fraction(1, 8), (("x1", "x2", Fraction(1, 8)),)), ("eps", "worst", "by_pair"),
     "DefectReport(eps=Fraction(1, 4), worst=Fraction(1, 8), by_pair=(('x1', 'x2', Fraction(1, 8)),))"),
    (AccumulationResult, (2, -1, UnitTag({"i": 1, "lstep": 1}), ((2, 1), (0, 2), (-2, 1))),
     ("steps", "square", "unit", "spectrum"),
     "AccumulationResult(steps=2, square=-1, unit=UnitTag(i*lstep), spectrum=((2, 1), (0, 2), (-2, 1)))"),
]


@pytest.mark.parametrize("cls, values, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_fields_order_and_repr(cls, values, fields, text):
    rec = cls(*values)
    assert tuple(getattr(rec, f) for f in fields) == values
    assert repr(rec) == text
    assert rec == cls(*values)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(rec, f, None)


def test_records_the_layers_return():
    assert signature_report(RankFrame(2)) == SignatureReport(1, 1, 2, 4)
    assert accumulate_coordinate(2, -1) == RECORDS[-1][0](*RECORDS[-1][1])
    assert HpTarget("lim", True, True, True, True, True).all_hold()
    assert not HpTarget("lim", True, True, True, False, True).all_hold()
    assert SignatureReport(1, 2, 3, 8).as_tuple() == (1, 2, 3)
    assert CatalogEntry(rotation3(), None, "").algebra.labels == ("L1", "L2", "L3")


def test_carrier_triple_fields_identity_and_lazy_views():
    tags = (UnitTag.one(),) * 3
    parts = ({0: (-2, 0, 2)}, {-1: (0, 2, 1), 1: (-1, -2, 0)}, {-1: (0, 2, 1), 1: (1, 2, 0)})
    triple = CarrierTriple("spin21", parts, 2, tags, "[q,p]=r")
    assert (triple.preset, triple.parts, triple.scale, triple.tags, triple.relations) == (
        "spin21", parts, 2, tags, "[q,p]=r")
    assert "q" not in vars(triple)  # built on first read
    assert triple.q[0] == (Fraction(-1), Fraction(0), Fraction(0))
    assert "q" in vars(triple) and "p" not in vars(triple)
    assert triple == triple
    assert triple != CarrierTriple("spin21", parts, 2, tags, "[q,p]=r")  # identity, not value
    built, _ = carrier_triple(PalevMode(2), "spin21")
    assert built.parts == parts and built.scale == 2
    assert repr(built) == (
        "CarrierTriple(preset='spin21', q=((Fraction(-1, 1), Fraction(0, 1), Fraction(0, 1)), "
        "(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(0, 1), Fraction(1, 1))), "
        "p=((Fraction(0, 1), Fraction(-1, 2), Fraction(0, 1)), (Fraction(1, 1), Fraction(0, 1), Fraction(-1, 1)), "
        "(Fraction(0, 1), Fraction(1, 2), Fraction(0, 1))), "
        "r=((Fraction(0, 1), Fraction(1, 2), Fraction(0, 1)), (Fraction(1, 1), Fraction(0, 1), Fraction(1, 1)), "
        "(Fraction(0, 1), Fraction(1, 2), Fraction(0, 1))), "
        "tags=(UnitTag(1), UnitTag(1), UnitTag(1)), relations='[q,p]=r, [p,r]=q, [q,r]=p')"
    )
