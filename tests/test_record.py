"""The shared record base: fields from annotations, one ``__init__`` and
``__repr__``, per-record copies of list and dict defaults, identity
equality, and frozen records."""

from fractions import Fraction
import importlib
import pkgutil

import pytest

import quartic
from quartic.construction import paper_generators
from quartic.extension import QuadExt
from quartic.limits import LimitCandidate
from quartic.pingpong import Ball
from quartic.record import Record
from quartic.ring import ONE, ZERO, QuarticElem

# a record with a default, from the reference cell-cover checker
from certificate_reference import Cell

P, Q = paper_generators()


def _records() -> list[type]:
    """The package's records; the reference modules' records are not
    counted."""
    for mod in pkgutil.iter_modules(quartic.__path__):
        importlib.import_module(f"quartic.{mod.name}")
    return [c for c in Record.__subclasses__()
            if c.__module__.split(".")[0] == "quartic"]


def test_record_base_reads_fields_once_per_class():
    assert Cell._fields == ("chart", "lo", "hi", "target_chart")
    assert Cell._defaults == {"target_chart": ""}
    assert len(_records()) == 13


def test_record_base_init_and_repr():
    cell = Cell("s", Fraction(1, 2), hi=Fraction(1))
    assert (cell.chart, cell.lo, cell.hi, cell.target_chart) == (
        "s", Fraction(1, 2), Fraction(1), "")
    assert repr(cell) == ("Cell(chart='s', lo=Fraction(1, 2), "
                          "hi=Fraction(1, 1), target_chart='')")
    # missing, one too many, given twice, unknown
    for args, kwargs in ((("s", 0), {}), (("s", 0, 1, "u", 2), {}),
                         (("s", 0, 1), {"lo": 0}), (("s", 0, 1), {"w": 1})):
        with pytest.raises(TypeError):
            Cell(*args, **kwargs)


@pytest.mark.parametrize("cls", [c for c in _records() if any(
    type(v) in (list, dict) for v in c._defaults.values())],
    ids=lambda c: c.__name__)
def test_record_base_never_shares_a_list_or_dict_default(cls):
    required = [n for n in cls._fields if n not in cls._defaults]
    first, second = (cls(*[None] * len(required)) for _ in range(2))
    for name, default in cls._defaults.items():
        if type(default) in (list, dict):
            mine, yours = getattr(first, name), getattr(second, name)
            assert mine == default and mine is not yours
            assert mine is not default


def _frozen_records():
    d = QuarticElem(2)
    center = (QuadExt.of_base(ONE, d), QuadExt.of_base(ZERO, d))
    return [Ball("c", center, Fraction(1, 3)), LimitCandidate(P)]


@pytest.mark.parametrize("rec", _frozen_records(),
                         ids=lambda r: type(r).__name__)
def test_record_base_frozen_rejects_assignment(rec):
    name = rec._fields[0]
    before = getattr(rec, name)
    with pytest.raises(AttributeError, match="frozen"):
        setattr(rec, name, None)
    with pytest.raises(AttributeError, match="frozen"):
        delattr(rec, name)
    with pytest.raises(AttributeError, match="frozen"):
        rec.extra = 1
    assert getattr(rec, name) is before


def test_record_base_equality_is_identity():
    cand = LimitCandidate(P)
    assert cand == cand and cand != LimitCandidate(P)
    assert hash(cand) == hash(cand)
    cell = Cell("s", 0, 1)
    assert cell == cell and cell != Cell("s", 0, 1)
