"""The element types derive ``-``, ``/``, truth and ``repr`` from
``scalars.RingOps`` and ``scalars.FieldOps`` and write none of them again."""

import pytest

from ktangent.funcrings import DualElem, FunctionRing, RingElem
from ktangent.mpoly import MPoly
from ktangent.scalars import QQ, FieldOps, RingOps, Scalar, Transcendental, make_tower


def test_the_derived_operators_have_one_owner():
    for cls in (MPoly, RingElem, DualElem):
        assert issubclass(cls, RingOps)
        assert not {"__sub__", "__rsub__", "__bool__"} & set(vars(cls)), cls
    for cls in (RingElem, DualElem):
        assert issubclass(cls, FieldOps)
        assert not {"__truediv__", "__rtruediv__", "__repr__"} & set(vars(cls)), cls
    assert issubclass(Scalar, RingOps)
    assert not {"__bool__", "__repr__"} & set(vars(Scalar))


def test_elements_stay_slotted_and_print_as_before():
    tw = make_tower([Transcendental("t")])
    ring = FunctionRing(tw, ("x",))
    x = ring.var("x")
    elems = [tw.gen("t"), MPoly.variable(QQ, 2, 0), x, DualElem(ring, x, ring.one())]
    for elem in elems:
        assert not hasattr(elem, "__dict__"), type(elem)
        assert elem and not elem - elem
    assert [repr(e) for e in elems] == [
        "Scalar(t)", "x0", "RingElem(x)", "DualElem((x) + eps*(1))"]


def test_an_unknown_operand_is_refused_by_the_operator_it_met():
    ring = FunctionRing(QQ, ("x",))
    x = ring.var("x")
    for elem in (MPoly.variable(QQ, 2, 0), x, DualElem(ring, x)):
        with pytest.raises(TypeError, match="for -: 'str'"):
            "a" - elem


def test_polynomials_have_no_division():
    f = MPoly.variable(QQ, 2, 0)
    with pytest.raises(TypeError):
        f / 2
    with pytest.raises(TypeError):
        2 / f
