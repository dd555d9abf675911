from __future__ import annotations

import pytest

import mixdom
from mixdom.dp import DPResult
from mixdom.graph import MixedElement
from mixdom.mds6 import Run6Result, SixTable
from mixdom.oracle import OracleResult
from mixdom.treedec import NiceBag, TreeDecomposition


def test_every_public_name_resolves_and_star_import_binds_them_all():
    for name in mixdom.__all__:
        assert getattr(mixdom, name) is not None, name
    namespace: dict = {}
    exec("from mixdom import *", namespace)
    assert set(mixdom.__all__) <= set(namespace)
    assert namespace["run_dp"] is mixdom.dp.run_dp
    assert namespace["TreeDecomposition"] is TreeDecomposition


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mixdom.no_such_name


RECORDS = [
    (MixedElement("v", 1), "id"),
    (TreeDecomposition((frozenset({0}),), ()), "root"),
    (NiceBag(frozenset({0}), "leaf", None, ()), "kind"),
    (OracleResult(1), "gamma"),
    (DPResult(1), "min_sets"),
    (SixTable((0,), {}), "rows"),
    (Run6Result(1), "tables"),
]


@pytest.mark.parametrize(
    "record, field", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS]
)
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.extra = 0


def test_records_compare_by_value_and_keep_their_defaults():
    assert MixedElement.vertex(3) == MixedElement("v", 3) != MixedElement.edge(3)
    assert {MixedElement.vertex(3), MixedElement("v", 3)} == {MixedElement("v", 3)}
    assert repr(MixedElement.edge(2)) == "e2"
    bags = (frozenset({0, 1}), frozenset({1}))
    td = TreeDecomposition(bags, ((0, 1),))
    assert td.root == 0
    assert td == TreeDecomposition(bags, ((0, 1),), root=0)
    assert td != TreeDecomposition(bags, ((0, 1),), root=1)
    assert td.width() == 1
    assert DPResult(2) == DPResult(2, None, None)
    assert (OracleResult(2).min_sets, Run6Result(2).tables) == (None, None)
    assert repr(OracleResult(2)) == "OracleResult(gamma=2, min_sets=None)"
