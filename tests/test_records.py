"""dnalg's record classes are plain classes with explicit initializers.

Each one keeps its field order, keyword names and defaults.  The classes
that are compared or hashed define ``__eq__`` and ``__hash__``, with the
hash of the field tuple in declaration order, so set and dict orders (and
so every report) do not depend on how the records are built."""

import pytest

from dnalg.dn import DegreeResult, DnInstance, DnReport, DnSearchConfig, DnVerdict, _Slot
from dnalg.fp import ChainRep, FpMatrix, IntervalForm, Subspace
from dnalg.polytopes import LEAF, GammaFacet, GammaVertex, OrderedPartition
from dnalg.steenrod import SteenrodElement, SteenrodMonomial
from dnalg.theorems import (
    NormalizedPresentation,
    PropAResult,
    RangeCheckResult,
    RangeVerdict,
    ReducedAlgebra,
)
from dnalg.truncated import ActionValidation, AdemFailure, AlgebraPresentation, QSpace

from fp_oracles import identity

A = AlgebraPresentation(3, [("y", 1)])
P1 = SteenrodElement.power(3, 1)
PLANE = Subspace(3, 1, ((1,),))
CONFIG = DnSearchConfig(1, 0)
INSTANCE = DnInstance(A, ((P1, A.gen(0)),), 1)
DEGREE = DegreeResult(4, 1, 2, True, False, ((1, 2),))
FAILURE = AdemFailure(1, 1, (1,), 4)
VERDICT = RangeVerdict("A1", 0, 1, 1, 1, 4, 8, 1, 1, 1, True)
PARTITION = OrderedPartition(3, ((1, 3), (2,)))


# Every record class, with a valid value for each field in declaration order.
RECORDS = [
    (FpMatrix, dict(modulus=3, entries=((1, 0), (0, 1)), cols=2)),
    (Subspace, dict(modulus=3, ambient_dim=2, basis=((1, 0),))),
    (ChainRep, dict(modulus=3, dims=(2, 2), maps=(identity(3, 2),))),
    (IntervalForm, dict(bases=(identity(3, 2),), maps=(), intervals=((0, 0),))),
    (DnSearchConfig, dict(max_support=1, theta_dim_bound=0)),
    (DnInstance, dict(presentation=A, pairs=((P1, A.gen(0)),), n=1)),
    (DnVerdict, dict(status="satisfied-with-witness", instance=INSTANCE,
                     witness=(A.gen(0),), certificate={"target_degree": 6})),
    (_Slot, dict(source_degree=2, theta=P1, columns=((1,),), image=PLANE,
                 corrections=PLANE)),
    (DegreeResult, dict(degree=4, slots=1, cases=2, ok=True, trivial=False,
                        cases_by_support_size=((1, 2),))),
    (DnReport, dict(presentation=A, n=1, config=CONFIG, ok=True, degrees=(DEGREE,),
                    violation=None, incomplete_theta_degrees=(2,))),
    (SteenrodMonomial, dict(p=3, eps=(0, 1), pows=(2,))),
    (OrderedPartition, dict(n=3, blocks=((1, 3), (2,)))),
    (GammaFacet, dict(partition=PARTITION)),
    (GammaVertex, dict(perm=(2, 1), tree=(LEAF, LEAF))),
    (AdemFailure, dict(a=1, b=1, monomial=(1,), degree=4)),
    (ActionValidation, dict(ok=False, unstable_failures=("P^1 y != y^3",),
                            adem_failures=(FAILURE,), instances_checked=3)),
    (QSpace, dict(presentation=A, degree=2, gen_indices=(0,))),
    (NormalizedPresentation, dict(presentation=A, images=(A.gen(0),), p1_targets={})),
    (PropAResult, dict(ok=True, failures=(), checked=0)),
    (RangeVerdict, dict(family="A1", a=0, b=1, c=1, t=1, source_degree=4,
                        target_degree=8, dim_source=1, dim_target=1, rank=1, ok=True)),
    (RangeCheckResult, dict(surjectivity=(VERDICT,), vanishing=(), isomorphism=())),
    (ReducedAlgebra, dict(presentation=A, kept=(0,), h=(1,))),
]
HASHED = {
    FpMatrix, Subspace, DnSearchConfig, DegreeResult, DnReport, SteenrodMonomial,
    OrderedPartition, GammaFacet, GammaVertex, AdemFailure, ActionValidation,
}
IDS = [cls.__name__ for cls, _ in RECORDS]


def test_every_record_class_is_listed():
    assert len(RECORDS) == 22
    assert HASHED <= {cls for cls, _ in RECORDS}


@pytest.mark.parametrize("cls, values", RECORDS, ids=IDS)
def test_positional_and_keyword_forms_set_every_field(cls, values):
    for record in (cls(*values.values()), cls(**values)):
        assert type(record) is cls
        assert [getattr(record, name) for name in values] == list(values.values())


@pytest.mark.parametrize("cls, values", RECORDS, ids=IDS)
def test_only_compared_records_define_equality(cls, values):
    assert ("__eq__" in vars(cls)) == ("__hash__" in vars(cls)) == (cls in HASHED)
    if cls not in HASHED:
        # identity, as for any object
        assert cls(*values.values()) != cls(*values.values())


@pytest.mark.parametrize(
    "cls, values", [(cls, values) for cls, values in RECORDS if cls in HASHED],
    ids=[cls.__name__ for cls, _ in RECORDS if cls in HASHED],
)
def test_hashed_records_compare_and_hash_by_their_field_tuple(cls, values):
    field_tuple = tuple(values.values())
    x, y = cls(*field_tuple), cls(**values)
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y) == hash(field_tuple)
    assert x != field_tuple  # another class never compares equal
    assert len({x, y}) == 1


def test_records_differing_in_one_field_are_unequal():
    assert FpMatrix(3, ((1,),), 1) != FpMatrix(5, ((1,),), 1)
    assert Subspace(3, 2, ((1, 0),)) != Subspace(3, 2, ((0, 1),))
    assert DnSearchConfig() != DnSearchConfig(theta_dim_bound=2)
    assert DegreeResult(4, 0, 0, True) != DegreeResult(4, 0, 0, True, trivial=True)
    assert SteenrodMonomial(3, (0, 0), (1,)) != SteenrodMonomial(3, (0, 1), (1,))
    assert OrderedPartition(2, ((1,), (2,))) != OrderedPartition(2, ((2,), (1,)))
    assert GammaVertex((1, 2), (LEAF, LEAF)) != GammaVertex((2, 1), (LEAF, LEAF))
    assert AdemFailure(1, 1, (1,), 4) != AdemFailure(1, 2, (1,), 4)
    assert ActionValidation(True, (), (), 0) != ActionValidation(True, (), (), 1)
    report = DnReport(A, 1, CONFIG, True, (DEGREE,), None, ())
    assert report == DnReport(A, 1, DnSearchConfig(1, 0), True, (DEGREE,), None, ())
    assert report != DnReport(A, 2, CONFIG, True, (DEGREE,), None, ())


def test_defaults_and_keyword_forms_used_by_callers():
    assert (DnSearchConfig().max_support, DnSearchConfig().theta_dim_bound) == (2, 3)
    assert DnSearchConfig(max_support=3, theta_dim_bound=3).max_support == 3
    assert DnSearchConfig(**{"theta_dim_bound": 0}).theta_dim_bound == 0
    vacuous = DnVerdict("vacuous", INSTANCE)
    assert (vacuous.witness, vacuous.certificate) == (None, None)
    assert DnVerdict("violated", INSTANCE, certificate={"d": 6}).witness is None
    assert DnVerdict("satisfied-with-witness", INSTANCE, witness=()).certificate is None
    trivial = DegreeResult(6, 0, 0, True, trivial=True)
    assert (trivial.trivial, trivial.cases_by_support_size) == (True, ())
    swept = DegreeResult(6, 1, 1, True, cases_by_support_size=((1, 1),))
    assert (swept.trivial, swept.cases_by_support_size) == (False, ((1, 1),))
    assert RangeVerdict("A3", 0, None, 2, 1, 4, 8, 1, 1, 1, ok=False).ok is False


def test_constructor_checks_keep_their_messages():
    with pytest.raises(ValueError, match="max_support must be >= 1"):
        DnSearchConfig(max_support=0)
    with pytest.raises(ValueError, match="theta_dim_bound must be >= 0"):
        DnSearchConfig(theta_dim_bound=-1)
    with pytest.raises(ValueError, match="eps must have one more entry than pows"):
        SteenrodMonomial(3, (0,), (1,))
    with pytest.raises(ValueError, match="need one map per consecutive pair"):
        ChainRep(3, (2, 2), ())
    with pytest.raises(ValueError, match="facets need at least two blocks"):
        GammaFacet(OrderedPartition(2, ((1, 2),)))


def test_range_verdict_dict_lists_the_fields_in_order():
    _, values = RECORDS[IDS.index("RangeVerdict")]
    assert list(VERDICT.to_dict().items()) == list(values.items())


def test_action_validation_dict_nests_failures_and_keeps_tuples():
    # the pinned decide digests hash this dict: fields in order, each
    # failure as a dict of its fields, tuples kept
    result = ActionValidation(False, ("P^1 y != y^3",), (FAILURE,), 3)
    assert result.to_dict() == {
        "ok": False,
        "unstable_failures": ("P^1 y != y^3",),
        "adem_failures": ({"a": 1, "b": 1, "monomial": (1,), "degree": 4},),
        "instances_checked": 3,
    }
    assert list(result.to_dict()) == ["ok", "unstable_failures", "adem_failures",
                                         "instances_checked"]
    assert type(result.to_dict()["adem_failures"][0]["monomial"]) is tuple
