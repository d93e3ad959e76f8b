"""The frozen records built by ``negprob._record.frozen_record`` behave as
``dataclasses.dataclass(frozen=True)`` records of the same fields: each is
checked against a dataclass twin of the same name, fields and
``__post_init__``."""

import copy
import dataclasses
import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from negprob import (
    Distribution,
    MeasureSet,
    NegationTrace,
    NotADistribution,
    SimplexSamplerConfig,
    TooFewOutcomes,
    TraceStep,
    make_distribution,
    measure_all,
    trace_negation,
)
from negprob.claims import REFUTED, Claim, ClaimReport, Counterexample
from negprob.cli import SweepRow


def twin(cls):
    """A frozen dataclass with cls's name, fields and ``__post_init__``."""
    namespace = {}
    if "__post_init__" in cls.__dict__:
        namespace["__post_init__"] = cls.__post_init__
    fields = [(name, object) for name in cls.__annotations__]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True, namespace=namespace)


_P = make_distribution([0.6, 0.3, 0.1])
_TRACE = trace_negation(_P, max_steps=3)
_CE = Counterexample(_P.probs, 0.5, 0.25, 0.25)
_PEAK = {"max_excess": 0.25, "argmax_value": 0.5, "argmax_p": _P.probs}

# (record class, the arguments of one instance, those of an unequal one)
CASES = [
    (Distribution, ((0.25, 0.75),), ((0.75, 0.25),)),
    (SimplexSamplerConfig, (7, 3, 10), (7, 4, 10)),
    (MeasureSet, (0.1, 0.2, 0.3, 0.4, -0.5), (0.1, 0.2, 0.3, 0.4, 0.5)),
    (TraceStep, (0, _P, measure_all(_P)), (1, _P, measure_all(_P))),
    (NegationTrace, (_TRACE.steps, None, 1e-9), (_TRACE.steps, 3, 1e-9)),
    (SweepRow, (0.5, {"H_P": 0.69}), (0.5, {"H_P": 0.7})),
    (Claim, ("C1", "H(negate(p)) >= H(p)", "inequality", "all p"),
     ("C1", "H(negate(p)) >= H(p)", "limit", "all p")),
    (Counterexample, ((0.25, 0.75), 0.5, 0.25, -0.0), ((0.25, 0.75), 0.5, 0.25, 0.25)),
    (ClaimReport, ("C2", REFUTED, 10, 7, 1e-9, _CE, None), ("C2", REFUTED, 10, 7, 1e-9, None, None)),
    (ClaimReport, ("C8", REFUTED, 10, 7, 1e-9, _CE, _PEAK), ("C8", REFUTED, 11, 7, 1e-9, _CE, _PEAK)),
]
# A report with observed values holds a dict, so it is unhashable.
IDS = [*(cls.__name__ for cls, _, _ in CASES[:-1]), "ClaimReport-observed"]


def _outcome(f):
    """f()'s value, or its exception's type and text."""
    try:
        return f()
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return type(exc), str(exc)


@pytest.mark.parametrize("cls, args, other", CASES, ids=IDS)
class TestAsTheDataclassTwin:
    def test_repr(self, cls, args, other):
        assert repr(cls(*args)) == repr(twin(cls)(*args))

    def test_equality(self, cls, args, other):
        twin_cls = twin(cls)
        a, b, c = cls(*args), cls(*args), cls(*other)
        ta, tb, tc = twin_cls(*args), twin_cls(*args), twin_cls(*other)
        assert (a == a, a == b, a == c, a != b, a != c) == (
            ta == ta, ta == tb, ta == tc, ta != tb, ta != tc) == (True, True, False, False, True)
        # Another record class and a plain tuple of the same fields are unequal.
        assert (a == ta, ta == a, a == args, a != args) == (False, False, False, True)

    def test_hash(self, cls, args, other):
        record, dataclass_record = cls(*args), twin(cls)(*args)
        assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(dataclass_record))

    def test_construction(self, cls, args, other):
        names = cls.__match_args__
        by_keyword = cls(**dict(zip(names, args)))
        assert cls(*args) == by_keyword
        assert [getattr(by_keyword, name) for name in names] == list(args)
        twin_cls = twin(cls)
        for bad in (args[:-1], (*args, args[-1])):
            with pytest.raises(TypeError) as info:
                cls(*bad)
            assert _outcome(lambda: twin_cls(*bad)) == (TypeError, str(info.value))
        with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
            cls(*args, extra=1)

    def test_match_args(self, cls, args, other):
        assert cls.__match_args__ == twin(cls).__match_args__
        match cls(*args):
            case cls(first):
                assert first == args[0]
            case _:
                pytest.fail("the record did not match its class pattern")

    def test_pickle_and_copy(self, cls, args, other):
        record = cls(*args)
        for again in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                      copy.deepcopy(record)):
            assert type(again) is cls
            assert again == record
            assert repr(again) == repr(record)

    def test_fields_cannot_be_set_or_deleted(self, cls, args, other):
        record, dataclass_record = cls(*args), twin(cls)(*args)
        for name in (cls.__match_args__[0], "not_a_field"):
            with pytest.raises(AttributeError) as info:
                setattr(record, name, 1)
            assert _outcome(lambda: setattr(dataclass_record, name, 1)) == (
                dataclasses.FrozenInstanceError, str(info.value))
        name = cls.__match_args__[0]
        with pytest.raises(AttributeError) as info:
            delattr(record, name)
        assert _outcome(lambda: delattr(dataclass_record, name)) == (
            dataclasses.FrozenInstanceError, str(info.value))
        assert record == cls(*args)


@pytest.mark.parametrize("cls, args", [
    (Distribution, ((1.0,),)),
    (Distribution, ((0.5, 0.6),)),
    (Distribution, ((0.5, float("nan")),)),
    (Distribution, ((1.5, -0.5),)),
    (SimplexSamplerConfig, (0, 1, 1)),
    (SimplexSamplerConfig, (0, 2, 0)),
    (SimplexSamplerConfig, (2**64, 2, 1)),
])
def test_post_init_errors_are_unchanged(cls, args):
    with pytest.raises((TooFewOutcomes, NotADistribution, ValueError)) as info:
        cls(*args)
    assert _outcome(lambda: twin(cls)(*args)) == (type(info.value), str(info.value))


def test_repr_shows_each_field_by_its_repr():
    assert repr(SweepRow("x", {})) == "SweepRow(x='x', columns={})" == repr(twin(SweepRow)("x", {}))


def test_post_init_replaces_the_field():
    d = Distribution([1, 0])
    assert d.probs == (1.0, 0.0) and type(d.probs) is tuple
    assert repr(d) == repr(twin(Distribution)([1, 0]))


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_FIVE = st.tuples(_FLOATS, _FLOATS, _FLOATS, _FLOATS, _FLOATS)


def _fresh(values):
    """Equal floats as new objects (nan included), with their signs of zero."""
    return [float.fromhex(v.hex()) for v in values]


@settings(max_examples=200, deadline=None, database=None)
@given(_FIVE, _FIVE)
@example((math.nan, -0.0, 0.0, math.inf, -math.inf), (math.nan, 0.0, -0.0, math.inf, -math.inf))
@example((0.0,) * 5, (-0.0,) * 5)
def test_measure_set_matches_its_twin(a, b):
    twin_cls = twin(MeasureSet)
    record, dataclass_record = MeasureSet(*a), twin_cls(*a)
    assert repr(record) == repr(dataclass_record)
    assert hash(record) == hash(dataclass_record)
    assert (record == record) is (dataclass_record == dataclass_record) is True
    for values in (a, b):
        other = _fresh(values)
        assert (record == MeasureSet(*other)) is (dataclass_record == twin_cls(*other))
        assert (record != MeasureSet(*other)) is (dataclass_record != twin_cls(*other))
