"""The value classes: construction, equality, hashing, repr, immutability, pickling.

Each immutable value class is checked against the same contract: positional
and keyword construction agree, omitted fields take their defaults, ``==``
compares class and field values, equal values hash equally, ``repr`` reads
``Cls(field=value!r, ...)``, fields can be neither assigned nor deleted, and
``pickle`` and ``copy.deepcopy`` give back an equal value.  ``EmTrace`` is
the one mutable record and ``LorentzTransform`` compares by identity.
"""

import copy
import pickle

import numpy as np
import pytest

from hyperstat.geometry import (
    ConeError,
    HyperboloidPoint,
    InvariantTriple,
    LorentzParam,
    LorentzTransform,
    Mobius,
    Moment2,
    SpdParam2,
    UpperHalfPoint,
)
from hyperstat.mixtures import EmTrace, Mixture
from hyperstat.montecarlo import FGenerator, McEstimate, Proposal
from hyperstat.poincare import CumulantPair
from hyperstat.sampling import GigParams, RngStream
from hyperstat.specfun import SpecialValue


def _negate(lr):
    # Module level, so that an FGenerator holding it pickles by reference.
    return -lr


_PAIR = (SpdParam2(1.0, 0.0, 1.0), SpdParam2(2.0, 0.5, 1.0))

# (class, fields as keywords, a changed field, defaults left out, repr)
_CASES = [
    (SpdParam2, {"a": 1.0, "b": 0.0, "c": 1.0}, {"b": 0.5}, {},
     "SpdParam2(a=1.0, b=0.0, c=1.0)"),
    (UpperHalfPoint, {"x": 0.5, "y": 2.0}, {"x": -0.5}, {},
     "UpperHalfPoint(x=0.5, y=2.0)"),
    (Moment2, {"m11": -1.0, "m12": 0.25, "m22": -2.0}, {"m12": 0.0}, {},
     "Moment2(m11=-1.0, m12=0.25, m22=-2.0)"),
    (LorentzParam, {"theta": (2.0, 1.0, 1.0)}, {"theta": (2.0, 1.0, -1.0)}, {},
     "LorentzParam(theta=(2.0, 1.0, 1.0))"),
    (HyperboloidPoint, {"coords": (0.5, -1.0)}, {"coords": (0.5, 1.0)}, {},
     "HyperboloidPoint(coords=(0.5, -1.0))"),
    (Mobius, {"g11": 2.0, "g12": 1.0, "g21": 1.0, "g22": 1.0}, {"g12": 0.0, "g21": 0.0, "g22": 0.5}, {},
     "Mobius(g11=2.0, g12=1.0, g21=1.0, g22=1.0)"),
    (InvariantTriple, {"s1": 1.0, "s2": 2.0, "s3": 3.0}, {"s3": 4.0}, {},
     "InvariantTriple(s1=1.0, s2=2.0, s3=3.0)"),
    (SpecialValue, {"value": 1.0, "log_value": 0.0}, {"log_value": -1.0}, {},
     "SpecialValue(value=1.0, log_value=0.0)"),
    (CumulantPair, {"full": 1.5, "reduced": 0.25}, {"full": 1.25}, {},
     "CumulantPair(full=1.5, reduced=0.25)"),
    (RngStream, {"seed": 7, "stream_id": 0}, {"stream_id": 1}, {"stream_id": 0},
     "RngStream(seed=7, stream_id=0)"),
    (GigParams, {"lam": -0.5, "chi": 1.0, "psi": 2.0}, {"lam": 0.5}, {},
     "GigParams(lam=-0.5, chi=1.0, psi=2.0)"),
    (FGenerator, {"kind": "kl", "of_log_ratio": _negate}, {"kind": "custom"}, {},
     f"FGenerator(kind='kl', of_log_ratio={_negate!r})"),
    (Proposal, {"kind": "logistic", "sigma": 1.0}, {"sigma": 2.0}, {"sigma": 1.0},
     "Proposal(kind='logistic', sigma=1.0)"),
    (McEstimate,
     {"estimate": 0.5, "sample_variance": 0.1, "n": 100, "ci95": (0.4, 0.6),
      "sigma": None, "tail_index": None, "heavy_tail": False},
     {"heavy_tail": True}, {"sigma": None, "tail_index": None, "heavy_tail": False},
     "McEstimate(estimate=0.5, sample_variance=0.1, n=100, ci95=(0.4, 0.6), sigma=None, "
     "tail_index=None, heavy_tail=False)"),
    (Mixture, {"family": "poincare", "weights": (0.25, 0.75), "components": _PAIR}, {"weights": (0.75, 0.25)}, {},
     "Mixture(family='poincare', weights=(0.25, 0.75), components=(SpdParam2(a=1.0, b=0.0, c=1.0), "
     "SpdParam2(a=2.0, b=0.5, c=1.0)))"),
]


@pytest.fixture(params=_CASES, ids=lambda case: case[0].__name__)
def case(request):
    return request.param


def test_positional_and_keyword_construction_agree(case):
    cls, fields, _, _, _ = case
    by_keyword = cls(**fields)
    assert cls(*fields.values()) == by_keyword
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value


def test_omitted_fields_take_their_defaults(case):
    cls, fields, _, defaults, _ = case
    given = {name: value for name, value in fields.items() if name not in defaults}
    assert cls(**given) == cls(**fields)


def test_equality_is_by_class_and_field_values(case):
    cls, fields, changed, _, _ = case
    value = cls(**fields)
    assert value == cls(**fields) and not value != cls(**fields)
    assert value != cls(**{**fields, **changed})
    assert value != tuple(fields.values())
    assert value.__eq__(object()) is NotImplemented


def test_equal_values_hash_equally(case):
    cls, fields, _, _, _ = case
    assert hash(cls(**fields)) == hash(cls(**fields))
    assert len({cls(**fields), cls(**fields)}) == 1


def test_repr_names_every_field(case):
    cls, fields, _, _, text = case
    assert repr(cls(**fields)) == text


def test_fields_can_be_neither_assigned_nor_deleted(case):
    cls, fields, _, _, _ = case
    value = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) == fields[name]


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trips_to_an_equal_value(case, protocol):
    cls, fields, _, _, _ = case
    value = cls(**fields)
    restored = pickle.loads(pickle.dumps(value, protocol=protocol))
    assert type(restored) is cls and restored == value


def test_deepcopy_round_trips_to_an_equal_value(case):
    cls, fields, _, _, _ = case
    value = cls(**fields)
    assert copy.deepcopy(value) == value and copy.copy(value) == value


@pytest.mark.parametrize(
    "pair",
    [
        (SpecialValue(1.0, 0.0), CumulantPair(1.0, 0.0)),
        (SpdParam2(1.0, 0.0, 1.0), InvariantTriple(1.0, 0.0, 1.0)),
        (LorentzParam((2.0, 1.0, 1.0)), HyperboloidPoint((2.0, 1.0, 1.0))),
    ],
    ids=lambda pair: f"{type(pair[0]).__name__}-{type(pair[1]).__name__}",
)
def test_equal_field_values_of_two_classes_differ(pair):
    first, second = pair
    assert first != second and second != first


def test_unpickling_validates_again():
    # A pickle edited to leave the cone is refused when it is loaded.
    data = pickle.dumps(SpdParam2(1.0, 0.5, 1.0), protocol=0)
    assert data.count(b"F0.5\n") == 1
    with pytest.raises(ConeError):
        pickle.loads(data.replace(b"F0.5\n", b"F2.0\n"))


def test_lorentz_transform_compares_by_identity():
    g = LorentzTransform(np.eye(3))
    assert g == g and g != LorentzTransform(np.eye(3))
    assert hash(g) == hash(g)
    assert repr(g) == "LorentzTransform(matrix=array([[1., 0., 0.],\n       [0., 1., 0.],\n       [0., 0., 1.]]))"
    with pytest.raises(AttributeError):
        g.matrix = np.eye(3)
    with pytest.raises(AttributeError):
        del g.matrix
    for restored in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert type(restored) is LorentzTransform and np.array_equal(restored.matrix, g.matrix)


class TestEmTrace:
    """The one mutable record: field-wise ``==``, no hash."""

    def test_defaults_and_construction(self):
        trace = EmTrace()
        assert trace == EmTrace([], None, 0, 0, 0, False)
        assert trace == EmTrace(loglik=[], effective_counts=None, iterations=0, restarts=0,
                                rejected_jumps=0, converged=False)
        assert EmTrace().loglik is not EmTrace().loglik  # a new list per record

    def test_fields_are_mutable(self):
        trace = EmTrace(restarts=2)
        trace.iterations += 3
        trace.loglik.append(-1.5)
        assert trace == EmTrace([-1.5], None, 3, 2, 0, False)
        assert trace != EmTrace([-1.5], None, 3, 2, 0, True)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(EmTrace())

    def test_repr(self):
        assert repr(EmTrace(loglik=[-1.0], iterations=4)) == (
            "EmTrace(loglik=[-1.0], effective_counts=None, iterations=4, restarts=0, "
            "rejected_jumps=0, converged=False)"
        )

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_and_deepcopy(self, protocol):
        trace = EmTrace([-2.0, -1.0], None, 5, 1, 2, True)
        assert pickle.loads(pickle.dumps(trace, protocol=protocol)) == trace
        assert copy.deepcopy(trace) == trace
