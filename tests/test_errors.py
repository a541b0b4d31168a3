"""Every package exception survives a pickle round trip unchanged.

Worker processes of `verify --jobs N` send their exceptions back pickled, so
a class that does not rebuild itself from its constructor arguments would
reach the parent with a nested message or fail to unpickle at all.
"""

import inspect
import pickle

import pytest

from shortpres import errors

CASES = {
    "ShortPresError": (("plain message",), {}),
    "DomainMismatch": (("domains differ",), {}),
    "PointOutOfDomain": ((9, 1, 5), {"point": 9, "lo": 1, "hi": 5}),
    "OverlappingCycles": ((2,), {"point": 2}),
    "UnsupportedDegree": ((21, "no usable prime"), {"degree": 21,
                                                    "why": "no usable prime"}),
    "BadPrimeClass": (("13 is not 11 (mod 12)",), {}),
    "ParityViolation": (("odd exponent pair",), {}),
    "InternalInvariantViolation": (("k out of range",), {}),
    "MalformedText": (("empty parentheses",), {}),
    "UnboundSymbol": (("q",), {"name": "q"}),
    "EnumerationTooLarge": (("too many points",), {}),
    "DegreeTooLarge": (("no images",), {}),
}


def test_every_exception_class_has_a_case():
    classes = {name for name, obj in inspect.getmembers(errors, inspect.isclass)
               if issubclass(obj, errors.ShortPresError)}
    assert classes == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_pickle_round_trip(name):
    args, attrs = CASES[name]
    exc = getattr(errors, name)(*args)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    for attr, value in attrs.items():
        assert getattr(back, attr) == value


def test_unsupported_degree_without_reason():
    back = pickle.loads(pickle.dumps(errors.UnsupportedDegree(21)))
    assert str(back) == "degree 21 is not covered"
    assert back.degree == 21
