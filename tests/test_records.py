"""The value semantics the package relies on from its frozen record classes."""

import pytest

from torictop import InputError, PolytopeDual, validate_complex
from torictop.complexes import HVector, SimplicialComplex
from torictop.homology import SNFResult
from torictop.projection import SummandCertificate


def test_records_are_frozen():
    K = validate_complex([[1, 2]], 2)
    with pytest.raises(AttributeError):
        K.m = 3
    with pytest.raises(AttributeError):
        del K.masks
    with pytest.raises(AttributeError):
        K.extra = 1
    assert K.m == 2


def test_positional_and_keyword_construction_agree():
    a = SimplicialComplex(2, (3,), (4, 7))
    b = SimplicialComplex(m=2, masks=(3,), labels=(4, 7))
    c = SimplicialComplex(2, masks=(3,))
    assert (a.m, a.masks, a.labels) == (b.m, b.masks, b.labels) == (2, (3,), (4, 7))
    assert c.labels is None
    with pytest.raises(TypeError):
        SimplicialComplex(2)
    with pytest.raises(TypeError):
        SimplicialComplex(2, (3,), None, None)
    with pytest.raises(TypeError):
        SimplicialComplex(2, (3,), colour="red")


def test_equality_and_hash_skip_uncompared_fields_and_other_classes():
    a = SimplicialComplex(2, (3,), (4, 7))
    b = SimplicialComplex(2, (3,))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != SimplicialComplex(3, (3,))
    # equal field values in a different record class are not equal
    assert HVector((1, 2, 1)) != SNFResult((1, 2, 1))
    assert HVector((1, 2, 1)) == HVector(entries=(1, 2, 1))
    assert hash(HVector((1, 2, 1))) == hash(((1, 2, 1),))
    assert repr(a) == "SimplicialComplex(m=2, masks=(3,), labels=(4, 7))"


def test_default_factory_gives_each_record_its_own_value():
    c1 = SummandCertificate((1,), 1, "simplex")
    c2 = SummandCertificate((1,), 1, "simplex", {"note": 1})
    assert c1.details == {} and c1.details is not SummandCertificate((2,), 1, "simplex").details
    assert c1 == c2  # details take no part in equality


def test_post_init_validates():
    with pytest.raises(InputError, match="not pure"):
        PolytopeDual(2, validate_complex([[1, 2], [3]], 3))
