"""The package's eleven records on exactnum.Record: built, compared, hashed and printed as dataclasses were.

Each record here is one the package builds.  A copy from the same fields is
equal and hashes equal; a record of another class with the same fields, or
the tuple of the fields, is not equal; no field can be set or deleted; and
the repr and the hash are those of a frozen dataclass with the same fields,
so a set of records iterates in the order it did before the records left
dataclasses.
"""

import dataclasses
from fractions import Fraction

import pytest

import planecone.resolution as resolution
from planecone import (
    ChernCharacter,
    DyadicAddress,
    Wall,
    cf_expand_even,
    epsilon,
    gaeta_resolution,
    kernel_cokernel_slopes,
    kronecker_data,
    min_slope,
)
from planecone.exactnum import Record
from planecone.verify import CheckResult

SAMPLES = {
    "CheckResult": lambda: CheckResult("cf structure flags", True, "7 checks"),
    "Wall": lambda: Wall.semicircle(Fraction(-5, 2), Fraction(9, 4)),
    "TriadSlopes": lambda: kernel_cokernel_slopes(0, 2),
    "ContinuedFraction": lambda: cf_expand_even(Fraction(5, 13)),
    "DyadicAddress": lambda: DyadicAddress(6, 2),
    "ExceptionalSlope": lambda: epsilon((1, 2)),
    "SeqTerm": lambda: resolution.SeqTerm("W", ChernCharacter(1, 0, 0)),
    "ResolutionData": lambda: gaeta_resolution(25),
    "ClassicalGaeta": lambda: resolution.classical_gaeta(5),
    "KroneckerData": lambda: kronecker_data(11),
    "MinSlopeResult": lambda: min_slope(5),
}


def fields(record):
    return [getattr(record, name) for name in type(record)._fields]


def twin(record):
    """Another Record class with record's class name and fields."""
    annotations = dict.fromkeys(type(record)._fields, "object")
    return type(type(record).__name__, (Record,), {"__annotations__": annotations})


def dataclass_twin(record):
    """A frozen dataclass with record's class name and fields."""
    return dataclasses.make_dataclass(type(record).__name__, type(record)._fields, frozen=True)


def test_the_samples_are_every_record_of_the_package():
    package = [cls for cls in Record.__subclasses__() if cls.__module__.startswith("planecone.")]
    assert sorted(cls.__name__ for cls in package) == sorted(SAMPLES)
    assert all(type(build()).__name__ == name for name, build in SAMPLES.items())


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_a_record_is_its_fields_and_its_class(name):
    record = SAMPLES[name]()
    copy = type(record)(*fields(record))
    assert copy == record and not copy != record and hash(copy) == hash(record)
    assert twin(record)(*fields(record)) != record
    assert record != tuple(fields(record)) and record != fields(record)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_no_field_of_a_record_can_be_set_or_deleted(name):
    record = SAMPLES[name]()
    first = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert fields(record) == fields(SAMPLES[name]())


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_repr_and_hash_are_a_frozen_dataclass_s(name):
    record = SAMPLES[name]()
    same = dataclass_twin(record)(*fields(record))
    assert repr(record) == repr(same)
    assert hash(record) == hash(same)


def test_construction_is_positional_with_trailing_defaults_and_runs_post_init():
    assert DyadicAddress(2, 1) == DyadicAddress(1, 0) != DyadicAddress(1, 1)
    assert repr(DyadicAddress(2, 1)) == "DyadicAddress(p=1, q=0)"
    assert repr(Wall.vertical(2)) == (
        "Wall(kind='Vertical', center_s=None, radius_sq=None, vertical_s=Fraction(2, 1))"
    )
    term = resolution.SeqTerm("W", ChernCharacter(1, 0, 0))
    assert (term.slope, term.mult) == (None, None)
    with pytest.raises(TypeError):
        DyadicAddress(1)
    with pytest.raises(TypeError):
        DyadicAddress(1, 2, 3)
    with pytest.raises(TypeError):
        DyadicAddress(p=1, q=2)
