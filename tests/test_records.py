"""The contract of the package's records: keyword construction, equality by
value, and read-only fields where the record is a value."""

import weakref

import pytest

from hyperarr import (
    Arrangement,
    CertificateReplay,
    Flat,
    GenClosure,
    InductiveFreenessResult,
    MotionRefutation,
    PropertyDecision,
    PropertyReport,
    Region,
    RegionSet,
    UniquenessWitness,
    enumerate_regions,
    hyperpolygonal,
)

ARR = Arrangement(dim=2, covectors=((0, 1), (1, 0), (1, 1)))
CLOSURE = GenClosure(seed=(0, 1), generated=(0, 1, 2), rounds=((2,),))
RECORDS = {
    Arrangement: dict(dim=2, covectors=((0, 1), (1, 0), (1, 1))),
    Flat: dict(index=4, rank=2, contains=(0, 1, 2), dim=0, mobius=2),
    Region: dict(mask=5, rays=((1, 0), (0, 1))),
    RegionSet: dict(arrangement=ARR, regions=(Region(mask=0, rays=()),)),
    GenClosure: dict(seed=(0, 1), generated=(0, 1, 2), rounds=((2,),)),
    UniquenessWitness: dict(indices=(0, 1), closure=CLOSURE),
    MotionRefutation: dict(hyperplane=2, covector=(1, 2)),
    InductiveFreenessResult: dict(status=True, exponents=(1, 2), witness=[2, 0], nodes_visited=3),
    CertificateReplay: dict(exponents=(1, 2), cited_leaves=["a leaf"], steps=4),
    PropertyDecision: dict(value=True, provenance="modular chain search"),
    PropertyReport: dict(
        label="A", dim=2, hyperplanes=3, rank=2,
        properties={"free": PropertyDecision(True, "implied")}, exponents=(1, 2), chi=(1, -3, 2), regions=6,
    ),
}
FROZEN = (Flat, Region, RegionSet, GenClosure, UniquenessWitness, MotionRefutation, PropertyDecision, Arrangement)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_keyword_construction_gives_back_the_fields_and_equality_is_by_value(cls):
    fields = RECORDS[cls]
    rec = cls(**fields)
    assert {k: getattr(rec, k) for k in fields} == fields
    assert rec == cls(*fields.values()) and not rec != cls(**fields)
    last = list(fields)[-1]
    assert rec != cls(**dict(fields, **{last: ()}))


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_assigning_a_field_of_a_value_record_raises(cls):
    fields = RECORDS[cls]
    rec = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
    assert {k: getattr(rec, k) for k in fields} == fields


def test_property_report_is_mutable_with_a_fresh_dict_per_report():
    a, b = PropertyReport("A", 2, 3, 2), PropertyReport(label="A", dim=2, hyperplanes=3, rank=2)
    assert a == b and a.properties == {} and a.properties is not b.properties
    assert (a.exponents, a.chi, a.regions) == (None, None, None)
    a.properties["free"] = PropertyDecision(True, "implied")
    a.regions = 6
    assert a != b and a.regions == 6


def test_arrangement_hashes_by_value_weakrefs_and_keeps_its_repr():
    a = hyperpolygonal(3)
    b = Arrangement(a.dim, tuple(a.covectors))
    assert a == b and a is not b and hash(a) == hash(b) and len({a, b}) == 1
    assert weakref.ref(a)() is a
    assert repr(ARR) == "Arrangement(dim=2, covectors=((0, 1), (1, 0), (1, 1)))"
    with pytest.raises(AttributeError):
        del a.dim
    with pytest.raises(ValueError, match="duplicate hyperplane"):
        Arrangement(2, ((0, 1), (0, 1)))
    # the unchecked path of with_hyperplane gives the same value, and caches
    grown = ARR.subset([0, 1]).with_hyperplane((1, 1))
    assert grown == ARR and hash(grown) == hash(ARR) and grown.rank == 2
    with pytest.raises(AttributeError):
        grown.covectors = ()


def test_region_set_keeps_its_length_and_masks():
    regs = enumerate_regions(ARR)
    assert len(regs) == 6 and len(regs.masks) == 6 and regs.masks == tuple(r.mask for r in regs.regions)
    assert regs == RegionSet(regs.arrangement, regs.regions) and hash(regs) == hash(enumerate_regions(ARR))
    assert repr(regs).startswith("RegionSet(arrangement=Arrangement(dim=2, covectors=") and "regions=(Region(mask=" in repr(regs)
