"""Tests for property reports on the family and on arbitrary arrangements."""

import pytest

from hyperarr import (
    PropertyDecision,
    PropertyReport,
    analyze,
    boolean,
    format_arrangement_text,
    parse_arrangement_text,
    report,
)

import oracles

LADDER = {
    1: dict(supersolvable=True, inductively_factored=True, inductively_free=True,
            free=True, simplicial=True, aspherical="yes", projectively_unique=False),
    2: dict(supersolvable=True, inductively_factored=True, inductively_free=True,
            free=True, simplicial=True, aspherical="yes", projectively_unique=False),
    3: dict(supersolvable=False, inductively_factored=True, inductively_free=True,
            free=True, simplicial=True, aspherical="yes", projectively_unique=True),
    4: dict(supersolvable=False, inductively_factored=False, inductively_free=True,
            free=True, simplicial=True, aspherical="yes", projectively_unique=True),
    5: dict(supersolvable=False, inductively_factored=False, inductively_free=False,
            free=True, simplicial=False, aspherical="unknown", projectively_unique=True),
    6: dict(supersolvable=False, inductively_factored=False, inductively_free=False,
            free=False, simplicial=False, aspherical="no", projectively_unique=True),
}

EXPONENTS = {1: (1,), 2: (1, 3), 3: (1, 3, 3), 4: (1, 3, 3, 5), 5: (1, 5, 5, 5, 5)}
REGIONS = {1: 2, 2: 8, 3: 32, 4: 192, 5: 2592}


def test_report_rejects_non_positive():
    with pytest.raises(ValueError):
        report(0)
    with pytest.raises(ValueError):
        report(-3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_report_small_family(n):
    rep = report(n)
    for key, expected in LADDER[n].items():
        assert rep.value(key) == expected, key
    assert rep.value("formal") is True
    assert rep.value("has_generic_rank3_localization") is False
    assert rep.exponents == EXPONENTS[n]
    assert rep.regions == REGIONS[n]
    assert rep.undecided == ()


def test_report_five():
    rep = report(5)
    for key, expected in LADDER[5].items():
        assert rep.value(key) == expected, key
    assert rep.value("formal") is True
    assert rep.value("has_generic_rank3_localization") is False
    assert rep.exponents == EXPONENTS[5]
    assert rep.regions == REGIONS[5]
    assert rep.properties["free"].provenance == "certificate replay"
    assert rep.undecided == ()


def test_report_six_uses_localization_shortcut():
    rep = report(6)
    for key, expected in LADDER[6].items():
        assert rep.value(key) == expected, key
    assert rep.value("has_generic_rank3_localization") is True
    assert rep.value("formal") is True
    assert rep.exponents is None and rep.chi is None and rep.regions is None
    assert "localization" in rep.properties["free"].provenance
    assert rep.undecided == ()


def test_analyze_matches_family_report(d4_reflection):
    rep = analyze(d4_reflection, label="d4")
    family = report(4)
    for key in family.properties:
        assert rep.value(key) == family.value(key), key
    assert rep.label == "d4"
    assert rep.exponents == (1, 3, 3, 5)


def test_analyze_boolean(bool3):
    rep = analyze(bool3, label="bool3")
    assert rep.value("supersolvable") is True
    assert rep.value("free") is True
    assert rep.value("projectively_unique") is False
    assert rep.exponents == (1, 1, 1)
    assert rep.regions == 8


def test_analyze_generic(generic4):
    rep = analyze(generic4, label="generic4")
    assert rep.value("free") is False
    assert rep.value("formal") is False
    assert rep.value("simplicial") is False
    assert rep.value("has_generic_rank3_localization") is True
    assert rep.value("aspherical") == "no"
    assert rep.value("projectively_unique") is True


def _blank_report():
    rep = PropertyReport("fake", 3, 5, 3)
    for name in PropertyReport.PROPERTY_NAMES:
        rep.properties[name] = PropertyDecision(False, "fabricated")
    rep.properties["aspherical"] = PropertyDecision("unknown", "fabricated")
    return rep


def test_validate_catches_ladder_violation():
    rep = _blank_report()
    rep.properties["supersolvable"] = PropertyDecision(True, "fabricated")
    rep.properties["inductively_factored"] = PropertyDecision(False, "fabricated")
    with pytest.raises(AssertionError):
        rep.validate()


def test_validate_catches_free_with_generic_localization():
    rep = _blank_report()
    rep.properties["free"] = PropertyDecision(True, "fabricated")
    rep.properties["has_generic_rank3_localization"] = PropertyDecision(True, "fabricated")
    with pytest.raises(AssertionError):
        rep.validate()


def test_validate_catches_simplicial_non_aspherical():
    rep = _blank_report()
    rep.properties["simplicial"] = PropertyDecision(True, "fabricated")
    rep.properties["aspherical"] = PropertyDecision("no", "fabricated")
    with pytest.raises(AssertionError):
        rep.validate()


def test_report_json_and_text_round_trip(h3):
    rep = analyze(h3, label="h3")
    data = rep.to_json_dict()
    assert data["schema"] == "hyperarr/report-v1"
    assert data["properties"]["free"]["value"] is True
    assert data["exponents"] == [1, 3, 3]
    assert data["undecided"] == []
    text = format_arrangement_text(h3)
    back = parse_arrangement_text(text)
    rep2 = analyze(back, label="h3")
    assert rep2.to_json_dict() == data
    rendered = rep.format_text()
    assert "supersolvable" in rendered and "exponents: [1, 3, 3]" in rendered


def test_projectively_unique_provenance_names_its_evidence(h2, bool3, rigid7):
    from hyperarr import MotionRefutation, from_vectors, verify_motion_refutation
    from hyperarr.report import _uniqueness_decision

    moved = PropertyDecision(False, "motion refutation: hyperplane 0 -> [1, 2]")
    assert report(2).properties["projectively_unique"] == moved
    assert analyze(h2).properties["projectively_unique"] == moved
    assert report(3).properties["projectively_unique"].provenance == (
        "generation-closure witness [0, 1, 3, 6]"
    )
    assert _uniqueness_decision(bool3, 10**6) == PropertyDecision(
        False, "no subset of rank+1 hyperplanes exists"
    )
    assert _uniqueness_decision(rigid7, 10**6) == PropertyDecision(
        "undecided", "no witness and no motion refutation"
    )
    assert _uniqueness_decision(rigid7, 3) == PropertyDecision(
        "undecided", "witness scan (candidate cap exhausted)"
    )
    flat = from_vectors(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert _uniqueness_decision(flat, 10**6) == PropertyDecision(
        "undecided", "witness search requires an essential arrangement"
    )
    # every False names a refutation that replays, or the size reason
    refuted = 0
    for d, covs in oracles.random_arrangements(30, seed=101, max_dim=4, max_size=8):
        arr = from_vectors(d, covs)
        dec = _uniqueness_decision(arr, 10**6)
        if dec.value is not False or dec.provenance == "no subset of rank+1 hyperplanes exists":
            continue
        head, _, covector = dec.provenance.partition(" -> ")
        assert head.startswith("motion refutation: hyperplane ")
        h = int(head.rsplit(" ", 1)[1])
        c = tuple(int(x) for x in covector.strip("[]").split(", "))
        assert verify_motion_refutation(arr, MotionRefutation(h, c))
        refuted += 1
    assert refuted >= 5


def test_ladder_pins_only_the_family_lattices():
    from hyperarr import hyperpolygonal, lattice

    saved = dict(lattice._universe_cache)
    lattice._universe_cache.clear()
    try:
        for n in range(1, 7):
            report(n)
        assert set(lattice._universe_cache) == {hyperpolygonal(n) for n in range(1, 7)}
    finally:
        lattice._universe_cache.clear()
        lattice._universe_cache.update(saved)
