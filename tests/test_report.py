"""Tests for property reports on the family and on arbitrary arrangements."""

import pytest

from hyperarr import (
    PropertyDecision,
    PropertyReport,
    analyze,
    boolean,
    format_arrangement_text,
    hyperpolygonal,
    parse_arrangement_text,
    report,
)
from hyperarr.report import IMPLICATIONS

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
    for n in range(1, 7):
        rep, family = analyze(hyperpolygonal(n)), report(n)
        assert set(rep.properties) == set(family.properties) == set(PropertyReport.PROPERTY_NAMES)
        for key in PropertyReport.PROPERTY_NAMES:
            assert rep.value(key) == family.value(key), (n, key)
        assert rep.exponents == family.exponents and rep.undecided == family.undecided
        assert rep.chi is not None and rep.regions is not None


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


def _open_report():
    rep = PropertyReport("fake", 3, 5, 3)
    for name in PropertyReport.PROPERTY_NAMES:
        rep.properties[name] = PropertyDecision("undecided", "fabricated")
    rep.properties["aspherical"] = PropertyDecision("unknown", "fabricated")
    return rep


def _opposite(value):
    return {"yes": "no", "no": "yes"}.get(value, not value)


@pytest.mark.parametrize(
    "row", IMPLICATIONS, ids=[f"{premise}-{conclusion}" for premise, _, conclusion, _, _ in IMPLICATIONS]
)
def test_validate_catches_implication_violation(row):
    premise, pv, conclusion, cv, _ = row
    rep = _open_report()
    rep.properties[premise] = PropertyDecision(pv, "fabricated")
    rep.properties[conclusion] = PropertyDecision(cv, "fabricated")
    rep.validate()
    rep.properties[conclusion] = PropertyDecision(_opposite(cv), "fabricated")
    with pytest.raises(AssertionError):
        rep.validate()
    # a partial report (the CLI's free-only ladder) is checked on the rows it has
    partial = PropertyReport("fake", 3, 5, 3, {k: rep.properties[k] for k in (premise, conclusion)})
    with pytest.raises(AssertionError):
        partial.validate()
    del partial.properties[conclusion]
    partial.validate()


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


def test_projectively_unique_provenance_names_its_evidence(monkeypatch, h2, bool3, rigid7):
    from hyperarr import MotionRefutation, formality, from_vectors, verify_motion_refutation
    from hyperarr.report import _uniqueness_decision

    moved = PropertyDecision(False, "motion refutation: hyperplane 0 -> [1, 2]")
    assert report(2).properties["projectively_unique"] == moved
    assert analyze(h2).properties["projectively_unique"] == moved
    assert report(3).properties["projectively_unique"].provenance == (
        "generation-closure witness [0, 1, 3, 6]"
    )
    assert _uniqueness_decision(bool3) == PropertyDecision(
        False, "no subset of rank+1 hyperplanes exists"
    )
    assert _uniqueness_decision(rigid7) == PropertyDecision(
        "undecided", "no witness and no motion refutation"
    )
    with monkeypatch.context() as mp:
        mp.setattr(formality, "WITNESS_CAP", 3)
        assert _uniqueness_decision(rigid7) == PropertyDecision(
            "undecided", "witness scan (candidate cap exhausted)"
        )
    flat = from_vectors(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert _uniqueness_decision(flat) == PropertyDecision(
        "undecided", "witness search requires an essential arrangement"
    )
    # every False names a refutation that replays, or the size reason
    refuted = 0
    for d, covs in oracles.random_arrangements(30, seed=101, max_dim=4, max_size=8):
        arr = from_vectors(d, covs)
        dec = _uniqueness_decision(arr)
        if dec.value is not False or dec.provenance == "no subset of rank+1 hyperplanes exists":
            continue
        head, _, covector = dec.provenance.partition(" -> ")
        assert head.startswith("motion refutation: hyperplane ")
        h = int(head.rsplit(" ", 1)[1])
        c = tuple(int(x) for x in covector.strip("[]").split(", "))
        assert verify_motion_refutation(arr, MotionRefutation(h, c))
        refuted += 1
    assert refuted >= 5


FRAME = [(1, -1, 0), (1, 2, 0), (1, -2, 2), (1, 1, 2)]  # four planes, no natural seed


@pytest.mark.parametrize(
    "module, cap, flag, vectors, provenance",
    [
        ("freeness", "NODE_CAP", "inductively_free", None,
         "addition-deletion search (node cap exhausted)"),
        ("factorization", "PARTITION_CAP", "inductively_factored", None,
         "nice partition recursion (size cap exhausted)"),
        ("formality", "WITNESS_CAP", "projectively_unique", FRAME,
         "witness scan (candidate cap exhausted)"),
    ],
)
def test_a_cap_set_on_its_module_reaches_the_ladder(monkeypatch, h3, module, cap, flag, vectors, provenance):
    """H_3 runs the freeness and factoredness searches, FRAME the witness
    scan; each is True with the default caps and "undecided" with a cap of 0."""
    import importlib

    from hyperarr import from_vectors

    arr = h3 if vectors is None else from_vectors(3, vectors)
    assert analyze(arr).properties[flag].value is True
    monkeypatch.setattr(importlib.import_module(f"hyperarr.{module}"), cap, 0)
    assert analyze(arr).properties[flag] == PropertyDecision("undecided", provenance)


def test_an_inductive_search_out_of_stack_names_the_depth(monkeypatch, h3):
    """nodes_visited within NODE_CAP tells a search stopped by the stack from
    one stopped by the node cap."""
    import importlib

    from hyperarr.freeness import InductiveFreenessResult

    def out_of_stack(arr):
        return InductiveFreenessResult("undecided", None, None, 7)

    monkeypatch.setattr(importlib.import_module("hyperarr.report"), "is_inductively_free", out_of_stack)
    assert analyze(h3).properties["inductively_free"] == PropertyDecision(
        "undecided", "addition-deletion search (recursion depth exhausted)"
    )


def test_no_search_takes_a_cap_parameter():
    import inspect

    import hyperarr
    from hyperarr.report import _uniqueness_decision

    searches = [
        getattr(hyperarr, name) for name in (
            "is_inductively_free", "find_nice_partition", "is_inductively_factored",
            "is_independent_partition", "gen_closure", "projective_uniqueness_witness", "is_generic",
        )
    ]
    for fn in searches + [_uniqueness_decision]:
        assert not [p for p in inspect.signature(fn).parameters if p.endswith("cap")], fn.__name__


def test_non_essential_analyze_builds_one_lattice(monkeypatch):
    from hyperarr import enumerate_regions, from_vectors, lattice

    # rank 3 in dimension 4: the searches read the input's own lattice
    arr = from_vectors(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0), (1, 0, 1, 0)])
    assert arr.rank == 3 and not arr.is_essential
    lattice._universe_cache.pop(arr, None)
    built = []
    init = lattice.Universe.__init__

    def counted(self, a, *args, **kwargs):
        built.append(a)
        init(self, a, *args, **kwargs)

    monkeypatch.setattr(lattice.Universe, "__init__", counted)
    rep = analyze(arr)
    assert rep.properties["supersolvable"] == PropertyDecision(True, "modular chain search")
    assert rep.properties["simplicial"].provenance.startswith("facet-count defect")
    # the chambers are read off the same lattice, in its coordinates
    regs = enumerate_regions(arr)
    assert len(regs) == rep.regions and regs.arrangement.dim == 3
    assert built == [arr]


def test_ladder_pins_no_lattice():
    import gc

    from hyperarr import lattice

    saved = dict(lattice._universe_cache)
    lattice._universe_cache.clear()
    try:
        for n in range(1, 7):
            report(n)
        gc.collect()
        assert not lattice._universe_cache
    finally:
        lattice._universe_cache.update(saved)


def _tracer_module():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_reaches_every_search_the_ladder_runs():
    """The traced benchmark replaces functions on their calling module, so a
    renamed import or a search bound at import time would drop its span
    silently; and a flag the implications decided opens no span."""
    import importlib

    tracer = _tracer_module()
    for module, attr, _, _ in tracer.FUNCTION_SPANS:
        assert hasattr(importlib.import_module(f"hyperarr.{module}"), attr), (module, attr)
    names = {name for _, _, name, _ in tracer.FUNCTION_SPANS}
    opened = {}
    for n in range(1, 7):
        t = tracer.Tracer()
        t.install()
        try:
            report(n)
        finally:
            t.uninstall()
        opened[n] = {span[0] for span in t.spans} & names
    assert opened[6] == {"lattice.rank3_scan", "formality.formal", "formality.witness"}
    searches = {"lattice.supersolvable", "freeness.indfree", "freeness.replay", "regions.simplicial_defect"}
    assert searches <= opened[5] and "factorization.ifac" not in opened[5]
    assert "factorization.ifac" in opened[4]


def test_long_lived_process_keeps_no_lattice():
    import gc
    import tracemalloc

    from hyperarr import from_vectors, lattice

    pool = oracles.random_arrangements(60, seed=424242, max_dim=5, max_size=11)
    saved = dict(lattice._universe_cache)
    lattice._universe_cache.clear()
    tracemalloc.start()
    try:
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        for d, covs in pool:
            analyze(from_vectors(d, covs))
        for n in range(1, 7):
            report(n)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - start
        assert not lattice._universe_cache
        assert grown < 500_000, f"{grown} bytes still live"
    finally:
        tracemalloc.stop()
        lattice._universe_cache.update(saved)


# -- differential check of the one ladder ---------------------------------------
#
# Copies of analyze and report as they were before they shared one ladder:
# every search ran in a fixed order and the implications were written out by
# hand.  Provenance strings are not compared; they name the route that fired.


def _old_aspherical(simplicial, supersolvable, has_loc):
    if has_loc is True:
        return "no"
    if simplicial is True or supersolvable is True:
        return "yes"
    return "unknown"


def _old_analyze(arr):
    from hyperarr import (
        CapExhausted,
        CertificateError,
        chi_integer_roots,
        find_generic_rank3_localization,
        is_formal,
        is_inductively_factored,
        is_inductively_free,
        is_supersolvable,
        simplicial_defect,
        verify_free_certificate,
    )
    from hyperarr.lattice import universe
    from hyperarr.report import _uniqueness_decision, matching_packaged_certificate

    v = {}
    ss, _ = is_supersolvable(arr)
    v["supersolvable"] = ss
    chi = universe(arr).chi()
    roots = chi_integer_roots(arr)
    regions = abs(sum(((-1) ** k) * c for k, c in enumerate(chi)))
    ifree = is_inductively_free(arr)
    v["inductively_free"] = ifree.status
    if ifree.status is False:
        v["inductively_factored"] = False
    else:
        v["inductively_factored"] = is_inductively_factored(arr)[0]
    cert = matching_packaged_certificate(arr)
    loc = find_generic_rank3_localization(arr)
    v["has_generic_rank3_localization"] = loc is not None
    exponents = None
    if roots is None:
        v["free"] = False
    elif ifree.status is True:
        v["free"] = True
        exponents = ifree.exponents
    elif cert is not None:
        try:
            exponents = verify_free_certificate(arr, cert).exponents
            v["free"] = True
        except (CertificateError, CapExhausted):
            v["free"] = "undecided"
    elif loc is not None:
        v["free"] = False
    else:
        v["free"] = "undecided"
    v["simplicial"] = simplicial_defect(arr) == 0
    v["aspherical"] = _old_aspherical(v["simplicial"], ss, loc is not None)
    v["formal"] = is_formal(arr)
    v["projectively_unique"] = _uniqueness_decision(arr).value
    return v, exponents, chi, regions


def _old_report(n):
    from hyperarr import (
        find_generic_rank3_localization,
        is_formal,
        is_inductively_factored,
        is_inductively_free,
        is_lc_basis,
        is_supersolvable,
        simplicial_defect,
        verify_free_certificate,
    )
    from hyperarr.lattice import universe
    from hyperarr.report import _uniqueness_decision, packaged_certificate

    arr = hyperpolygonal(n)
    v = {}
    exponents = chi = regions = None
    if n >= 6:
        assert find_generic_rank3_localization(arr) is not None
        v.update(has_generic_rank3_localization=True, free=False, inductively_free=False,
                 inductively_factored=False, supersolvable=False, aspherical="no", simplicial=False)
    else:
        ss, _ = is_supersolvable(arr)
        v["supersolvable"] = ss
        chi = universe(arr).chi()
        regions = abs(sum(((-1) ** k) * c for k, c in enumerate(chi)))
        ifree = is_inductively_free(arr)
        v["inductively_free"] = ifree.status
        if ifree.status is True:
            v["inductively_factored"] = is_inductively_factored(arr)[0]
            v["free"] = True
            exponents = ifree.exponents
        else:
            assert ifree.status is False
            v["inductively_factored"] = False
            exponents = verify_free_certificate(arr, packaged_certificate()).exponents
            v["free"] = True
        v["simplicial"] = simplicial_defect(arr) == 0
        loc = find_generic_rank3_localization(arr)
        v["has_generic_rank3_localization"] = loc is not None
        v["aspherical"] = _old_aspherical(v["simplicial"], ss, loc is not None)
    natural_basis = tuple(range(n - 1)) + (n,) if n >= 2 else (0,)
    v["formal"] = True if is_lc_basis(arr, natural_basis) else is_formal(arr)
    v["projectively_unique"] = _uniqueness_decision(arr).value
    return v, exponents, chi, regions


def _old_undecided(values):
    return sorted(k for k, x in values.items() if x in ("undecided", "unknown") and k != "aspherical")


def _assert_same(rep, old):
    values, exponents, chi, regions = old
    assert {k: d.value for k, d in rep.properties.items()} == values
    assert (rep.exponents, rep.chi, rep.regions) == (exponents, chi, regions)
    assert sorted(rep.undecided) == _old_undecided(values)


@pytest.mark.parametrize("n", range(1, 7))
def test_ladder_matches_the_two_old_ladders_on_the_family(n):
    _assert_same(report(n), _old_report(n))
    arr = hyperpolygonal(n)
    _assert_same(analyze(arr), _old_analyze(arr))


def test_ladder_matches_the_old_analyze_on_random_arrangements():
    from hyperarr import from_vectors

    pool = oracles.random_arrangements(48, seed=20261018, max_dim=5, max_size=9)
    assert {d for d, _ in pool} == {2, 3, 4, 5}
    for dim, covs in pool:
        arr = from_vectors(dim, covs)
        _assert_same(analyze(arr), _old_analyze(arr))
