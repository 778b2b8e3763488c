import copy
import json
import random
import re
import tracemalloc
from importlib import resources

import pytest

from hyperarr import (
    Arrangement,
    CertificateError,
    PropertyDecision,
    analyze,
    boolean,
    chi_integer_roots,
    cli,
    format_arrangement_text,
    from_vectors,
    hyperpolygonal,
    is_inductively_free,
    packaged_certificate,
    verify_free_certificate,
)
from hyperarr.arrangement import restriction_to_hyperplane
from hyperarr.freeness import CERT_SCHEMA, _extra, _replay
from hyperarr.lattice import universe

import oracles


# -- exponent candidates -------------------------------------------------------


def test_chi_integer_roots(h3, h4, h5, generic4, bool3):
    assert chi_integer_roots(h3) == (1, 3, 3)
    assert chi_integer_roots(h4) == (1, 3, 3, 5)
    assert chi_integer_roots(h5) == (1, 5, 5, 5, 5)
    assert chi_integer_roots(bool3) == (1, 1, 1)
    assert chi_integer_roots(generic4) is None  # (t-1)(t^2-3t+3)


def test_chi_roots_count_zeros_for_nonessential():
    arr = Arrangement(3, ((1, 0, 0), (0, 1, 0), (1, 1, 0)))
    assert chi_integer_roots(arr) == (0, 1, 2)


# -- addition-deletion pattern ---------------------------------------------------


def _check_addition_deletion(exp_full, exp_deleted, exp_restricted):
    """The exponent pattern of an addition-deletion triple, as stated: a
    multiset B and b >= 1 with full = B + {b}, deleted = B + {b-1},
    restricted = B."""
    b = sum(exp_full) - sum(exp_restricted)  # the only candidate for b
    base = list(exp_restricted)
    return (
        b >= 1
        and sorted(exp_full) == sorted(base + [b])
        and sorted(exp_deleted) == sorted(base + [b - 1])
    )


def test_check_addition_deletion_patterns():
    """_extra(small, big) is the v with big = small + {v}.  Both of its uses
    decide the addition-deletion pattern on nonnegative exponents: the
    witness walk from the deletion and the restriction, the certificate's
    addition step from the extension and the restriction."""
    triples = [
        ((1, 5, 5, 5, 6), (1, 5, 5, 5, 5), (1, 5, 5, 5), True),
        ((1, 3, 3, 5), (1, 3, 3, 4), (1, 3, 3), True),
        ((1, 2), (1, 1), (2,), False),
        ((1, 2), (1, 1), (1,), True),
        ((1, 2, 3), (1, 2), (1, 2), False),  # size mismatch
    ]
    rng = random.Random(1414)
    for _ in range(3000):
        base = tuple(sorted(rng.randint(0, 4) for _ in range(rng.randint(0, 4))))
        b = rng.randint(1, 5)
        full = list(base + (b,))
        deleted = list(base + (b - 1,))
        for exps in (full, deleted):
            if rng.random() < 0.4:
                k = rng.randrange(len(exps))
                exps[k] = max(0, exps[k] + rng.choice((-1, 1)))
            if rng.random() < 0.1:
                exps.append(rng.randint(0, 4))
        rng.shuffle(full)
        triples.append((tuple(full), tuple(deleted), base, None))
    outcomes = set()
    for full, deleted, base, known in triples:
        expected = _check_addition_deletion(full, deleted, base)
        assert known in (None, expected)
        v = _extra(base, deleted)
        walk = v is not None and sorted(full) == sorted(base + (v + 1,))
        b = _extra(base, full)
        step = b is not None and b >= 1 and sorted(deleted) == sorted(base + (b - 1,))
        assert walk == expected == step, (full, deleted, base)
        outcomes.add(expected)
    assert outcomes == {True, False}


# -- inductive freeness ------------------------------------------------------------


def test_inductively_free_small_members(h2, h3, h4):
    for arr, exps in ((h2, (1, 3)), (h3, (1, 3, 3)), (h4, (1, 3, 3, 5))):
        res = is_inductively_free(arr)
        assert res.status is True
        assert res.exponents == exps
        assert res.witness is not None


def test_empty_arrangement_is_inductively_free():
    res = is_inductively_free(Arrangement(3, ()))
    assert res.status is True
    assert res.exponents == (0, 0, 0)


def test_rank5_member_is_not_inductively_free(h5):
    res = is_inductively_free(h5)
    assert res.status is False


def test_generic_is_not_inductively_free(generic4):
    assert is_inductively_free(generic4).status is False


def test_witness_of_three_lines_in_the_plane():
    """One root index per new non-empty node, restriction before deletion:
    0 at the root; 1 for the origin on line 0, where lines 1 and 2 meet
    (one element, preimage {1, 2}); then the deletion {1, 2}: 1, 2 for the
    origin on line 1, and 2 for {2}."""
    res = is_inductively_free(from_vectors(2, [(1, 0), (0, 1), (1, 1)]))
    assert res.witness == [0, 1, 1, 2, 2]
    assert res.exponents == (1, 2)
    assert is_inductively_free(Arrangement(3, ())).witness == []


def test_any_hyperplane_of_an_element_names_it():
    """Entry 1 chooses the element of the restriction to line 0 whose
    preimage is {1, 2}; either index names it."""
    arr = from_vectors(2, [(1, 0), (0, 1), (1, 1)])
    cert = {
        "schema": CERT_SCHEMA,
        "dim": 2,
        "covectors": [list(c) for c in arr.covectors],
        "claim": {"type": "inductively-free", "witness": [0, 2, 1, 2, 2]},
    }
    assert verify_free_certificate(arr, cert).exponents == (1, 2)


def test_witness_tree_replays(random_pool):
    """Replaying a search witness derives, at every node it meets, the chi
    roots of that node, and the witness holds one choice per distinct
    non-empty node."""
    pool = [from_vectors(d, covs) for d, covs in random_pool]
    pool += [hyperpolygonal(n) for n in range(1, 5)] + _h5_leaves()
    free = 0
    for arr in pool:
        res = is_inductively_free(arr)
        if res.status is not True:
            continue
        free += 1
        assert all(type(h) is int for h in res.witness)
        uni = universe(arr)
        entries = iter(res.witness)
        proved = {}
        assert _replay(uni, 0, uni._full_mask, lambda x, mask: next(entries), proved) == res.exponents
        assert next(entries, None) is None
        for (x, mask), exps in proved.items():
            assert exps == uni.node_roots(x, mask)
        assert len(res.witness) == sum(1 for x, mask in proved if uni.node_elements(x, mask))
    assert free >= 40


def _ind_free_sized_by_node_elements(uni, x, mask, memo, counter):
    """The search as it was before candidates were sized by counting covers:
    each restriction's size is the length of its node_elements list."""
    import hyperarr.freeness as freeness

    key = uni.node_key(x, mask)
    hit = memo.get(key)
    if hit is not None:
        return hit
    counter[0] += 1
    if counter[0] > freeness.NODE_CAP:
        raise freeness.CapExhausted("cap")
    x, mask = key
    elements = uni.node_elements(x, mask)
    if not elements:
        memo[key] = (True, (0,) * (uni.dim - uni.rank[x]), None)
        return memo[key]
    roots = uni.node_roots(x, mask)
    if roots is None:
        memo[key] = (False, None, None)
        return memo[key]
    sized = sorted((len(uni.node_elements(e, mask)), e, pre) for e, pre in elements)
    for rsize, e, pre in sized:
        del_mask = mask & ~pre
        uni.deletion_chi(x, mask, e)
        droots, rroots = uni.node_roots(x, del_mask), uni.node_roots(e, mask)
        v = None if droots is None or rroots is None else _extra(rroots, droots)
        if v is None or _extra(rroots, roots) != v + 1:
            continue
        if (
            _ind_free_sized_by_node_elements(uni, e, mask, memo, counter)[0]
            and _ind_free_sized_by_node_elements(uni, x, del_mask, memo, counter)[0]
        ):
            memo[key] = (True, roots, (pre & -pre).bit_length() - 1)
            return memo[key]
    memo[key] = (False, None, None)
    return memo[key]


def test_candidate_sizes_count_covers_as_node_elements_did(monkeypatch):
    """Counting the covers of e that meet the node's other hyperplanes orders
    the candidates as the node_elements lists did: the same status,
    exponents, witness and node count."""
    import hyperarr.freeness as freeness

    pool = [hyperpolygonal(n) for n in range(1, 6)]
    pool += [from_vectors(d, covs) for d, covs in oracles.random_arrangements(300, seed=424242, max_dim=5, max_size=11)]
    got = [is_inductively_free(arr) for arr in pool]
    monkeypatch.setattr(freeness, "_ind_free", _ind_free_sized_by_node_elements)
    assert got == [is_inductively_free(arr) for arr in pool]
    assert sum(res.status is True for res in got) >= 100
    assert max(res.nodes_visited for res in got) > 100


# -- certificates -------------------------------------------------------------------


def test_packaged_certificate_replays(h5):
    cert = packaged_certificate()
    replay = verify_free_certificate(h5, cert)
    assert replay.exponents == (1, 5, 5, 5, 5)
    assert replay.steps == 5


def test_h5_is_free_and_only_its_coordinate_restrictions_are(h5):
    """Edelman and Reiner's counterexample to Orlik's conjecture: H_5 is
    free, by its certificate, but a restriction of it is not.  The free_only
    ladder decides all 21 restrictions: the 5 to coordinate hyperplanes have
    12 hyperplanes and are free with exponents (1, 3, 3, 5); the 16 others
    have 15 and a chi with no integer root factorization."""
    from hyperarr.report import _ladder

    rep = _ladder(h5, "H_5", free_only=True)
    assert rep.properties["free"].value is True
    assert rep.properties["free"].provenance.startswith("certificate replay")
    assert rep.exponents == (1, 5, 5, 5, 5)
    for i in range(len(h5)):
        res = restriction_to_hyperplane(h5, i)
        rep = _ladder(res, f"H_5 restricted to hyperplane {i}", free_only=True)
        free = rep.properties["free"]
        if i < 5:  # the coordinate hyperplanes come first
            assert (len(res), free.value, rep.exponents) == (12, True, (1, 3, 3, 5))
        else:
            assert (len(res), free.value, rep.exponents) == (15, False, None)
            assert free.provenance == "characteristic polynomial has no integer root factorization"
            assert chi_integer_roots(res) is None


def test_packaged_certificate_is_small():
    """One root index per node keeps the shipped file and its parse small."""
    text = resources.files("hyperarr").joinpath("data/h5_certificate.json").read_text()
    assert len(text) < 16_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cert = packaged_certificate()
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert cert["schema"] == CERT_SCHEMA
    assert live < 100_000


def test_certificate_intermediate_exponent_claims_are_validated(h5):
    cert = packaged_certificate()
    claim = cert["claim"]
    assert sorted(claim["extended"]["exponents"]) == [1, 5, 5, 5, 6]
    assert sorted(claim["restriction"]["exponents"]) == [1, 5, 5, 5]
    assert sorted(claim["restriction"]["extended"]["exponents"]) == [1, 5, 5, 6]
    assert sorted(claim["restriction"]["restriction"]["exponents"]) == [1, 5, 5]
    # the replay re-derives and cross-checks each of those claims
    assert verify_free_certificate(h5, cert).exponents == (1, 5, 5, 5, 5)


def test_tampered_certificate_rejected(h5):
    cert = copy.deepcopy(packaged_certificate())
    cert["claim"]["restriction"]["extended"]["exponents"] = [1, 5, 5, 5]
    with pytest.raises(CertificateError):
        verify_free_certificate(h5, cert)


def test_certificate_against_wrong_arrangement_rejected(h4):
    with pytest.raises(CertificateError):
        verify_free_certificate(h4, packaged_certificate())


def test_unknown_schema_rejected(h5):
    cert = copy.deepcopy(packaged_certificate())
    cert["schema"] = "hyperarr/free-cert-v999"
    with pytest.raises(CertificateError):
        verify_free_certificate(h5, cert)


@pytest.mark.parametrize("cert", [[], "x", None])
def test_certificate_that_is_not_an_object_rejected(h2, cert):
    with pytest.raises(CertificateError, match="not a JSON object"):
        verify_free_certificate(h2, cert)


def _offer(monkeypatch, cert):
    """Make the ladder replay cert in place of the shipped certificate."""
    import importlib

    ladder = importlib.import_module("hyperarr.report")  # hyperarr.report is the function
    monkeypatch.setattr(ladder, "matching_packaged_certificate", lambda arr: cert)


def test_analyze_reports_a_rejected_non_object_certificate(h5, monkeypatch):
    _offer(monkeypatch, [])
    free = analyze(h5).properties["free"]
    assert free.value == "undecided"
    assert free.provenance.startswith("certificate rejected: ")


def test_inductively_free_leaf_certificate(h4):
    cert = {
        "schema": CERT_SCHEMA,
        "dim": 4,
        "covectors": [list(c) for c in h4.covectors],
        "claim": {
            "type": "inductively-free",
            "exponents": [1, 3, 3, 5],
            "witness": is_inductively_free(h4).witness,
        },
    }
    assert verify_free_certificate(h4, cert).exponents == (1, 3, 3, 5)
    del cert["claim"]["witness"]
    with pytest.raises(CertificateError, match="carries no witness"):
        verify_free_certificate(h4, cert)


def test_cited_leaf_requires_chi_consistency(h4):
    cert = {
        "schema": CERT_SCHEMA,
        "dim": 4,
        "covectors": [list(c) for c in h4.covectors],
        "claim": {"type": "cited-free", "exponents": [1, 3, 4, 4], "citation": "nowhere"},
    }
    with pytest.raises(CertificateError):
        verify_free_certificate(h4, cert)


def test_version_1_certificate_rejected(h5):
    cert = copy.deepcopy(packaged_certificate())
    cert["schema"] = "hyperarr/free-cert-v1"
    with pytest.raises(CertificateError, match="unknown certificate schema"):
        verify_free_certificate(h5, cert)


def test_replay_runs_no_search(h5, monkeypatch):
    import hyperarr.freeness as freeness

    def no_search(*args, **kwargs):
        raise AssertionError("certificate replay ran an inductive-freeness search")

    monkeypatch.setattr(freeness, "_ind_free", no_search)
    monkeypatch.setattr(freeness, "is_inductively_free", no_search)
    replay = verify_free_certificate(h5, packaged_certificate())
    assert replay.exponents == (1, 5, 5, 5, 5)
    assert replay.steps == 5


def _certificate_leaves(arr, node):
    """(arrangement, node) for every inductively-free leaf of a certificate."""
    if node["type"] == "inductively-free":
        yield arr, node
    elif node["type"] == "addition":
        extended = arr.with_hyperplane(node["added_covector"])
        yield from _certificate_leaves(extended, node["extended"])
        restricted = restriction_to_hyperplane(extended, len(extended) - 1)
        yield from _certificate_leaves(restricted, node["restriction"])


def _h5_leaves():
    """The arrangements of the packaged certificate's inductively-free leaves."""
    return [arr for arr, _ in _certificate_leaves(hyperpolygonal(5), packaged_certificate()["claim"])]


def test_packaged_witnesses_are_the_search_witnesses(h5):
    """The packaged witnesses are what the search returns on each leaf;
    this records where they come from, the replay does not rely on it."""
    leaves = list(_certificate_leaves(h5, packaged_certificate()["claim"]))
    assert [len(arr) for arr, _ in leaves] == [22, 17, 11]
    for arr, leaf in leaves:
        assert leaf["witness"] == is_inductively_free(arr).witness


def test_cited_leaf_shows_in_the_ladder_provenance(h5, monkeypatch):
    """A certificate that cites freeness is not a proof; the ladder says so."""
    arr = from_vectors(5, [(c[0] + c[1],) + c[1:] for c in h5.covectors])
    cert = {
        "schema": CERT_SCHEMA,
        "dim": 5,
        "covectors": [list(c) for c in arr.covectors],
        "claim": {"type": "cited-free", "citation": "trust me"},
    }
    _offer(monkeypatch, cert)
    rep = analyze(arr)
    assert rep.properties["free"] == PropertyDecision(True, "certificate replay (cited: trust me)")
    assert rep.exponents == (1, 5, 5, 5, 5)


def test_witness_exponents_are_checked_against_chi_at_the_leaf_root(h5, monkeypatch):
    import hyperarr.freeness as freeness

    monkeypatch.setattr(freeness, "_chi_roots", lambda uni: (1,) * uni.dim)
    with pytest.raises(CertificateError, match=r"claim\.extended: witness exponents .* contradict chi"):
        verify_free_certificate(h5, packaged_certificate())


def test_leaf_without_witness_rejected(h5):
    cert = copy.deepcopy(packaged_certificate())
    del cert["claim"]["restriction"]["restriction"]["witness"]
    with pytest.raises(CertificateError, match=r"claim\.restriction\.restriction: .*carries no witness"):
        verify_free_certificate(h5, cert)


def _set(path, value):
    """A fault that sets cert[path[0]][path[1]]... to value."""

    def fault(cert):
        node = cert
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return fault


def _pattern_breaking_choices(arr):
    """The lowest root index of every node, up to the first choice whose
    deletion and restriction exponents break the addition pattern: each
    entry is a hyperplane of its node, and the walk fails on the pattern."""
    uni = universe(arr)
    taken = []

    def choose(x, mask):
        taken.append((mask & -mask).bit_length() - 1)
        return taken[-1]

    with pytest.raises(CertificateError, match="and one more"):
        _replay(uni, 0, uni._full_mask, choose, {})
    return taken


def _set_witness(make):
    """A fault that replaces the witness of the 22-hyperplane leaf by
    make(witness)."""

    def fault(cert):
        leaf = cert["claim"]["extended"]
        leaf["witness"] = make(leaf["witness"])

    return fault


def _v2_schema(cert):
    cert["schema"] = "hyperarr/free-cert-v2"


MALFORMED = {
    "float in added_covector": (
        _set(("claim", "added_covector"), [1.5, 0, 0, 0, 0]),
        r"claim\.added_covector: expected a list of integers",
    ),
    "string in added_covector": (
        _set(("claim", "added_covector"), [1, "a", 0, 0, 0]),
        r"claim\.added_covector: expected a list of integers",
    ),
    "null exponents": (_set(("claim", "exponents"), None), r"claim\.exponents: expected a list of integers"),
    "covectors not a list": (_set(("covectors",), 5), "covectors: expected a list of covectors"),
    "string in a covector": (
        _set(("covectors", 0), [1, "a", 0, 0, 0]),
        r"covectors\[0\]: expected a list of integers",
    ),
    "string in cited exponents": (
        _set(("claim", "restriction"), {"type": "cited-free", "exponents": [1, "a"], "citation": "x"}),
        r"claim\.restriction\.exponents: expected a list of integers",
    ),
    "citation not a string": (
        _set(("claim", "restriction"), {"type": "cited-free", "exponents": [1, 5, 5, 5], "citation": 7}),
        r"claim\.restriction: citation is not a string",
    ),
    # a list of indices, but not this leaf's choices
    "witness not an object": (
        _set(("claim", "extended", "witness"), [1, 5, 5, 5, 6]),
        r"claim\.extended\.witness: hyperplane 5 is not in its node",
    ),
    "witness without keys": (
        _set(("claim", "extended", "witness"), {}),
        "expected a list of root indices",
    ),
    "witness node without hyperplane": (
        _set(("claim", "extended", "witness"), {"exponents": [1, 5, 5, 5, 6]}),
        "expected a list of root indices",
    ),
    # the second node is the restriction to the first choice, which lacks it
    "repeated witness hyperplane index": (
        _set_witness(lambda w: [w[0], w[0]] + w[2:]),
        r"hyperplane \d+ is not in its node",
    ),
    "witness hyperplane out of range": (_set_witness(lambda w: [-1] + w[1:]), "entry 0 is -1, not a root index"),
    # a root index past the last hyperplane is in no node's mask
    "witness hyperplane past the last": (_set_witness(lambda w: [99] + w[1:]), "hyperplane 99 is not in its node"),
    "bool": (_set_witness(lambda w: w[:3] + [True] + w[4:]), "entry 3 is True, not a root index"),
    "string in witness hyperplane": (_set_witness(lambda w: ["5"] + w[1:]), "entry 0 is '5', not a root index"),
    "cut by one entry": (_set_witness(lambda w: w[:-1]), "ends after 2366 entries with nodes left"),
    "one extra entry": (_set_witness(lambda w: w + [0]), "1 entries left over"),
    "pattern broken": (
        _set_witness(lambda w: _pattern_breaking_choices(_h5_leaves()[0])),
        r"choice \d+: deletion exponents .* and one more",
    ),
    "version 2 schema": (_v2_schema, "unknown certificate schema 'hyperarr/free-cert-v2'"),
}


@pytest.mark.parametrize("fault, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_certificate_rejected_by_api_and_cli(h5, tmp_path, capsys, monkeypatch, fault, message):
    cert = copy.deepcopy(packaged_certificate())
    fault(cert)
    with pytest.raises(CertificateError, match=message):
        verify_free_certificate(h5, cert)
    _offer(monkeypatch, cert)
    free = analyze(h5).properties["free"]
    assert free.value == "undecided"
    assert free.provenance.startswith("certificate rejected: ")
    assert re.search(message, free.provenance)
    arr_path, cert_path = tmp_path / "h5.arr", tmp_path / "cert.json"
    arr_path.write_text(format_arrangement_text(h5))
    cert_path.write_text(json.dumps(cert))
    assert cli.main(["free", str(arr_path), "--certificate", str(cert_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("certificate rejected: ")
    assert re.search(message, out)


# -- the CLI's freeness decision -------------------------------------------------------


def test_cli_free_agrees_with_the_ladder(tmp_path, capsys, generic4):
    arrs = [hyperpolygonal(n) for n in range(1, 6)] + [generic4]
    arrs += [from_vectors(d, covs) for d, covs in oracles.random_arrangements(30, seed=1111, max_dim=5)]
    seen = []
    for k, arr in enumerate(arrs):
        path = tmp_path / f"a{k}.arr"
        path.write_text(format_arrangement_text(arr))
        rep = analyze(arr)
        free = rep.properties["free"]
        assert cli.main(["free", str(path)]) == (3 if free.value == "undecided" else 0)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"free: {free.value} [{free.provenance}]"
        assert lines[1:] == ([] if rep.exponents is None else [f"exponents: {list(rep.exponents)}"])
        seen.append(free)
    # inductive freeness (H_4), certificate replay (H_5), a generic rank-3
    # localization (generic4) and a non-splitting chi
    assert seen[3] == PropertyDecision(True, "implied: inductively free")
    assert seen[4] == PropertyDecision(True, "certificate replay")
    assert seen[5] == PropertyDecision(False, "generic rank-3 localization")
    assert PropertyDecision(False, "characteristic polynomial has no integer root factorization") in seen
