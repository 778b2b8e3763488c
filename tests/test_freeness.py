import copy
import json

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
from hyperarr.freeness import check_addition_deletion

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


def test_check_addition_deletion_patterns():
    assert check_addition_deletion((1, 5, 5, 5, 6), (1, 5, 5, 5, 5), (1, 5, 5, 5)) is True
    assert check_addition_deletion((1, 3, 3, 5), (1, 3, 3, 4), (1, 3, 3)) is True
    assert check_addition_deletion((1, 2), (1, 1), (2,)) is False
    assert check_addition_deletion((1, 2), (1, 1), (1,)) is True
    assert check_addition_deletion((1, 2, 3), (1, 2), (1, 2)) is False  # size mismatch


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


def test_witness_tree_replays(h3):
    res = is_inductively_free(h3)

    def walk(arr, node):
        assert tuple(sorted(node["exponents"])) == (chi_integer_roots(arr) or ())
        if node.get("empty"):
            assert len(arr) == 0
            return
        from hyperarr import restriction_to_hyperplane

        idx = next(i for i in node["hyperplane"] if i < len(arr))
        # chosen hyperplane is identified by root indices; map to this level
        cov = None
        for i in node["hyperplane"]:
            if i < len(h3) and h3.covectors[i] in arr.covectors:
                cov = h3.covectors[i]
                break
        assert cov is not None or len(arr) > 0

    walk(h3, res.witness)


# -- certificates -------------------------------------------------------------------


def test_packaged_certificate_replays(h5):
    cert = packaged_certificate()
    replay = verify_free_certificate(h5, cert)
    assert replay.exponents == (1, 5, 5, 5, 5)
    assert replay.steps == 5


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


def test_analyze_reports_a_rejected_non_object_certificate(h5):
    free = analyze(h5, certificate=[]).properties["free"]
    assert free.value == "undecided"
    assert free.provenance.startswith("certificate rejected: ")


def test_inductively_free_leaf_certificate(h4):
    cert = {
        "schema": "hyperarr/free-cert-v2",
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
        "schema": "hyperarr/free-cert-v2",
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


def test_packaged_witnesses_are_the_search_witnesses(h5):
    """The packaged witness trees are what the search returns on each leaf;
    this records where they come from, the replay does not rely on it."""
    leaves = list(_certificate_leaves(h5, packaged_certificate()["claim"]))
    assert [len(arr) for arr, _ in leaves] == [22, 17, 11]
    for arr, leaf in leaves:
        assert leaf["witness"] == is_inductively_free(arr).witness


def _first_witness_node(witness, accept):
    """The first node in replay order (restriction before deletion) that
    accept takes; replay checks it in full, not as a repeated subtree."""
    stack = [witness]
    while stack:
        node = stack.pop()
        if accept(node):
            return node
        if "empty" not in node:
            stack += [node["deletion"], node["restriction"]]
    raise LookupError("no such witness node")


def _wrong_inner_exponents(w):
    node = _first_witness_node(w["deletion"], lambda n: "empty" not in n and len(n["hyperplane"]) == 1)
    node["exponents"] = sorted(node["exponents"])[:-1] + [sorted(node["exponents"])[-1] + 1]


def _not_an_element(w):
    w["restriction"]["hyperplane"] = list(w["hyperplane"])  # the hyperplane restricted to


def _partial_preimage(w):
    _first_witness_node(w, lambda n: len(n.get("hyperplane", ())) > 1)["hyperplane"].pop()


def _cut_deletion(w):
    del _first_witness_node(w["restriction"], lambda n: "empty" not in n)["deletion"]


def _cut_restriction(w):
    del w["deletion"]["restriction"]


def _swapped_branches(w):
    w["deletion"], w["restriction"] = w["restriction"], w["deletion"]


def _empty_claimed(w):
    node = w["deletion"]
    exponents = node["exponents"]
    node.clear()
    node.update(empty=True, exponents=[0] * len(exponents))


@pytest.mark.parametrize(
    "fault, message",
    [
        (_wrong_inner_exponents, "do not follow by addition|claimed exponents"),
        (_not_an_element, "not the preimage of an element"),
        (_partial_preimage, "not the preimage of an element"),
        (_cut_deletion, "has no 'deletion'"),
        (_cut_restriction, "has no 'restriction'"),
        (_swapped_branches, r"witness\.restriction: .*not the preimage"),
        (_empty_claimed, "claimed empty has hyperplanes"),
    ],
)
def test_faulty_witness_rejected(h5, fault, message):
    cert = copy.deepcopy(packaged_certificate())
    fault(cert["claim"]["extended"]["witness"])
    with pytest.raises(CertificateError, match=message):
        verify_free_certificate(h5, cert)


def _repeated_subtree(witness):
    """The first non-empty witness node that repeats, in replay order, a
    subtree met before; replay compares only its exponents."""
    seen = set()
    stack = [witness]
    while stack:
        node = stack.pop()
        if "empty" in node:
            continue
        text = json.dumps(node, sort_keys=True)
        if text in seen:
            return node
        seen.add(text)
        stack += [node["deletion"], node["restriction"]]
    raise LookupError("no repeated subtree")


def test_wrong_exponents_on_a_repeated_subtree_rejected(h5):
    cert = copy.deepcopy(packaged_certificate())
    node = _repeated_subtree(cert["claim"]["restriction"]["restriction"]["witness"])
    node["exponents"][-1] += 1
    with pytest.raises(CertificateError, match=r"claimed exponents .* != proved"):
        verify_free_certificate(h5, cert)


def test_wrong_exponents_on_an_empty_node_rejected(h5):
    cert = copy.deepcopy(packaged_certificate())
    node = _first_witness_node(cert["claim"]["extended"]["witness"], lambda n: "empty" in n and n["exponents"])
    node["exponents"][-1] = 1
    with pytest.raises(CertificateError, match=r"claimed exponents .* != proved"):
        verify_free_certificate(h5, cert)


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


MALFORMED = {
    "float in added_covector": _set(("claim", "added_covector"), [1.5, 0, 0, 0, 0]),
    "string in added_covector": _set(("claim", "added_covector"), [1, "a", 0, 0, 0]),
    "null exponents": _set(("claim", "exponents"), None),
    "covectors not a list": _set(("covectors",), 5),
    "string in a covector": _set(("covectors", 0), [1, "a", 0, 0, 0]),
    "string in cited exponents": _set(
        ("claim", "restriction"), {"type": "cited-free", "exponents": [1, "a"], "citation": "x"}
    ),
    "citation not a string": _set(
        ("claim", "restriction"), {"type": "cited-free", "exponents": [1, 5, 5, 5], "citation": 7}
    ),
    "witness not an object": _set(("claim", "extended", "witness"), [1, 5, 5, 5, 6]),
    "witness without keys": _set(("claim", "extended", "witness"), {}),
    "witness node without hyperplane": _set(("claim", "extended", "witness"), {"exponents": [1, 5, 5, 5, 6]}),
    "string in witness hyperplane": _set(("claim", "extended", "witness", "hyperplane"), ["5"]),
    "witness hyperplane out of range": _set(("claim", "extended", "witness", "hyperplane"), [-1]),
    "repeated witness hyperplane index": _set(("claim", "extended", "witness", "hyperplane"), [5, 5]),
    "witness empty not true": _set(("claim", "extended", "witness", "empty"), 1),
}


@pytest.mark.parametrize("fault", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_certificate_rejected_by_api_and_cli(h5, tmp_path, capsys, fault):
    cert = copy.deepcopy(packaged_certificate())
    fault(cert)
    with pytest.raises(CertificateError):
        verify_free_certificate(h5, cert)
    free = analyze(h5, certificate=cert).properties["free"]
    assert free.value == "undecided"
    assert free.provenance.startswith("certificate rejected: ")
    arr_path, cert_path = tmp_path / "h5.arr", tmp_path / "cert.json"
    arr_path.write_text(format_arrangement_text(h5))
    cert_path.write_text(json.dumps(cert))
    assert cli.main(["free", str(arr_path), "--certificate", str(cert_path)]) == 0
    assert capsys.readouterr().out.startswith("certificate rejected: ")


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
