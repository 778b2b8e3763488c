import copy

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
        "schema": "hyperarr/free-cert-v1",
        "dim": 4,
        "covectors": [list(c) for c in h4.covectors],
        "claim": {"type": "inductively-free", "exponents": [1, 3, 3, 5]},
    }
    assert verify_free_certificate(h4, cert).exponents == (1, 3, 3, 5)


def test_cited_leaf_requires_chi_consistency(h4):
    cert = {
        "schema": "hyperarr/free-cert-v1",
        "dim": 4,
        "covectors": [list(c) for c in h4.covectors],
        "claim": {"type": "cited-free", "exponents": [1, 3, 4, 4], "citation": "nowhere"},
    }
    with pytest.raises(CertificateError):
        verify_free_certificate(h4, cert)


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
