"""Freeness of central arrangements: exponents, inductive freeness, certificates.

Freeness is never guessed: it is established by an inductive-freeness search
(whose witness tree is returned and independently replayable), or by replaying
an addition-deletion certificate, and refuted by a non-splitting
characteristic polynomial or a generic rank-3 localization.

The search works on (flat, hyperplane-mask) nodes of one master lattice:
deleting a hyperplane shrinks the mask, restricting moves to the interval
above the hyperplane's flat, and the characteristic polynomial of every node
is an interval Moebius computation (see lattice.py).  Memoization is per
master lattice, so the exhaustive refutation for larger instances stays
feasible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Literal

from .arrangement import Arrangement, restriction_to_hyperplane
from .lattice import Universe, bit_indices, universe
from .polynomials import monic_linear_roots


class CapExhausted(RuntimeError):
    """A bounded search ran out of budget before deciding."""


def chi_integer_roots(arr: Arrangement) -> tuple[int, ...] | None:
    """Exponent candidates: roots of chi if it splits over the nonnegative
    integers (with dim - rank zeros), else None.  Splitting is necessary for
    freeness, so None refutes freeness outright."""
    return _chi_roots(universe(arr))


def _chi_roots(uni: Universe) -> tuple[int, ...] | None:
    return uni.node_roots(0, uni._full_mask)


def check_addition_deletion(
    exp_full: tuple[int, ...], exp_deleted: tuple[int, ...], exp_restricted: tuple[int, ...]
) -> bool:
    """Check the exponent pattern of an addition-deletion triple.

    True iff there is a multiset B and integer b >= 1 with
    exp_full = B + {b}, exp_deleted = B + {b-1}, exp_restricted = B.
    """
    if len(exp_full) != len(exp_deleted) or len(exp_restricted) != len(exp_full) - 1:
        return False
    base = Counter(exp_restricted)
    diff_full = Counter(exp_full) - base
    diff_del = Counter(exp_deleted) - base
    if sum(diff_full.values()) != 1 or sum(diff_del.values()) != 1:
        return False
    b = next(iter(diff_full))
    bd = next(iter(diff_del))
    if b - 1 != bd or b < 1:
        return False
    # the differences must be genuine (base fully inside both)
    return Counter(exp_full) == base + Counter([b]) and Counter(exp_deleted) == base + Counter([b - 1])


@dataclass
class InductiveFreenessResult:
    status: Literal[True, False, "undecided"]
    exponents: tuple[int, ...] | None
    witness: dict | None
    nodes_visited: int


def is_inductively_free(arr: Arrangement, node_cap: int = 2_000_000) -> InductiveFreenessResult:
    """Decide membership in the inductively free class.

    An arrangement is inductively free iff it is empty, or some hyperplane H
    has both the deletion and the restriction inductively free with
    exp(restriction) contained in exp(deletion).  Exponents of members are the
    chi roots, so non-splitting chi prunes, and the addition-deletion exponent
    pattern between the arrangement and a candidate deletion is necessary for
    that branch.  Exhaustive over all hyperplanes, with memoization on
    (flat, mask) nodes; node_cap bounds visited nodes ("undecided" beyond).

    The witness tree gives, at every node, the chosen hyperplane (as indices
    of the root arrangement whose traces produce it), the node's exponents,
    and subtrees for deletion and restriction.
    """
    return _inductive_freeness(universe(arr), node_cap)


def _inductive_freeness(uni: Universe, node_cap: int) -> InductiveFreenessResult:
    counter = [0]
    memo: dict[tuple[int, int], tuple[bool, tuple[int, ...] | None, dict | None]] = {}
    try:
        ok, exps, wit = _ind_free(uni, 0, uni._full_mask, memo, counter, node_cap)
    except CapExhausted:
        return InductiveFreenessResult("undecided", None, None, counter[0])
    return InductiveFreenessResult(ok, exps, wit, counter[0])


def _ind_free(
    uni: Universe,
    x: int,
    mask: int,
    memo: dict,
    counter: list[int],
    cap: int,
) -> tuple[bool, tuple[int, ...] | None, dict | None]:
    key = uni.node_key(x, mask)
    hit = memo.get(key)
    if hit is not None:
        return hit
    counter[0] += 1
    if counter[0] > cap:
        raise CapExhausted(f"inductive-freeness search exceeded {cap} nodes")
    x, mask = key
    d = uni.dim - uni.rank[x]
    elements = uni.node_elements(x, mask)
    if not elements:
        res = (True, (0,) * d, {"empty": True, "exponents": [0] * d})
        memo[key] = res
        return res
    roots = uni.node_roots(x, mask)
    if roots is None:
        memo[key] = (False, None, None)
        return memo[key]
    root_counter = Counter(roots)
    # order candidate hyperplanes by the size of their restriction (ascending)
    sized = []
    for e, pre in elements:
        rsize = len(uni.node_elements(e, mask))
        sized.append((rsize, e, pre))
    sized.sort()
    for rsize, e, pre in sized:
        del_mask = mask & ~pre
        droots = uni.node_roots(x, del_mask)
        if droots is None:
            continue
        diff = root_counter - Counter(droots)
        rdiff = Counter(droots) - root_counter
        if sum(diff.values()) != 1 or sum(rdiff.values()) != 1:
            continue
        b = next(iter(diff))
        if next(iter(rdiff)) != b - 1:
            continue
        ok_r, exps_r, wit_r = _ind_free(uni, e, mask, memo, counter, cap)
        if not ok_r:
            continue
        ok_d, exps_d, wit_d = _ind_free(uni, x, del_mask, memo, counter, cap)
        if not ok_d:
            continue
        wit = {
            "exponents": list(roots),
            "hyperplane": list(bit_indices(pre)),
            "deletion": wit_d,
            "restriction": wit_r,
        }
        res = (True, roots, wit)
        memo[key] = res
        return res
    memo[key] = (False, None, None)
    return memo[key]


# -- certificates -----------------------------------------------------------

CERT_SCHEMA = "hyperarr/free-cert-v1"


class CertificateError(ValueError):
    """A freeness certificate failed to replay."""


@dataclass
class CertificateReplay:
    exponents: tuple[int, ...]
    cited_leaves: list[str]
    steps: int


def verify_free_certificate(arr: Arrangement, cert: dict, node_cap: int = 2_000_000) -> CertificateReplay:
    """Replay a freeness certificate against an arrangement.

    The certificate is a tree.  Leaves either claim inductive freeness (which
    is re-run by the search engine) or cite established freeness (accepted
    after a chi-splitting consistency check and reported in cited_leaves).
    Internal 'addition' nodes claim: adjoining added_covector gives an
    arrangement e with certified exponents, whose restriction to the new
    hyperplane is certified too, and the two exponent multisets differ by one
    element b; by addition-deletion the present arrangement is then free with
    the restriction exponents plus b-1.  Every deduced exponent multiset is
    cross-checked against the chi roots.
    """
    if not isinstance(cert, dict):
        raise CertificateError(f"certificate is a {type(cert).__name__}, not a JSON object")
    if cert.get("schema") != CERT_SCHEMA:
        raise CertificateError(f"unknown certificate schema {cert.get('schema')!r}")
    if cert.get("dim") != arr.dim:
        raise CertificateError(f"certificate dim {cert.get('dim')} != arrangement dim {arr.dim}")
    declared = [tuple(c) for c in cert.get("covectors", [])]
    if sorted(declared) != sorted(arr.covectors):
        raise CertificateError("certificate root arrangement does not match input")
    cited: list[str] = []
    steps = [0]
    exps = _verify_node(universe(arr), cert.get("claim"), cited, steps, node_cap, path="claim")
    return CertificateReplay(exps, cited, steps[0])


def _verify_node(
    uni: Universe, node: dict, cited: list[str], steps: list[int], node_cap: int, path: str
) -> tuple[int, ...]:
    """Replay one node on the lattice of its arrangement; the lattices of the
    arrangements the certificate adds are built here and not cached."""
    arr = uni.arr
    if not isinstance(node, dict) or "type" not in node:
        raise CertificateError(f"{path}: malformed node")
    steps[0] += 1
    kind = node["type"]
    if kind == "inductively-free":
        res = _inductive_freeness(uni, node_cap)
        if res.status == "undecided":
            raise CapExhausted(f"{path}: inductive-freeness leaf exceeded node cap")
        if res.status is not True:
            raise CertificateError(f"{path}: arrangement is not inductively free")
        if "exponents" in node and tuple(sorted(node["exponents"])) != res.exponents:
            raise CertificateError(
                f"{path}: claimed exponents {sorted(node['exponents'])} != {list(res.exponents)}"
            )
        return res.exponents
    if kind == "cited-free":
        claimed = tuple(sorted(node.get("exponents", ())))
        roots = _chi_roots(uni)
        if roots is None:
            raise CertificateError(f"{path}: cited-free leaf has non-splitting chi")
        if claimed and roots != claimed:
            raise CertificateError(f"{path}: cited exponents {list(claimed)} != chi roots {list(roots)}")
        cited.append(node.get("citation", "unspecified"))
        return roots
    if kind == "addition":
        cov = node.get("added_covector")
        if not cov:
            raise CertificateError(f"{path}: addition node missing added_covector")
        try:
            extended = arr.with_hyperplane(cov)
        except ValueError as exc:
            raise CertificateError(f"{path}: cannot add hyperplane: {exc}") from exc
        exps_ext = _verify_node(
            Universe(extended), node.get("extended"), cited, steps, node_cap, path + ".extended"
        )
        restricted = restriction_to_hyperplane(extended, len(extended) - 1)
        exps_res = _verify_node(
            Universe(restricted), node.get("restriction"), cited, steps, node_cap, path + ".restriction"
        )
        diff = Counter(exps_ext) - Counter(exps_res)
        if sum(diff.values()) != 1:
            raise CertificateError(
                f"{path}: exponents {list(exps_ext)} vs {list(exps_res)} are not an addition pattern"
            )
        b = next(iter(diff))
        deduced = tuple(sorted(exps_res + (b - 1,)))
        if not check_addition_deletion(exps_ext, deduced, exps_res):
            raise CertificateError(f"{path}: addition-deletion pattern check failed")
        roots = _chi_roots(uni)
        if roots != deduced:
            raise CertificateError(
                f"{path}: deduced exponents {list(deduced)} contradict chi roots {roots}"
            )
        if "exponents" in node and tuple(sorted(node["exponents"])) != deduced:
            raise CertificateError(
                f"{path}: claimed exponents {sorted(node['exponents'])} != deduced {list(deduced)}"
            )
        return deduced
    raise CertificateError(f"{path}: unknown node type {kind!r}")

