"""Freeness of central arrangements: exponents, inductive freeness, certificates.

Freeness is never guessed: it is established by an inductive-freeness search
(whose witness tree is returned), or by replaying an addition-deletion
certificate, and refuted by a non-splitting characteristic polynomial or a
generic rank-3 localization.

The search works on (flat, hyperplane-mask) nodes of one master lattice:
deleting a hyperplane shrinks the mask, restricting moves to the interval
above the hyperplane's flat.  The characteristic polynomial of a node is an
interval Moebius computation (see lattice.py), and that of a deletion follows
from the node's and the restriction's by deletion-restriction.  Memoization
is per master lattice, so the exhaustive refutation for larger instances
stays feasible.

Certificate replay runs no search.  Its inductively-free leaves carry the
search's witness tree, which is checked node by node by Terao's addition
theorem (Orlik-Terao, Arrangements of Hyperplanes, Thm 4.51), each
(flat, mask) node once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Literal

from .arrangement import Arrangement, restriction_to_hyperplane
from .lattice import Universe, bit_indices, mask_of, universe
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
    b = sum(exp_full) - sum(exp_restricted)  # the only candidate for b
    base = list(exp_restricted)
    return (
        b >= 1
        and sorted(exp_full) == sorted(base + [b])
        and sorted(exp_deleted) == sorted(base + [b - 1])
    )


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
    uni = universe(arr)
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
        uni.deletion_chi(x, mask, e)  # the chi that node_roots reads, without a walk
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

CERT_SCHEMA = "hyperarr/free-cert-v2"


class CertificateError(ValueError):
    """A freeness certificate failed to replay."""


@dataclass
class CertificateReplay:
    exponents: tuple[int, ...]
    cited_leaves: list[str]
    steps: int


def verify_free_certificate(arr: Arrangement, cert: dict) -> CertificateReplay:
    """Replay a freeness certificate against an arrangement; no search runs.

    The certificate is a tree of nodes; steps counts them.
    - An 'inductively-free' leaf carries a witness tree in the format of
      InductiveFreenessResult.witness.  Every witness node is checked on the
      leaf's lattice: its hyperplane is the whole preimage of one element of
      the node, its subtrees sit at the deletion and the restriction by that
      element, and its exponents follow from theirs by the addition theorem
      (check_addition_deletion), from empty nodes with all exponents 0
      upwards.  The exponents derived at the witness root must equal the chi
      roots of the leaf; chi is not checked at inner witness nodes.
    - A 'cited-free' leaf cites established freeness.  It is accepted after
      a chi-splitting consistency check and reported in cited_leaves.
    - An 'addition' node claims: adjoining added_covector gives an
      arrangement with certified exponents, whose restriction to the new
      hyperplane is certified too, and the two exponent multisets differ by
      one element b.  By addition-deletion the present arrangement is then
      free with the restriction exponents plus b-1, and that must be its chi
      roots.
    Optional 'exponents' claims on certificate nodes must match what the
    replay derives.  Any defect, malformed fields included, raises
    CertificateError.
    """
    if not isinstance(cert, dict):
        raise CertificateError(f"certificate is a {type(cert).__name__}, not a JSON object")
    if cert.get("schema") != CERT_SCHEMA:
        raise CertificateError(f"unknown certificate schema {cert.get('schema')!r}")
    if cert.get("dim") != arr.dim:
        raise CertificateError(f"certificate dim {cert.get('dim')} != arrangement dim {arr.dim}")
    rows = cert.get("covectors")
    if not isinstance(rows, (list, tuple)):
        raise CertificateError(f"covectors: expected a list of covectors, got {rows!r}")
    declared = [tuple(_ints(c, f"covectors[{i}]")) for i, c in enumerate(rows)]
    if sorted(declared) != sorted(arr.covectors):
        raise CertificateError("certificate root arrangement does not match input")
    cited: list[str] = []
    steps = [0]
    exps = _verify_node(universe(arr), cert.get("claim"), cited, steps, path="claim")
    return CertificateReplay(exps, cited, steps[0])


def _ints(value, where: str) -> list[int]:
    """value if it is a list of integers, else CertificateError."""
    if not isinstance(value, (list, tuple)) or not all(type(v) is int for v in value):
        raise CertificateError(f"{where}: expected a list of integers, got {value!r}")
    return list(value)


def _exponents(node: dict, where: str) -> tuple[int, ...]:
    return tuple(sorted(_ints(node.get("exponents"), where + ".exponents")))


def _claim_matches(node: dict, exps: tuple[int, ...], path: str) -> None:
    """The node's optional exponents claim, checked against the replay."""
    if "exponents" in node and _exponents(node, path) != exps:
        raise CertificateError(
            f"{path}: claimed exponents {sorted(node['exponents'])} != replayed {list(exps)}"
        )


def _verify_node(uni: Universe, node: dict, cited: list[str], steps: list[int], path: str) -> tuple[int, ...]:
    """Replay one node on the lattice of its arrangement; the lattices of the
    arrangements the certificate adds are built here and not cached."""
    arr = uni.arr
    if not isinstance(node, dict) or "type" not in node:
        raise CertificateError(f"{path}: malformed node")
    steps[0] += 1
    kind = node["type"]
    if kind == "inductively-free":
        if "witness" not in node:
            raise CertificateError(f"{path}: inductively-free leaf carries no witness")
        derived = _check_witness(uni, node["witness"], 0, uni._full_mask, {}, path + ".witness")
        roots = _chi_roots(uni)
        if roots != derived:
            raise CertificateError(
                f"{path}: witness exponents {list(derived)} contradict chi roots {roots}"
            )
        _claim_matches(node, derived, path)
        return derived
    if kind == "cited-free":
        roots = _chi_roots(uni)
        if roots is None:
            raise CertificateError(f"{path}: cited-free leaf has non-splitting chi")
        _claim_matches(node, roots, path)
        citation = node.get("citation", "unspecified")
        if not isinstance(citation, str):
            raise CertificateError(f"{path}: citation is not a string")
        cited.append(citation)
        return roots
    if kind == "addition":
        cov = _ints(node.get("added_covector"), path + ".added_covector")
        try:
            extended = arr.with_hyperplane(cov)
        except ValueError as exc:
            raise CertificateError(f"{path}: cannot add hyperplane: {exc}") from exc
        exps_ext = _verify_node(Universe(extended), node.get("extended"), cited, steps, path + ".extended")
        restricted = restriction_to_hyperplane(extended, len(extended) - 1)
        exps_res = _verify_node(
            Universe(restricted), node.get("restriction"), cited, steps, path + ".restriction"
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
        _claim_matches(node, deduced, path)
        return deduced
    raise CertificateError(f"{path}: unknown node type {kind!r}")


def _check_witness(
    uni: Universe, node: dict, x: int, mask: int, proved: dict[tuple[int, int], tuple[int, ...]], where: str
) -> tuple[int, ...]:
    """Exponents of the node (x, mask) proved by a witness tree.

    proved maps the nodes checked so far to their exponents: a subtree met
    again at the same node only has its claimed exponents compared.
    """
    if not isinstance(node, dict):
        raise CertificateError(f"{where}: witness node is not a JSON object")
    claimed = _exponents(node, where)
    key = uni.node_key(x, mask)
    exps = proved.get(key)
    if exps is None:
        x, mask = key
        if "empty" in node:
            if node["empty"] is not True:
                raise CertificateError(f"{where}: 'empty' must be true")
            if uni.node_elements(x, mask):
                raise CertificateError(f"{where}: node claimed empty has hyperplanes")
            exps = (0,) * (uni.dim - uni.rank[x])
        else:
            for field in ("hyperplane", "deletion", "restriction"):
                if field not in node:
                    raise CertificateError(f"{where}: witness node has no {field!r}")
            indices = _ints(node["hyperplane"], where + ".hyperplane")
            if len(set(indices)) != len(indices) or not all(0 <= i < uni.m for i in indices):
                raise CertificateError(
                    f"{where}: hyperplane indices {indices} are not distinct indices of the leaf"
                )
            pre = mask_of(indices)
            e = next((g for g, gpre in uni.node_elements(x, mask) if gpre == pre), None)
            if e is None:
                raise CertificateError(
                    f"{where}: hyperplanes {indices} are not the preimage of an element of the node"
                )
            exps_r = _check_witness(uni, node["restriction"], e, mask, proved, where + ".restriction")
            exps_d = _check_witness(uni, node["deletion"], x, mask & ~pre, proved, where + ".deletion")
            if not check_addition_deletion(claimed, exps_d, exps_r):
                raise CertificateError(
                    f"{where}: exponents {list(claimed)} do not follow by addition from "
                    f"deletion {list(exps_d)} and restriction {list(exps_r)}"
                )
            exps = claimed
        proved[key] = exps
    if claimed != exps:
        raise CertificateError(f"{where}: claimed exponents {list(claimed)} != proved {list(exps)}")
    return exps
