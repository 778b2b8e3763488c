"""Freeness of central arrangements: exponents, inductive freeness, certificates.

Freeness is never guessed: it is established by an inductive-freeness search
(whose witness is returned), or by replaying an addition-deletion
certificate, and refuted by a non-splitting characteristic polynomial or a
generic rank-3 localization.

The search works on (flat, hyperplane-mask) nodes of one master lattice:
deleting a hyperplane shrinks the mask, restricting moves to the interval
above the hyperplane's flat.  The characteristic polynomial of a node is an
interval Moebius computation (see lattice.py), and that of a deletion follows
from the node's and the restriction's by deletion-restriction.  Memoization
is per master lattice, so the exhaustive refutation for larger instances
stays feasible.

A witness is a list of hyperplane choices, one per distinct non-empty node,
and one walk, _replay, turns it into exponents by Terao's addition theorem
(Orlik-Terao, Arrangements of Hyperplanes, Thm 4.51): the search writes its
witness by replaying its own choices, and certificate replay, which runs no
search, feeds the same walk from the stored list.
"""

from __future__ import annotations

from typing import Callable, Literal, NamedTuple

from .arrangement import Arrangement, restriction_to_hyperplane
from .lattice import Universe, universe

# visited (flat, mask) nodes of the inductive-freeness search
NODE_CAP = 2_000_000


class CapExhausted(RuntimeError):
    """A bounded search ran out of budget before deciding."""


def chi_integer_roots(arr: Arrangement) -> tuple[int, ...] | None:
    """Exponent candidates: roots of chi if it splits over the nonnegative
    integers (with dim - rank zeros), else None.  Splitting is necessary for
    freeness, so None refutes freeness outright."""
    return _chi_roots(universe(arr))


def _chi_roots(uni: Universe) -> tuple[int, ...] | None:
    return uni.node_roots(0, uni._full_mask)


class InductiveFreenessResult(NamedTuple):
    status: Literal[True, False, "undecided"]
    exponents: tuple[int, ...] | None
    witness: list[int] | None
    nodes_visited: int


def is_inductively_free(arr: Arrangement) -> InductiveFreenessResult:
    """Decide membership in the inductively free class.

    An arrangement is inductively free iff it is empty, or some hyperplane H
    has both the deletion and the restriction inductively free with
    exp(restriction) contained in exp(deletion).  Exponents of members are the
    chi roots, so non-splitting chi prunes, and the addition-deletion exponent
    pattern between the arrangement and a candidate deletion is necessary for
    that branch.  Exhaustive over all hyperplanes, with memoization on
    (flat, mask) nodes; NODE_CAP bounds visited nodes, and the search and the
    replay of its witness recurse once per node on a path, so the stack
    bounds its depth ("undecided" beyond either; nodes_visited > NODE_CAP
    tells the two apart).

    The witness is the list of the search's hyperplane choices, one root
    index per distinct non-empty node (the lowest index of the chosen
    hyperplane's preimage), in the order a depth-first walk first meets the
    node, restriction before deletion.  It is written by _replay, so every
    witness returned has been replayed once.
    """
    uni = universe(arr)
    counter = [0]
    memo: dict[tuple[int, int], tuple[bool, tuple[int, ...] | None, int | None]] = {}
    witness: list[int] = []

    def choose(x: int, mask: int) -> int:
        witness.append(memo[x, mask][2])
        return witness[-1]

    try:
        ok, roots, _ = _ind_free(uni, 0, uni._full_mask, memo, counter)
        if not ok:
            return InductiveFreenessResult(False, None, None, counter[0])
        replayed = _replay(uni, 0, uni._full_mask, choose, {})
    except (CapExhausted, RecursionError):
        return InductiveFreenessResult("undecided", None, None, counter[0])
    assert replayed == roots
    return InductiveFreenessResult(True, roots, witness, counter[0])


def _ind_free(
    uni: Universe,
    x: int,
    mask: int,
    memo: dict,
    counter: list[int],
) -> tuple[bool, tuple[int, ...] | None, int | None]:
    """(ok, exponents, chosen root index) of the node; memoized per node."""
    key = uni.node_key(x, mask)
    hit = memo.get(key)
    if hit is not None:
        return hit
    counter[0] += 1
    if counter[0] > NODE_CAP:
        raise CapExhausted(f"inductive-freeness search exceeded {NODE_CAP} nodes")
    x, mask = key
    elements = uni.node_elements(x, mask)
    if not elements:
        memo[key] = (True, (0,) * (uni.dim - uni.rank[x]), None)
        return memo[key]
    roots = uni.node_roots(x, mask)
    if roots is None:
        memo[key] = (False, None, None)
        return memo[key]
    # order candidate hyperplanes by the size of their restriction (ascending):
    # the covers of e that meet the node's hyperplanes outside e
    bits = uni.bits
    sized = []
    for e, pre in elements:
        rest = mask & ~bits[e]
        rsize = sum(1 for g in uni.children[e] if bits[g] & rest)
        sized.append((rsize, e, pre))
    sized.sort()
    for rsize, e, pre in sized:
        del_mask = mask & ~pre
        uni.deletion_chi(x, mask, e)  # the chi that node_roots reads, without a walk
        # the addition pattern _replay checks, on chi roots
        droots, rroots = uni.node_roots(x, del_mask), uni.node_roots(e, mask)
        v = None if droots is None or rroots is None else _extra(rroots, droots)
        if v is None or _extra(rroots, roots) != v + 1:
            continue
        if (
            _ind_free(uni, e, mask, memo, counter)[0]
            and _ind_free(uni, x, del_mask, memo, counter)[0]
        ):
            memo[key] = (True, roots, (pre & -pre).bit_length() - 1)
            return memo[key]
    memo[key] = (False, None, None)
    return memo[key]


def _extra(small: tuple[int, ...], big: tuple[int, ...]) -> int | None:
    """The v with big = small + {v} as multisets, or None if there is none."""
    v = sum(big) - sum(small)
    return v if sorted(big) == sorted(small + (v,)) else None


def _replay(
    uni: Universe,
    x: int,
    mask: int,
    choose: Callable[[int, int], int],
    proved: dict[tuple[int, int], tuple[int, ...]],
) -> tuple[int, ...]:
    """Exponents of the node (x, mask) by Terao's addition theorem.

    An empty node, one whose reduced mask is 0, has all exponents 0.  At a
    new non-empty node, choose(x, mask) gives a root index h, and the cover
    of x whose bits hold h is the chosen hyperplane, with its bits in mask
    as its preimage; no list of the node's elements is made.  The walk
    derives the restriction, then the deletion, and if exp(deletion) =
    exp(restriction) + {v} the node has exp(restriction) + {v + 1}.  proved
    holds the nodes derived so far, so each node takes one choice.  A choice
    outside the node or a broken pattern raises CertificateError.
    """
    key = uni.node_key(x, mask)
    exps = proved.get(key)
    if exps is not None:
        return exps
    x, mask = key
    if not mask:  # no hyperplane in the node: each would lie in a cover of x
        exps = (0,) * (uni.dim - uni.rank[x])
    else:
        h = choose(x, mask)
        if not mask >> h & 1:
            raise CertificateError(f"hyperplane {h} is not in its node")
        bits = uni.bits
        e = next(g for g in uni.children[x] if bits[g] >> h & 1)
        pre = bits[e] & mask
        exps_r = _replay(uni, e, mask, choose, proved)
        exps_d = _replay(uni, x, mask & ~pre, choose, proved)
        v = _extra(exps_r, exps_d)
        if v is None:
            raise CertificateError(
                f"choice {h}: deletion exponents {list(exps_d)} are not the "
                f"restriction exponents {list(exps_r)} and one more"
            )
        exps = tuple(sorted(exps_r + (v + 1,)))
    proved[key] = exps
    return exps


# -- certificates -----------------------------------------------------------

CERT_SCHEMA = "hyperarr/free-cert-v3"


class CertificateError(ValueError):
    """A freeness certificate failed to replay."""


class CertificateReplay(NamedTuple):
    exponents: tuple[int, ...]
    cited_leaves: list[str]
    steps: int


def verify_free_certificate(arr: Arrangement, cert: dict) -> CertificateReplay:
    """Replay a freeness certificate against an arrangement; no search runs.

    The certificate is a tree of nodes; steps counts them.
    - An 'inductively-free' leaf carries a witness in the format of
      InductiveFreenessResult.witness: a list of root indices, one per
      distinct non-empty (flat, mask) node of the leaf's lattice.  _replay
      takes the entries in order and derives every node's exponents by the
      addition theorem, from empty nodes with all exponents 0 upwards.  The
      list must be used up exactly, and the exponents derived at the root
      must equal the chi roots of the leaf; chi is not read at inner nodes.
    - A 'cited-free' leaf cites established freeness.  It is accepted after
      a chi-splitting consistency check and reported in cited_leaves.
    - An 'addition' node claims: adjoining added_covector gives an
      arrangement with certified exponents, whose restriction to the new
      hyperplane is certified too, and the extension's exponents are the
      restriction's and one more, b >= 1.  By addition-deletion the present
      arrangement is then free with the restriction exponents plus b-1, and
      that must be its chi roots.
    Optional 'exponents' claims on certificate nodes must match what the
    replay derives.  Any defect, malformed fields included, raises
    CertificateError; so does a certificate nested so deeply that the
    replay runs out of stack.
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
    try:
        exps = _verify_node(arr, cert.get("claim"), cited, steps, path="claim")
    except RecursionError:
        raise CertificateError("the replay ran out of stack: the certificate is nested too deeply") from None
    return CertificateReplay(exps, cited, steps[0])


def _ints(value, where: str) -> list[int]:
    """value if it is a list of integers, else CertificateError."""
    if not isinstance(value, (list, tuple)) or not all(type(v) is int for v in value):
        raise CertificateError(f"{where}: expected a list of integers, got {value!r}")
    return list(value)


def _claim_matches(node: dict, exps: tuple[int, ...], path: str) -> None:
    """The node's optional exponents claim, checked against the replay."""
    if "exponents" in node:
        claimed = sorted(_ints(node["exponents"], path + ".exponents"))
        if claimed != list(exps):
            raise CertificateError(f"{path}: claimed exponents {claimed} != replayed {list(exps)}")


def _verify_node(arr: Arrangement, node: dict, cited: list[str], steps: list[int], path: str) -> tuple[int, ...]:
    """Replay one node on the lattice of its arrangement; an addition node
    builds that lattice only once its subclaims have replayed."""
    if not isinstance(node, dict) or "type" not in node:
        raise CertificateError(f"{path}: malformed node")
    steps[0] += 1
    kind = node["type"]
    if kind == "inductively-free":
        if "witness" not in node:
            raise CertificateError(f"{path}: inductively-free leaf carries no witness")
        derived, what = _witness_exponents(universe(arr), node["witness"], path + ".witness"), "witness"
    elif kind == "cited-free":
        citation = node.get("citation", "unspecified")
        if not isinstance(citation, str):
            raise CertificateError(f"{path}: citation is not a string")
        derived, what = _chi_roots(universe(arr)), "cited"
        if derived is None:
            raise CertificateError(f"{path}: cited-free leaf has non-splitting chi")
        cited.append(citation)
    elif kind == "addition":
        cov = _ints(node.get("added_covector"), path + ".added_covector")
        try:
            extended = arr.with_hyperplane(cov)
        except ValueError as exc:
            raise CertificateError(f"{path}: cannot add hyperplane: {exc}") from exc
        exps_ext = _verify_node(extended, node.get("extended"), cited, steps, path + ".extended")
        restricted = restriction_to_hyperplane(extended, len(extended) - 1)
        exps_res = _verify_node(restricted, node.get("restriction"), cited, steps, path + ".restriction")
        b = _extra(exps_res, exps_ext)
        # b < 1 cannot fire alone: the subclaims' exponents are chi roots, which
        # sum to |A|, so b = |extended| - |restricted| >= 1 once both pass
        if b is None or b < 1:
            raise CertificateError(
                f"{path}: exponents {list(exps_ext)} vs {list(exps_res)} are not an addition pattern"
            )
        derived, what = tuple(sorted(exps_res + (b - 1,))), "deduced"
    else:
        raise CertificateError(f"{path}: unknown node type {kind!r}")
    roots = _chi_roots(universe(arr))
    if roots != derived:
        raise CertificateError(f"{path}: {what} exponents {list(derived)} contradict chi roots {roots}")
    _claim_matches(node, derived, path)
    return derived


def _witness_exponents(uni: Universe, witness: list[int], where: str) -> tuple[int, ...]:
    """Exponents of the leaf derived from its witness list by _replay."""
    if not isinstance(witness, (list, tuple)):
        raise CertificateError(f"{where}: expected a list of root indices, got {witness!r}")
    taken = 0

    def choose(x: int, mask: int) -> int:
        nonlocal taken
        if taken == len(witness):
            raise CertificateError(f"ends after {taken} entries with nodes left")
        h = witness[taken]
        if type(h) is not int or h < 0:
            raise CertificateError(f"entry {taken} is {h!r}, not a root index")
        taken += 1
        return h

    try:
        exps = _replay(uni, 0, uni._full_mask, choose, {})
    except CertificateError as exc:
        raise CertificateError(f"{where}: {exc}") from None
    if taken != len(witness):
        raise CertificateError(f"{where}: {len(witness) - taken} entries left over")
    return exps
