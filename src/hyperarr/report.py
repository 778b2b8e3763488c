"""Property reports: the full decision ladder with per-flag provenance.

Every flag records how it was decided (direct search, certificate replay, or
implication), and the finished report is validated against the implication
ladder: supersolvable => inductively factored => inductively free => free; a
generic rank-3 localization excludes freeness and asphericity; a simplicial
or supersolvable arrangement is aspherical.

The family reports use the cheapest sound route per size: direct searches
while they are fast, certificate replay for the size-5 freeness proof, and
the generic-localization shortcut from size 6 on, where every remaining flag
follows by implication and the characteristic polynomial is skipped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from math import comb
from typing import Literal

from .arrangement import Arrangement, hyperpolygonal
from .factorization import is_inductively_factored
from .formality import (
    MotionRefutation,
    UniquenessWitness,
    is_formal,
    is_lc_basis,
    projective_uniqueness_witness,
)
from .freeness import (
    CapExhausted,
    CertificateError,
    chi_integer_roots,
    is_inductively_free,
    verify_free_certificate,
)
from .lattice import find_generic_rank3_localization, is_supersolvable, universe
from .polynomials import format_poly
from .regions import simplicial_defect

REPORT_SCHEMA = "hyperarr/report-v1"

TriBool = Literal[True, False, "undecided"]


@dataclass(frozen=True)
class PropertyDecision:
    value: TriBool | str
    provenance: str


@dataclass
class PropertyReport:
    label: str
    dim: int
    hyperplanes: int
    rank: int
    properties: dict[str, PropertyDecision] = field(default_factory=dict)
    exponents: tuple[int, ...] | None = None
    chi: tuple[int, ...] | None = None
    regions: int | None = None

    PROPERTY_NAMES = (
        "supersolvable",
        "inductively_factored",
        "inductively_free",
        "free",
        "simplicial",
        "has_generic_rank3_localization",
        "aspherical",
        "formal",
        "projectively_unique",
    )

    def value(self, name: str):
        return self.properties[name].value

    @property
    def undecided(self) -> tuple[str, ...]:
        return tuple(
            k for k, d in self.properties.items() if d.value in ("undecided", "unknown") and k != "aspherical"
        )

    def validate(self) -> None:
        v = self.value
        ladder = ["supersolvable", "inductively_factored", "inductively_free", "free"]
        for a, b in zip(ladder, ladder[1:]):
            if v(a) is True and v(b) is False:
                raise AssertionError(f"ladder violation: {a} without {b}")
        if v("has_generic_rank3_localization") is True:
            if v("free") is True:
                raise AssertionError("free despite a generic rank-3 localization")
            if v("aspherical") == "yes":
                raise AssertionError("aspherical despite a generic rank-3 localization")
        if v("simplicial") is True and v("aspherical") == "no":
            raise AssertionError("simplicial but not aspherical")
        if v("supersolvable") is True and v("aspherical") == "no":
            raise AssertionError("supersolvable but not aspherical")

    def to_json_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "label": self.label,
            "dim": self.dim,
            "hyperplanes": self.hyperplanes,
            "rank": self.rank,
            "properties": {
                k: {"value": d.value, "provenance": d.provenance}
                for k, d in self.properties.items()
            },
            "exponents": list(self.exponents) if self.exponents is not None else None,
            "chi": list(self.chi) if self.chi is not None else None,
            "regions": self.regions,
            "undecided": list(self.undecided),
        }

    def format_text(self) -> str:
        lines = [
            f"{self.label}: dim {self.dim}, {self.hyperplanes} hyperplanes, rank {self.rank}"
        ]
        for name in self.PROPERTY_NAMES:
            if name not in self.properties:
                continue
            d = self.properties[name]
            lines.append(f"  {name:34s} {str(d.value):10s} [{d.provenance}]")
        if self.exponents is not None:
            lines.append(f"  exponents: {list(self.exponents)}")
        if self.chi is not None:
            lines.append(f"  chi: {format_poly(self.chi)}")
        if self.regions is not None:
            lines.append(f"  regions: {self.regions}")
        return "\n".join(lines)


def packaged_certificate() -> dict:
    """The freeness certificate shipped for the 21-hyperplane rank-5 member."""
    text = resources.files("hyperarr").joinpath("data/h5_certificate.json").read_text()
    return json.loads(text)


def matching_packaged_certificate(arr: Arrangement) -> dict | None:
    """The shipped certificate if it applies to this arrangement verbatim."""
    if arr.dim != 5 or len(arr) != 21:
        return None
    cert = packaged_certificate()
    if sorted(tuple(c) for c in cert["covectors"]) == sorted(arr.covectors):
        return cert
    return None


def _aspherical_rule(
    simplicial: TriBool, supersolvable: TriBool, has_loc: TriBool
) -> PropertyDecision:
    if has_loc is True:
        return PropertyDecision("no", "generic rank-3 localization excludes asphericity")
    if simplicial is True:
        return PropertyDecision("yes", "simplicial arrangements are aspherical")
    if supersolvable is True:
        return PropertyDecision("yes", "supersolvable arrangements are aspherical")
    return PropertyDecision("unknown", "no decision rule applies")


def _uniqueness_decision(arr: Arrangement, candidate_cap: int) -> PropertyDecision:
    """projectively_unique with its evidence in the provenance."""
    try:
        status, evidence = projective_uniqueness_witness(arr, candidate_cap=candidate_cap)
    except ValueError as exc:  # not essential or not irreducible
        return PropertyDecision("undecided", str(exc))
    if isinstance(evidence, UniquenessWitness):
        return PropertyDecision(status, f"generation-closure witness {list(evidence.indices)}")
    if isinstance(evidence, MotionRefutation):
        return PropertyDecision(
            status,
            f"motion refutation: hyperplane {evidence.hyperplane} -> {list(evidence.covector)}",
        )
    if status is False:
        return PropertyDecision(False, "no subset of rank+1 hyperplanes exists")
    if comb(len(arr), arr.rank + 1) > candidate_cap:
        return PropertyDecision(status, "witness scan (candidate cap exhausted)")
    return PropertyDecision(status, "no witness and no motion refutation")


def analyze(
    arr: Arrangement,
    label: str = "arrangement",
    certificate: dict | None = None,
    node_cap: int = 2_000_000,
    partition_cap: int = 16,
    witness_cap: int = 10**6,
) -> PropertyReport:
    """Full decision ladder for an arbitrary arrangement, caps honored.

    Exponential searches (inductive freeness, nice partitions, witness scan)
    are capped and report "undecided" when exhausted, and projective
    uniqueness is "undecided" when it finds neither a witness nor a motion
    refutation; every other flag is decided exactly.
    """
    rep = PropertyReport(label, arr.dim, len(arr), arr.rank)
    props = rep.properties

    ss, _chain = is_supersolvable(arr)
    props["supersolvable"] = PropertyDecision(ss, "modular chain search")

    uni = universe(arr)
    rep.chi = uni.chi()
    roots = chi_integer_roots(arr)
    b = abs(sum(((-1) ** k) * c for k, c in enumerate(rep.chi)))
    rep.regions = b

    ifree = is_inductively_free(arr, node_cap=node_cap)
    props["inductively_free"] = PropertyDecision(
        ifree.status,
        "addition-deletion search"
        + ("" if ifree.status != "undecided" else " (node cap exhausted)"),
    )

    if ifree.status is False:
        props["inductively_factored"] = PropertyDecision(
            False, "implied: not inductively free"
        )
    else:
        ifac, _part = is_inductively_factored(arr, search_cap=partition_cap)
        props["inductively_factored"] = PropertyDecision(
            ifac,
            "nice partition recursion"
            + ("" if ifac != "undecided" else " (size cap exhausted)"),
        )

    cert = certificate if certificate is not None else matching_packaged_certificate(arr)
    loc = find_generic_rank3_localization(arr)
    props["has_generic_rank3_localization"] = PropertyDecision(
        loc is not None, "rank-3 flat scan"
    )
    if roots is None:
        props["free"] = PropertyDecision(False, "characteristic polynomial has no integer root factorization")
    elif ifree.status is True:
        props["free"] = PropertyDecision(True, "implied: inductively free")
        rep.exponents = ifree.exponents
    elif cert is not None:
        try:
            replay = verify_free_certificate(arr, cert, node_cap=node_cap)
            props["free"] = PropertyDecision(True, "certificate replay")
            rep.exponents = replay.exponents
        except (CertificateError, CapExhausted) as exc:
            props["free"] = PropertyDecision("undecided", f"certificate rejected: {exc}")
    elif loc is not None:
        props["free"] = PropertyDecision(False, "generic rank-3 localization")
    else:
        props["free"] = PropertyDecision("undecided", "no decision route succeeded")

    defect = simplicial_defect(arr)
    props["simplicial"] = PropertyDecision(defect == 0, f"facet-count defect = {defect}")

    props["aspherical"] = _aspherical_rule(
        props["simplicial"].value, ss, props["has_generic_rank3_localization"].value
    )

    props["formal"] = PropertyDecision(is_formal(arr), "rank-2 relation span")

    props["projectively_unique"] = _uniqueness_decision(arr, witness_cap)

    rep.validate()
    return rep


def report(n: int) -> PropertyReport:
    """Decision ladder for the n-th hyperpolygonal arrangement.

    Sizes up to 5 get the full ladder (direct searches, with the shipped
    certificate proving freeness at size 5); from size 6 on, a generic rank-3
    localization exists and decides everything downstream of freeness by
    implication, so only the localization scan, formality, and the uniqueness
    witness are computed and the characteristic polynomial is skipped.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    arr = hyperpolygonal(n)
    rep = PropertyReport(f"H_{n}", arr.dim, len(arr), arr.rank)
    props = rep.properties

    if n >= 6:
        loc = find_generic_rank3_localization(arr)
        if loc is None:
            raise AssertionError(f"expected a generic rank-3 localization in H_{n}")
        props["has_generic_rank3_localization"] = PropertyDecision(
            True, f"rank-3 flat scan: hyperplanes {list(loc.contains)}"
        )
        props["free"] = PropertyDecision(False, "generic rank-3 localization")
        props["inductively_free"] = PropertyDecision(False, "implied: not free")
        props["inductively_factored"] = PropertyDecision(False, "implied: not inductively free")
        props["supersolvable"] = PropertyDecision(False, "implied: not inductively factored")
        props["aspherical"] = PropertyDecision(
            "no", "generic rank-3 localization excludes asphericity"
        )
        props["simplicial"] = PropertyDecision(False, "implied: not aspherical")
    else:
        ss, _ = is_supersolvable(arr)
        props["supersolvable"] = PropertyDecision(ss, "modular chain search")

        uni = universe(arr)
        rep.chi = uni.chi()
        rep.regions = abs(sum(((-1) ** k) * c for k, c in enumerate(rep.chi)))

        ifree = is_inductively_free(arr)
        props["inductively_free"] = PropertyDecision(ifree.status, "addition-deletion search")

        if ifree.status is True:
            ifac, _ = is_inductively_factored(arr)
            props["inductively_factored"] = PropertyDecision(ifac, "nice partition recursion")
            props["free"] = PropertyDecision(True, "implied: inductively free")
            rep.exponents = ifree.exponents
        else:
            if ifree.status != False:  # noqa: E712  ("undecided" must not imply anything)
                raise AssertionError("family search unexpectedly exhausted its cap")
            props["inductively_factored"] = PropertyDecision(
                False, "implied: not inductively free"
            )
            replay = verify_free_certificate(arr, packaged_certificate())
            props["free"] = PropertyDecision(True, "certificate replay")
            rep.exponents = replay.exponents

        defect = simplicial_defect(arr)
        props["simplicial"] = PropertyDecision(defect == 0, f"facet-count defect = {defect}")

        loc = find_generic_rank3_localization(arr)
        props["has_generic_rank3_localization"] = PropertyDecision(
            loc is not None, "rank-3 flat scan"
        )
        props["aspherical"] = _aspherical_rule(
            props["simplicial"].value, ss, loc is not None
        )

    natural_basis = tuple(range(n - 1)) + (n,) if n >= 2 else (0,)
    if is_lc_basis(arr, natural_basis):
        props["formal"] = PropertyDecision(
            True, f"line-closure basis {list(natural_basis)}"
        )
    else:
        props["formal"] = PropertyDecision(is_formal(arr), "rank-2 relation span")

    props["projectively_unique"] = _uniqueness_decision(arr, 10**6)

    rep.validate()
    return rep
