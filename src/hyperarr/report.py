"""Property reports: one decision ladder with per-flag provenance.

Every flag records how it was decided: a direct search, a certificate
replay, or an implication.  The implications are the rows of IMPLICATIONS:
supersolvable => inductively factored => inductively free => free, the same
chain read backwards, a generic rank-3 localization excludes freeness and
asphericity, and a simplicial or supersolvable arrangement is aspherical.
The ladder fills every flag a step forces from that table, and validate()
checks a finished report against the same rows.

analyze and report share the ladder, which runs the cheap refuters first:
the rank-3 generic-localization scan (only ranks <= 3 of the lattice are
built), then, while freeness is open, the splitting of the characteristic
polynomial.  A search runs only for a flag still open after them:
supersolvability, inductive freeness, nice partitions, certificate replay
and the simplicial facet-count defect.  From H_6 on the scan decides every
flag downstream of freeness, so report(n) skips the characteristic
polynomial there; analyze always reports it and the region count.  The
CLI's `free` command runs the same ladder and stops once free is decided.
"""

from __future__ import annotations

import json
from importlib import resources
from math import comb
from typing import Literal, NamedTuple

from . import formality, freeness
from .arrangement import Arrangement, hyperpolygonal
from .factorization import is_inductively_factored
from .formality import (
    MotionRefutation,
    UniquenessWitness,
    is_formal,
    is_lc_basis,  # noqa: F401  perfbench/tracer.py wraps it in this module
    projective_uniqueness_witness,
)
from .freeness import (
    CertificateError,
    chi_integer_roots,
    is_inductively_free,
    verify_free_certificate,
)
from .lattice import find_generic_rank3_localization, is_supersolvable, universe
from .polynomials import evaluate, format_poly
from .regions import simplicial_defect

REPORT_SCHEMA = "hyperarr/report-v1"

TriBool = Literal[True, False, "undecided"]


# (premise, value, conclusion, value, provenance): a report whose premise has
# that value must give the conclusion that value.  Rows read backwards are
# listed where the ladder needs them to fill a flag.
IMPLICATIONS: tuple[tuple[str, TriBool | str, str, TriBool | str, str], ...] = (
    ("supersolvable", True, "inductively_factored", True, "implied: supersolvable"),
    ("inductively_factored", True, "inductively_free", True, "implied: inductively factored"),
    ("inductively_free", True, "free", True, "implied: inductively free"),
    ("free", False, "inductively_free", False, "implied: not free"),
    ("inductively_free", False, "inductively_factored", False, "implied: not inductively free"),
    ("inductively_factored", False, "supersolvable", False, "implied: not inductively factored"),
    ("has_generic_rank3_localization", True, "free", False, "generic rank-3 localization"),
    (
        "has_generic_rank3_localization", True, "aspherical", "no",
        "generic rank-3 localization excludes asphericity",
    ),
    ("simplicial", True, "aspherical", "yes", "simplicial arrangements are aspherical"),
    ("supersolvable", True, "aspherical", "yes", "supersolvable arrangements are aspherical"),
    ("aspherical", "no", "simplicial", False, "implied: not aspherical"),
)


class PropertyDecision(NamedTuple):
    value: TriBool | str
    provenance: str


class PropertyReport:
    """The flags of one arrangement with their provenance, and the exponents,
    characteristic polynomial and region count where the ladder set them.

    Mutable, as the ladder fills it in; reports compare equal field by field.
    """

    _FIELDS = ("label", "dim", "hyperplanes", "rank", "properties", "exponents", "chi", "regions")

    def __init__(
        self,
        label: str,
        dim: int,
        hyperplanes: int,
        rank: int,
        properties: dict[str, PropertyDecision] | None = None,
        exponents: tuple[int, ...] | None = None,
        chi: tuple[int, ...] | None = None,
        regions: int | None = None,
    ):
        self.label = label
        self.dim = dim
        self.hyperplanes = hyperplanes
        self.rank = rank
        self.properties = {} if properties is None else properties
        self.exponents = exponents
        self.chi = chi
        self.regions = regions

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self._FIELDS)

    def __repr__(self) -> str:
        return f"PropertyReport({', '.join(f'{k}={getattr(self, k)!r}' for k in self._FIELDS)})"

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

    def _ordered(self) -> list[tuple[str, PropertyDecision]]:
        """The flags present, in PROPERTY_NAMES order."""
        return [(k, self.properties[k]) for k in self.PROPERTY_NAMES if k in self.properties]

    @property
    def undecided(self) -> tuple[str, ...]:
        return tuple(
            k for k, d in self._ordered() if d.value in ("undecided", "unknown") and k != "aspherical"
        )

    def validate(self) -> None:
        """Raise AssertionError if a decided flag contradicts an IMPLICATIONS row
        whose premise and conclusion the report has (a full report has all)."""
        for premise, pv, conclusion, cv, _ in IMPLICATIONS:
            if premise not in self.properties or conclusion not in self.properties:
                continue
            got = self.value(conclusion)
            if self.value(premise) == pv and got not in (cv, "undecided", "unknown"):
                raise AssertionError(f"{premise} = {pv} but {conclusion} = {got}")

    def to_json_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "label": self.label,
            "dim": self.dim,
            "hyperplanes": self.hyperplanes,
            "rank": self.rank,
            "properties": {
                k: {"value": d.value, "provenance": d.provenance} for k, d in self._ordered()
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
        for name, d in self._ordered():
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


def _uniqueness_decision(arr: Arrangement) -> PropertyDecision:
    """projectively_unique with its evidence in the provenance."""
    try:
        status, evidence = projective_uniqueness_witness(arr)
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
    if comb(len(arr), arr.rank + 1) > formality.WITNESS_CAP:
        return PropertyDecision(status, "witness scan (candidate cap exhausted)")
    return PropertyDecision(status, "no witness and no motion refutation")


def _set_chi_and_regions(rep: PropertyReport, arr: Arrangement) -> None:
    """Set the characteristic polynomial and the Zaslavsky region count."""
    rep.chi = universe(arr).chi()
    rep.regions = abs(evaluate(rep.chi, -1))


def _ladder(arr: Arrangement, label: str, free_only: bool = False) -> PropertyReport:
    """The decision ladder: cheap refuters, then searches for the open flags.

    A flag is open while it has no entry; after every step the implications
    fill what the step forces, so no search runs for a decided flag.  With
    free_only the ladder returns as soon as free is decided, with the free
    exponents but without the steps for the other flags.
    """
    rep = PropertyReport(label, arr.dim, len(arr), arr.rank)
    props = rep.properties

    def decide(name: str, value: TriBool, provenance: str) -> None:
        props[name] = PropertyDecision(value, provenance)
        changed = True
        while changed:  # until every flag the implications force is filled
            changed = False
            for premise, pv, conclusion, cv, why in IMPLICATIONS:
                if conclusion not in props and premise in props and props[premise].value == pv:
                    props[conclusion] = PropertyDecision(cv, why)
                    changed = True

    def is_open(name: str) -> bool:
        return name not in props and not (free_only and "free" in props)

    loc = find_generic_rank3_localization(arr)
    decide(
        "has_generic_rank3_localization",
        loc is not None,
        "rank-3 flat scan" if loc is None else f"rank-3 flat scan: hyperplanes {list(loc.contains)}",
    )
    roots = None
    if is_open("free"):
        _set_chi_and_regions(rep, arr)
        roots = chi_integer_roots(arr)
        if roots is None:
            decide("free", False, "characteristic polynomial has no integer root factorization")

    if is_open("supersolvable"):
        decide("supersolvable", is_supersolvable(arr)[0], "modular chain search")
    if is_open("inductively_free"):
        res = is_inductively_free(arr)
        cap = ""
        if res.status == "undecided":
            bound = "node cap" if res.nodes_visited > freeness.NODE_CAP else "recursion depth"
            cap = f" ({bound} exhausted)"
        decide("inductively_free", res.status, "addition-deletion search" + cap)
    if is_open("inductively_factored"):
        status = is_inductively_factored(arr)[0]
        cap = " (size cap exhausted)" if status == "undecided" else ""
        decide("inductively_factored", status, "nice partition recursion" + cap)
    if is_open("free"):
        cert = matching_packaged_certificate(arr)
        if cert is None:
            decide("free", "undecided", "no decision route succeeded")
        else:
            try:
                cited = verify_free_certificate(arr, cert).cited_leaves
                why = f"certificate replay (cited: {'; '.join(cited)})" if cited else "certificate replay"
                decide("free", True, why)
            except CertificateError as exc:
                decide("free", "undecided", f"certificate rejected: {exc}")
    if props["free"].value is True:
        # free exponents are the roots of chi (Terao's factorization theorem)
        rep.exponents = roots
    if free_only:
        rep.validate()
        return rep
    if "simplicial" not in props:
        defect = simplicial_defect(arr)
        decide("simplicial", defect == 0, f"facet-count defect = {defect}")
    if "aspherical" not in props:
        props["aspherical"] = PropertyDecision("unknown", "no decision rule applies")

    props["formal"] = PropertyDecision(is_formal(arr), "rank-2 relation span")
    props["projectively_unique"] = _uniqueness_decision(arr)
    rep.validate()
    return rep


def analyze(arr: Arrangement, label: str = "arrangement") -> PropertyReport:
    """Full decision ladder for an arbitrary arrangement.

    Exponential searches (inductive freeness, nice partitions, witness scan)
    are capped by freeness.NODE_CAP, factorization.PARTITION_CAP and
    formality.WITNESS_CAP and report "undecided" when exhausted, and
    projective uniqueness is "undecided" when it finds neither a witness nor
    a motion refutation; every other flag is decided exactly.  The
    characteristic polynomial and the region count are always reported.
    """
    rep = _ladder(arr, label)
    if rep.chi is None:
        _set_chi_and_regions(rep, arr)
    return rep


def report(n: int) -> PropertyReport:
    """Decision ladder for the n-th hyperpolygonal arrangement, labelled H_n.

    The ladder of analyze (H_5's freeness rests on the shipped certificate),
    except that the characteristic polynomial and the region count are
    reported only when freeness needed them: from n = 6 on the generic rank-3
    localization decides freeness first.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    return _ladder(hyperpolygonal(n), f"H_{n}")
