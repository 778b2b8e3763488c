"""Property reports: one decision ladder with per-flag provenance.

Every flag records how it was decided: a direct search, a certificate
replay, or an implication.  The implications are the rows of IMPLICATIONS:
supersolvable => inductively factored => inductively free => free, the same
chain read backwards, a generic rank-3 localization excludes freeness and
asphericity, and a simplicial or supersolvable arrangement is aspherical.
The ladder fills every flag a step forces from that table, and validate()
checks a finished report against the same rows.

analyze and report share the ladder: one loop over the rows of _STEPS,
which lists its steps in order, cheap refuters first (the rank-3
generic-localization scan, which builds only ranks <= 3 of the lattice,
and the splitting of the characteristic polynomial), then the searches.  A
step runs only for a flag still open.  From H_6 on the scan decides every
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
from .lattice import find_generic_rank3_localization, is_supersolvable, universe, zaslavsky_region_count
from .polynomials import format_poly
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
    rep.regions = zaslavsky_region_count(arr)


def _rank3_scan(arr: Arrangement) -> tuple[bool, str]:
    loc = find_generic_rank3_localization(arr)
    where = "" if loc is None else f": hyperplanes {list(loc.contains)}"
    return loc is not None, "rank-3 flat scan" + where


def _chi_splits(arr: Arrangement) -> tuple[bool, str] | None:
    """Refute freeness when chi does not split; a split leaves free open."""
    if chi_integer_roots(arr) is None:
        return False, "characteristic polynomial has no integer root factorization"
    return None


def _inductive_freeness(arr: Arrangement) -> tuple[TriBool, str]:
    res = is_inductively_free(arr)
    if res.status != "undecided":
        return res.status, "addition-deletion search"
    bound = "node cap" if res.nodes_visited > freeness.NODE_CAP else "recursion depth"
    return res.status, f"addition-deletion search ({bound} exhausted)"


def _inductive_factoredness(arr: Arrangement) -> tuple[TriBool, str]:
    status = is_inductively_factored(arr)[0]
    cap = " (size cap exhausted)" if status == "undecided" else ""
    return status, "nice partition recursion" + cap


def _certificate_replay(arr: Arrangement) -> tuple[TriBool, str]:
    cert = matching_packaged_certificate(arr)
    if cert is None:
        return "undecided", "no decision route succeeded"
    try:
        cited = verify_free_certificate(arr, cert).cited_leaves
    except CertificateError as exc:
        return "undecided", f"certificate rejected: {exc}"
    return True, f"certificate replay (cited: {'; '.join(cited)})" if cited else "certificate replay"


def _simpliciality(arr: Arrangement) -> tuple[bool, str]:
    defect = simplicial_defect(arr)
    return defect == 0, f"facet-count defect = {defect}"


# (flag, step) in the order the ladder runs them: the cheap refuters, then the
# searches.  step(arr) returns (value, provenance), or None to leave the flag
# open.  Steps read the searches as module globals when they run, so a
# function replaced on this module reaches the ladder.
_STEPS = (
    ("has_generic_rank3_localization", _rank3_scan),
    ("free", _chi_splits),
    ("supersolvable", lambda arr: (is_supersolvable(arr)[0], "modular chain search")),
    ("inductively_free", _inductive_freeness),
    ("inductively_factored", _inductive_factoredness),
    ("free", _certificate_replay),
    ("simplicial", _simpliciality),
    ("aspherical", lambda arr: ("unknown", "no decision rule applies")),
    ("formal", lambda arr: (is_formal(arr), "rank-2 relation span")),
    ("projectively_unique", _uniqueness_decision),
)


def _ladder(arr: Arrangement, label: str, free_only: bool = False) -> PropertyReport:
    """The decision ladder: the rows of _STEPS, each only for an open flag.

    A flag is open while it has no entry; after every step the implications
    fill what the step forces, so no search runs for a decided flag.  With
    free_only the ladder stops as soon as free is decided.  The
    characteristic polynomial and the region count are set when the rank-3
    scan found no generic localization (the chi row then ran), and the
    exponents when the arrangement is free.
    """
    rep = PropertyReport(label, arr.dim, len(arr), arr.rank)
    props = rep.properties
    for name, step in _STEPS:
        if free_only and "free" in props:
            break
        if name in props or (decision := step(arr)) is None:
            continue
        props[name] = PropertyDecision(*decision)
        changed = True
        while changed:  # until every flag the implications force is filled
            changed = False
            for premise, pv, conclusion, cv, why in IMPLICATIONS:
                if conclusion not in props and premise in props and props[premise].value == pv:
                    props[conclusion] = PropertyDecision(cv, why)
                    changed = True
    if props["has_generic_rank3_localization"].value is False:
        _set_chi_and_regions(rep, arr)
    if props["free"].value is True:
        # free exponents are the roots of chi (Terao's factorization theorem)
        rep.exponents = chi_integer_roots(arr)
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
