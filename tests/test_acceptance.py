"""Acceptance gate: one pass/fail line per shipped guarantee.

Each test certifies one headline behavior of the engine end to end and
records exactly one PASS/FAIL line through the shared registry, re-emitted
by the terminal-summary hook at the end of the run.
"""

import itertools
import time
from contextlib import contextmanager

from acceptance_log import record

from hyperarr import (
    canonicalize,
    chi,
    enumerate_regions,
    gen_closure,
    hyperpolygonal,
    is_formal,
    is_lc_basis,
    is_simplicial_geometric,
    q_integer_product,
    report,
    simplicial_defect,
    verify_linear_isomorphism,
    zeta_product_bases,
    zeta_polynomial,
)
from hyperarr.freeness import verify_free_certificate
from hyperarr.polynomials import evaluate
from hyperarr.report import packaged_certificate

from oracles import from_roots


@contextmanager
def criterion(index, name):
    tag = f"[{index:2d}/11] {name}"
    try:
        yield
    except BaseException as exc:
        reason = str(exc).splitlines()[0] if str(exc) else exc.__class__.__name__
        record(f"FAIL {tag} — {exc.__class__.__name__}: {reason}")
        raise
    record(f"PASS {tag}")


def test_family_property_ladder_with_runtime_bounds():
    expected = {
        n: dict(
            supersolvable=(n <= 2),
            inductively_factored=(n <= 3),
            inductively_free=(n <= 4),
            free=(n <= 5),
            simplicial=(n <= 4),
            aspherical="yes" if n <= 4 else ("unknown" if n == 5 else "no"),
        )
        for n in range(1, 7)
    }
    budgets = {1: 10, 2: 10, 3: 10, 4: 10, 5: 600, 6: 60}
    with criterion(1, "family ladder sizes 1-6 within runtime budgets"):
        for n in range(1, 7):
            t0 = time.monotonic()
            rep = report(n)
            elapsed = time.monotonic() - t0
            assert elapsed < budgets[n], f"size {n} took {elapsed:.1f}s"
            for key, want in expected[n].items():
                got = rep.value(key)
                assert got == want, f"size {n}: {key} = {got}, expected {want}"
            if n == 5:
                assert "certificate" in rep.properties["free"].provenance


def test_hyperplane_counts_match_dedupe_oracle():
    with criterion(2, "hyperplane counts n + 2^(n-1) for sizes 2-10 under 1s"):
        t0 = time.monotonic()
        for n in range(2, 11):
            arr = hyperpolygonal(n)
            signs = set()
            for mask in range(1 << n):
                v = tuple(1 if mask >> i & 1 else -1 for i in range(n))
                signs.add(canonicalize(v))
            coords = {
                tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
            }
            assert len(arr) == n + 2 ** (n - 1)
            assert set(arr.covectors) == signs | coords
        assert time.monotonic() - t0 < 1.0


def test_characteristic_polynomials_exact():
    targets = {2: (1, 3), 3: (1, 3, 3), 4: (1, 3, 3, 5), 5: (1, 5, 5, 5, 5)}
    with criterion(3, "characteristic polynomials split exactly for sizes 2-5"):
        for n, roots in targets.items():
            assert chi(hyperpolygonal(n)) == from_roots(roots), f"size {n}"


def test_certificate_replay_reports_intermediate_exponents():
    with criterion(4, "freeness certificate replay with intermediate exponents"):
        cert = packaged_certificate()
        replay = verify_free_certificate(hyperpolygonal(5), cert)
        assert sorted(replay.exponents) == [1, 5, 5, 5, 5]
        claim = cert["claim"]
        assert sorted(claim["extended"]["exponents"]) == [1, 5, 5, 5, 6]
        assert sorted(claim["restriction"]["exponents"]) == [1, 5, 5, 5]
        assert sorted(claim["restriction"]["extended"]["exponents"]) == [1, 5, 5, 6]
        assert sorted(claim["restriction"]["restriction"]["exponents"]) == [1, 5, 5]


def test_region_counts_match_zaslavsky():
    counts = {2: 8, 3: 32, 4: 192, 5: 2592}
    with criterion(5, "region counts for sizes 2-5 match the chi(-1) evaluation"):
        for n, want in counts.items():
            arr = hyperpolygonal(n)
            t0 = time.monotonic()
            regs = enumerate_regions(arr)
            elapsed = time.monotonic() - t0
            assert len(regs) == want, f"size {n}"
            assert len(regs) == (-1) ** n * evaluate(chi(arr), -1)
            if n == 5:
                assert elapsed < 300, f"size 5 enumeration took {elapsed:.1f}s"


def test_simpliciality_defect_agrees_with_chamber_geometry():
    with criterion(6, "facet-count defect agrees with chamber geometry"):
        for n in range(1, 5):
            arr = hyperpolygonal(n)
            assert simplicial_defect(arr) == 0, f"size {n}"
            assert is_simplicial_geometric(enumerate_regions(arr)), f"size {n}"
        h5 = hyperpolygonal(5)
        defect = simplicial_defect(h5)
        assert defect == 800
        assert not is_simplicial_geometric(enumerate_regions(h5))


def test_zeta_product_bases_exist_up_to_size_four_and_vanish_at_five():
    with criterion(7, "zeta factors over exponents for sizes 2-4, never at 5"):
        for n, exps in ((2, (1, 3)), (3, (1, 3, 3)), (4, (1, 3, 3, 5))):
            regs = enumerate_regions(hyperpolygonal(n))
            hits = zeta_product_bases(regs, exps)
            assert hits, f"size {n} has no satisfying base"
            product = q_integer_product(exps)
            assert zeta_polynomial(regs, hits[0]) == product
            if n == 4:
                assert evaluate(product, 1) == 192
        regs5 = enumerate_regions(hyperpolygonal(5))
        assert len(regs5) == 2592
        t0 = time.monotonic()
        assert zeta_product_bases(regs5, (1, 5, 5, 5, 5)) == []
        assert time.monotonic() - t0 < 120


def test_natural_line_closure_basis_certifies_formality(generic4):
    with criterion(8, "line-closure basis certifies formality for sizes 2-8"):
        for n in range(2, 9):
            arr = hyperpolygonal(n)
            basis = tuple(range(n - 1)) + (n,)
            assert is_lc_basis(arr, basis), f"size {n}"
            assert is_formal(arr), f"size {n}"
        assert not is_formal(generic4)


def test_generation_closure_of_natural_seed():
    with criterion(
        9, "generation closure of the (n+1)-element seed covers sizes 3-7; size 2 stays closed"
    ):
        # the two construction forms of every sign-sum hyperplane agree symbolically
        for n in range(2, 8):
            arr = hyperpolygonal(n)
            m = len(arr)
            alpha, beta = arr.covectors[n], arr.covectors[m - 1]
            coords = [arr.covectors[i] for i in range(n - 1)]
            produced = set()
            for mask in range(1 << (n - 1)):
                inside = [i for i in range(n - 1) if mask >> i & 1]
                outside = [j for j in range(n - 1) if not mask >> j & 1]
                via_alpha = tuple(
                    -a + 2 * sum(coords[i][t] for i in inside)
                    for t, a in enumerate(alpha)
                )
                via_beta = tuple(
                    b - 2 * sum(coords[j][t] for j in outside)
                    for t, b in enumerate(beta)
                )
                assert via_alpha == via_beta, f"size {n}, subset {inside}"
                produced.add(canonicalize(via_alpha))
            assert produced == set(arr.covectors[n:]), f"size {n}"
        # closure trace: sign-sum forms enter first, the last coordinate enters last
        for n in (3, 4, 5):
            arr = hyperpolygonal(n)
            g = gen_closure(arr, tuple(range(n - 1)) + (n, len(arr) - 1))
            assert g.rounds[-1] == (n - 1,), f"size {n}"
            assert all(i >= n for rnd in g.rounds[:-1] for i in rnd), f"size {n}"
        # coverage for every size in 3..7 from the (n+1)-element seed
        not_covered = []
        for n in range(3, 8):
            arr = hyperpolygonal(n)
            seed = tuple(range(n - 1)) + (n, len(arr) - 1)
            assert len(set(seed)) == n + 1
            g = gen_closure(arr, seed)
            if g.generated != tuple(range(len(arr))):
                not_covered.append(n)
        assert not not_covered, f"seed fails to generate the whole arrangement for sizes {not_covered}"
        # size 2 is four concurrent lines: any two seed lines meet only at the
        # origin, which spans no line, so every seed is already closed and the
        # cross-ratio modulus leaves the member not projectively unique
        arr = hyperpolygonal(2)
        # every 3-element seed, the natural seed (0, 2, 3) among them
        for seed in itertools.combinations(range(len(arr)), 3):
            g = gen_closure(arr, seed)
            assert g.rounds == () and g.generated == seed, f"size 2 seed {seed} grew to {g.generated}"
        assert report(2).value("projectively_unique") is False


def test_randomized_law_suites(random_pool, h2, h3, h4):
    import test_properties as props

    with criterion(10, "randomized suites: closure laws, recurrences, symmetry, ladder"):
        props.test_mobius_alternation_on_random_pool(random_pool)
        props.test_deletion_restriction_recurrence_on_random_pool(random_pool)
        props.test_line_closure_laws_on_random_pool(random_pool, h4)
        props.test_gen_closure_laws_on_random_pool(random_pool, h3)
        props.test_zeta_antipodal_symmetry_on_enumerated_instances(random_pool, h2, h3)
        props.test_ladder_consistency_on_random_reports(random_pool)


def test_explicit_coordinate_isomorphisms(h3, h4, c3_graphic, d4_simple_roots):
    with criterion(11, "explicit coordinate isomorphisms accepted, perturbed rejected"):
        m3 = ((1, 1, 0), (1, 0, 1), (0, 1, 1))
        assert verify_linear_isomorphism(h3, c3_graphic, m3)
        m4 = ((1, 1, 1, 0), (0, 1, 0, 0), (0, 1, 1, 1), (-1, -1, 0, -1))
        assert verify_linear_isomorphism(h4, d4_simple_roots, m4)
        perturbed = ((1, 1, 1, 0), (0, 1, 0, 0), (0, 1, 1, 1), (-1, -1, 1, -1))
        assert not verify_linear_isomorphism(h4, d4_simple_roots, perturbed)
