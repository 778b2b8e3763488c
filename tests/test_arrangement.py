import itertools
import random
from fractions import Fraction

import pytest

import hyperarr
from hyperarr import (
    Arrangement,
    Flat,
    ParseError,
    boolean,
    essentialize,
    format_arrangement_text,
    from_vectors,
    gen_closure,
    hyperpolygonal,
    is_generic,
    is_independent_partition,
    is_lc_basis,
    is_matroid_connected,
    line_closure,
    parse_arrangement_text,
    restriction,
    restriction_to_hyperplane,
    triple,
    verify_linear_isomorphism,
)
from hyperarr.exactlinalg import canonicalize

import oracles


# -- construction ------------------------------------------------------------


def test_hyperpolygonal_counts():
    assert len(hyperpolygonal(1)) == 1
    for n in range(2, 11):
        assert len(hyperpolygonal(n)) == n + 2 ** (n - 1)


def test_hyperpolygonal_count_matches_dedupe_oracle():
    for n in range(2, 8):
        seen = set()
        for i in range(n):
            v = [0] * n
            v[i] = 1
            seen.add(canonicalize(v))
        for k in range(1, n + 1):
            for idx in itertools.combinations(range(n), k):
                v = [-1] * n
                for i in idx:
                    v[i] = 1
                seen.add(canonicalize(v))
        arr = hyperpolygonal(n)
        assert set(arr.covectors) == seen
        assert len(arr) == len(seen)


def test_hyperpolygonal_small_members():
    h2 = hyperpolygonal(2)
    assert set(h2.covectors) == {(1, 0), (0, 1), (1, 1), (1, -1)}
    h1 = hyperpolygonal(1)
    assert h1.covectors == ((1,),)
    with pytest.raises(ValueError):
        hyperpolygonal(0)


def test_hyperpolygonal_canonical_layout():
    # coordinates first, then the sign-sum forms sorted by (popcount, lex),
    # so the all-plus form follows the coordinates and the last form is
    # plus on all but the final coordinate
    for n in (3, 4, 5):
        arr = hyperpolygonal(n)
        for i in range(n):
            v = [0] * n
            v[i] = 1
            assert arr.covectors[i] == tuple(v)
        assert arr.covectors[n] == (1,) * n
        assert arr.covectors[-1] == (1,) * (n - 1) + (-1,)


def test_arrangement_invariants_and_surgery():
    arr = from_vectors(2, [(2, 0), (0, 3), (1, 1)])
    assert arr.covectors == ((1, 0), (0, 1), (1, 1))
    assert arr.rank == 2 and arr.is_essential
    assert arr.index_of((5, 5)) == 2
    assert arr.subset([2, 0]).covectors == ((1, 0), (1, 1))
    assert arr.delete(1).covectors == ((1, 0), (1, 1))
    assert arr.with_hyperplane((1, -1)).covectors[-1] == (1, -1)
    with pytest.raises(ValueError):
        arr.with_hyperplane((2, 2))  # duplicate
    with pytest.raises(ValueError):
        from_vectors(2, [(1, 0), (1, 0)])


def test_a_chain_of_additions_canonicalizes_each_covector_once(monkeypatch):
    """with_hyperplane checks the new covector only, so a chain of k additions
    makes k canonicalize calls; re-checking every covector made one more per
    hyperplane already there at each step, k(k + 5)/2 in all from one."""
    from hyperarr import arrangement

    start = from_vectors(2, [(1, 0)])
    calls = []
    real = arrangement.canonicalize
    monkeypatch.setattr(arrangement, "canonicalize", lambda v: calls.append(v) or real(v))
    arr, counts = start, []
    for k in range(1, 301):
        arr = arr.with_hyperplane((-2 * k, -2))
        counts.append(len(calls))
    assert counts == list(range(1, 301))
    monkeypatch.undo()
    assert arr == from_vectors(2, [(1, 0)] + [(k, 1) for k in range(1, 301)])
    assert arr.rank == 2 and len(arr) == 301 and start.covectors == ((1, 0),)
    for bad in [(7, 1), (14, 2), (1, 0)]:  # already present
        with pytest.raises(ValueError, match="already present"):
            arr.with_hyperplane(bad)
    with pytest.raises(ValueError, match="length"):
        arr.with_hyperplane((1, 2, 3))
    with pytest.raises(ValueError, match="zero"):
        arr.with_hyperplane((0, 0))


def test_boolean():
    b = boolean(3)
    assert b.covectors == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


# -- triples and restrictions -------------------------------------------------


def test_triple_counts(h2):
    full, deleted, restricted = triple(h2, h2.index_of((1, 1)))
    assert len(deleted) == 3 and deleted.dim == 2
    assert len(restricted) == 1 and restricted.dim == 1


def test_triple_on_single_hyperplane():
    arr = from_vectors(2, [(1, 0)])
    full, deleted, restricted = triple(arr, 0)
    assert len(deleted) == 0
    assert len(restricted) == 0 and restricted.dim == 1


def test_restriction_merges_duplicates(h2, bool3):
    r = restriction_to_hyperplane(h2, 0)
    assert len(r) == 1 and r.dim == 1
    r3 = restriction_to_hyperplane(bool3, 2)
    assert len(r3) == 2 and r3.dim == 2


def test_restriction_of_extended_h5_has_16_hyperplanes(h5):
    ext = h5.with_hyperplane((0, 1, 0, -1, 0))
    b = restriction_to_hyperplane(ext, len(ext) - 1)
    assert b.dim == 4
    assert len(b) == 16


def test_essentialize():
    arr = from_vectors(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    ess = essentialize(arr)
    assert ess.dim == 2 and len(ess) == 3 and ess.is_essential
    already = from_vectors(2, [(1, 0), (0, 1)])
    assert essentialize(already) is already


# -- genericity ---------------------------------------------------------------


def test_is_generic_examples(h3, generic4, bool3):
    assert is_generic(generic4) is True
    assert is_generic(h3) is False
    assert is_generic(bool3) is False  # |A| = rank
    # the dependent triple that kills it: two sign-sum forms and a coordinate
    dep = [h3.covectors[i] for i in (2, h3.index_of((1, 1, 1)), h3.index_of((1, 1, -1)))]
    assert oracles.frac_rank(dep) == 2


def test_is_generic_exhaustive_oracle(generic4, h3):
    def brute(arr):
        r = arr.rank
        if len(arr) <= r:
            return False
        return all(
            oracles.frac_rank(sub) == r
            for sub in itertools.combinations(arr.covectors, r)
        )

    for arr in (generic4, h3, hyperpolygonal(2), boolean(4)):
        assert is_generic(arr) == brute(arr)


def test_is_generic_invariance(generic4):
    rng = random.Random(5)
    perm = list(range(len(generic4)))
    rng.shuffle(perm)
    permuted = from_vectors(3, [generic4.covectors[i] for i in perm])
    assert is_generic(permuted) == is_generic(generic4)
    m = [[1, 1, 0], [0, 1, 0], [2, 0, 1]]  # invertible change of coordinates
    mapped = from_vectors(
        3,
        [
            tuple(sum(c[k] * m[k][j] for k in range(3)) for j in range(3))
            for c in generic4.covectors
        ],
    )
    assert is_generic(mapped) == is_generic(generic4)


def test_is_generic_reads_the_lattice_without_a_subset_cap():
    """Many hyperplanes: the lattice is read rank by rank, and no C(m, r)
    subset count caps it (the enumeration it replaced raised RuntimeError
    past 10^6 subsets)."""
    plane = from_vectors(2, [(1, k) for k in range(1500)])
    assert is_generic(plane) is True  # rank 2: no rank below it can overfill
    moment = from_vectors(3, [(1, t, t * t) for t in range(200)])
    assert is_generic(moment) is True  # C(200, 3) > 10^6, C(200, 2) lines
    assert is_generic(moment.with_hyperplane((0, 1, 5))) is False  # (1,2,4), (1,3,9)


# -- linear isomorphisms -------------------------------------------------------


def test_identity_isomorphism(h3):
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert verify_linear_isomorphism(h3, h3, eye) is True


def test_h3_is_isomorphic_to_the_7_line_rank3_arrangement(h3, c3_graphic):
    m = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
    assert verify_linear_isomorphism(h3, c3_graphic, m) is True


def test_h4_is_isomorphic_to_d4_in_simple_root_coordinates(h4, d4_simple_roots):
    m = [(1, 1, 1, 0), (0, 1, 0, 0), (0, 1, 1, 1), (-1, -1, 0, -1)]
    assert verify_linear_isomorphism(h4, d4_simple_roots, m) is True


def test_d4_presentations_agree(d4_simple_roots, d4_reflection):
    # substitute each simple-root coordinate by the root's orthonormal form
    simple_roots = [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 1, 1)]
    assert verify_linear_isomorphism(d4_simple_roots, d4_reflection, simple_roots) is True


def test_h4_is_isomorphic_to_d4_reflection_presentation(h4, d4_reflection):
    # doubling map: x1 -> x1+x2, x2 -> x1-x2, x3 -> x3+x4, x4 -> x3-x4
    m = [(1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1)]
    assert verify_linear_isomorphism(h4, d4_reflection, m) is True


def test_perturbed_matrix_rejected(h4, d4_simple_roots):
    m = [(1, 1, 1, 0), (0, 1, 0, 0), (0, 1, 1, 1), (-1, -1, 1, -1)]
    assert verify_linear_isomorphism(h4, d4_simple_roots, m) is False


def test_singular_matrix_errors(h3):
    sing = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
    with pytest.raises(ValueError):
        verify_linear_isomorphism(h3, h3, sing)


def test_rational_matrix_entries_accepted(h2):
    half = [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]
    assert verify_linear_isomorphism(h2, h2, half) is True


# -- file format ---------------------------------------------------------------


def test_format_parse_round_trip(h3, generic4):
    for arr in (h3, generic4, hyperpolygonal(5)):
        text = format_arrangement_text(arr)
        back = parse_arrangement_text(text)
        assert back == arr


def test_parse_accepts_comments_and_blanks():
    text = "# header\n\ndim 2\n1 0\n# middle\n0 1\n"
    arr = parse_arrangement_text(text)
    assert arr.covectors == ((1, 0), (0, 1))


def test_parse_drops_duplicates_in_time_linear_in_the_lines():
    """20,000 lines parse in well under two seconds; the duplicate check
    that searched a list took 7.6 s here.  Duplicates warn with their line
    and keep the first-seen order."""
    import time
    import warnings

    n = 20_000
    text = "dim 3\n" + "".join(f"1 {k} {k * k}\n" for k in range(n)) + "2 4 8\n-1 0 0\n0 0 7\n"
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        arr = parse_arrangement_text(text)
    assert time.perf_counter() - start < 2.0
    assert arr.covectors == tuple((1, k, k * k) for k in range(n)) + ((0, 0, 1),)
    assert [str(w.message) for w in caught] == [
        f"line {n + 2}: duplicate hyperplane (1, 2, 4) dropped",
        f"line {n + 3}: duplicate hyperplane (1, 0, 0) dropped",
    ]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match=r"line 3"):
        parse_arrangement_text("dim 2\n1 0\nbogus row\n")
    with pytest.raises(ParseError, match=r"line 2"):
        parse_arrangement_text("dim 2\n1 0 0\n")
    with pytest.raises(ParseError, match=r"line 1"):
        parse_arrangement_text("dimension 2\n1 0\n")
    with pytest.raises(ParseError):
        parse_arrangement_text("")


# -- package exports -----------------------------------------------------------


def test_star_import_exposes_certificate_replay_and_rank2_flats():
    namespace = {}
    exec("from hyperarr import *", namespace)
    assert set(hyperarr.__all__) <= namespace.keys()
    assert namespace["verify_free_certificate"].__name__ == "verify_free_certificate"
    assert namespace["rank2_flats"].__name__ == "rank2_flats"
    assert namespace["verify_motion_refutation"].__name__ == "verify_motion_refutation"
    assert namespace["MotionRefutation"].__name__ == "MotionRefutation"


def test_subset_and_delete_reject_out_of_range_indices_and_construction_checks():
    arr = hyperpolygonal(4)
    sub, deleted = arr.subset([5, 0, 3, 3]), arr.delete(2)
    assert sub == Arrangement(4, (arr.covectors[0], arr.covectors[3], arr.covectors[5]))
    assert deleted == Arrangement(4, arr.covectors[:2] + arr.covectors[3:])
    assert sub.rank == 3 and deleted.rank == 4 and len(deleted) == len(arr) - 1
    assert arr.subset([]) == Arrangement(4, ())
    with pytest.raises(ValueError, match="not canonical"):
        Arrangement(2, ((2, 0),))
    with pytest.raises(ValueError, match="duplicate"):
        Arrangement(2, ((1, 0), (1, 0)))
    with pytest.raises(ValueError, match="length"):
        Arrangement(2, ((1, 0, 0),))
    for bad in ([0, len(arr)], [-1], [-1, 2]):
        with pytest.raises(IndexError):
            arr.subset(bad)
    for bad in (len(arr), -1):
        with pytest.raises(IndexError):
            arr.delete(bad)


# -- hyperplane indices --------------------------------------------------------


INDEX_TAKERS = {
    "subset": lambda arr, i: arr.subset([0, i]),
    "delete": lambda arr, i: arr.delete(i),
    "restriction_to_hyperplane": restriction_to_hyperplane,
    "triple": triple,
    "line_closure": lambda arr, i: line_closure(arr, [0, i]),
    "is_lc_basis": lambda arr, i: is_lc_basis(arr, [i]),
    "gen_closure": lambda arr, i: gen_closure(arr, [0, 1, i]),
    "is_matroid_connected": lambda arr, i: is_matroid_connected(arr, [i, 0, 1]),
    "is_independent_partition": lambda arr, i: is_independent_partition(arr, ((0,), (i,))),
    "restriction": lambda arr, i: restriction(arr, Flat(0, 1, (i,), 2, -1)),
}


@pytest.mark.parametrize("bad", [-1, 7])
@pytest.mark.parametrize("name", INDEX_TAKERS)
def test_every_index_taker_rejects_an_index_outside_the_arrangement(name, bad):
    """-1 is not the last hyperplane and 7 is not a hyperplane of H_3: each
    raises the one IndexError of Arrangement.checked_indices."""
    with pytest.raises(IndexError, match=rf"^hyperplane index {bad} out of range 0\.\.6$"):
        INDEX_TAKERS[name](hyperpolygonal(3), bad)


def test_checked_indices_sorts_and_dedupes_and_names_the_extreme_bad_index():
    arr = hyperpolygonal(3)
    assert arr.checked_indices([3, 1, 3, 0]) == (0, 1, 3)
    assert arr.checked_indices(iter([6, 0])) == (0, 6)
    assert arr.checked_indices([]) == ()
    with pytest.raises(IndexError, match="hyperplane index -2 out of range 0..6"):
        arr.checked_indices([9, -1, -2])
    with pytest.raises(IndexError, match="hyperplane index 0 out of range 0..-1"):
        Arrangement(3, ()).checked_indices([0])
