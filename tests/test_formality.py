"""Tests for formality, line closure, generation closure, and uniqueness witnesses."""

import itertools

import pytest

from hyperarr import (
    MotionRefutation,
    boolean,
    canonicalize,
    formality,
    from_vectors,
    gen_closure,
    hyperpolygonal,
    is_formal,
    is_lc_basis,
    is_matroid_connected,
    line_closure,
    projective_uniqueness_witness,
    relation_space_dim,
    verify_motion_refutation,
)

import oracles


def natural_seed(n, size):
    return tuple(range(n - 1)) + (n, size - 1)


def test_relation_space_dim(h2, bool3, generic4):
    assert relation_space_dim(bool3) == 0
    assert relation_space_dim(h2) == 2
    assert relation_space_dim(generic4) == 1
    assert relation_space_dim(from_vectors(2, [(1, 0)])) == 0


def test_is_formal(h2, h3, h4, h5, h6, bool3, generic4):
    for arr in (h2, h3, h4, h5, h6, bool3, boolean(4)):
        assert is_formal(arr)
    assert not is_formal(generic4)


def test_line_closure_examples(h3):
    closure, rounds = line_closure(h3, (0, 1, 3))
    assert closure == tuple(range(7))
    assert rounds == ((4, 5), (2, 6))
    assert line_closure(h3, (2,))[0] == (2,)
    assert line_closure(h3, (0, 1, 2))[0] == (0, 1, 2)


def test_line_closure_operator_laws(h4):
    seeds = [(0,), (0, 1), (0, 1, 4), (2, 5, 7), (0, 1, 2, 4)]
    for seed in seeds:
        closure, _ = line_closure(h4, seed)
        assert set(seed) <= set(closure)
        again, _ = line_closure(h4, closure)
        assert again == closure
    small, _ = line_closure(h4, (0, 1))
    large, _ = line_closure(h4, (0, 1, 4))
    assert set(small) <= set(large)


def test_lc_basis(h2, h3, h4, h5):
    for n, arr in ((2, h2), (3, h3), (4, h4), (5, h5)):
        assert is_lc_basis(arr, tuple(range(n - 1)) + (n,))
    assert not is_lc_basis(h3, (0, 1))
    assert not is_lc_basis(h3, (0, 3, 4))
    assert not is_lc_basis(h3, (0, 1, 2))
    for bad in ((0, 1, -1), (0, 1, 7), (0, 99)):  # h3 has 7 hyperplanes
        with pytest.raises(IndexError):
            is_lc_basis(h3, bad)


def test_gen_closure_trivial_and_errors(h3):
    g = gen_closure(h3, range(7))
    assert g.generated == tuple(range(7)) and g.rounds == ()
    single = gen_closure(boolean(2), (0,))
    assert single.generated == (0,)
    with pytest.raises(IndexError):
        gen_closure(h3, (0, 99))


def test_gen_closure_natural_seed_coverage(h3, h4, h5):
    for n, arr in ((3, h3), (4, h4), (5, h5)):
        g = gen_closure(arr, natural_seed(n, len(arr)))
        assert g.generated == tuple(range(len(arr)))


def test_gen_closure_natural_seed_fails_in_rank_two(h2):
    g = gen_closure(h2, natural_seed(2, len(h2)))
    assert g.generated == (0, 2, 3)
    assert len(g.generated) < len(h2)


def test_gen_closure_round_trace(h3, h4):
    g3 = gen_closure(h3, (0, 1, 3, 6))
    assert g3.rounds == ((4, 5), (2,))
    g4 = gen_closure(h4, (0, 1, 2, 4, 11))
    assert g4.rounds == ((5, 6, 7, 8, 9, 10), (3,))


def test_gen_closure_idempotent_and_monotone(h4):
    g = gen_closure(h4, (0, 1, 2, 4, 11))
    again = gen_closure(h4, g.generated)
    assert again.generated == g.generated and again.rounds == ()
    assert set(g.seed) <= set(g.generated)


def test_sign_sum_members_from_construction_forms():
    for n in range(2, 8):
        arr = hyperpolygonal(n)
        m = len(arr)
        alpha = arr.covectors[n]
        beta = arr.covectors[m - 1]
        coords = [arr.covectors[i] for i in range(n - 1)]
        produced = set()
        for mask in range(1 << (n - 1)):
            members = [i for i in range(n - 1) if mask >> i & 1]
            via_alpha = tuple(
                -a + 2 * sum(coords[i][t] for i in members) for t, a in enumerate(alpha)
            )
            rest = [j for j in range(n - 1) if j not in members]
            via_beta = tuple(
                b - 2 * sum(coords[j][t] for j in rest) for t, b in enumerate(beta)
            )
            assert via_alpha == via_beta
            produced.add(canonicalize(via_alpha))
        assert produced == set(arr.covectors[n:])


def test_matroid_connected(h2, h3, h4, bool3, generic4):
    for arr in (h2, h3, h4, generic4):
        assert is_matroid_connected(arr, range(len(arr)))
    assert not is_matroid_connected(bool3, range(3))
    assert not is_matroid_connected(h3, (0, 1))
    with pytest.raises(IndexError, match="hyperplane index -1 out of range"):
        is_matroid_connected(h3, [-1, 0, 1])


def test_projective_uniqueness_witness(h2, h3, h4, bool3):
    st3, w3 = projective_uniqueness_witness(h3)
    assert st3 is True and w3.indices == (0, 1, 3, 6)
    assert w3.closure.generated == tuple(range(len(h3)))
    st4, w4 = projective_uniqueness_witness(h4)
    assert st4 is True and w4.indices == (0, 1, 2, 4, 11)
    assert len(w4.indices) == 5
    st2, ref2 = projective_uniqueness_witness(h2)
    assert st2 is False and isinstance(ref2, MotionRefutation)
    assert verify_motion_refutation(h2, ref2)
    assert projective_uniqueness_witness(bool3) == (False, None)


def test_projective_uniqueness_witness_input_contract():
    with pytest.raises(ValueError):
        projective_uniqueness_witness(from_vectors(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)]))
    with pytest.raises(ValueError):
        projective_uniqueness_witness(
            from_vectors(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
        )


def test_witness_scan_pins_no_sub_lattices(rigid7):
    from hyperarr import lattice

    # an essential irreducible 8-hyperplane arrangement in dimension 4 with no
    # witness: the motion search refutes it from the ambient lattice
    moved = from_vectors(4, [
        (0, 2, 0, 1), (1, 1, -2, 2), (1, 0, 2, -1), (2, 0, -1, 2),
        (2, 1, 0, 1), (1, 1, 2, -2), (2, 1, -2, 0), (0, 1, -2, -2),
    ])
    before = set(lattice._universe_cache)
    status, ref = projective_uniqueness_witness(moved)
    assert status is False and verify_motion_refutation(moved, ref)
    assert set(lattice._universe_cache) - before <= {moved}
    # every dim L_h is 1, so the scan runs gen_closure on every connected
    # candidate, finds no witness and leaves the question open
    before = set(lattice._universe_cache)
    assert projective_uniqueness_witness(rigid7) == ("undecided", None)
    assert set(lattice._universe_cache) - before <= {rigid7}


# -- motion refutations --------------------------------------------------------------


def _uniqueness_pool(count, seed):
    """Seeded random arrangements the witness routine accepts: essential,
    irreducible, with at least rank + 1 hyperplanes (at most 8)."""
    arrs = [from_vectors(d, covs) for d, covs in
            oracles.random_arrangements(count, seed=seed, max_dim=4, max_size=8)]
    return [arr for arr in arrs if arr.is_essential and len(arr) > arr.rank
            and is_matroid_connected(arr, range(len(arr)))]


def test_motion_refutations_replay_and_keep_the_brute_flats(h2):
    from hyperarr.lattice import bit_indices, universe

    found = 0
    for arr in [h2] + _uniqueness_pool(40, seed=83):
        status, ref = projective_uniqueness_witness(arr)
        if not isinstance(ref, MotionRefutation):
            continue
        assert status is False and verify_motion_refutation(arr, ref)
        moved = list(arr.covectors)
        moved[ref.hyperplane] = ref.covector
        flats = {frozenset(bit_indices(b)) for b in universe(arr).bits}
        assert oracles.brute_flat_sets(moved) == flats
        found += 1
    assert found >= 18


def _scan_witness(arr):
    """The first connected full-rank (rank+1)-subset whose generation
    closure covers the arrangement, by trying every one."""
    r = arr.rank
    for S in itertools.combinations(range(len(arr)), r + 1):
        if oracles.frac_rank([arr.covectors[i] for i in S]) != r:
            continue
        if is_matroid_connected(arr, S) and len(gen_closure(arr, S).generated) == len(arr):
            return S
    return None


def test_scan_finds_no_witness_where_a_motion_exists(h2, h3, generic4, rigid7):
    from hyperarr.formality import _motion_search

    seen = {"refuted": 0, "witnessed": 0, "neither": 0}
    for arr in [h2, h3, generic4, rigid7] + _uniqueness_pool(60, seed=89):
        ref = _motion_search(arr)
        wit = _scan_witness(arr)
        assert ref is None or wit is None, (arr, ref, wit)
        seen["refuted" if ref else "witnessed" if wit else "neither"] += 1
    assert seen["refuted"] >= 25 and seen["witnessed"] >= 5 and seen["neither"] >= 1


def test_verify_motion_refutation_rejects(h2, h3, generic4):
    assert verify_motion_refutation(h2, MotionRefutation(0, (1, 2)))
    # unmoved, onto another hyperplane, a multiple of one, zero, wrong length,
    # not canonical, not integers
    for c in ((1, 0), (1, 1), (2, 2), (0, 0), (1, 2, 0), (-1, -2), (1.0, 2.0)):
        assert not verify_motion_refutation(h2, MotionRefutation(0, c))
    for h in (-1, 4, "0", None, False):
        assert not verify_motion_refutation(h2, MotionRefutation(h, (1, 2)))
    # bools are not integers here, as entries or as the index
    assert not verify_motion_refutation(h2, MotionRefutation(0, (True, 2)))
    for junk in (None, (0, (1, 2)), MotionRefutation(0, None), MotionRefutation(0, 5)):
        assert not verify_motion_refutation(h2, junk)

    def same_flats(arr, h, c):
        moved = arr.covectors[:h] + (c,) + arr.covectors[h + 1:]
        return oracles.brute_flat_sets(moved) == oracles.brute_flat_sets(arr.covectors)

    # a move that changes the lattice, with a rest that spans and is connected
    assert not same_flats(h3, 0, (1, 2, 5))
    assert not verify_motion_refutation(h3, MotionRefutation(0, (1, 2, 5)))
    # the lattice is kept, but the other three planes are a disconnected frame
    assert same_flats(generic4, 3, (1, 2, 3))
    assert not verify_motion_refutation(generic4, MotionRefutation(3, (1, 2, 3)))
    assert projective_uniqueness_witness(generic4)[0] is True
    # the lattice is kept, but the rest does not span
    pencil = from_vectors(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    assert same_flats(pencil, 3, (1, 2, 3))
    assert not verify_motion_refutation(pencil, MotionRefutation(3, (1, 2, 3)))


def _moved_lattice_keeps_flats(arr, h, c):
    """Reference move check: build the lattice of the moved arrangement and
    compare its flat sets with those of arr."""
    from hyperarr import Arrangement
    from hyperarr.lattice import Universe, universe

    if c in arr.covectors:
        return False
    moved = Arrangement(arr.dim, arr.covectors[:h] + (c,) + arr.covectors[h + 1:])
    return set(Universe(moved).bits) == set(universe(arr).bits)


def _candidate_moves(arr, rng):
    """(h, canonical c) moves of arr: the refutation the motion search finds
    and other points on its line, random and perturbed covectors, and the
    covector of another hyperplane."""
    d, m = arr.dim, len(arr)
    moves = []
    ref = formality._motion_search(arr)
    if ref is not None:
        ch = arr.covectors[ref.hyperplane]
        for t in (1, -2, -1, 2, 3):
            moves.append((ref.hyperplane, [a + t * (b - a) for a, b in zip(ch, ref.covector)]))
    for h, ch in enumerate(arr.covectors):
        moves.append((h, arr.covectors[(h + 1) % m]))
        for _ in range(2):
            moves.append((h, [rng.randint(-3, 3) for _ in range(d)]))
            moves.append((h, [x + rng.randint(-1, 1) for x in ch]))
    return [(h, canonicalize(c)) for h, c in moves if any(c)]


def _spans_with_free_h(arr, h, c):
    """Some flat X holds h, X minus h is a flat, and c lies in the span of X:
    the case in which the move check requires nothing of X."""
    from hyperarr.lattice import bit_indices, universe

    uni = universe(arr)
    flats = set(uni.bits)
    for bf in uni.bits:
        if bf >> h & 1 and bf ^ (1 << h) in flats:
            covs = [arr.covectors[i] for i in bit_indices(bf)]
            if oracles.frac_rank(covs + [c]) == oracles.frac_rank(covs):
                return True
    return False


def test_move_check_matches_the_moved_lattice(h2, h3, h4):
    import random

    from hyperarr.lattice import bit_indices, universe

    rng = random.Random(2020)
    seen = {"kept": 0, "changed": 0, "free_h_in_span": 0, "brute": 0}
    for n, arr in enumerate([h2, h3, h4] + _uniqueness_pool(40, seed=97)):
        flats = {frozenset(bit_indices(b)) for b in universe(arr).bits}
        # one move per input against the subset sweep, of either outcome in turn
        brute_wanted = n % 2 == 0 if len(arr) <= 8 else None
        for h, c in _candidate_moves(arr, rng):
            kept = formality._moves_within_lattice(arr, h, c)
            assert kept == _moved_lattice_keeps_flats(arr, h, c), (arr, h, c)
            if kept is brute_wanted and c not in arr.covectors:
                moved = arr.covectors[:h] + (c,) + arr.covectors[h + 1:]
                assert (oracles.brute_flat_sets(moved) == flats) == kept, (arr, h, c)
                brute_wanted = None
                seen["brute"] += 1
            seen["kept" if kept else "changed"] += 1
            seen["free_h_in_span"] += kept and _spans_with_free_h(arr, h, c)
    assert seen["kept"] >= 200 and seen["changed"] >= 500 and seen["brute"] >= 20
    # a check that also asked c to leave the span of such an X would fail here
    assert seen["free_h_in_span"] >= 20


def test_motion_check_builds_no_second_lattice(monkeypatch, h2):
    from hyperarr.lattice import Universe, universe

    pool = [h2] + _uniqueness_pool(40, seed=83)
    for arr in pool:
        universe(arr)
    built = []
    real_init = Universe.__init__

    def counting(self, arr, up_to_rank=None):
        built.append(arr)
        real_init(self, arr, up_to_rank)

    monkeypatch.setattr(Universe, "__init__", counting)
    refuted = 0
    for arr in pool:
        ref = formality._motion_search(arr)
        if ref is not None:
            assert verify_motion_refutation(arr, ref)
            refuted += 1
    assert built == [] and refuted >= 18


def test_natural_seed_runs_first_and_once(monkeypatch, h2, h3, h4, h5):
    from hyperarr import formality

    def refuse(arr):
        raise AssertionError("the motion search ran before the natural seed")

    monkeypatch.setattr(formality, "_motion_search", refuse)
    for arr in (h3, h4, h5):
        assert projective_uniqueness_witness(arr)[0] is True
    # with no motion the scan runs, and it does not retry the natural seed
    monkeypatch.setattr(formality, "_motion_search", lambda arr: None)
    seeds = []
    real = formality.gen_closure

    def recording(arr, seed, *args, **kwargs):
        seeds.append(tuple(seed))
        return real(arr, seed, *args, **kwargs)

    monkeypatch.setattr(formality, "gen_closure", recording)
    assert projective_uniqueness_witness(h2) == ("undecided", None)
    assert seeds[0] == (0, 2, 3)
    assert sorted(seeds) == list(itertools.combinations(range(4), 3))


def _kernel_circuit(arr, basis, extra):
    """The previous route: the support of the one primitive kernel vector of
    the covectors of basis + extra."""
    from hyperarr.exactlinalg import primitive_kernel_basis

    rows = [arr.covectors[i] for i in basis] + [arr.covectors[extra]]
    transposed = [tuple(r[t] for r in rows) for t in range(arr.dim)]
    kernel = primitive_kernel_basis(transposed, len(rows))
    if len(kernel) != 1:
        raise ValueError("extra hyperplane is not spanned by the basis")
    idx = list(basis) + [extra]
    return tuple(sorted(idx[t] for t in range(len(idx)) if kernel[0][t]))


def test_fundamental_circuit_matches_kernel_route():
    """The relations of basis + extra from the augmented echelon are one row
    whose support is the circuit of the kernel route; otherwise their count
    is not one, and rank plus relations is the number of elements.  On a
    whole shuffled arrangement, the relation rows are the kernel circuits of
    the dependent elements with respect to the greedy basis, in order."""
    import random

    from hyperarr.formality import _relations

    def supports(idx):
        rank, relations = _relations(arr, idx)
        assert rank == oracles.frac_rank([arr.covectors[i] for i in idx])
        assert rank + len(relations) == len(idx)
        return [tuple(sorted(idx[t] for t, x in enumerate(lam) if x)) for lam in relations]

    def both(basis, extra):
        got = supports(basis + [extra])
        try:
            want = _kernel_circuit(arr, basis, extra)
        except ValueError:
            assert len(got) != 1
            return None
        assert got == [want]
        return want

    rng = random.Random(7)
    arrs = [from_vectors(d, covs) for d, covs in
            oracles.random_arrangements(60, seed=97, max_dim=5, max_size=10)]
    arrs += [hyperpolygonal(n) for n in range(2, 6)]
    circuits = raised = 0
    for arr in arrs:
        order = list(range(len(arr)))
        rng.shuffle(order)
        basis, others = [], []
        for i in order:
            grown = basis + [i]
            (basis if oracles.frac_rank([arr.covectors[j] for j in grown]) == len(grown)
             else others).append(i)
        assert supports(order) == [_kernel_circuit(arr, basis, e) for e in others]
        for e in others:
            circuits += both(basis, e) is not None
        if basis[1:]:  # a hyperplane outside the span of the rest of the basis
            raised += both(basis[1:], basis[0]) is None
        if len(others) >= 2:  # a dependent "basis": two relations
            raised += both(basis + others[:1], others[1]) is None
    assert circuits >= 150 and raised >= 75


def _kernel_route_connected(arr, subset):
    """Matroid connectivity by the kernel route: a greedy Fraction basis,
    the kernel circuit of each other element, and a union-find over them."""
    subset = sorted(set(subset))
    basis, others = [], []
    for i in subset:
        grown = basis + [i]
        (basis if oracles.frac_rank([arr.covectors[j] for j in grown]) == len(grown)
         else others).append(i)
    parent = {i: i for i in subset}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for e in others:
        for b in _kernel_circuit(arr, basis, e):
            parent[find(b)] = find(e)
    return len({find(i) for i in subset}) <= 1


def test_matroid_connectivity_matches_the_kernel_route_oracle():
    """is_matroid_connected and the rank behind rigidity agree with a
    kernel-route union-find on random (arrangement, subset) pairs, empty,
    singleton and coloop subsets among them."""
    import random

    from hyperarr.formality import _rank_and_connected

    rng = random.Random(19)
    arrs = [from_vectors(d, covs) for d, covs in
            oracles.random_arrangements(120, seed=1901, max_dim=5, max_size=10)]
    arrs += [hyperpolygonal(n) for n in range(2, 6)]
    # a direct sum of two rank-2 pieces: disconnected subsets with no coloop
    arrs += [from_vectors(4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (1, -1, 0, 0),
                              (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1), (0, 0, 1, 2)])] * 8
    seen = {"empty": 0, "singleton": 0, "coloop": 0, "connected": 0, "split": 0}
    pairs = 0
    for arr in arrs:
        m = len(arr)
        subsets = [(), (rng.randrange(m),)]
        subsets += [rng.sample(range(m), rng.randint(2, m)) for _ in range(16)] if m >= 2 else []
        for subset in subsets:
            want = _kernel_route_connected(arr, subset)
            rank, connected = _rank_and_connected(arr, sorted(set(subset)))
            assert is_matroid_connected(arr, subset) == connected == want
            assert rank == oracles.frac_rank([arr.covectors[i] for i in subset])
            pairs += 1
            seen["empty"] += not subset
            seen["singleton"] += len(subset) == 1
            coloop = len(subset) >= 2 and any(
                oracles.frac_rank([arr.covectors[j] for j in subset if j != i]) < rank for i in subset
            )
            seen["coloop"] += coloop
            seen["connected"] += len(subset) >= 2 and want
            seen["split"] += not (want or coloop)
    assert pairs >= 2000
    assert min(seen.values()) >= 20, seen


def _kernel_route_is_formal(arr):
    """The previous formality route: the transposed primitive kernel of each
    line with three or more hyperplanes, stacked."""
    from hyperarr.exactlinalg import IntEchelon, primitive_kernel_basis

    ech = IntEchelon(len(arr))
    for members in formality.rank2_flats(arr):
        cols = [arr.covectors[k] for k in members]
        transposed = [tuple(c[t] for c in cols) for t in range(arr.dim)]
        for lam in primitive_kernel_basis(transposed, len(members)):
            vec = [0] * len(arr)
            for k, x in zip(members, lam):
                vec[k] = x
            ech.add(vec)
    return ech.rank == relation_space_dim(arr)


def test_is_formal_matches_the_kernel_route():
    arrs = [from_vectors(d, covs) for d, covs in
            oracles.random_arrangements(150, seed=1907, max_dim=5, max_size=11)]
    arrs += [hyperpolygonal(n) for n in range(1, 6)]
    verdicts = [is_formal(arr) for arr in arrs]
    assert verdicts == [_kernel_route_is_formal(arr) for arr in arrs]
    assert 20 <= sum(verdicts) <= len(arrs) - 20


# -- differential check of the exact generation step ---------------------------------


def _frac_kernel(rows, n):
    """A basis of {v : r . v = 0 for every row} by Fraction elimination; the
    identity when there are no rows."""
    from fractions import Fraction

    red = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(n):
        piv = next((i for i in range(len(pivots), len(red)) if red[i][c]), None)
        if piv is None:
            continue
        top = len(pivots)
        red[top], red[piv] = red[piv], red[top]
        red[top] = [x / red[top][c] for x in red[top]]
        for i in range(len(red)):
            f = red[i][c]
            if i != top and f:
                red[i] = [a - f * b for a, b in zip(red[i], red[top])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(int(t == free)) for t in range(n)]
        for row, p in zip(red, pivots):
            v[p] = -row[free]
        basis.append(v)
    return basis


def _fraction_spans_exact(arr, current, h):
    """The previous exact step: Fraction kernels of every sub-lattice flat,
    keeping those orthogonal to h, then the rank of their union."""
    from hyperarr import build_lattice

    sub = arr.subset(current)
    vectors = []
    for flat in build_lattice(sub).flats():
        basis = _frac_kernel([sub.covectors[i] for i in flat.contains], arr.dim)
        if all(sum(x * y for x, y in zip(arr.covectors[h], row)) == 0 for row in basis):
            vectors.extend(basis)
    return oracles.frac_rank(vectors) == arr.dim - 1


def _reference_gen_closure(arr, seed):
    current = set(seed)
    rounds = []
    while True:
        entered = [
            h for h in range(len(arr))
            if h not in current and _fraction_spans_exact(arr, sorted(current), h)
        ]
        if not entered:
            return tuple(sorted(current)), tuple(rounds)
        rounds.append(tuple(entered))
        current |= set(entered)


def test_gen_closure_matches_fraction_reference():
    import random

    rng = random.Random(11)
    cases = []
    for d, covs in oracles.random_arrangements(30, seed=47, max_size=8):
        arr = from_vectors(d, covs)
        for _ in range(2):
            cases.append((arr, tuple(rng.sample(range(len(arr)), min(len(arr), arr.rank + 1)))))
    for n in range(2, 6):
        arr = hyperpolygonal(n)
        cases.append((arr, natural_seed(n, len(arr))))
        if n in (3, 4):
            cases.append((arr, tuple(range(n + 1))))
            for _ in range(4):
                cases.append((arr, tuple(sorted(rng.sample(range(len(arr)), n + 1)))))
    grew = 0
    for arr, seed in cases:
        g = gen_closure(arr, seed)
        assert (g.generated, g.rounds) == _reference_gen_closure(arr, seed)
        grew += bool(g.rounds)
    assert grew >= 5  # the comparison must include closures that add hyperplanes


# -- differential check of the rank-2 queries against the pairwise span scans -------


def _pair_echelon(arr, i, j):
    from hyperarr.exactlinalg import IntEchelon

    ech = IntEchelon(arr.dim)
    ech.add(arr.covectors[i])
    ech.add(arr.covectors[j])
    return ech


def _scan_rank2_flats(arr):
    """The previous rank2_flats: the span of every pair, first-seen order."""
    m = len(arr)
    out, done = [], set()
    for i in range(m):
        for j in range(i + 1, m):
            if (i, j) in done:
                continue
            ech = _pair_echelon(arr, i, j)
            members = tuple(k for k in range(m) if ech.contains(arr.covectors[k]))
            done.update(itertools.combinations(members, 2))
            if members not in out:
                out.append(members)
    return out


def _scan_line_closure(arr, seed):
    """The previous line_closure: every pair's span, recomputed per round."""
    current = set(seed)
    rounds = []
    while True:
        new = set()
        for i, j in itertools.combinations(sorted(current), 2):
            ech = _pair_echelon(arr, i, j)
            new.update(
                k for k in range(len(arr))
                if k not in current and ech.contains(arr.covectors[k])
            )
        if not new:
            return tuple(sorted(current)), tuple(rounds)
        rounds.append(tuple(sorted(new)))
        current |= new


def _scan_has_overfull_line(arr, members):
    """The previous uniformity scan: a pair whose span holds a third member."""
    for i, j in itertools.combinations(members, 2):
        ech = _pair_echelon(arr, i, j)
        if any(k not in (i, j) and ech.contains(arr.covectors[k]) for k in members):
            return True
    return False


def _scan_is_generic(arr):
    from hyperarr.exactlinalg import rank_of

    m, r = len(arr), arr.rank
    if m <= r:
        return False
    if r >= 3 and _scan_has_overfull_line(arr, range(m)):
        return False
    return all(rank_of(s, arr.dim) == r for s in itertools.combinations(arr.covectors, r))


def _scan_generic_rank3_localization(arr):
    """(index, contains, mobius) of the first rank-3 flat with >= 4 members
    and no overfull line among them, by the previous pairwise scan."""
    from hyperarr.lattice import bit_indices, universe

    if arr.rank < 3:
        return None
    uni = universe(arr, up_to_rank=3)
    for f in uni.by_rank[3]:
        members = bit_indices(uni.bits[f])
        if len(members) >= 4 and not _scan_has_overfull_line(arr, members):
            loc = universe(arr.subset(members))
            order, mob = loc.node_mobius(0, (1 << len(members)) - 1)
            top = max(range(len(order)), key=lambda i: loc.rank[order[i]])
            return f, members, mob[top]
    return None


def _scan_spans_pairwise(arr, current, h):
    """The previous sound shortcut: kernels of current pairs whose span holds h."""
    from hyperarr.exactlinalg import IntEchelon, primitive_kernel_basis

    ech = IntEchelon(arr.dim)
    for i, j in itertools.combinations(current, 2):
        if _pair_echelon(arr, i, j).contains(arr.covectors[h]):
            for v in primitive_kernel_basis([arr.covectors[i], arr.covectors[j]], arr.dim):
                ech.add(v)
    return ech.rank == arr.dim - 1


def _full_sublattice_spans(uni, ch):
    """The previous exact step: walk every flat of the full sub-lattice uni
    of the current hyperplanes, and keep those inside the hyperplane with the
    ambient normal ch; they span it when their bases reach rank r - 1."""
    from operator import mul

    from hyperarr.exactlinalg import IntEchelon

    local = uni.coordinates(ch)
    if local is None:
        return uni.dim == 1
    r = uni.arr_rank
    ech = IntEchelon(r)
    for f in range(uni.flat_count()):
        kernel = uni.flat_kernel(f)
        if any(sum(map(mul, local, k)) for k in kernel):
            continue
        for v in kernel:
            ech.add(v)
    return ech.rank == r - 1


def _scan_gen_closure(arr, seed):
    """Generation closure with every round decided on a full Universe of the
    current set by _full_sublattice_spans."""
    from hyperarr.lattice import Universe

    current, rounds = set(seed), []
    while len(current) < len(arr):
        sub = Universe(arr.subset(sorted(current)))
        entered = [
            h for h in range(len(arr))
            if h not in current and _full_sublattice_spans(sub, arr.covectors[h])
        ]
        if not entered:
            break
        rounds.append(tuple(entered))
        current |= set(entered)
    return tuple(sorted(current)), tuple(rounds)


def test_rank2_queries_match_pairwise_scans(generic4):
    import random

    from hyperarr import find_generic_rank3_localization, is_generic, rank2_flats
    from hyperarr.formality import _holds_two_current_lines
    from hyperarr.lattice import mask_of, universe

    rng = random.Random(5)
    arrs = [from_vectors(d, covs) for d, covs in oracles.random_arrangements(16, seed=61)]
    arrs += [generic4, from_vectors(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)])]
    # one overfull line, and it is the first line below the centre
    arrs.append(from_vectors(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]))
    arrs += [hyperpolygonal(n) for n in range(1, 7)]
    seen = {"grew": 0, "generic": 0, "localization": 0, "certified": 0, "missed": 0}
    for arr in arrs:
        m = len(arr)
        lines = rank2_flats(arr)
        assert lines == _scan_rank2_flats(arr)
        if m <= 8:
            oracle = {
                tuple(sorted(s)) for s in oracles.brute_flat_sets(arr.covectors)
                if oracles.frac_rank([arr.covectors[i] for i in s]) == 2
            }
            assert set(lines) == oracle and len(lines) == len(oracle)
        for _ in range(3):
            seed = rng.sample(range(m), rng.randint(1, min(m, arr.rank + 1)))
            closure = line_closure(arr, seed)
            assert closure == _scan_line_closure(arr, seed)
            seen["grew"] += bool(closure[1])
        generic = is_generic(arr)
        assert generic == _scan_is_generic(arr)
        seen["generic"] += generic
        flat = find_generic_rank3_localization(arr)
        got = None if flat is None else (flat.index, flat.contains, flat.mobius)
        assert got == _scan_generic_rank3_localization(arr)
        seen["localization"] += flat is not None
        if m > 30:
            continue  # H_6: the two-line step itself is checked below
        for _ in range(2):
            seed = tuple(sorted(rng.sample(range(m), min(m, arr.rank + 1))))
            g = gen_closure(arr, seed)
            assert (g.generated, g.rounds) == _scan_gen_closure(arr, seed)
    for arr in arrs:
        m = len(arr)
        if m < 3:
            continue
        master = universe(arr, up_to_rank=2)
        for _ in range(4 if m <= 30 else 12):
            current = sorted(rng.sample(range(m), rng.randint(2, m - 1)))
            for h in range(m):
                if h in current:
                    continue
                ok = _holds_two_current_lines(master, mask_of(current), h)
                assert ok == _scan_spans_pairwise(arr, current, h)
                seen["certified" if ok else "missed"] += 1
    # generic inputs of rank 4 and 5 (points of the moment curve), and
    # inputs whose first overfull flat has rank 3 or 4, with no overfull line
    moments = [from_vectors(d, [tuple(t**i for i in range(d)) for t in range(1, 8)]) for d in (4, 5)]
    deep = [
        from_vectors(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0), (0, 0, 0, 1), (1, 2, 3, 4)]),
        from_vectors(5, [tuple(t**i for i in range(4)) + (0,) for t in range(1, 6)]
                     + [(0, 0, 0, 0, 1), (1, 2, 3, 4, 5)]),
    ]
    for arr in moments + deep:
        assert all(len(line) == 2 for line in rank2_flats(arr))
        generic = is_generic(arr)
        assert generic == _scan_is_generic(arr) == (arr in moments)
        seen["generic"] += generic
    # every branch must be exercised in both directions
    assert seen["grew"] >= 10 and seen["generic"] >= 4 and seen["localization"] >= 3
    assert seen["certified"] >= 20 and seen["missed"] >= 20


def _dense_inputs(count, seed):
    """count inputs of 19-26 distinct covectors with entries in [-2, 2], in
    dimension 3 or 4, each with three random seeds of rank + 1 to m - 1
    hyperplanes."""
    import random

    rng = random.Random(seed)
    pools = {
        d: sorted({canonicalize(v) for v in itertools.product(range(-2, 3), repeat=d) if any(v)})
        for d in (3, 4)
    }
    out = []
    for _ in range(count):
        d = rng.choice((3, 4))
        arr = from_vectors(d, rng.sample(pools[d], rng.randint(19, 26)))
        m = len(arr)
        seeds = [tuple(sorted(rng.sample(range(m), rng.randint(arr.rank + 1, m - 1)))) for _ in range(3)]
        out.append((arr, seeds))
    return out


def test_gen_closure_matches_the_full_sub_lattice_on_dense_inputs():
    """Current sets grow past 18 hyperplanes here, and every round must
    match the walk of the full sub-lattice."""
    seen = {"grew": 0, "large": 0, "covered": 0}
    for arr, seeds in _dense_inputs(20, 2323) + _dense_inputs(20, 4747):
        for seed in seeds:
            g = gen_closure(arr, seed)
            assert (g.generated, g.rounds) == _scan_gen_closure(arr, seed)
            seen["grew"] += bool(g.rounds)
            sizes = itertools.accumulate(map(len, g.rounds), initial=len(seed))
            seen["large"] += any(18 < n < len(arr) for n in sizes)  # a round over > 18 current
            seen["covered"] += len(g.generated) == len(arr)
    assert seen["grew"] >= 80 and seen["large"] >= 30 and seen["covered"] >= 60


DENSE25 = [
    (0, 0, 1, 2), (0, 1, -1, -1), (0, 1, 2, 0), (0, 2, 1, -1), (1, -1, -1, -1),
    (1, -1, 0, 1), (1, -1, 1, -1), (1, -1, 1, 2), (1, 0, -2, 1), (1, 0, -1, 0),
    (1, 0, -1, 1), (1, 0, 0, -1), (1, 0, 0, 1), (1, 1, -1, 2), (1, 1, 0, -2),
    (1, 1, 1, 0), (1, 1, 1, 1), (1, 1, 2, 2), (1, 2, -1, 2), (2, -2, -1, -1),
    (2, -1, -2, -1), (2, -1, 1, -2), (2, 0, 1, 1), (2, 1, -1, -2), (2, 1, 0, 0),
]


def test_gen_closure_pins_two_closures_of_a_dense_input():
    """Both seeds reach rounds over more than 18 current hyperplanes in which
    the lines through some hyperplane do not span it; both generate all 25,
    and the witness scan takes the second seed."""
    import time

    arr = from_vectors(4, DENSE25)
    assert arr.covectors == tuple(DENSE25)
    g = gen_closure(arr, (0, 2, 3, 9, 20))
    assert g.generated == tuple(range(25))
    assert g.rounds == (
        (1, 23, 24), (22,), (4, 5, 14, 15, 17), (11, 12), (7, 8, 10, 13, 16, 18, 19, 21), (6,),
    )
    g = gen_closure(arr, (0, 1, 2, 4, 15))
    assert g.generated == tuple(range(25)) and len(g.rounds) == 6
    start = time.perf_counter()
    status, wit = projective_uniqueness_witness(arr)
    assert time.perf_counter() - start < 1.0
    assert status is True and wit.indices == (0, 1, 2, 4, 15)


def test_gen_closure_grows_one_sub_lattice_only_as_far_as_needed(monkeypatch, h6):
    """With the master built to rank 3, as the ladder leaves it, the natural
    seed of H_6 builds only its own 7-hyperplane sub-lattice, up to rank 5
    of 6; the second round is settled by two current lines, with no build."""
    from hyperarr import lattice
    from hyperarr.lattice import universe

    universe(h6, up_to_rank=3)
    made = []
    real = lattice.Universe.__init__

    def init(self, arr, up_to_rank=None):
        real(self, arr, up_to_rank)
        made.append((len(arr), self))

    monkeypatch.setattr(lattice.Universe, "__init__", init)
    g = gen_closure(h6, natural_seed(6, len(h6)))
    assert g.generated == tuple(range(len(h6))) and len(g.rounds) == 2
    assert [(size, uni.built_to) for size, uni in made] == [(7, 5)]


def test_gen_closure_admits_hyperplanes_to_a_current_set_that_does_not_span():
    from hyperarr.formality import _spans_hyperplane
    from hyperarr.lattice import universe

    # x1, x2, x3, x1+x2+x3, x1+x2, x4, x1+x3 in dim 4; the seed has rank 3.
    # x1+x2 holds the points {x1, x2} and {x3, x1+x2+x3} of the seed's plane,
    # x1+x3 the points {x1, x3} and {x2, x1+x2+x3}
    arr = from_vectors(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0),
                           (1, 1, 0, 0), (0, 0, 0, 1), (1, 0, 1, 0)])
    seed = (0, 1, 2, 3)
    sub = universe(arr.subset(seed))
    assert sub.arr_rank == 3 and len(sub.flat_kernel(0)[0]) == 3
    gc = gen_closure(arr, seed)
    assert gc.rounds == ((4, 6),) and gc.generated == (0, 1, 2, 3, 4, 6)
    # x4 does not vanish on the seed's centre, so no flat of the seed lies in it
    assert sub.coordinates(arr.covectors[5]) is None
    assert not _spans_hyperplane(sub, arr.covectors[5])
    assert sub.coordinates(arr.covectors[4]) == (1, 1, 0)
    # in dimension 1 the hyperplane is the point 0, which the empty set spans
    assert gen_closure(from_vectors(1, [(1,)]), ()).generated == (0,)


def test_motion_search_checks_each_rest_once(monkeypatch):
    from collections import Counter

    from hyperarr import formality

    rigid_calls, tries = Counter(), Counter()
    real_rigid, real_move = formality._rest_is_rigid, formality._moves_within_lattice

    def rigid(arr, h):
        rigid_calls[h] += 1
        return real_rigid(arr, h)

    def move(arr, h, c):
        tries[h] += 1
        return real_move(arr, h, c)

    monkeypatch.setattr(formality, "_rest_is_rigid", rigid)
    monkeypatch.setattr(formality, "_moves_within_lattice", move)
    pool = [hyperpolygonal(2)]
    for d, covs in oracles.random_arrangements(60, seed=7, max_dim=4, max_size=8):
        arr = from_vectors(d, covs)
        if arr.is_essential and len(arr) > d and is_matroid_connected(arr, range(len(arr))):
            pool.append(arr)
    refuted = 0
    for arr in pool:
        rigid_calls.clear()
        tries.clear()
        ref = formality._motion_search(arr)
        assert all(count == 1 for count in rigid_calls.values())
        assert all(rigid_calls[h] == 1 for h in tries)
        # the t that would give the moved hyperplane a new flat are skipped
        # before the move check, so every tried hyperplane gets one
        assert all(count == 1 for count in tries.values())
        if ref is not None:
            refuted += 1
            assert verify_motion_refutation(arr, ref)
    assert refuted >= 20
