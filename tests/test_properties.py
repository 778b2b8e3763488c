"""Randomized cross-checks: closure laws, recurrences, symmetry, ladder sanity."""

from hyperarr import (
    analyze,
    build_lattice,
    chi,
    enumerate_regions,
    from_vectors,
    gen_closure,
    line_closure,
    triple,
    zeta_polynomial,
)
from oracles import subtract


def test_mobius_alternation_on_random_pool(random_pool):
    assert len(random_pool) == 100
    for dim, covs in random_pool:
        arr = from_vectors(dim, covs)
        for flat in build_lattice(arr).flats():
            assert (-1) ** flat.rank * flat.mobius > 0


def test_deletion_restriction_recurrence_on_random_pool(random_pool):
    for dim, covs in random_pool:
        arr = from_vectors(dim, covs)
        if len(arr) < 2:
            continue
        for i in range(len(arr)):
            whole, deleted, restricted = triple(arr, i)
            assert whole is arr
            assert chi(arr) == subtract(chi(deleted), chi(restricted))


def test_line_closure_laws_on_random_pool(random_pool, h4):
    cases = [from_vectors(d, c) for d, c in random_pool[:25]] + [h4]
    for arr in cases:
        m = len(arr)
        seeds = [(0,), tuple(range(min(2, m))), tuple(range(m // 2 or 1))]
        for seed in seeds:
            closed, _ = line_closure(arr, seed)
            assert set(seed) <= set(closed) <= set(range(m))
            assert line_closure(arr, closed)[0] == closed
        small, _ = line_closure(arr, seeds[0])
        large, _ = line_closure(arr, seeds[2])
        frozen = set(small) | set(seeds[2])
        grown, _ = line_closure(arr, sorted(frozen))
        assert set(large) <= set(grown)


def test_gen_closure_laws_on_random_pool(random_pool, h3):
    cases = [from_vectors(d, c) for d, c in random_pool[:25]] + [h3]
    for arr in cases:
        m = len(arr)
        seeds = [(0,), tuple(range(m // 2 or 1)), tuple(range(m))]
        for seed in seeds:
            g = gen_closure(arr, seed)
            assert set(g.seed) <= set(g.generated) <= set(range(m))
            in_rounds = [i for rnd in g.rounds for i in rnd]
            assert len(in_rounds) == len(set(in_rounds))
            assert set(g.generated) == set(g.seed) | set(in_rounds)
            assert len(g.rounds) <= m
            again = gen_closure(arr, g.generated)
            assert again.generated == g.generated and again.rounds == ()


def test_zeta_antipodal_symmetry_on_enumerated_instances(random_pool, h2, h3):
    cases = [from_vectors(d, c) for d, c in random_pool if len(c) <= 7][:20]
    cases += [h2, h3]
    for arr in cases:
        if arr.rank == 0:
            continue
        regs = enumerate_regions(arr)
        step = 1 if len(regs) <= 100 else 7
        for base in range(0, len(regs), step):
            z = zeta_polynomial(regs, base)
            assert z == tuple(reversed(z))
            assert sum(z) == len(regs)


def test_ladder_consistency_on_random_reports(random_pool):
    for dim, covs in random_pool[:20]:
        arr = from_vectors(dim, covs)
        rep = analyze(arr, label="random")
        rep.validate()
        chain = [
            rep.value("supersolvable"),
            rep.value("inductively_factored"),
            rep.value("inductively_free"),
            rep.value("free"),
        ]
        for a, b in zip(chain, chain[1:]):
            assert not (a is True and b is False)
        if rep.value("has_generic_rank3_localization") is True:
            assert rep.value("free") is not True
            assert rep.value("aspherical") != "yes"
