import itertools
import sys

import pytest

from hyperarr import Arrangement, boolean, from_vectors, hyperpolygonal

import oracles


@pytest.fixture(scope="session")
def h2() -> Arrangement:
    return hyperpolygonal(2)


@pytest.fixture(scope="session")
def h3() -> Arrangement:
    return hyperpolygonal(3)


@pytest.fixture(scope="session")
def h4() -> Arrangement:
    return hyperpolygonal(4)


@pytest.fixture(scope="session")
def h5() -> Arrangement:
    return hyperpolygonal(5)


@pytest.fixture(scope="session")
def h6() -> Arrangement:
    return hyperpolygonal(6)


@pytest.fixture(scope="session")
def generic4() -> Arrangement:
    """Four planes in general position in rank 3."""
    return from_vectors(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])


@pytest.fixture(scope="session")
def rigid7() -> Arrangement:
    """Essential and irreducible with no uniqueness witness, and no hyperplane
    can move alone without changing the lattice (every L_h is a line)."""
    return from_vectors(3, [
        (0, 0, 1), (0, 2, 1), (1, 0, -1), (1, 0, 0), (1, 1, 0), (1, 2, 0), (2, 2, 1),
    ])


@pytest.fixture(scope="session")
def bool3() -> Arrangement:
    return boolean(3)


@pytest.fixture(scope="session")
def c3_graphic() -> Arrangement:
    """All sums of consecutive coordinates over a 3-path plus the coordinates:
    the rank-3 graphic-style arrangement with 7 hyperplanes."""
    return from_vectors(
        3,
        [
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
            (1, 1, 0),
            (1, 0, 1),
            (0, 1, 1),
            (1, 1, 1),
        ],
    )


@pytest.fixture(scope="session")
def d4_reflection() -> Arrangement:
    """The rank-4 reflection arrangement with the 12 forms x_i - x_j, x_i + x_j."""
    vecs = []
    for i, j in itertools.combinations(range(4), 2):
        for s in (1, -1):
            v = [0, 0, 0, 0]
            v[i] = 1
            v[j] = s
            vecs.append(tuple(v))
    return from_vectors(4, vecs)


@pytest.fixture(scope="session")
def d4_simple_roots() -> Arrangement:
    """The same reflection arrangement presented by its 12 positive roots in
    simple-root coordinates (star diagram with the second coordinate central)."""
    return from_vectors(
        4,
        [
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
            (1, 1, 0, 0),
            (0, 1, 1, 0),
            (0, 1, 0, 1),
            (1, 1, 1, 0),
            (1, 1, 0, 1),
            (0, 1, 1, 1),
            (1, 1, 1, 1),
            (1, 2, 1, 1),
        ],
    )


@pytest.fixture(scope="session")
def random_pool() -> list[tuple[int, tuple[tuple[int, ...], ...]]]:
    return oracles.random_arrangements(100, seed=20260826)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("acceptance_log")
    if mod is None or not mod.LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in mod.LINES:
        terminalreporter.write_line(line)
