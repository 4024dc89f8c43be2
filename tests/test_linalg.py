"""Random property tests for the exact linear algebra.

The oracle decides linear independence by the Gram determinant, expanded
with the Leibniz formula, so it shares no elimination code with
``gmfkit.linalg``.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from gmfkit.linalg import rank, solve_full_column_rank


def _det(m):
    total = F(0)
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
        term = F(-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def _independent(rows):
    gram = [[sum(a * b for a, b in zip(u, v)) for v in rows] for u in rows]
    return _det(gram) != 0


def _greedy_independent(rows):
    """Indices of the rows kept by in-order greedy selection."""
    chosen = []
    for i, row in enumerate(rows):
        if _independent([rows[j] for j in chosen] + [row]):
            chosen.append(i)
    return chosen


def _dot(row, x):
    return sum((F(a) * b for a, b in zip(row, x)), F(0))


def _random_matrix(rng, nrows, ncols):
    def entry():
        roll = rng.random()
        if roll < 0.4:
            return 0
        if roll < 0.8:
            return rng.randint(-3, 3)
        return F(rng.randint(-9, 9), rng.randint(1, 9))

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    # plant dependent rows so that rank deficiency and redundancy both occur
    for i in range(2, nrows):
        if rng.random() < 0.3:
            j, k = rng.sample(range(i), 2)
            s = rng.randint(-2, 2)
            rows[i] = [s * a - b for a, b in zip(rows[j], rows[k])]
    return rows


def _random_systems(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(1, 7), rng.randint(0, 4)
        a = _random_matrix(rng, nrows, ncols)
        x0 = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(ncols)]
        b = [_dot(row, x0) for row in a]
        if rng.random() < 0.5:
            b[rng.randrange(nrows)] += rng.randint(1, 3)
        yield a, b


@pytest.mark.parametrize("seed", range(4))
def test_rank_matches_greedy_selection(seed):
    rng = random.Random(seed)
    for _ in range(250):
        rows = _random_matrix(rng, rng.randint(0, 6), rng.randint(1, 5))
        assert rank(rows) == len(_greedy_independent(rows)), rows


@pytest.mark.parametrize("seed", range(4))
def test_solve_full_column_rank_properties(seed):
    for a, b in _random_systems(seed, 250):
        d = len(a[0])
        chosen = _greedy_independent(a)
        if len(chosen) < d:
            with pytest.raises(ValueError):
                solve_full_column_rank(a, b)
            continue
        x, bad = solve_full_column_rank(a, b)
        assert len(x) == d
        for i in chosen[:d]:
            assert _dot(a[i], x) == b[i], (a, b)
        mismatches = [i for i in range(len(a)) if _dot(a[i], x) != b[i]]
        assert bad == (mismatches[0] if mismatches else None), (a, b)


def test_no_columns():
    assert solve_full_column_rank([[], [], []], [0, F(2), 1]) == ([], 1)
    assert solve_full_column_rank([[], []], [0, 0]) == ([], None)
    assert rank([]) == 0
