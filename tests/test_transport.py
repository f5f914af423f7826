import random
from fractions import Fraction as F
from math import lcm

import pytest

from laxkit import StructureError, transport
from laxkit.core import IntBlock
from laxkit.transport import min_cost_transport
from tests.oracles import (
    min_sup_over_set_couplings,
    rational_transport_simplex,
    transport_value_by_vertex_enumeration,
)


def rand_dist(rng, size):
    weights = [rng.randint(1, 6) for _ in range(size)]
    total = sum(weights)
    return [F(w, total) for w in weights]


def rand_cost(rng, m, n):
    return [[F(rng.randint(0, 8), 8) for _ in range(n)] for _ in range(m)]


def test_point_masses():
    got = min_cost_transport([F(1)], [F(1)], [[F(2, 7)]])
    assert got.value == F(2, 7)
    assert got.plan == ((0, 0, F(1)),)


def test_split_against_point_mass():
    # mass 1/2 + 1/2 against a single target: expected cost is the average
    got = min_cost_transport([F(1, 2), F(1, 2)], [F(1)], [[F(1, 5)], [F(3, 5)]])
    assert got.value == F(1, 2) * F(1, 5) + F(1, 2) * F(3, 5)


def test_plan_satisfies_marginals():
    rng = random.Random("marginals")
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mu, nu = rand_dist(rng, m), rand_dist(rng, n)
        cost = rand_cost(rng, m, n)
        result = min_cost_transport(mu, nu, cost)
        rows = [F(0)] * m
        cols = [F(0)] * n
        for i, j, q in result.plan:
            assert q > 0
            rows[i] += q
            cols[j] += q
        assert rows == mu and cols == nu
        assert result.value == sum(q * cost[i][j] for i, j, q in result.plan)


def test_matches_vertex_enumeration():
    rng = random.Random("lp-oracle")
    for _ in range(120):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        mu, nu = rand_dist(rng, m), rand_dist(rng, n)
        cost = rand_cost(rng, m, n)
        assert min_cost_transport(mu, nu, cost).value == \
            transport_value_by_vertex_enumeration(mu, nu, cost)


def test_value_dominated_by_random_vertices():
    # independent optimality evidence on larger instances: the reported
    # minimum never exceeds the cost of any randomly built basic solution
    rng = random.Random("dominate")
    for _ in range(60):
        m, n = rng.randint(2, 6), rng.randint(2, 6)
        mu, nu = rand_dist(rng, m), rand_dist(rng, n)
        cost = rand_cost(rng, m, n)
        best = min_cost_transport(mu, nu, cost).value
        for _ in range(20):
            rows = list(range(m))
            cols = list(range(n))
            rng.shuffle(rows)
            rng.shuffle(cols)
            # northwest-corner plan on shuffled axes is a random vertex
            supply = [mu[i] for i in rows]
            demand = [nu[j] for j in cols]
            i = j = 0
            value = F(0)
            while i < m and j < n:
                q = min(supply[i], demand[j])
                value += q * cost[rows[i]][cols[j]]
                supply[i] -= q
                demand[j] -= q
                if supply[i] == 0 and i < m - 1:
                    i += 1
                else:
                    j += 1
            assert best <= value


def test_degenerate_instances_terminate():
    # equal split supplies/demands force degenerate pivots
    mu = [F(1, 4)] * 4
    nu = [F(1, 4)] * 4
    cost = [[F(abs(i - j), 4) for j in range(4)] for i in range(4)]
    got = min_cost_transport(mu, nu, cost)
    assert got.value == 0  # identity plan is optimal
    assert transport_value_by_vertex_enumeration(mu, nu, cost) == 0


def test_desk_scale_instances_stay_fast():
    import time

    rng = random.Random("scale")
    mu, nu = rand_dist(rng, 40), rand_dist(rng, 40)
    cost = rand_cost(rng, 40, 40)
    started = time.monotonic()
    result = min_cost_transport(mu, nu, cost)
    assert time.monotonic() - started < 10
    rows = [F(0)] * 40
    for i, _, q in result.plan:
        rows[i] += q
    assert rows == mu


def test_rejects_unbalanced_and_empty():
    with pytest.raises(StructureError):
        min_cost_transport([F(1)], [F(1, 2)], [[F(0)]])
    with pytest.raises(StructureError):
        min_cost_transport([], [F(1)], [])


@pytest.mark.parametrize("mu, nu, cost", [
    ([F(1)], [F(1)], [[]]),                          # row shorter than nu
    ([F(1, 2), F(1, 2)], [F(1)], [[F(0)]]),          # fewer rows than mu
    ([F(1)], [F(1)], [[F(0), F(1)]]),                # row longer than nu
])
def test_rejects_cost_matrix_of_the_wrong_shape(mu, nu, cost):
    with pytest.raises(StructureError, match="cost matrix"):
        min_cost_transport(mu, nu, cost)


def diff_instances():
    """Seeded instances, sizes fixed up front: m, n in 1..6, mass
    denominators 2..12, cost denominators 7, 2^k and others, some zero cost
    rows, and equal splits that force degenerate pivots.  Every other
    instance draws its costs from four values only, so optimal plans tie
    and the plan returned depends on every pivot the simplex made."""
    rng = random.Random("integer-kernel")
    cost_dens = [1, 2, 3, 7, 8, 49, 64, 1024, 6, 35]
    for k in range(600):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        if k % 5 == 0:
            mu, nu = [F(1, m)] * m, [F(1, n)] * n
        else:
            mu, nu = (
                rand_masses(rng, size, rng.randint(2, 12)) for size in (m, n)
            )
        if k % 2:
            den = rng.choice(cost_dens)
            cost = [[F(rng.randint(0, 3), den) for _ in range(n)] for _ in range(m)]
        else:
            cost = [[F(rng.randint(0, 2 * den), den) for den in rng.choices(cost_dens, k=n)]
                    for _ in range(m)]
        if k % 7 == 0:
            cost[rng.randrange(m)] = [F(0)] * n
        yield mu, nu, cost


def rand_parts(rng, size, total):
    """size positive ints summing to total (at least size)."""
    cuts = sorted(rng.sample(range(1, total), size - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


def rand_masses(rng, size, den):
    """size positive masses summing to 1, each a multiple of 1/den (or finer)."""
    if size > den:
        den *= size
    return [F(q, den) for q in rand_parts(rng, size, den)]


def solved(result):
    """What a solve answers: its value and its plan."""
    return result.value, result.plan


def test_integer_kernel_matches_rational_simplex():
    for mu, nu, cost in [degenerate_instance(), *diff_instances()]:
        assert solved(min_cost_transport(mu, nu, cost)) == rational_transport_simplex(mu, nu, cost)


def test_int_inputs_match_equal_fractions():
    rng = random.Random("int-inputs")
    for _ in range(100):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mu = [n * rng.randint(1, 6) for _ in range(m)]
        nu = rand_parts(rng, n, sum(mu))
        cost = [[rng.randint(0, 9) for _ in range(n)] for _ in range(m)]
        as_fractions = (
            [F(q) for q in mu], [F(q) for q in nu], [[F(c) for c in row] for row in cost]
        )
        got = solved(min_cost_transport(mu, nu, cost))
        assert got == solved(min_cost_transport(*as_fractions))
        assert got == rational_transport_simplex(*as_fractions)


def test_an_integer_block_solves_as_its_fractions():
    # costs given as integer rows over a denominator, any common multiple
    # of the entries' denominators, solve as the Fractions they stand for
    rng = random.Random("integer-block")
    for mu, nu, cost in [degenerate_instance(), *diff_instances()]:
        den = lcm(*(c.denominator for row in cost for c in row)) * rng.randint(1, 30)
        block = IntBlock((den, [[c.numerator * (den // c.denominator) for c in row]
                                for row in cost]))
        assert solved(min_cost_transport(mu, nu, block)) == solved(min_cost_transport(mu, nu, cost))


def test_set_couplings_empty_conventions():
    assert min_sup_over_set_couplings(0, 0, lambda i, j: F(0)) == 0
    assert min_sup_over_set_couplings(2, 0, lambda i, j: F(0)) == 1
    assert min_sup_over_set_couplings(0, 3, lambda i, j: F(0)) == 1


def test_set_couplings_hand_case():
    # weights: rows pick their cheapest partner, but every column must be hit
    w = {(0, 0): F(1, 10), (0, 1): F(9, 10), (1, 0): F(1), (1, 1): F(1, 5)}
    got = min_sup_over_set_couplings(2, 2, lambda i, j: w[(i, j)])
    assert got == F(1, 5)  # {(0,0),(1,1)} works; nothing beats 1/5


def degenerate_instance():
    """The equal-split instance of test_degenerate_instances_terminate."""
    return [F(1, 4)] * 4, [F(1, 4)] * 4, [[F(abs(i - j), 4) for j in range(4)] for i in range(4)]


def second_cost(rng, cost):
    """Another cost matrix of the same shape: half the time the first one
    with some entries raised (as a Kleene step moves costs), else a fresh
    draw from a few values, so optimal plans tie."""
    if rng.random() < 0.5:
        return [[c + F(rng.randint(0, 2), 7) * rng.randint(0, 1) for c in row] for row in cost]
    den = rng.choice([1, 2, 3, 8])
    return [[F(rng.randint(0, 3), den) for _ in row] for row in cost]


def assert_coupling(result, mu, nu, cost):
    rows, cols = [F(0)] * len(mu), [F(0)] * len(nu)
    for i, j, q in result.plan:
        assert q > 0
        rows[i] += q
        cols[j] += q
    assert rows == list(mu) and cols == list(nu)
    assert result.value == sum(q * cost[i][j] for i, j, q in result.plan)


def count_northwest_corners(monkeypatch) -> list:
    starts = []
    real = transport._northwest_corner
    monkeypatch.setattr(transport, "_northwest_corner",
                        lambda *args: starts.append(args) or real(*args))
    return starts


def test_warm_start_equals_cold_solve(monkeypatch):
    # Solve on one cost matrix, then on a second one from the first's
    # optimal basis: the value is the cold solve's and the rational
    # simplex's, and the plan is a coupling of that cost.  Counting the
    # northwest-corner starts shows the second solve really is warm.
    starts = count_northwest_corners(monkeypatch)
    rng = random.Random("warm-start")
    for mu, nu, cost in [degenerate_instance(), *diff_instances()]:
        starts.clear()
        first = min_cost_transport(mu, nu, cost)
        assert len(starts) == 1
        other = second_cost(rng, cost)
        cold = min_cost_transport(mu, nu, other)
        warm = min_cost_transport(list(mu), list(nu), other, first)
        assert len(starts) == 2  # the warm solve made no northwest corner
        assert warm.value == cold.value == rational_transport_simplex(mu, nu, other)[0]
        assert_coupling(warm, mu, nu, other)
        # and the result it returned serves the next solve as well
        assert min_cost_transport(mu, nu, cost, warm).value == first.value
        assert len(starts) == 2


def test_a_solve_builds_no_fraction(monkeypatch):
    # cold or warm, a solve keeps its value as integers and builds no
    # Fraction; the value and the plan are built only when they are read
    built = []
    monkeypatch.setattr(transport, "Fraction", lambda *args: built.append(args) or F(*args))
    rng = random.Random("one-fraction")
    for mu, nu, cost in [degenerate_instance(), *diff_instances()]:
        built.clear()
        first = min_cost_transport(mu, nu, cost)
        warm = min_cost_transport(mu, nu, second_cost(rng, cost), first)
        assert built == []
        assert warm.value == F(warm.total, warm.den) and len(built) == 1


def count_tree_walks(monkeypatch) -> list:
    walks = []
    real = transport._hang
    monkeypatch.setattr(transport, "_hang", lambda *args: walks.append(args) or real(*args))
    return walks


def test_a_warm_solve_whose_basis_stays_optimal_walks_no_tree(monkeypatch):
    # Raising every cost by one constant keeps every reduced cost, so the
    # warm basis stays optimal: the solve reads the stored tree once, walks
    # none, and still returns a basis of its own.  Under other costs a warm
    # solve walks a tree exactly when it pivots, that is when its basis moves.
    walks = count_tree_walks(monkeypatch)
    rng = random.Random("warm-no-tree")
    pivoted = kept = 0
    for mu, nu, cost in [degenerate_instance(), *diff_instances()]:
        first = min_cost_transport(mu, nu, cost)
        shift = F(rng.randint(0, 5), rng.choice([1, 3, 8]))
        walks.clear()
        warm = min_cost_transport(mu, nu, [[c + shift for c in row] for row in cost], first)
        assert walks == []
        assert warm.value == first.value + shift * sum(mu)
        assert warm.basis == first.basis and warm.basis is not first.basis
        assert warm.tree == first.tree
        other = second_cost(rng, cost)
        walks.clear()
        moved = min_cost_transport(mu, nu, other, first)
        assert moved.value == rational_transport_simplex(mu, nu, other)[0]
        assert bool(walks) == (moved.basis.keys() != first.basis.keys())
        pivoted += bool(walks)
        kept += not walks
    assert pivoted > 100 and kept > 100


def test_a_warm_solve_changes_nothing_it_is_given():
    rng = random.Random("warm-unchanged")
    moved = 0
    for mu, nu, cost in [degenerate_instance(), *diff_instances()]:
        first = min_cost_transport(mu, nu, cost)
        before = (first.value, first.plan, dict(first.basis), list(first.mu), list(first.nu))
        other = second_cost(rng, cost)
        given = (list(mu), list(nu), [list(row) for row in other])
        warm = min_cost_transport(mu, nu, other, first)
        assert (first.value, first.plan, first.basis, first.mu, first.nu) == before
        assert (mu, nu, other) == given
        assert warm.basis is not first.basis
        moved += warm.basis != first.basis
    assert moved > 100  # the warm solves pivoted, so an alias would show


def test_a_start_for_other_masses_is_ignored(monkeypatch):
    starts = count_northwest_corners(monkeypatch)
    rng = random.Random("warm-start-masses")
    for mu, nu, cost in diff_instances():
        first = min_cost_transport(mu, nu, cost)
        m, n = len(mu), len(nu)
        other_mu, other_nu = rand_masses(rng, m, 12), rand_masses(rng, n, 12)
        if (other_mu, other_nu) == (list(mu), list(nu)):
            continue
        starts.clear()
        # a cold solve from the northwest corner: the same result to the plan
        got = min_cost_transport(other_mu, other_nu, cost, first)
        assert solved(got) == solved(min_cost_transport(other_mu, other_nu, cost))
        assert len(starts) == 2
        assert (got.mu, got.nu) == (other_mu, other_nu)
    # masses of another shape are other masses too
    first = min_cost_transport([F(1)], [F(1, 2), F(1, 2)], [[F(0), F(1)]])
    got = min_cost_transport([F(1, 2), F(1, 2)], [F(1)], [[F(1, 3)], [F(1)]], first)
    assert solved(got) == solved(min_cost_transport([F(1, 2), F(1, 2)], [F(1)], [[F(1, 3)], [F(1)]]))
