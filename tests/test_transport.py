import random
from fractions import Fraction as F

import pytest

from laxkit import StructureError
from laxkit.transport import min_cost_transport
from tests.oracles import min_sup_over_set_couplings, transport_value_by_vertex_enumeration


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


def test_set_couplings_empty_conventions():
    assert min_sup_over_set_couplings(0, 0, lambda i, j: F(0)) == 0
    assert min_sup_over_set_couplings(2, 0, lambda i, j: F(0)) == 1
    assert min_sup_over_set_couplings(0, 3, lambda i, j: F(0)) == 1


def test_set_couplings_hand_case():
    # weights: rows pick their cheapest partner, but every column must be hit
    w = {(0, 0): F(1, 10), (0, 1): F(9, 10), (1, 0): F(1), (1, 1): F(1, 5)}
    got = min_sup_over_set_couplings(2, 2, lambda i, j: w[(i, j)])
    assert got == F(1, 5)  # {(0,0),(1,1)} works; nothing beats 1/5
