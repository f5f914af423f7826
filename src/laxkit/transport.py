"""Exact optimal transport between finite discrete distributions.

A primal transportation simplex with Bland's anti-cycling rule on both the
entering and the leaving cell, so runs are deterministic and terminate.
It pivots on integers: masses are scaled by the least common multiple of
their denominators, and costs by that of theirs, or come already scaled
as an IntBlock, integer rows over any common denominator, which is how
lifts read them off a relation view (laxkit.core.RelView).  Scaling by
positive constants keeps every sign and every tie, so the pivots, the
plan and the value are those of the same simplex run on the Fractions
themselves.  The rational simplex and the brute-force oracles it is
cross-checked against live with the tests (tests/oracles.py).

A solve starts cold from the northwest-corner basis, or warm from the
TransportResult of an earlier solve over the same masses.  The masses fix
the feasible set and the costs only move the objective, so that solve's
optimal basis is still feasible, often still optimal, and the simplex
resumes from a copy of it without rescaling the masses.  The result also
keeps its basis tree's walk order, so a warm solve reads the potentials
off the stored tree in one pass and, when no cell enters, is done: it
builds no adjacency list and walks no tree.  Only a pivot walks the new
tree, once, for the next potentials.  The optimal value is unique, so a
warm solve returns the cold solve's value; on ties its plan may be
another optimal one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .core import IntBlock, StructureError, scaled_rows


class TransportResult(NamedTuple):
    """One solve: its optimal value as integers total / den (den being dm
    times the costs' scale; not reduced), the masses as given, their scale dm,
    its optimal basis {(i, j): mass * dm}, m+n-1 cells over integers, and
    that basis's tree hung from row 0 as (order, parents): the nodes other
    than row 0, each after its parent, and each node's parent (-1 for row
    0).  Nodes 0..m-1 are rows and m..m+n-1 columns; a node and its parent
    are joined by one basis cell.  Nothing changes either list.

    Passed back to min_cost_transport as `warm`, it is the next solve's
    start; the plan is read off the basis when asked for.
    """

    total: int
    den: int
    mu: list
    nu: list
    dm: int
    basis: dict
    tree: tuple

    @property
    def value(self) -> Fraction:
        """The optimal value, total / den."""
        return Fraction(self.total, self.den)

    @property
    def plan(self) -> tuple:
        """((i, j, mass), ...): the positive basis cells in lexicographic order."""
        dm = self.dm
        return tuple((i, j, Fraction(q, dm)) for (i, j), q in sorted(self.basis.items()) if q > 0)


def _northwest_corner(m, n, supply, demand):
    """Initial basic feasible solution: exactly m+n-1 basis cells, and its
    tree.  Each cell after the first shares its row or its column with the
    one before, so the cells in the order they are made hang a path from
    row 0, one new node per cell."""
    supply = list(supply)
    demand = list(demand)
    flow = {}
    order, parents = [m], [-1] * (m + n)  # the first cell joins column 0 to row 0
    parents[m] = 0
    i = j = 0
    while True:
        q = min(supply[i], demand[j])
        flow[i, j] = q
        supply[i] -= q
        demand[j] -= q
        if i == m - 1 and j == n - 1:
            return flow, (order, parents)
        if supply[i] == 0 and i < m - 1:
            i += 1
            order.append(i)
            parents[i] = m + j
        else:
            j += 1
            order.append(m + j)
            parents[m + j] = i


def _hang(m, adj, cost) -> tuple:
    """The basis over the adjacency lists adj hung from row 0, in one walk:
    its tree (order, parents), as TransportResult.tree holds it, and the
    nodes' potentials and depths."""
    size = len(adj)
    order, parents, pot, depth = [], [-1] * size, [0] * size, [0] * size
    stack = [0]
    while stack:
        node = stack.pop()
        for nxt in adj[node]:
            if nxt != parents[node]:
                order.append(nxt)
                parents[nxt] = node
                depth[nxt] = depth[node] + 1
                c = cost[node][nxt - m] if node < m else cost[nxt][node - m]
                pot[nxt] = c - pot[node]
                stack.append(nxt)
    return (order, parents), pot, depth


def _entering(m, cost, pot):
    """The first cell in row-major order whose reduced cost c_ij - u_i - v_j
    is negative, or None.  Basis cells have reduced cost exactly 0, so
    they never enter."""
    columns = pot[m:]
    for i, row in enumerate(cost):
        u = pot[i]
        for j, c in enumerate(row):
            if c - columns[j] < u:
                return i, j
    return None


def _simplex(m, n, flow, tree, cost):
    """Pivot the basis flow {(i, j): mass}, in place, to an optimal one, and
    return its tree.

    The basis is a spanning tree over the nodes 0..m-1 (rows) and
    m..m+n-1 (columns), given hung from row 0 (see TransportResult.tree).
    The potentials (u_i + v_j = c_ij on basis cells) are read off it in one
    pass.  Each round enters the first cell in row-major order whose
    reduced cost is negative, and leaves the least cell, in lexicographic
    order, among those of the cycle's minus cells that reach the step size
    first; one walk of the new tree gives the next round's potentials.  So
    a basis that is already optimal costs one pass and one scan of the
    cells, and builds no adjacency list and walks no tree.
    """
    order, parents = tree
    pot = [0] * (m + n)
    for node in order:
        up = parents[node]
        pot[node] = (cost[node][up - m] if node < m else cost[up][node - m]) - pot[up]
    adj = None
    while True:
        entering = _entering(m, cost, pot)
        if entering is None:
            return tree
        ei, ej = entering
        if adj is None:  # the first pivot: links of the given tree
            adj, depth = [[] for _ in range(m + n)], [0] * (m + n)
            for node in order:
                up = parents[node]
                adj[node].append(up)
                adj[up].append(node)
                depth[node] = depth[up] + 1
        # Tree path from column ej to row ei; its cells alternate -, +, ...
        up, down = [], []
        a, b = m + ej, ei
        while depth[a] > depth[b]:
            up.append(a)
            a = parents[a]
        while depth[b] > depth[a]:
            down.append(b)
            b = parents[b]
        while a != b:
            up.append(a)
            down.append(b)
            a, b = parents[a], parents[b]
        path = [
            (node, parents[node] - m) if node < m else (parents[node], node - m)
            for node in up + down[::-1]
        ]
        minus = path[0::2]
        theta = min(flow[c] for c in minus)
        leaving = min(c for c in minus if flow[c] == theta)
        flow[ei, ej] = theta
        for c in minus:
            flow[c] -= theta
        for c in path[1::2]:
            flow[c] += theta
        del flow[leaving]
        li, lj = leaving
        adj[li].remove(m + lj)
        adj[m + lj].remove(li)
        adj[ei].append(m + ej)
        adj[m + ej].append(ei)
        tree, pot, depth = _hang(m, adj, cost)
        parents = tree[1]


def min_cost_transport(mu, nu, cost, warm: TransportResult | None = None) -> TransportResult:
    """Minimize sum x_ij c_ij subject to row sums mu and column sums nu.

    mu and nu are sequences of positive rationals (Fractions or ints) with
    equal totals; cost is an m-by-n matrix of rationals, or an IntBlock
    that gives it as integer rows over one denominator, as lifts read it
    off a relation view (LiftingSpec.lift_block).  Infeasibility cannot
    occur for valid distributions, so any internal inconsistency raises.
    The solve resumes from a copy of warm's basis, and from its tree, when
    warm's masses equal mu and nu, and starts cold otherwise; it changes
    nothing it is given.
    """
    m, n = len(mu), len(nu)
    if m == 0 or n == 0:
        raise StructureError("transport requires nonempty supports")
    if isinstance(cost, IntBlock):
        dc, cost = cost
    else:
        dc, cost = scaled_rows(cost)
    if len(cost) != m or set(map(len, cost)) != {n}:
        raise StructureError(f"transport requires a {m}x{n} cost matrix")
    if warm is not None and warm.mu == mu and warm.nu == nu:
        dm, flow, tree = warm.dm, dict(warm.basis), warm.tree
    else:
        dm, [supply, demand] = scaled_rows([mu, nu])
        if sum(supply) != sum(demand):
            raise StructureError("transport requires equal total mass")
        if min(supply) <= 0 or min(demand) <= 0:
            raise StructureError("transport requires positive masses")
        flow, tree = _northwest_corner(m, n, supply, demand)

    tree = _simplex(m, n, flow, tree, cost)
    total = 0
    for (i, j), q in flow.items():
        total += q * cost[i][j]
    return TransportResult(total, dm * dc, mu, nu, dm, flow, tree)
