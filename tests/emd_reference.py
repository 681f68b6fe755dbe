"""Independent reference implementations for cross-checking distances.

Everything here is deliberately primitive: plain Python or plain numpy, no
imports from the package under test, brute-force enumeration instead of
optimisation.  The real solver must agree with these on every small instance.
"""

from __future__ import annotations

import itertools

import numpy as np


def hamming_rel(x, y) -> float:
    """Fraction of positions where x and y differ (0/1 strings or arrays)."""
    if len(x) != len(y):
        raise ValueError("length mismatch")
    return sum(a != b for a, b in zip(x, y)) / len(x)


def tv_reference(p_atoms, q_atoms) -> float:
    """Total variation from two (bitstring, weight) lists."""
    keys = {s for s, _ in p_atoms} | {s for s, _ in q_atoms}
    p = {s: 0.0 for s in keys}
    q = {s: 0.0 for s in keys}
    for s, w in p_atoms:
        p[s] += w
    for s, w in q_atoms:
        q[s] += w
    return 0.5 * sum(abs(p[s] - q[s]) for s in keys)


def _spanning_trees(a: int, b: int):
    """All spanning trees of the complete bipartite graph K_{a,b}.

    Nodes 0..a-1 are the left side, a..a+b-1 the right.  Enumerates all
    (a*b choose a+b-1) edge subsets and keeps the acyclic connected ones;
    only meant for a, b <= 4.
    """
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    nodes = a + b
    for subset in itertools.combinations(edges, nodes - 1):
        parent = list(range(nodes))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        ok = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            yield subset


def _solve_tree(tree, supply, demand):
    """Unique flow on a spanning tree meeting all supplies and demands.

    Returns {(i, j): flow} with left index i, right index j; flows may come
    out negative, in which case the tree is not a feasible vertex.
    """
    a = len(supply)
    balance = list(supply) + [-d for d in demand]
    adj = {v: [] for v in range(len(balance))}
    for u, v in tree:
        adj[u].append(v)
        adj[v].append(u)
    degree = {v: len(adj[v]) for v in adj}
    alive = set(tree)
    flows = {}
    leaves = [v for v in adj if degree[v] == 1]
    while leaves:
        v = leaves.pop()
        edge = next(((x, y) for (x, y) in alive if v in (x, y)), None)
        if edge is None:
            continue
        u = edge[0] if edge[1] == v else edge[1]
        left, right = min(edge), max(edge)
        # Positive flow runs left -> right; the leaf's whole balance rides it.
        f = balance[v] if v == left else -balance[v]
        flows[(left, right - a)] = f
        balance[u] += balance[v]
        balance[v] = 0.0
        alive.discard(edge)
        degree[u] -= 1
        degree[v] -= 1
        if degree[u] == 1:
            leaves.append(u)
    return flows


def transport_reference(supply, demand, cost) -> float:
    """Exact optimal transport cost by enumerating basic solutions.

    Every vertex of the transportation polytope is the unique flow on some
    spanning tree of K_{a,b}, so minimising over feasible tree solutions is
    exact.  Exponential in the support sizes; keep them at 4 or below.
    """
    a, b = len(supply), len(demand)
    if abs(sum(supply) - sum(demand)) > 1e-9:
        raise ValueError("supply and demand must balance")
    best = None
    for tree in _spanning_trees(a, b):
        flows = _solve_tree(tree, supply, demand)
        if min(flows.values()) < -1e-12:
            continue
        c = sum(max(f, 0.0) * cost[i][j] for (i, j), f in flows.items())
        if best is None or c < best:
            best = c
    if best is None:
        raise RuntimeError("no feasible vertex found")
    return best


def emd_reference(p_atoms, q_atoms, metric: str = "hamming") -> float:
    """Exact transport distance between two (bitstring, weight) lists."""
    xs = [s for s, _ in p_atoms]
    ys = [s for s, _ in q_atoms]
    supply = [w for _, w in p_atoms]
    demand = [w for _, w in q_atoms]
    if metric == "hamming":
        cost = [[hamming_rel(x, y) for y in ys] for x in xs]
    elif metric == "ineq":
        cost = [[0.0 if x == y else 1.0 for y in ys] for x in xs]
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return transport_reference(supply, demand, cost)


def support_distance_reference(p_atoms, m: int) -> float:
    """Exact transport distance to the nearest distribution on <= m strings.

    Enumerates every m-subset of {0,1}^n as a candidate support; the best
    plan against a fixed support sends each atom to its nearest allowed
    string.  Only for n <= 6 and m <= 3.
    """
    n = len(p_atoms[0][0])
    if n > 6 or m > 3:
        raise ValueError("reference limited to n <= 6, m <= 3")
    universe = ["".join(bits) for bits in itertools.product("01", repeat=n)]
    best = None
    for centers in itertools.combinations(universe, m):
        c = sum(
            w * min(hamming_rel(x, ctr) for ctr in centers) for x, w in p_atoms
        )
        if best is None or c < best:
            best = c
    return best


def _cluster_cost(rows, weights, mask: int):
    """Cost and center of merging the atoms in ``mask`` onto one string: the
    weighted majority bit per coordinate, ties resolved to 0."""
    idx = [i for i in range(rows.shape[0]) if mask >> i & 1]
    w = weights[idx]
    sub = rows[idx].astype(np.float64)
    ones = w @ sub
    center = (ones > w.sum() / 2.0).astype(np.uint8)
    cost = float((w @ (sub != center)).sum()) / rows.shape[1]
    return cost, center


def support_partition_reference(rows, weights, m: int):
    """Distance to the nearest <= m atom distribution by partition search.

    Scores every subset of atoms as one cluster, then runs the submask DP
    over partitions into at most m clusters, the lowest atom of each mask
    pinned into its group and groups tried in descending order.  Returns the
    value, the chosen groups' centers and their weights, in the order the
    DP unwinds them.  Takes 2^s per-subset passes over the rows.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    weights = np.asarray(weights, dtype=np.float64)
    s = rows.shape[0]
    cost = [0.0] * (1 << s)
    centers = [None] * (1 << s)
    for mask in range(1, 1 << s):
        cost[mask], centers[mask] = _cluster_cost(rows, weights, mask)
    best = [[float("inf")] * (1 << s) for _ in range(m + 1)]
    choice = [[0] * (1 << s) for _ in range(m + 1)]
    best[0][0] = 0.0
    for k in range(1, m + 1):
        best[k][0] = 0.0
        for mask in range(1, 1 << s):
            low = mask & -mask
            rest = mask ^ low
            sub = rest
            while True:
                group = sub | low
                c = best[k - 1][mask ^ group] + cost[group]
                if c < best[k][mask]:
                    best[k][mask] = c
                    choice[k][mask] = group
                if sub == 0:
                    break
                sub = (sub - 1) & rest
    full = (1 << s) - 1
    groups, k, mask = [], m, full
    while mask:
        groups.append(choice[k][mask])
        mask ^= choice[k][mask]
        k -= 1
    group_weights = [float(sum(weights[i] for i in range(s) if g >> i & 1)) for g in groups]
    return best[m][full], [centers[g] for g in groups], group_weights
