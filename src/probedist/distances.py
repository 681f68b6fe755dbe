"""Exact distances between explicit distributions over {0,1}^n.

The transport distance ("earth mover's") is computed exactly by successive
shortest paths on the bipartite atom graph.  The ground metric is relative
Hamming distance by default; with the all-or-nothing metric the transport
distance coincides with total variation, which doubles as a solver check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FiniteDistribution, _merge_rows

__all__ = [
    "cost_matrix",
    "TransportPlan",
    "emd",
    "emd_with_plan",
    "tv",
    "dist_to_support_m",
    "grain_round",
]

_FLOW_TOL = 1e-12


def cost_matrix(rows_a: np.ndarray, rows_b: np.ndarray, metric: str = "hamming") -> np.ndarray:
    """Pairwise ground distances between two atom matrices."""
    a = np.asarray(rows_a, dtype=np.uint8)
    b = np.asarray(rows_b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("atom matrices must be 2-d with equal width")
    diff = a[:, None, :] != b[None, :, :]
    if metric == "hamming":
        return diff.mean(axis=2)
    if metric == "ineq":
        return diff.any(axis=2).astype(np.float64)
    raise ValueError(f"unknown metric {metric!r}")


@dataclass(frozen=True)
class TransportPlan:
    """An explicit transport plan between two atom lists.

    ``flows`` holds (source_index, target_index, mass) triples with strictly
    positive mass.  ``validate`` checks the marginals against the two weight
    vectors to 1e-9.
    """

    source_weights: np.ndarray
    target_weights: np.ndarray
    flows: tuple[tuple[int, int, float], ...]

    def cost(self, costs: np.ndarray) -> float:
        return float(sum(m * costs[i, j] for i, j, m in self.flows))

    def validate(self, tol: float = 1e-9) -> None:
        out = np.zeros_like(self.source_weights)
        into = np.zeros_like(self.target_weights)
        for i, j, m in self.flows:
            if m <= 0:
                raise ValueError("plan contains non-positive mass")
            out[i] += m
            into[j] += m
        if np.abs(out - self.source_weights).max() > tol:
            raise ValueError("plan does not match the source marginals")
        if np.abs(into - self.target_weights).max() > tol:
            raise ValueError("plan does not match the target marginals")


def _solve_transport(costs: np.ndarray, supply: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """Exact min-cost transport by successive shortest paths.

    Standard node-potential formulation: arcs keep nonnegative reduced cost,
    each round runs one dense Dijkstra from every source with remaining
    supply to the cheapest reachable target with remaining demand, then
    augments along the shortest path.  Exact up to float arithmetic.
    """
    a, b = costs.shape
    flow = np.zeros((a, b), dtype=np.float64)
    remaining_s = supply.astype(np.float64).copy()
    remaining_d = demand.astype(np.float64).copy()
    pot = np.zeros(a + b, dtype=np.float64)
    max_rounds = 4 * (a + b) * (a + b)
    for _ in range(max_rounds):
        if remaining_s.sum() <= _FLOW_TOL:
            break
        dist = np.full(a + b, np.inf)
        dist[:a][remaining_s > _FLOW_TOL] = 0.0
        parent = np.full(a + b, -1, dtype=np.int64)
        done = np.zeros(a + b, dtype=bool)
        while True:
            cand = np.where(~done & np.isfinite(dist))[0]
            if cand.size == 0:
                break
            u = cand[np.argmin(dist[cand])]
            done[u] = True
            if u < a:
                rc = costs[u] + pot[u] - pot[a:]
                nd = dist[u] + rc
                better = nd < dist[a:] - 1e-15
                dist[a:][better] = nd[better]
                parent[a:][better] = u
            else:
                j = u - a
                has_flow = flow[:, j] > _FLOW_TOL
                rc = -costs[:, j] + pot[u] - pot[:a]
                nd = dist[u] + rc
                better = has_flow & (nd < dist[:a] - 1e-15)
                dist[:a][better] = nd[better]
                parent[:a][better] = u
        targets = np.where(remaining_d > _FLOW_TOL)[0] + a
        reachable = targets[np.isfinite(dist[targets])]
        if reachable.size == 0:
            raise RuntimeError("transport network disconnected; weights unbalanced?")
        t = reachable[np.argmin(dist[reachable])]
        # Keep reduced costs nonnegative for the next round.
        pot += np.minimum(dist, dist[t])
        path = [int(t)]
        while parent[path[-1]] >= 0:
            path.append(int(parent[path[-1]]))
        path.reverse()
        bottleneck = min(remaining_s[path[0]], remaining_d[t - a])
        for u, v in zip(path, path[1:]):
            if v >= a:
                continue
            bottleneck = min(bottleneck, flow[v, u - a])
        for u, v in zip(path, path[1:]):
            if u < a:
                flow[u, v - a] += bottleneck
            else:
                flow[v, u - a] -= bottleneck
        remaining_s[path[0]] -= bottleneck
        remaining_d[t - a] -= bottleneck
    else:
        raise RuntimeError("transport solver failed to converge")
    return flow


def emd_with_plan(
    p: FiniteDistribution, q: FiniteDistribution, metric: str = "hamming"
) -> tuple[float, TransportPlan]:
    """Exact transport distance between two explicit distributions."""
    if p.n != q.n:
        raise ValueError("distributions live over different n")
    costs = cost_matrix(p.rows, q.rows, metric)
    flow = _solve_transport(costs, p.weights, q.weights)
    triples = tuple(
        (int(i), int(j), float(flow[i, j]))
        for i, j in zip(*np.nonzero(flow > _FLOW_TOL))
    )
    plan = TransportPlan(p.weights.copy(), q.weights.copy(), triples)
    return float((flow * costs).sum()), plan


def emd(p: FiniteDistribution, q: FiniteDistribution, metric: str = "hamming") -> float:
    return emd_with_plan(p, q, metric)[0]


def tv(p: FiniteDistribution, q: FiniteDistribution) -> float:
    """Total variation distance between two explicit distributions."""
    if p.n != q.n:
        raise ValueError("distributions live over different n")
    # Atoms within p, and within q, are distinct, so a merged row sums at
    # most one weight of p and then minus one of q: exactly the float p - q.
    _, diff = _merge_rows(np.vstack([p.rows, q.rows]), np.concatenate([p.weights, -q.weights]))
    return float(0.5 * np.abs(diff).sum())


# A cluster-cost block spans at most this many (mask, column pattern) pairs,
# which bounds its working memory and keeps it in cache.
_COST_BLOCK = 1 << 16


def dist_to_support_m(
    p: FiniteDistribution, m: int, return_witness: bool = False
):
    """Exact transport distance from p to the nearest <= m atom distribution.

    Exhaustive: scores every partition of the support into at most m groups,
    merging each group onto its best single string.  Grouping is optimal
    because some optimal plan moves each atom's mass to a single target (the
    nearest one), and the per-group best target is the weighted majority
    string, ties resolved to 0.  Guarded to supports of at most 12 atoms.

    Method, for s atoms: one pass over the n columns packs each column's s
    bits into a pattern and counts the columns of each pattern.  A column
    with pattern P costs a group x the smaller side of its majority vote,
    the weight of x & P or of x & ~P, so every group's cost is a sum over the
    present patterns of a lookup in the table of subset weights.  A DP over
    (mask, group) pairs, the group holding the mask's lowest atom, then
    finds the best partition into k groups for k = 1..m, trying a mask's
    groups in descending order and keeping the first minimal one.  Time is
    O(s n + 4^s + (s + m) 3^s) and memory O(n + m 2^s + 3^s); the cost table
    is filled in blocks of at most ``_COST_BLOCK`` (mask, pattern) pairs, and
    only the chosen groups' centers are built.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    s = p.support_size
    if s > 12:
        raise ValueError("exhaustive search guarded to supports of size <= 12")
    if m >= s:
        return (0.0, p) if return_witness else 0.0
    size = 1 << s
    # Bit i of a column's pattern is atom i's bit in that column.
    packed = np.packbits(p.rows, axis=0, bitorder="little")
    patterns = packed[0].astype(np.intp)
    if s > 8:
        patterns |= packed[1].astype(np.intp) << 8
    hist = np.bincount(patterns, minlength=size)
    present = np.flatnonzero(hist).astype(np.uint16)
    absent = ~present
    counts = hist[present].astype(np.float64)
    # ws[x] sums the weights of the atoms in x, in atom order.
    ws = np.zeros(size, dtype=np.float64)
    for i, wi in enumerate(p.weights):
        ws[1 << i : 2 << i] = ws[: 1 << i] + wi
    cost = np.empty(size, dtype=np.float64)
    masks = np.arange(size, dtype=np.uint16)
    step = max(1, _COST_BLOCK // present.size)
    for lo in range(0, size, step):
        block = masks[lo : lo + step, None]
        # The weight outvoted in each column: the majority is 1 when the
        # ones outweigh half the group, and ties go to 0.
        minority = ws.take(block & present)
        np.copyto(minority, ws.take(block & absent), where=minority > ws[block] / 2.0)
        cost[lo : lo + step] = minority @ counts / p.n
    # Every (mask, group) pair: the group holds the mask's lowest atom, so
    # each partition is counted once, and any subset of its other atoms.
    pair_mask = np.arange(1, size, dtype=np.intp)
    pair_group = pair_mask & -pair_mask
    for i in range(s):
        bit = 1 << i
        grow = (pair_mask & bit != 0) & (pair_group & bit == 0)
        pair_mask = np.concatenate([pair_mask, pair_mask[grow]])
        pair_group = np.concatenate([pair_group, pair_group[grow] | bit])
    # Descending groups within a mask: the first minimal one wins a tie.
    order = np.lexsort((-pair_group, pair_mask))
    pair_mask, pair_group = pair_mask[order], pair_group[order]
    starts = np.flatnonzero(np.diff(pair_mask, prepend=0))
    rest = pair_mask ^ pair_group
    group_cost = cost[pair_group]
    best = np.full((m + 1, size), np.inf)
    best[:, 0] = 0.0
    choice = np.zeros((m + 1, size), dtype=np.intp)
    for k in range(1, m + 1):
        cand = best[k - 1, rest] + group_cost
        best[k, 1:] = np.minimum.reduceat(cand, starts)
        hits = np.flatnonzero(cand == best[k, pair_mask])
        first = hits[np.diff(pair_mask[hits], prepend=0) != 0]
        choice[k, pair_mask[first]] = pair_group[first]
    value = float(best[m, size - 1])
    if not return_witness:
        return value
    centers, weights = [], []
    k, mask = m, size - 1
    while mask:
        group = int(choice[k, mask])
        idx = [i for i in range(s) if group >> i & 1]
        w = p.weights[idx]
        ones = w @ p.rows[idx].astype(np.float64)
        centers.append((ones > w.sum() / 2.0).astype(np.uint8))
        weights.append(float(ws[group]))
        mask ^= group
        k -= 1
    return value, FiniteDistribution.merged(np.stack(centers), weights)


def grain_round(p: FiniteDistribution, ell_prime: int) -> tuple[FiniteDistribution, dict]:
    """Round p onto a 2^(n-ell_prime)-grained distribution nearby.

    Zeroes the last floor(log2 n) bits of every atom (merging collisions),
    floors every weight down to a multiple of g = 2^-(n-ell_prime), and
    parks the leftover mass on the all-ones string, which the zeroing step
    can never produce.  Returns the rounded distribution and a certificate
    dict whose ``distance_bound`` is the guaranteed transport distance
    floor(log2 n)/n + 2^(ell_prime - floor(log2 n)).

    All arithmetic is dyadic, so the output weights are exact multiples of
    g; that requires n - ell_prime to fit float64's exact integer range,
    hence the n - ell_prime <= 52 guard.
    """
    n = p.n
    if n < 4:
        raise ValueError("grain rounding needs n >= 4")
    ell = int(math.floor(math.log2(n)))
    if not 0 <= ell_prime < ell:
        raise ValueError(f"ell_prime must lie in [0, {ell})")
    if n - ell_prime > 52:
        raise ValueError("weights below 2^-52 cannot stay exact in float64")
    zeroed = p.rows.copy()
    zeroed[:, n - ell :] = 0
    # Raw sums, no residue: a floor at grain up to 2^52 would see its ulp.
    uniq, merged = _merge_rows(zeroed, p.weights)

    grain = 2.0 ** (n - ell_prime)
    floored = np.floor(merged * grain) / grain
    keep = floored > 0
    rows = list(uniq[keep])
    weights = list(floored[keep])
    residual = 1.0 - float(np.sum(floored[keep]))
    if residual > 0:
        rows.append(np.ones(n, dtype=np.uint8))
        weights.append(residual)
    out = FiniteDistribution(rows=np.stack(rows), weights=np.array(weights))
    certificate = {
        "granularity": int(2 ** (n - ell_prime)),
        "zeroed_positions": ell,
        "merge_bound": ell / n,
        "rounding_bound": 2.0 ** (ell_prime - ell),
        "distance_bound": ell / n + 2.0 ** (ell_prime - ell),
    }
    return out, certificate
