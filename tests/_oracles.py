"""Independent brute-force oracles used by the tests.

Everything here is written from the definitions, on plain tuples, sharing
no code with the package: filtering the whole group instead of generating,
breadth-first search instead of counting inversions or reading a subset
graph's runs, rows enumerated over full entry ranges instead of the
package's cached row fillings, and the paper's intersection graph
x^{-1}(graph J) & graph K built by relabelling and intersecting edge sets
instead of read as the graph of the subset x^{-1} J x & K.
"""

import itertools
import operator
from collections import deque


def parts(cuts):
    """The composition of n, as a plain tuple, cut after each i whose
    entry ``cuts[i - 1]`` is true, for ``cuts`` of length n - 1."""
    out, size = [], 1
    for cut in cuts:
        if cut:
            out.append(size)
            size = 1
        else:
            size += 1
    return tuple(out + [size])


def filter_left_reps(n, members):
    """All of S_n passing the ascent test, by exhaustive filtering."""
    out = []
    for p in itertools.permutations(range(1, n + 1)):
        if all(p[h - 1] < p[h] for h in members):
            out.append(p)
    return out


def bfs_lengths(n):
    """Coxeter length of every permutation as graph distance from the
    identity under right multiplication by adjacent transpositions."""
    start = tuple(range(1, n + 1))
    dist = {start: 0}
    queue = deque([start])
    while queue:
        p = queue.popleft()
        for i in range(n - 1):
            q = list(p)
            q[i], q[i + 1] = q[i + 1], q[i]
            q = tuple(q)
            if q not in dist:
                dist[q] = dist[p] + 1
                queue.append(q)
    return dist


def brute_tables(nu, kappa):
    """Set of all margin matrices, grown row by row from every row over
    full entry ranges; a partial table is dropped as soon as a column
    sum exceeds its margin, and the column sums are checked at the end."""
    r = len(kappa)
    partial = [((), (0,) * r)]
    for total in nu:
        rows = [row for row in itertools.product(range(total + 1), repeat=r)
                if sum(row) == total]
        grown = []
        for table, sums in partial:
            for row in rows:
                new_sums = tuple(map(operator.add, sums, row))
                if all(map(operator.le, new_sums, kappa)):
                    grown.append((table + (row,), new_sums))
        partial = grown
    return {table for table, sums in partial if sums == tuple(kappa)}


def naive_convolve(a_items, b_items):
    """Group-algebra product on raw tuples, no canonicalisation tricks."""
    acc = {}
    for ax, ca in a_items:
        for by, cb in b_items:
            z = tuple(ax[v - 1] for v in by)
            acc[z] = acc.get(z, 0) + ca * cb
    return {k: v for k, v in acc.items() if v}


def image_tuples(result):
    """A convolution result, keyed by ``bytes`` words of images, re-keyed
    by the image tuples the oracles above use."""
    assert all(type(word) is bytes for word in result)
    return {tuple(word): c for word, c in result.items()}


def young_subgroup(n, members):
    """All permutations preserving each component of the subset graph,
    with components found by scanning runs of consecutive generators."""
    blocks = []
    block = [1]
    for i in range(1, n):
        if i in members:
            block.append(i + 1)
        else:
            blocks.append(block)
            block = [i + 1]
    blocks.append(block)
    out = []
    for assignment in itertools.product(
            *[itertools.permutations(b) for b in blocks]):
        images = [0] * n
        for blk, perm in zip(blocks, assignment):
            for slot, value in zip(blk, perm):
                images[slot - 1] = value
        out.append(tuple(images))
    return out


def breadth_first_components(n, edges):
    """Components of the graph, each a sorted tuple, by least element."""
    adjacent = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adjacent[u].add(v)
        adjacent[v].add(u)
    seen, components = set(), []
    for start in range(1, n + 1):
        if start in seen:
            continue
        seen.add(start)
        component, queue = [start], deque([start])
        while queue:
            for w in adjacent[queue.popleft()] - seen:
                seen.add(w)
                component.append(w)
                queue.append(w)
        components.append(tuple(sorted(component)))
    return tuple(components)


def subset_edges(members):
    """The edges ``(i, i+1)`` of the graph of a generator subset."""
    return [(i, i + 1) for i in members]


def intersection_graph_edges(x, j_members, k_members):
    """The sorted edges ``(u, v)``, u < v, of x^{-1}(graph J) & graph K
    for x the tuple of images of 1..n: each edge {a, b} of graph J
    relabelled as {x^{-1}(a), x^{-1}(b)}, kept when graph K has it."""
    position = {v: p for p, v in enumerate(x, 1)}
    pulled = {tuple(sorted((position[a], position[b])))
              for a, b in subset_edges(j_members)}
    return sorted(pulled.intersection(subset_edges(k_members)))


def intersection_graph_components(x, j_members, k_members):
    """The ordered presentation of x^{-1}(graph J) & graph K, by
    breadth-first search."""
    return breadth_first_components(
        len(x), intersection_graph_edges(x, j_members, k_members))
