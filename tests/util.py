"""Shared helpers for the test suite: canonical tiny instances and seeded batches."""

import random

from rbpspan.generators import gen_random
from rbpspan.model import (
    Instance,
    PreconditionError,
    allowed_edges,
    parse_instance,
    segments_properly_cross,
)

# Two purple points spanning [0, 10] with one red and one blue point between
# them; optimum is the purple edge plus the two nearest-purple attachments,
# weight 18.
E1_TEXT = "P 0 0\nP 10 0\nR 4 0\nB 6 0\n"


def e1() -> Instance:
    return parse_instance(E1_TEXT)


def line_instance(spec) -> Instance:
    """Collinear instance from (color_code, x) pairs, e.g. [("P", 0), ("R", 4)]."""
    return parse_instance("".join(f"{c} {x} 0\n" for c, x in spec))


def seeded_instances(count, *, n_min=4, n_max=9, k_max=None, max_allowed=None,
                     mode="plane", base_seed=0):
    """Deterministic batch of random instances meeting the size constraints.

    Seeds advance until `count` instances satisfy the purple-count and
    allowed-edge-count caps, so the batch is reproducible.
    """
    out = []
    seed = base_seed
    while len(out) < count:
        seed += 1
        n = n_min + (seed % (n_max - n_min + 1))
        inst = gen_random(n, 0.4, 0.4, mode, seed=seed)
        if k_max is not None and inst.k > k_max:
            continue
        if max_allowed is not None and len(allowed_edges(inst).u) > max_allowed:
            continue
        out.append(inst)
    return out


def segment_instance(seed, max_interior=5) -> Instance:
    """Two purple endpoints at 0 and 10 with up to `max_interior` red/blue points."""
    rng = random.Random(seed)
    m = rng.randrange(max_interior + 1)
    xs = set()
    while len(xs) < m:
        xs.add(round(rng.uniform(0.5, 9.5), 3))
    spec = [("P", 0), ("P", 10)]
    for x in sorted(xs):
        spec.append((rng.choice("RB"), x))
    return line_instance(spec)


def edges_properly_cross(instance, e1, e2) -> bool:
    """Whether the edges with id pairs e1, e2 properly cross; the crossing count's reference."""
    if set(e1) & set(e2):
        raise PreconditionError("edges share an endpoint")
    (a, b), (c, d) = e1, e2
    return segments_properly_cross(instance.coords(a), instance.coords(b),
                                   instance.coords(c), instance.coords(d))


def edge_rows(edge_set):
    """The (length, u, v, class code) rows of an edge set, in its order."""
    return list(zip(edge_set.length.tolist(), edge_set.u.tolist(), edge_set.v.tolist(),
                    edge_set.color_class.tolist()))


class UnionFind:
    """A minimal union-find for reference checks, kept apart from `graphops.kruskal`."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = x = self.parent[self.parent[x]]
        return x

    def union(self, x, y):
        """Join the sets of x and y; False if they were one set already."""
        rx, ry = self.find(x), self.find(y)
        self.parent[rx] = ry
        return rx != ry

    def connected_over(self, vertices):
        return len({self.find(v) for v in vertices}) <= 1


def reference_chain(lengths, drop_longest=False):
    """(sum, dropped) of a chain's links, summed one by one in order from 0.0.

    With drop_longest the first longest link is left out of the sum, and
    dropped is its index; otherwise dropped is None.
    """
    dropped = lengths.index(max(lengths)) if drop_longest else None
    total = 0.0
    for j, length in enumerate(lengths):
        if j != dropped:
            total += length
    return total, dropped
