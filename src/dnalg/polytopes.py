"""Combinatorics of associahedra and permuto-associahedra.

The vertices of the associahedron on m letters are the binary trees with m
leaves.  The permuto-associahedron on n letters is an (n-1)-dimensional
polytope whose facets are labelled by ordered partitions of {1..n} into at
least two blocks; the facet of a partition of type (t_1,...,t_m)
decomposes as a product of the associahedron on m letters and the smaller
permuto-associahedra on t_1, ..., t_m letters, and its vertices are
(permutation, binary tree) pairs obtained by grafting.  A face is its
vertex set: only vertices and facets are built, and the degeneracy of a
face is the image of its vertex set under ``degeneracy``.

Enumeration is pure and deterministic (lexicographic everywhere), so
results are stable across runs and safe to compute concurrently.

Tree work is memoized in ``functools.lru_cache`` caches on hashable tree
tuples: ``binary_trees`` and ``delete_leaf``.  Facet vertices are cached
per facet type in ``_type_vertices``: by the product decomposition, the
vertices of a facet depend on its partition only through the type, up to
renaming letters, so each facet reads its type's grafted vertices and
renames the letters block by block.  The caches are unbounded, but there
are only Catalan-many trees per leaf count and 2^(n-1) - 1 facet types on
n letters.  The benchmark empties every functools cache in dnalg's
namespaces before each job, so its timings include filling them.

The public constructors check every value they are given.  Three builders
skip that check where the values are valid by construction.
``enumerate_vertices``, ``facet_vertices`` and ``degeneracy`` build each
``GammaVertex`` with ``_vertex``: their permutations and trees come from
``itertools.permutations``, ``binary_trees``, the letters of a checked
``OrderedPartition``, or deleting one letter and one leaf from a checked
vertex.  ``ordered_partitions`` builds each ``OrderedPartition`` with
``_partition`` from the blocks of ``_surjections``, which are nonempty,
increasing and cover {1..n}; ``enumerate_facets`` wraps each partition of
at least two blocks with ``_facet``.  The tests rebuild every such object
through the public constructor.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import le

from .fp import Record

LEAF = None  # leaves of planar trees


def _binary_leaves(tree) -> int:
    """Leaf count of a binary tree of nested pairs, and 0 for anything else."""
    if tree is LEAF:
        return 1
    if type(tree) is not tuple or len(tree) != 2:
        return 0
    left, right = _binary_leaves(tree[0]), _binary_leaves(tree[1])
    return left + right if left and right else 0


@lru_cache(maxsize=None)
def binary_trees(m: int) -> tuple:
    """All binary trees with m leaves, by the left subtree's leaf count, then
    the left subtree, then the right."""
    if m < 1:
        raise ValueError("need at least one leaf")
    if m == 1:
        return (LEAF,)
    return tuple(
        (left, right)
        for i in range(1, m)
        for left in binary_trees(i)
        for right in binary_trees(m - i)
    )


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def render_tree(tree) -> str:
    if tree is LEAF:
        return "."
    return "(" + "".join(render_tree(c) for c in tree) + ")"


_NOTHING = object()  # a marker distinct from LEAF, which is None


def graft(tree, subtrees):
    """Replace the leaves of ``tree`` (left to right) by the given subtrees."""
    subs = iter(subtrees)

    def rec(t):
        if t is LEAF:
            sub = next(subs, _NOTHING)
            if sub is _NOTHING:
                raise ValueError("too few subtrees")
            return sub
        return tuple(rec(c) for c in t)

    out = rec(tree)
    if next(subs, _NOTHING) is not _NOTHING:
        raise ValueError("too many subtrees")
    return out


@lru_cache(maxsize=None)
def delete_leaf(tree, index: int):
    """Remove the index-th leaf (0-based, left to right), collapsing any
    internal node left with a single child."""

    def rec(t, lo):
        # returns (new subtree or the deletion marker, leaves consumed)
        if t is LEAF:
            return (_NOTHING if lo == index else LEAF), 1
        consumed = 0
        children = []
        for c in t:
            new_c, used = rec(c, lo + consumed)
            consumed += used
            if new_c is not _NOTHING:
                children.append(new_c)
        if not children:
            return _NOTHING, consumed
        if len(children) == 1:
            return children[0], consumed
        return tuple(children), consumed

    new_tree, total = rec(tree, 0)
    if index < 0 or index >= total:
        raise ValueError("leaf index out of range")
    if new_tree is _NOTHING:
        raise ValueError("cannot delete the last leaf")
    return new_tree


# ---------------------------------------------------------------------------
# ordered partitions and facets


class OrderedPartition(Record):
    """An ordered partition of {1..n}: disjoint increasing blocks covering it."""

    __slots__ = ("n", "blocks")

    def __init__(self, n: int, blocks: tuple[tuple[int, ...], ...]):
        # One pass that raises in the order of the messages.
        seen: set[int] = set()
        size = 0
        for block in blocks:
            if not block:
                raise ValueError("blocks must be nonempty")
            if not all(map(le, block, block[1:])):
                raise ValueError("blocks must be increasing")
            seen.update(block)
            size += len(block)
        if size != len(seen) or seen != set(range(1, n + 1)):
            raise ValueError("blocks must partition {1..n}")
        self.n = n
        self.blocks = tuple(map(tuple, blocks))

    def _key(self):
        return self.n, self.blocks

    @property
    def type(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    @property
    def m(self) -> int:
        return len(self.blocks)

    def __str__(self):
        return ",".join("(" + ",".join(map(str, b)) + ")" for b in self.blocks)


def _partition(n: int, blocks: tuple) -> OrderedPartition:
    """An ``OrderedPartition`` built unchecked, for ``blocks`` that are
    nonempty, increasing and cover {1..n} by construction."""
    part = object.__new__(OrderedPartition)
    part.n = n
    part.blocks = blocks
    return part


def ordered_partitions(n: int, min_blocks: int = 2):
    """All ordered partitions of {1..n} with at least ``min_blocks`` blocks,
    as surjections onto {1..m} enumerated in lexicographic order."""
    for m in range(max(min_blocks, 0), n + 1):
        for blocks in _surjections(n, m):
            yield _partition(n, blocks)


def _surjections(n: int, m: int):
    """The blocks of each surjection {1..n} -> {1..m}, in lexicographic order
    of its label tuple: a depth-first search that puts letter 1, 2, ... into
    block 1, 2, ... in turn and prunes when the letters left cannot fill the
    blocks still empty."""
    blocks: list[list[int]] = [[] for _ in range(m)]
    out = []

    def rec(letter, empty):
        if letter > n:
            out.append(tuple(map(tuple, blocks)))
            return
        for block in blocks:
            still_empty = empty - (not block)
            if n - letter < still_empty:
                continue
            block.append(letter)
            rec(letter + 1, still_empty)
            block.pop()

    rec(1, m)
    return out


class GammaFacet(Record):
    """A facet of the permuto-associahedron, labelled by an ordered partition
    into at least two blocks."""

    __slots__ = ("partition",)

    def __init__(self, partition: OrderedPartition):
        if partition.m < 2:
            raise ValueError("facets need at least two blocks")
        self.partition = partition

    def _key(self):
        return (self.partition,)

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def dimension(self) -> int:
        # (m-2) from the associahedron factor plus (t_i - 1) per block
        return self.n - 2

    @property
    def decomposition(self) -> tuple[int, tuple[int, ...]]:
        """(m, block types): the facet is a product of the associahedron on m
        letters with the smaller permuto-associahedra on each block."""
        return self.partition.m, self.partition.type

    def vertex_count(self) -> int:
        m, types = self.decomposition
        count = catalan(m - 1)
        for t in types:
            count *= gamma_vertex_count(t)
        return count


def _facet(partition: OrderedPartition) -> GammaFacet:
    """A ``GammaFacet`` built unchecked, for a ``partition`` with at least
    two blocks by construction."""
    facet = object.__new__(GammaFacet)
    facet.partition = partition
    return facet


def enumerate_facets(n: int) -> list[GammaFacet]:
    if n < 1:
        raise ValueError("n must be positive")
    return [_facet(part) for part in ordered_partitions(n, 2)]


# ---------------------------------------------------------------------------
# vertices


class GammaVertex(Record):
    """A vertex: a permutation of {1..n} with a binary planar tree on n leaves."""

    __slots__ = ("perm", "tree")

    def __init__(self, perm: tuple[int, ...], tree: object):
        n = len(perm)
        if sorted(perm) != list(range(1, n + 1)):
            raise ValueError("perm must be a permutation of {1..n}")
        leaves = _binary_leaves(tree)
        if leaves == 0 or leaves != n:  # 0 also rejects n = 0 with tree ()
            raise ValueError(
                "tree must be a binary tree of nested pairs with one leaf per letter"
            )
        self.perm = tuple(perm)
        self.tree = tree

    def _key(self):
        return self.perm, self.tree

    @property
    def n(self) -> int:
        return len(self.perm)

    def __str__(self):
        return f"{self.perm} {render_tree(self.tree)}"


def _vertex(perm: tuple[int, ...], tree) -> GammaVertex:
    """A ``GammaVertex`` built unchecked, for a ``perm`` that is a
    permutation and a ``tree`` binary on as many leaves by construction."""
    v = object.__new__(GammaVertex)
    v.perm = perm
    v.tree = tree
    return v


def gamma_vertex_count(n: int) -> int:
    return math.factorial(n) * catalan(n - 1)


def enumerate_vertices(n: int) -> list[GammaVertex]:
    if n < 1:
        raise ValueError("n must be positive")
    return [
        _vertex(perm, tree)
        for perm in itertools.permutations(range(1, n + 1))
        for tree in binary_trees(n)
    ]


@lru_cache(maxsize=None)
def _type_vertices(types: tuple[int, ...]) -> tuple:
    """The vertices of a facet of the given type, as (positions, tree) pairs:
    the vertex's permutation lists the facet's letters, read block by block,
    at these positions.  In the order of ``facet_vertices``, each tree
    grafted once."""
    offsets = list(itertools.accumulate(types, initial=0))
    factors = [enumerate_vertices(t) for t in types]
    return tuple(
        (
            tuple(off + i - 1 for off, v in zip(offsets, combo) for i in v.perm),
            graft(ktree, [v.tree for v in combo]),
        )
        for ktree in binary_trees(len(types))
        for combo in itertools.product(*factors)
    )


def facet_vertices(facet: GammaFacet) -> list[GammaVertex]:
    """All vertices of a facet, via the product decomposition: its type's
    vertices with the letters renamed.  The letters are {1..n} because the
    facet's partition was checked when it was made."""
    letters = tuple(itertools.chain.from_iterable(facet.partition.blocks))
    return [
        _vertex(tuple(map(letters.__getitem__, positions)), tree)
        for positions, tree in _type_vertices(facet.partition.type)
    ]


# ---------------------------------------------------------------------------
# degeneracies


def degeneracy(v: GammaVertex, j: int) -> GammaVertex:
    """Delete letter j and renumber the rest, collapsing the unary tree node
    left behind.  Defined for vertices on at least two letters; a face is its
    vertex set, so the degeneracy of a face is the image of that set."""
    n = v.n
    if not 1 <= j <= n:
        raise ValueError("letter out of range")
    if n < 2:
        raise ValueError("cannot delete from a one-letter label")
    pos = v.perm.index(j)
    perm = tuple(x - 1 if x > j else x for x in v.perm if x != j)
    return _vertex(perm, delete_leaf(v.tree, pos))


# ---------------------------------------------------------------------------
# census


def stirling2(n: int, k: int) -> int:
    if k == 0:
        return 1 if n == 0 else 0
    if n == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def boundary_census(n: int) -> dict:
    """Vertex and facet counts (n <= 5), facet counts by type, plus the full
    f-vector and Euler characteristic of the boundary where all faces are
    vertices or facets (n <= 3)."""
    if not 1 <= n <= 5:
        raise ValueError("census supports 1 <= n <= 5")
    facets = enumerate_facets(n) if n >= 2 else []
    vertices = enumerate_vertices(n)
    by_type: dict[tuple[int, ...], int] = {}
    for f in facets:
        by_type[f.partition.type] = by_type.get(f.partition.type, 0) + 1
    out = {
        "n": n,
        "dimension": n - 1,
        "vertices": len(vertices),
        "facets": len(facets),
        "facets_by_type": {
            "|".join(map(str, t)): c for t, c in sorted(by_type.items())
        },
        "facet_dimensions": sorted({f.dimension for f in facets}),
        "associahedron_vertices": catalan(n - 1),
    }
    if n <= 3:
        if n == 1:
            f_vector: list[int] = []
        elif n == 2:
            f_vector = [len(vertices)]
        else:
            f_vector = [len(vertices), len(facets)]
        euler = sum((-1) ** i * c for i, c in enumerate(f_vector))
        out["f_vector"] = f_vector
        out["euler_characteristic"] = euler
    return out
