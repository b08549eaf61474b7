import collections
import hashlib
import itertools
import json
import math
import random

import pytest

from dnalg.polytopes import (
    LEAF,
    GammaFacet,
    GammaVertex,
    OrderedPartition,
    _drop_letter,
    _facet,
    _partition,
    _type_vertices,
    _vertex,
    binary_trees,
    boundary_census,
    catalan,
    degeneracy,
    delete_leaf,
    enumerate_facets,
    enumerate_vertices,
    facet_vertices,
    graft,
    ordered_partitions,
    render_tree,
    stirling2,
)


def oracle_ordered_partitions(n):
    """Independent enumeration: linear orders on the blocks of unordered
    partitions, built from subsets recursively."""
    items = tuple(range(1, n + 1))

    def partitions(rest):
        if not rest:
            yield []
            return
        first, tail = rest[0], rest[1:]
        for subset_bits in itertools.product((0, 1), repeat=len(tail)):
            block = (first,) + tuple(t for t, b in zip(tail, subset_bits) if b)
            remaining = tuple(t for t, b in zip(tail, subset_bits) if not b)
            for more in partitions(remaining):
                yield [block] + more

    out = set()
    for blocks in partitions(items):
        if len(blocks) < 2:
            continue
        for order in itertools.permutations(blocks):
            out.add(tuple(order))
    return out


def filtered_ordered_partitions(n, m):
    """The original enumeration of the m-block partitions, kept as the order
    reference: filter all m^n label tuples down to the surjections."""
    out = []
    for labels in itertools.product(range(m), repeat=n):
        if set(labels) != set(range(m)):
            continue
        out.append(tuple(
            tuple(i + 1 for i, lab in enumerate(labels) if lab == b)
            for b in range(m)
        ))
    return out


def flattened_facet_vertices(facet):
    """The original facet-vertex enumeration, kept as the order reference:
    for each block tree and each choice of one vertex per block, rename each
    vertex's letters into its block, then graft the vertices' trees onto the
    block tree, one per leaf."""
    m, types = facet.decomposition
    blocks = facet.partition.blocks
    return [
        GammaVertex(
            tuple(block[i - 1] for block, v in zip(blocks, combo) for i in v.perm),
            graft(ktree, [v.tree for v in combo]),
        )
        for ktree in binary_trees(m)
        for combo in itertools.product(*(enumerate_vertices(t) for t in types))
    ]


def oracle_binary_trees(m):
    """Independent Catalan-style enumeration of binary bracketings."""
    if m == 1:
        return [LEAF]
    out = []
    for left in range(1, m):
        for lt in oracle_binary_trees(left):
            for rt in oracle_binary_trees(m - left):
                out.append((lt, rt))
    return out


# ---------------------------------------------------------------------------
# trees


def test_binary_tree_counts():
    for m in range(1, 7):
        assert len(binary_trees(m)) == catalan(m - 1)
        assert set(binary_trees(m)) == set(map(_retuple, oracle_binary_trees(m)))


def _retuple(t):
    return t if t is LEAF else tuple(_retuple(c) for c in t)


def test_k5_has_14_vertices():
    assert len(binary_trees(5)) == 14


def test_binary_trees_match_planar_filter_in_order():
    # The independent bracketing enumeration is the order reference.
    for m in range(1, 9):
        assert binary_trees(m) == tuple(oracle_binary_trees(m)), m
    with pytest.raises(ValueError):
        binary_trees(0)


def test_graft_and_delete_leaf():
    t = graft((LEAF, LEAF), [(LEAF, LEAF), LEAF])
    assert t == ((LEAF, LEAF), LEAF)
    assert delete_leaf(t, 2) == (LEAF, LEAF)
    assert delete_leaf((LEAF, LEAF), 0) == LEAF
    assert render_tree(t) == "((..).)"


def test_graft_rejects_wrong_subtree_count():
    with pytest.raises(ValueError, match="too few"):
        graft((LEAF, (LEAF, LEAF)), [LEAF, LEAF])
    with pytest.raises(ValueError, match="too many"):
        graft((LEAF, LEAF), [LEAF, LEAF, LEAF])


# ---------------------------------------------------------------------------
# facets


def test_facets_two_letters():
    facets = enumerate_facets(2)
    labels = {str(f.partition) for f in facets}
    assert labels == {"(1),(2)", "(2),(1)"}


def test_facets_three_letters():
    assert len(enumerate_facets(3)) == 12


def test_facets_four_letters():
    facets = enumerate_facets(4)
    assert len(facets) == 74
    expected = sum(
        math.factorial(m) * stirling2(4, m) for m in range(2, 5)
    )
    assert len(facets) == expected


def test_ordered_partitions_match_label_filter_in_order():
    for n in range(1, 8):
        by_m = {m: filtered_ordered_partitions(n, m) for m in range(n + 1)}
        for min_blocks in range(n + 2):
            want = [b for m in range(min_blocks, n + 1) for b in by_m[m]]
            got = [p.blocks for p in ordered_partitions(n, min_blocks)]
            assert got == want, (n, min_blocks)


def test_ordered_partitions_ignore_a_negative_block_floor():
    # No partition has fewer than zero blocks, so a negative floor is 0.
    for n in range(4):
        want = list(ordered_partitions(n, 0))
        for min_blocks in range(-3, 0):
            assert list(ordered_partitions(n, min_blocks)) == want, (n, min_blocks)
    assert list(ordered_partitions(0, 0)) == [OrderedPartition(0, ())]


def test_facets_match_oracle():
    for n in (2, 3, 4):
        ours = {f.partition.blocks for f in enumerate_facets(n)}
        assert ours == oracle_ordered_partitions(n)


def test_facet_dimensions():
    for n in (2, 3, 4, 5):
        for f in enumerate_facets(n):
            assert f.dimension == n - 2


def test_partition_validation():
    with pytest.raises(ValueError):
        OrderedPartition(3, ((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        OrderedPartition(3, ((2, 1), (3,)))
    with pytest.raises(ValueError):
        GammaFacet(OrderedPartition(3, ((1, 2, 3),)))


def reference_partition_error(n, blocks):
    """The message of the first failing partition check, one at a time."""
    seen = set()
    for block in blocks:
        if not block:
            return "blocks must be nonempty"
        if list(block) != sorted(block):
            return "blocks must be increasing"
        seen.update(block)
    if len(seen) != sum(len(b) for b in blocks) or seen != set(range(1, n + 1)):
        return "blocks must partition {1..n}"
    return None


def test_partition_checks_keep_verdicts_and_messages():
    cases = [(n, part.blocks) for n in range(1, 5) for part in ordered_partitions(n, 1)]
    cases += [
        (3, ((1, 2), (2, 3))),        # a letter twice
        (3, ((2, 1), (3,))),          # a decreasing block
        (3, ((1, 1), (2, 3))),        # a repeat inside a block
        (3, ((1, 2), (), (3,))),      # an empty block
        (3, ((3, 2), ())),            # decreasing before empty
        (3, ((1, 2),)),               # a letter missing
        (3, ((1, 2), (3, 4))),        # a letter beyond n
        (2, ((0, 1), (2,))),          # a letter below 1
        (3, ([1, 3], [2])),           # lists as blocks
        (3, ([3, 1], [2])),
        (0, ()),
        (2, (("1",), ("2",))),        # not integers
    ]
    for n, blocks in cases:
        want = reference_partition_error(n, blocks)
        if want is None:
            # Lists are stored as tuples: the object equals, and hashes
            # like, the one built from tuples.
            as_tuples = tuple(map(tuple, blocks))
            part = OrderedPartition(n, blocks)
            assert part.blocks == as_tuples
            assert part == OrderedPartition(n, as_tuples)
            assert hash(part) == hash(OrderedPartition(n, as_tuples))
        else:
            with pytest.raises(ValueError) as err:
                OrderedPartition(n, blocks)
            assert str(err.value) == want, (n, blocks)


def test_permutation_check_accepts_lists():
    # The check sorts the letters, so any sequence of them is read; it is
    # stored as a tuple, so the vertex equals, and hashes like, the one
    # built from a tuple.
    v = GammaVertex([2, 1], (LEAF, LEAF))
    assert v.n == 2 and v.perm == (2, 1)
    assert v == GammaVertex((2, 1), (LEAF, LEAF))
    assert hash(v) == hash(GammaVertex((2, 1), (LEAF, LEAF)))
    with pytest.raises(ValueError, match="permutation"):
        GammaVertex([1, 1], (LEAF, LEAF))


# ---------------------------------------------------------------------------
# vertices


def test_vertex_counts():
    assert len(enumerate_vertices(2)) == 2
    assert len(enumerate_vertices(3)) == 12
    assert len(enumerate_vertices(4)) == math.factorial(4) * catalan(3)  # 120


def test_vertex_validation():
    assert GammaVertex((2, 1), (LEAF, LEAF)).tree == (LEAF, LEAF)
    bad = [
        ((1, 1), (LEAF, LEAF)),                # not a permutation
        ((1, 2, 3), (LEAF, LEAF)),             # two leaves for three letters
        ((1, 2, 3), (LEAF, LEAF, LEAF)),       # ternary, not binary
        ((1, 2), [LEAF, LEAF]),                # a list, not a tree of pairs
        ((1, 2, 3), (LEAF, [LEAF, LEAF])),     # a list inside a pair
        ((), ()),                              # no letters and no leaves
    ]
    for perm, tree in bad:
        with pytest.raises(ValueError):
            GammaVertex(perm, tree)


def test_vertices_are_distinct():
    vs = enumerate_vertices(3)
    assert len(set(vs)) == 12


# ---------------------------------------------------------------------------
# facet vertices


def test_facet_vertex_counts_three_letters():
    for facet in enumerate_facets(3):
        vs = facet_vertices(facet)
        assert len(vs) == 2
        assert len(set(vs)) == 2
        assert facet.vertex_count() == 2


def facets_of_each_type(n, seed):
    """The first facet of each type on n letters, and a second facet of the
    same type with the letters permuted at random."""
    rng = random.Random(seed)
    first = {}
    for facet in enumerate_facets(n):
        first.setdefault(facet.partition.type, facet)
    out = []
    for facet in first.values():
        while True:
            sigma = rng.sample(range(1, n + 1), n)
            blocks = tuple(
                tuple(sorted(sigma[x - 1] for x in b)) for b in facet.partition.blocks
            )
            if blocks != facet.partition.blocks:
                break
        out += [facet, GammaFacet(OrderedPartition(n, blocks))]
    return out


def test_facet_vertices_match_face_product_flattening_in_order():
    for n in (2, 3, 4, 5):
        for facet in enumerate_facets(n):
            assert facet_vertices(facet) == flattened_facet_vertices(facet)
    # Gamma_6: every one of the 31 types, on two facets each, so the
    # per-type vertices are relabelled at least once.
    facets = facets_of_each_type(6, seed=61)
    assert len(facets) == 62 and len({f.partition.type for f in facets}) == 31
    for facet in facets:
        assert facet_vertices(facet) == flattened_facet_vertices(facet)


def test_facet_vertices_unchanged_by_a_cold_type_cache():
    facets = enumerate_facets(4) + facets_of_each_type(5, seed=53)
    warm = [facet_vertices(f) for f in facets]
    _type_vertices.cache_clear()
    assert [facet_vertices(f) for f in facets] == warm
    assert _type_vertices.cache_info().currsize == 7 + 15


def test_degeneracy_unchanged_by_cold_caches():
    pairs = [(v, j) for n in (4, 5) for v in enumerate_vertices(n) for j in range(1, n + 1)]
    warm = [degeneracy(v, j) for v, j in pairs]
    _drop_letter.cache_clear()
    delete_leaf.cache_clear()
    assert [degeneracy(v, j) for v, j in pairs] == warm
    # n! * n relabel entries and m * C_{m-1} leaf deletions on n = m letters
    assert _drop_letter.cache_info().currsize == 24 * 4 + 120 * 5
    assert delete_leaf.cache_info().currsize == 4 * 5 + 5 * 14


def test_enumeration_digest_is_pinned():
    # Every vertex of Gamma_1..Gamma_6 and every facet of Gamma_2..Gamma_6,
    # in order: any change in what the enumerators build, or its order, shows.
    h = hashlib.sha256()
    for n in range(1, 7):
        h.update(json.dumps([(v.perm, v.tree) for v in enumerate_vertices(n)]).encode())
    for n in range(2, 7):
        h.update(json.dumps([f.partition.blocks for f in enumerate_facets(n)]).encode())
    assert h.hexdigest() == (
        "30b49f404e202b4c402c33e4c36e42063f12ef93827a270dbef8b782a75879d9"
    )


def test_degeneracy_digest_is_pinned():
    # degeneracy(v, j) for every vertex v of Gamma_5 in enumeration order and
    # j = 1..5 in turn: any change in what degeneracy builds shows.
    images = [
        (w.perm, w.tree)
        for v in enumerate_vertices(5)
        for w in (degeneracy(v, j) for j in range(1, 6))
    ]
    assert hashlib.sha256(json.dumps(images).encode()).hexdigest() == (
        "4340071ec0b67a73992a802d8f4c9eb1b3a7f77fd0d3cde8ed8f9158254d9eec"
    )


def test_built_vertices_pass_the_validating_constructor():
    # enumerate_vertices, facet_vertices and degeneracy skip the public
    # constructor; each vertex they build must be one it accepts, equal and
    # with the same hash.
    first_of_type = {}
    for facet in enumerate_facets(6):
        first_of_type.setdefault(facet.partition.type, facet)
    facets = [f for n in range(2, 6) for f in enumerate_facets(n)]
    built = [v for n in range(1, 7) for v in enumerate_vertices(n)]
    built += [v for f in facets + list(first_of_type.values()) for v in facet_vertices(f)]
    built += [
        degeneracy(v, j)
        for n in range(2, 6)
        for v in enumerate_vertices(n)
        for j in range(1, n + 1)
    ]
    for v in built:
        checked = GammaVertex(v.perm, v.tree)
        assert checked == v and hash(checked) == hash(v)


def test_built_partitions_and_facets_pass_the_validating_constructors():
    # ordered_partitions and enumerate_facets skip the public constructors;
    # each partition and facet they build must be one those accept, equal
    # and with the same hash.
    for n in range(1, 7):
        for part in ordered_partitions(n):
            checked = OrderedPartition(n, part.blocks)
            assert checked == part and hash(checked) == hash(part)
        for facet in enumerate_facets(n):
            checked = GammaFacet(OrderedPartition(n, facet.partition.blocks))
            assert checked == facet and hash(checked) == hash(facet)


@pytest.mark.parametrize(
    "build, cls, args",
    [
        (_vertex, GammaVertex, ((2, 1), (LEAF, LEAF))),
        (_partition, OrderedPartition, (3, ((1, 3), (2,)))),
        (_facet, GammaFacet, (OrderedPartition(3, ((1, 3), (2,))),)),
    ],
    ids=["vertex", "partition", "facet"],
)
def test_builder_sets_every_field(build, cls, args):
    # Each builder sets the slots one by one; a field added later would be
    # left unset, and reading it would raise AttributeError.
    built = build(*args)
    assert type(built) is cls
    assert [getattr(built, name) for name in cls.__slots__] == list(args)


def test_facet_vertex_count_two_two_type():
    facet = GammaFacet(OrderedPartition(4, ((1, 2), (3, 4))))
    assert facet.vertex_count() == 4
    assert len(set(facet_vertices(facet))) == 4


def test_vertex_facet_incidences():
    for n in (2, 3, 4):
        facets = enumerate_facets(n)
        vertices = set(enumerate_vertices(n))
        incidences = 0
        covered = set()
        for facet in facets:
            vs = facet_vertices(facet)
            assert len(vs) == len(set(vs))
            assert set(vs) <= vertices
            covered.update(vs)
            incidences += len(vs)
        assert covered == vertices  # the facets cover the boundary
        assert incidences == sum(f.vertex_count() for f in facets)


# ---------------------------------------------------------------------------
# degeneracies


def test_degeneracy_two_letters():
    v = GammaVertex((1, 2), (LEAF, LEAF))
    out = degeneracy(v, 1)
    assert out == GammaVertex((1,), LEAF)


def test_degeneracy_example_three_letters():
    v = GammaVertex((2, 1, 3), ((LEAF, LEAF), LEAF))
    out = degeneracy(v, 3)
    assert out == GammaVertex((2, 1), (LEAF, LEAF))


def test_degeneracy_covers_all_vertices():
    # The images of Gamma_n under deleting letter j = 1..n are exactly the
    # vertices of Gamma_{n-1}.
    for n in (3, 4, 5):
        images = {
            degeneracy(v, j) for v in enumerate_vertices(n) for j in range(1, n + 1)
        }
        assert images == set(enumerate_vertices(n - 1))


def test_degeneracy_of_a_facet_is_a_face():
    # A face is its vertex set, so the degeneracy s_j of a facet F of Gamma_n
    # is the image of F's vertices.  It is all of Gamma_{n-1} exactly when F
    # has two blocks and one of them is {j}; otherwise it is the facet whose
    # blocks are F's with j deleted, the letters renumbered and an emptied
    # block dropped.
    whole_images, facet_images = collections.Counter(), collections.Counter()
    for n in range(2, 6):
        whole = set(enumerate_vertices(n - 1))
        for facet in enumerate_facets(n):
            vertices = facet_vertices(facet)
            for j in range(1, n + 1):
                image = {degeneracy(v, j) for v in vertices}
                if facet.partition.m == 2 and (j,) in facet.partition.blocks:
                    assert image == whole, (str(facet.partition), j)
                    whole_images[n] += 1
                    continue
                renamed = (
                    tuple(x - (x > j) for x in block if x != j)
                    for block in facet.partition.blocks
                )
                face = GammaFacet(OrderedPartition(n - 1, tuple(filter(None, renamed))))
                assert image == set(facet_vertices(face)), (str(facet.partition), j)
                facet_images[n] += 1
    assert whole_images == {n: 2 * n for n in range(2, 6)}
    assert facet_images == {3: 30, 4: 288, 5: 2690}


def test_operator_face_degeneracy_digest_is_pinned():
    # The image under degeneracy(., j) of every facet of Gamma_2..Gamma_5, in
    # enumeration order, and every letter j, as the sorted positions of its
    # vertices in enumerate_vertices(n - 1): any change in what the
    # degeneracy of a face is shows.
    h = hashlib.sha256()
    kinds = collections.Counter()
    for n in range(2, 6):
        index = {v: i for i, v in enumerate(enumerate_vertices(n - 1))}
        for facet in enumerate_facets(n):
            vertices = facet_vertices(facet)
            for j in range(1, n + 1):
                image = sorted({index[degeneracy(v, j)] for v in vertices})
                kinds["whole" if len(image) == len(index) else "facet"] += 1
                h.update(json.dumps(image).encode() + b"\n")
    assert kinds == {"whole": 28, "facet": 3008}
    assert h.hexdigest() == (
        "b388bd26f6cacff3be3aa99de61294cf7b0413e79affa97b4c9cc53b400f7832"
    )


def test_degeneracy_on_faces():
    facet = GammaFacet(OrderedPartition(3, ((1, 2), (3,))))
    vertices = facet_vertices(facet)
    # removing the singleton block leaves the whole two-letter polytope
    assert {degeneracy(v, 3) for v in vertices} == set(enumerate_vertices(2))
    # removing a letter of the other block leaves a facet of Gamma_2
    edge = GammaFacet(OrderedPartition(2, ((1,), (2,))))
    assert {degeneracy(v, 1) for v in vertices} == set(facet_vertices(edge))


def test_degeneracy_closure_on_operator_faces():
    # Every face of the facet (1 4 | 2 3) of Gamma_4, as a vertex set: each
    # block is either all of Gamma_2 or one of its vertices.  Its image under
    # each letter lies in the image of the facet, a facet of Gamma_3, and has
    # at most as many vertices; a vertex goes to a vertex.
    facet = GammaFacet(OrderedPartition(4, ((1, 4), (2, 3))))
    vertices = facet_vertices(facet)
    # one binary tree on two blocks, so the vertices run over the block
    # vertices in product order
    blocks = list(itertools.product(range(2), repeat=2))
    assert len(vertices) == len(blocks) == 4
    gamma3 = set(enumerate_vertices(3))
    for choice in itertools.product((None, 0, 1), repeat=2):
        face = {
            v
            for v, picks in zip(vertices, blocks)
            if all(c is None or c == k for c, k in zip(choice, picks))
        }
        assert len(face) == 2 ** choice.count(None)
        for j in (1, 2, 3, 4):
            image = {degeneracy(v, j) for v in face}
            facet_image = {degeneracy(v, j) for v in vertices}
            assert image <= facet_image < gamma3
            assert 1 <= len(image) <= len(face)
            if len(face) == 1:
                assert len(image) == 1


# ---------------------------------------------------------------------------
# census


def test_census_three_letters():
    c = boundary_census(3)
    assert c["vertices"] == 12 and c["facets"] == 12
    assert c["f_vector"] == [12, 12]
    assert c["euler_characteristic"] == 0


def test_census_two_letters():
    c = boundary_census(2)
    assert c["f_vector"] == [2]
    assert c["euler_characteristic"] == 2


def test_census_counts_up_to_five():
    expect = {
        1: (1, 0),
        2: (2, 2),
        3: (12, 12),
        4: (120, 74),
        5: (1680, 540),
    }
    for n, (verts, facets) in expect.items():
        c = boundary_census(n)
        assert (c["vertices"], c["facets"]) == (verts, facets)
        assert c["vertices"] == math.factorial(n) * catalan(n - 1)
        if n >= 2:
            assert c["facets"] == sum(
                math.factorial(m) * stirling2(n, m) for m in range(2, n + 1)
            )


def test_census_facet_types():
    c = boundary_census(3)
    assert c["facets_by_type"] == {"1|1|1": 6, "1|2": 3, "2|1": 3}


def test_degeneracy_rejects_bad_letters():
    v = GammaVertex((1, 2), (LEAF, LEAF))
    with pytest.raises(ValueError):
        degeneracy(v, 3)
    with pytest.raises(ValueError):
        degeneracy(GammaVertex((1,), LEAF), 1)


def test_enumerations_are_deterministic():
    assert enumerate_facets(3) == enumerate_facets(3)
    assert enumerate_vertices(3) == enumerate_vertices(3)
    assert [f.partition.blocks for f in enumerate_facets(2)] == [
        ((1,), (2,)),
        ((2,), (1,)),
    ]
