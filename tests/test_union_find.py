import random

from stargenus.union_find import ParityUnionFind


def test_union_find_basic():
    # plain connectivity: parity 0 on every link
    uf = ParityUnionFind(5)
    assert uf.union(0, 1, 0)
    assert uf.union(3, 4, 0)
    assert uf.union(1, 0, 0)  # already joined, and consistent
    assert uf.find(0) == uf.find(1)
    assert uf.find(3) == uf.find(4)
    assert uf.find(2)[0] not in (uf.find(0)[0], uf.find(3)[0])


def test_parity_consistent_chain():
    uf = ParityUnionFind(4)
    assert uf.union(0, 1, 1)
    assert uf.union(1, 2, 1)
    assert uf.union(2, 3, 1)
    r0, p0 = uf.find(0)
    r3, p3 = uf.find(3)
    assert r0 == r3
    assert p0 ^ p3 == 1  # odd path length


def test_parity_detects_odd_cycle():
    uf = ParityUnionFind(3)
    assert uf.union(0, 1, 1)
    assert uf.union(1, 2, 1)
    assert not uf.union(0, 2, 1)
    assert uf.union(0, 2, 0)  # the consistent closing is still accepted


def test_parity_against_explicit_colouring():
    # Random constraint batches on 40 keys, checked against brute-force
    # 2-colouring of each connected component.
    for seed in range(30):
        rng = random.Random(seed)
        n = 40
        uf = ParityUnionFind(n)
        constraints = []
        consistent = True
        for _ in range(60):
            x, y = rng.randrange(n), rng.randrange(n)
            d = rng.randint(0, 1)
            ok = uf.union(x, y, d)
            if ok:
                constraints.append((x, y, d))
            else:
                consistent = False
        colour = {}
        for x, y, d in constraints:
            rx, px = uf.find(x)
            ry, py = uf.find(y)
            assert rx == ry
            assert px ^ py == d
        # each component's root is its lowest key, and sides() is the
        # explicit colouring with that key at 0
        adjacent = {x: [] for x in range(n)}
        for x, y, d in constraints:
            adjacent[x].append((y, d))
            adjacent[y].append((x, d))
        explicit = {}
        for lowest in range(n):
            if lowest in explicit:
                continue
            explicit[lowest] = 0
            stack = [lowest]
            while stack:
                x = stack.pop()
                assert uf.find(x)[0] == lowest
                for y, d in adjacent[x]:
                    if y not in explicit:
                        explicit[y] = explicit[x] ^ d
                        stack.append(y)
        assert uf.sides() == [explicit[x] for x in range(n)]
        if not consistent:
            continue
        # a concrete colouring drawn from find() must satisfy every constraint
        for x, y, d in constraints:
            _, px = uf.find(x)
            _, py = uf.find(y)
            colour[x], colour[y] = px, py
            assert colour[x] ^ colour[y] == d
