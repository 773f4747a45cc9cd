import random

import pytest

from stargenus.gf2 import (BitMatrix, SymplecticBasis, _echelon, corank, masked_rank,
                           principal_submatrix, rank, rank_of_rows)


def random_symmetric_zero_diagonal(rng, n, density=0.5):
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return BitMatrix(n, tuple(rows))


def test_pinned_ranks():
    assert rank(BitMatrix.from_lists([[0]])) == 0
    assert rank(BitMatrix.from_lists([[0, 1], [1, 0]])) == 2
    # three pairwise-linked chords: rows sum to zero over GF(2)
    m = BitMatrix.from_lists([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert rank(m) == 2
    assert corank(m) == 1


def test_bitmatrix_rejects_malformed_rows():
    BitMatrix(2, (0b10, 0b01))  # bit n - 1 is inside
    with pytest.raises(ValueError, match="expected 2 rows, got 1"):
        BitMatrix(2, (0,))
    for row in (0b100, 0b101, -1):
        with pytest.raises(ValueError, match="bits outside the matrix"):
            BitMatrix(2, (row, 0))
    with pytest.raises(ValueError, match="not square"):
        BitMatrix.from_lists([[0, 1], [1]])


def test_from_pairs_matches_lists():
    m = BitMatrix.from_pairs(4, [(0, 2), (1, 3), (0, 3)])
    assert m.to_lists() == [[0, 0, 1, 1],
                            [0, 0, 0, 1],
                            [1, 0, 0, 0],
                            [1, 1, 0, 0]]
    assert m.is_symmetric_zero_diagonal()


def test_rank_is_permutation_invariant():
    for seed in range(25):
        rng = random.Random(seed)
        n = rng.randint(1, 14)
        m = random_symmetric_zero_diagonal(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = principal_submatrix(m, perm)
        assert rank(permuted) == rank(m)


def test_symmetric_zero_diagonal_rank_is_even():
    for seed in range(60):
        rng = random.Random(100 + seed)
        m = random_symmetric_zero_diagonal(rng, rng.randint(1, 16))
        assert rank(m) % 2 == 0


def test_principal_submatrix_values():
    m = BitMatrix.from_lists([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    sub = principal_submatrix(m, [0, 2])
    assert sub.to_lists() == [[0, 1], [1, 0]]
    assert principal_submatrix(m, []).n == 0
    with pytest.raises(ValueError):
        principal_submatrix(m, [0, 0])
    with pytest.raises(ValueError):
        principal_submatrix(m, [3])


def test_masked_rank_agrees_with_repacking():
    for seed in range(40):
        rng = random.Random(7000 + seed)
        n = rng.randint(1, 14)
        m = random_symmetric_zero_diagonal(rng, n)
        indices = sorted(rng.sample(range(n), rng.randint(0, n)))
        assert masked_rank(m, indices) == rank(principal_submatrix(m, indices))


def test_submatrix_rank_monotone():
    # dropping an index never increases the rank by more than 2,
    # and never below zero
    rng = random.Random(42)
    m = random_symmetric_zero_diagonal(rng, 12)
    indices = list(range(12))
    prev = rank(m)
    while indices:
        indices.pop()
        r = masked_rank(m, indices)
        assert 0 <= r <= prev
        prev = r


def test_rank_of_rows_accepts_generators():
    assert rank_of_rows(r for r in (0b110, 0b011, 0b101)) == 2


def test_echelon_is_reduced_and_spans_the_rows():
    # against the span closed by brute force: it has 2^rank vectors, and the
    # echelon rows lie in it, each clear of every other row's leading bit
    for seed in range(400):
        rng = random.Random(seed)
        rows = [rng.randrange(256) for _ in range(rng.randint(0, 8))]
        span = {0}
        for r in rows:
            span |= {s ^ r for s in span}
        assert 2 ** rank_of_rows(rows) == len(span), rows
        echelon = _echelon(rows)
        assert set(echelon.values()) <= span, rows
        for lead, row in echelon.items():
            assert row.bit_length() - 1 == lead, rows
            assert all(not row >> other & 1 for other in echelon if other != lead), rows
        mask = rng.randrange(256)
        assert _echelon(rows, mask) == _echelon([r & mask for r in rows]), (rows, mask)


def symplectic_insertions():
    """60 seeded matrices, each with an insertion order and the basis after
    every prefix of it (the empty one first)."""
    # sparse matrices keep long radicals, dense ones pair up quickly
    for seed in range(60):
        rng = random.Random(9000 + seed)
        n = rng.randint(1, 24)
        m = random_symmetric_zero_diagonal(rng, n, density=rng.choice((0.1, 0.3, 0.5, 0.8)))
        order = rng.sample(range(n), n)
        bases = [SymplecticBasis(m.rows)]
        for i in order:
            bases.append(bases[-1].add(i))
        yield m, order, bases


def test_symplectic_basis_tracks_masked_rank():
    for m, order, bases in symplectic_insertions():
        # every basis, earlier ones included, keeps the rank of its prefix
        for k, basis in enumerate(bases):
            assert basis.rank == masked_rank(m, order[:k])


def test_symplectic_raisers_predict_rank_growth():
    for m, order, bases in symplectic_insertions():
        for k, basis in enumerate(bases):
            for i in order[k:]:
                assert bool(basis.raisers >> i & 1) == (basis.add(i).rank == basis.rank + 2)


def test_symplectic_fields_track_the_pairs_and_radical():
    # rank and raisers are fields that add keeps, not recomputed on read;
    # an insertion whose image projects to zero off the pairs changes nothing
    unchanged = 0
    for m, order, bases in symplectic_insertions():
        for k, basis in enumerate(bases):
            raisers = 0
            for r in basis.radical:
                raisers |= r
            assert basis.raisers == raisers
            assert basis.rank == 2 * len(basis.pairs)
            if k == len(order):
                continue
            i, grown = order[k], bases[k + 1]
            x = m.rows[i]
            for u, v in basis.pairs:
                x ^= (u if v >> i & 1 else 0) ^ (v if u >> i & 1 else 0)
            if x == 0:
                unchanged += 1
                live = sum(1 << j for j in order[k + 1:])
                assert (grown.pairs, grown.radical) == (basis.pairs, basis.radical)
                assert grown.residual(live) == basis.residual(live)
    assert unchanged > 50


def test_symplectic_residual_projections_are_a_gram_matrix():
    # bit i of e_j's projected image is B(e_i', e_j') for the projections off
    # the pairs, so on the live indices the images are symmetric with a zero
    # diagonal; projecting off only one vector of each pair breaks both
    rng = random.Random(2013)
    for m, order, bases in symplectic_insertions():
        for k, basis in enumerate(bases):
            live = [j for j in sorted(order[k:]) if rng.random() < 0.7]
            _, projected = basis.residual(sum(1 << j for j in live))
            for a, i in enumerate(live):
                assert [projected[b] >> i & 1 for b in range(len(live))] == \
                    [projected[a] >> j & 1 for j in live]
                assert not projected[a] >> i & 1


def _subsets(items):
    return [[x for k, x in enumerate(items) if code >> k & 1] for code in range(1 << len(items))]


def test_symplectic_residual_fixes_every_gain():
    # bases with equal residuals over the live indices gain the same rank
    # (by masked_rank) from every subset of them; each set is inserted in two
    # random orders, which can split the pairs differently
    rng = random.Random(2012)
    merged = 0
    for _ in range(150):
        n = rng.randint(2, 7)
        m = random_symmetric_zero_diagonal(rng, n, density=rng.choice((0.2, 0.4, 0.6)))
        live_indices = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
        live = sum(1 << j for j in live_indices)
        placed = [i for i in range(n) if i not in live_indices]
        gains_of = {}
        for inserted in _subsets(placed):
            base = masked_rank(m, inserted)
            gains = [masked_rank(m, inserted + extra) - base for extra in _subsets(live_indices)]
            for _ in range(2):
                basis = SymplecticBasis(m.rows)
                for i in rng.sample(inserted, len(inserted)):
                    basis = basis.add(i)
                key = basis.residual(live)
                merged += key in gains_of
                assert gains_of.setdefault(key, gains) == gains
    assert merged > 1000
