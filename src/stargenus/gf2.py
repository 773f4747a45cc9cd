"""Dense linear algebra over GF(2), rows stored as Python ints (bit j = column j)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BitMatrix:
    """Square 0/1 matrix. Immutable; rows are ints read little-endian by column."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        for r in self.rows:
            if r < 0 or r >> self.n:
                raise ValueError("row has bits outside the matrix")

    @classmethod
    def from_lists(cls, rows: list[list[int]]) -> BitMatrix:
        n = len(rows)
        packed = []
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix is not square")
            packed.append(sum(1 << j for j, v in enumerate(row) if v & 1))
        return cls(n, tuple(packed))

    @classmethod
    def from_pairs(cls, n: int, pairs) -> BitMatrix:
        """Symmetric matrix with a 1 at (i, j) and (j, i) for each pair."""
        rows = [0] * n
        for i, j in pairs:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return cls(n, tuple(rows))

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def to_lists(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.n)] for r in self.rows]

    def is_symmetric_zero_diagonal(self) -> bool:
        for i in range(self.n):
            if (self.rows[i] >> i) & 1:
                return False
            for j in range(i + 1, self.n):
                if self.entry(i, j) != self.entry(j, i):
                    return False
        return True


def _echelon(rows, mask: int = -1) -> dict[int, int]:
    """The reduced row echelon form of the span of `rows`, each masked to
    `mask`, as leading bit -> row: no row has another row's leading bit set.

    Each new row is cleared of the leading bits it has, highest first;
    since the form is reduced, clearing one leaves the others as they are.
    A row that is left over gets a new leading bit, which it then clears
    from the rows that have it.
    """
    echelon: dict[int, int] = {}
    leads = 0  # bitmask of the leading bits
    for r in rows:
        r &= mask
        while r & leads:
            r ^= echelon[(r & leads).bit_length() - 1]
        if r:
            lead = r.bit_length() - 1
            for other, p in echelon.items():
                if p >> lead & 1:
                    echelon[other] = p ^ r
            echelon[lead] = r
            leads |= 1 << lead
    return echelon


def rank_of_rows(rows) -> int:
    """GF(2) rank of arbitrary int rows: the number of rows in their
    reduced echelon form. `rank`, `corank` and `masked_rank` go through it."""
    return len(_echelon(rows))


def rank(m: BitMatrix) -> int:
    return rank_of_rows(m.rows)


def corank(m: BitMatrix) -> int:
    return m.n - rank(m)


def principal_submatrix(m: BitMatrix, indices: list[int]) -> BitMatrix:
    """Rows and columns restricted to `indices`, order preserved.

    Indices must be in range and duplicate-free.
    """
    seen = set()
    for i in indices:
        if not 0 <= i < m.n:
            raise ValueError(f"index {i} out of range")
        if i in seen:
            raise ValueError(f"duplicate index {i}")
        seen.add(i)
    rows = []
    for i in indices:
        src = m.rows[i]
        packed = 0
        for col, j in enumerate(indices):
            packed |= ((src >> j) & 1) << col
        rows.append(packed)
    return BitMatrix(len(indices), tuple(rows))


class SymplecticBasis:
    """Rank of a growing principal submatrix of a symmetric zero-diagonal
    matrix, one index at a time.

    Such a matrix is an alternating form over GF(2), so the span of the
    inserted unit vectors splits into hyperbolic pairs (u, v) with
    B(u, v) = 1, orthogonal to each other and to a radical; the rank of the
    principal submatrix is twice the number of pairs. A basis vector is
    stored only as its image under the matrix: B(e_i, a) is bit i of the
    image of a, and that is all an insertion reads. Inserting e_i projects
    it off every pair, then pairs it with the first radical vector it meets,
    so the rank grows by 0 or 2 in O(m) word operations. Instances are
    immutable: `add` returns a new basis (or the same one, when the
    insertion changes nothing), so a search can branch freely.

    `rank` and `raisers` are plain fields that `add` keeps, so a search
    reads them at no cost. `rank` is twice the number of pairs. `raisers`
    is the bitmask of the indices whose insertion raises the rank: an
    inserted e_i pairs up, raising the rank by 2, exactly when
    B(e_i, r) = 1 for some radical vector r, that is when bit i of r's
    image is set; so it is the OR of the radical images, and bit i (for i
    not yet inserted) is set exactly when `add(i).rank == rank + 2`. A new
    radical vector extends it by its image; a pairing rewrites the radical,
    and the loop that rewrites it ORs the new images.
    """

    __slots__ = ("rows", "pairs", "radical", "rank", "raisers")

    def __init__(self, rows: tuple[int, ...]):
        """The basis of nothing inserted yet."""
        self.rows = rows
        self.pairs: tuple[tuple[int, int], ...] = ()
        self.radical: tuple[int, ...] = ()
        self.rank = 0
        self.raisers = 0

    def add(self, i: int) -> SymplecticBasis:
        """The basis after inserting index i (not inserted before)."""
        x = self.rows[i]
        for u, v in self.pairs:
            if v >> i & 1:
                x ^= u
            if u >> i & 1:
                x ^= v
        if self.raisers >> i & 1:
            # pair x with the first radical vector r that i raises on, and
            # project the later ones that i raises on off the new pair
            kept = []
            raisers = r = 0
            for s in self.radical:
                if s >> i & 1:
                    if not r:
                        r = s
                        continue
                    s ^= r
                kept.append(s)
                raisers |= s
            pairs, radical, rank = self.pairs + ((r, x),), tuple(kept), self.rank + 2
        elif x:
            pairs, radical, rank = self.pairs, self.radical + (x,), self.rank
            raisers = self.raisers | x
        else:
            # a zero image pairs with nothing and need not be kept
            return self
        # set field by field, not through __init__ (which builds the empty
        # basis only): a search makes one basis per insertion that counts
        basis = object.__new__(SymplecticBasis)
        basis.rows = self.rows
        basis.pairs = pairs
        basis.radical = radical
        basis.rank = rank
        basis.raisers = raisers
        return basis

    def residual(self, live: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """A hashable key for what the rank gains from inserting any subset
        of `live` (a bitmask of indices not inserted yet) depend on.

        The key has two parts: the reduced row echelon form of the radical
        images masked to `live`, and for each live j in ascending order the
        image of e_j projected off the pairs, masked to `live`. Two bases
        with equal keys gain the same rank from every T within `live`.
        Proof: the pairs span a nondegenerate subspace H, so the span of the
        inserted and the T vectors is H plus its orthogonal complement
        there, which the radical R and the projections e_j' of e_j off H
        (j in T) span. The rank grows by the rank of the form on that
        complement, that is of the Gram matrix [[0, C], [C^T, D]] over a
        basis of R and the e_j'. B(r, e_j') = B(r, e_j) is bit j of r's
        image, so C is the radical images on T, and a change of radical
        basis is a congruence (rows that vanish on `live` add nothing). And
        B(e_i', e_j') = B(e_i, e_j') is bit i of e_j's projected image, so
        D is the projected images on T.

        The key is exact but not canonical: the pairs span one of many
        complements of the radical, and another one moves each e_j' by a
        radical vector, so bases with equal gains can have different keys.
        """
        echelon = _echelon(self.radical, live)
        projected = []
        rest = live
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            x = self.rows[j]
            for u, v in self.pairs:  # as in `add`
                if v >> j & 1:
                    x ^= u
                if u >> j & 1:
                    x ^= v
            projected.append(x & live)
            rest ^= low
        return tuple(sorted(echelon.values())), tuple(projected)


def masked_rank(m: BitMatrix, indices) -> int:
    """Rank of the principal submatrix on `indices`, without repacking.

    Zeroing the complementary columns of the selected rows leaves a matrix
    with the same rank as the submatrix, since column positions are
    irrelevant to rank.
    """
    mask = index_mask(indices)
    return rank_of_rows(m.rows[i] & mask for i in indices)


def index_mask(indices) -> int:
    """The bitmask with bit i set for each index i in `indices`."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask
