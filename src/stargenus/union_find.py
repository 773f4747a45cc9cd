"""Union-find structures over dense integer keys."""

from __future__ import annotations


class UnionFind:
    """Plain disjoint sets with union by rank and path compression."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        """Merge the two sets. Returns True if they were distinct."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1
        return True


class ParityUnionFind:
    """Disjoint sets where every link carries a parity bit.

    Supports constraints of the form parity(x) XOR parity(y) = d for d in
    {0, 1}; `union` reports whether the constraint is consistent with what
    is already recorded.
    """

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.parity = [0] * n  # parity of the key relative to its parent
        self.rank = [0] * n

    def find(self, x: int) -> tuple[int, int]:
        """Return (root, parity of x relative to that root)."""
        path = []
        root = x
        while self.parent[root] != root:
            path.append(root)
            root = self.parent[root]
        acc = 0
        for node in reversed(path):
            acc ^= self.parity[node]
            self.parent[node] = root
            self.parity[node] = acc
        if x == root:
            return root, 0
        return root, self.parity[x]

    def union(self, x: int, y: int, diff: int) -> bool:
        """Impose parity(x) XOR parity(y) = diff; False means contradiction."""
        rx, px = self.find(x)
        ry, py = self.find(y)
        if rx == ry:
            return (px ^ py) == diff
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
            px, py = py, px
        self.parent[ry] = rx
        self.parity[ry] = px ^ py ^ diff
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1
        return True

    def sides(self) -> list[int]:
        """Every key's parity relative to the lowest key of its set, so the
        lowest key of each set reads 0."""
        anchor: dict[int, int] = {}
        out = []
        for x in range(len(self.parent)):  # ascending, so a set's lowest key anchors it
            root, par = self.find(x)
            out.append(par ^ anchor.setdefault(root, par))
        return out
