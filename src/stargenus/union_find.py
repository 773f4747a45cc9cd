"""Union-find over dense integer keys, with a parity bit on every link.

It is the one union-find of the package. Plain connectivity is the case
where every link has parity 0: `union(x, y, 0)` merges two sets, which
never contradicts, and `find(x)[0]` is the root of x's set, its lowest key.
"""

from __future__ import annotations


class ParityUnionFind:
    """Disjoint sets where every link carries a parity bit.

    Supports constraints of the form parity(x) XOR parity(y) = d for d in
    {0, 1}; `union` reports whether the constraint is consistent with what
    is already recorded.
    """

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.parity = [0] * n  # parity of the key relative to its parent

    def find(self, x: int) -> tuple[int, int]:
        """Return (root, parity of x relative to that root); the root is the
        lowest key of x's set."""
        parent, parity = self.parent, self.parity
        root, acc = x, 0
        while parent[root] != root:
            acc ^= parity[root]
            root = parent[root]
        # compress: each key on the path links to the root directly, with
        # its parity to the root, which is acc less the links below it
        rel = acc
        while parent[x] != root:
            up, link = parent[x], parity[x]
            parent[x], parity[x] = root, rel
            x, rel = up, rel ^ link
        return root, acc

    def union(self, x: int, y: int, diff: int) -> bool:
        """Impose parity(x) XOR parity(y) = diff; False means contradiction."""
        rx, px = self.find(x)
        ry, py = self.find(y)
        if rx == ry:
            return (px ^ py) == diff
        if ry < rx:  # the higher root links under the lower one
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.parity[ry] = px ^ py ^ diff
        return True

    def sides(self) -> list[int]:
        """Every key's parity relative to the lowest key of its set, so the
        lowest key of each set reads 0."""
        return [self.find(x)[1] for x in range(len(self.parent))]
