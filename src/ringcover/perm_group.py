"""Permutations on labels ``1..n``, the ring-shuffle generator, and coverage.

The central object is a single permutation ``sigma(n)`` whose powers reorder a
ring of ``n`` seats so that, walking through the powers, every unordered pair
of labels becomes ring-adjacent after ``⌊n/2⌋`` arrangements and every ordered
pair appears once the whole cyclic group has been used.  The coverage report
makes those claims checkable on concrete arrangements.

Permutations act on 1-based labels: ``p(i)`` is the label written in seat
``i``'s place.  Composition is right-to-left, ``compose(p, q)(i) == p(q(i))``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Permutation",
    "PermutationGroup",
    "Arrangement",
    "CoverageReport",
    "sigma",
    "sigma_group_order",
    "compose",
    "order",
    "act",
    "ring_powers",
    "generate_group",
    "arrangements",
    "coverage_report",
]


@dataclass(frozen=True)
class Permutation:
    """A bijection on ``{1, .., n}`` stored as the image tuple.

    ``image[i - 1]`` is where label ``i`` is sent.  The identity on 3 labels
    is ``Permutation((1, 2, 3))``.
    """

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if n < 1:
            raise ValueError("permutation degree must be at least 1")
        try:
            labels = sorted(map(operator.index, self.image))
        except TypeError:
            raise ValueError(f"permutation entries must be integers: {self.image}") from None
        if labels != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.image}")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @property
    def degree(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        if not (1 <= i <= self.degree):
            raise ValueError(f"label {i} outside 1..{self.degree}")
        return self.image[i - 1]

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.image))

    def inverse(self) -> "Permutation":
        return Permutation(tuple((np.argsort(self.image) + 1).tolist()))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycle decomposition, fixed points included, each cycle
        starting at its smallest label."""
        seen = [False] * (self.degree + 1)
        out = []
        for start in range(1, self.degree + 1):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            nxt = self(start)
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self(nxt)
            out.append(tuple(cyc))
        return out


@dataclass(frozen=True)
class PermutationGroup:
    """The cyclic group generated by one permutation, stored only as the
    read-only ``(G, n)`` array of :func:`ring_powers`: row ``k`` is the k-th
    power, row 0 the identity.  ``==`` and ``hash`` follow the generator;
    ``elements`` wraps the rows as :class:`Permutation` objects when read."""

    generator: Permutation
    rings: np.ndarray = field(compare=False, repr=False)

    @property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(Permutation(tuple(row)) for row in self.rings.tolist())

    def __len__(self) -> int:
        return len(self.rings)

    def __iter__(self):
        return iter(self.elements)


@dataclass(frozen=True)
class Arrangement:
    """One seating of labels ``1..n`` around a closed ring."""

    ring: tuple[int, ...]

    def ordered_pairs(self) -> list[tuple[int, int]]:
        """The ``n`` ordered neighbour pairs read clockwise, ring closed.

        A ring with a single seat has no pairs.  A two-seat ring contributes
        both directions of its single unordered pair.
        """
        n = len(self.ring)
        if n < 2:
            return []
        return [(self.ring[t], self.ring[(t + 1) % n]) for t in range(n)]


# ---------------------------------------------------------------------------
# the ring-shuffle generator
# ---------------------------------------------------------------------------


def sigma(n: int) -> Permutation:
    """The designated ring shuffle on labels ``1..n``.

    It is a single cycle through the even labels ascending then the odd labels
    descending — for even ``n`` the cycle ``(1 3 5 .. n-1 n n-2 .. 4 2)``
    covering everything, for odd ``n`` the label 1 stays put and the cycle is
    ``(2 4 .. n-1 n n-2 .. 5 3)``.  Small degrees degenerate gracefully:
    ``n=1`` is the identity, ``n=2`` the swap, ``n=3`` the swap of 2 and 3.

    >>> sigma(4).image
    (3, 1, 4, 2)
    >>> sigma(5).image
    (1, 4, 2, 5, 3)
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    image = list(range(1, n + 1))
    if n >= 2:
        if n % 2 == 0:
            cycle = list(range(1, n, 2)) + [n] + list(range(n - 2, 1, -2))
        else:
            cycle = list(range(2, n, 2)) + [n] + list(range(n - 2, 2, -2))
        for here, there in zip(cycle, cycle[1:]):
            image[here - 1] = there
        image[cycle[-1] - 1] = cycle[0]
    return Permutation(tuple(image))


def sigma_group_order(n: int) -> int:
    """Closed-form order of the group generated by :func:`sigma`:
    ``1`` for ``n=1``, ``n`` for even ``n``, ``n-1`` for odd ``n >= 3``."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n == 1:
        return 1
    return n if n % 2 == 0 else n - 1


# ---------------------------------------------------------------------------
# group operations
# ---------------------------------------------------------------------------


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Composition ``p ∘ q`` (apply ``q`` first): ``compose(p, q)(i) == p(q(i))``."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} vs {q.degree}")
    return Permutation(tuple(p.image[v - 1] for v in q.image))


def act(p: Permutation, i: int) -> int:
    """Apply ``p`` to the label ``i``."""
    return p(i)


def order(p: Permutation) -> int:
    """Multiplicative order, the lcm of the cycle lengths."""
    return math.lcm(*(len(c) for c in p.cycles()))


def ring_powers(g: Permutation) -> np.ndarray:
    """All distinct powers of ``g`` as a ``(G, n)`` int array in power order.

    Row ``k`` is the image of ``g**k`` (row 0 the identity), which is also
    the ring that power seats.  On a cycle ``(c_0 .. c_{L-1})`` the k-th power
    sends ``c_j`` to ``c_{(j+k) mod L}``, so each cycle fills its columns of
    every row at once; the row count G is the lcm of the cycle lengths.
    """
    cycles = [np.asarray(c, dtype=np.int64) for c in g.cycles()]
    k = np.arange(math.lcm(*(c.size for c in cycles)))[:, None]
    rows = np.empty((k.size, g.degree), dtype=np.int64)
    for c in cycles:
        rows[:, c - 1] = c[(np.arange(c.size) + k) % c.size]
    return rows


def generate_group(g: Permutation) -> PermutationGroup:
    """All distinct powers of ``g`` in power order, identity first."""
    rings = ring_powers(g)
    rings.setflags(write=False)
    return PermutationGroup(generator=g, rings=rings)


# ---------------------------------------------------------------------------
# arrangements and coverage
# ---------------------------------------------------------------------------


def arrangements(group: PermutationGroup) -> list[Arrangement]:
    """One ring per group element, in power order.

    Seat ``t`` of the arrangement for element ``g`` holds the label ``g(t)``;
    the identity arrangement is the initial ring ``1, 2, .., n``.
    """
    return [Arrangement(ring=tuple(row)) for row in group.rings.tolist()]


@dataclass(frozen=True)
class CoverageReport:
    """What a list of ring arrangements covers.

    ``unordered_pairs_covered_after[b]`` counts distinct unordered label pairs
    seated adjacently somewhere in the first ``b`` arrangements.
    ``first_block_disjoint`` says whether the first ``⌊(n-1)/2⌋`` arrangements
    use pairwise disjoint unordered pair sets.  For even ``n`` the pair that
    closes the ring is left out of that verdict: an even ring is an open chain
    threaded through a virtual centre seat, so its closing hop is not one of
    the chain's own adjacencies (it is why, over the whole group, exactly
    ``n`` ordered pairs show up twice while everything else appears once).
    Coverage counts and ``ordered_pair_multiplicity`` always use the closed
    ring, wrap pair included, because the aggregation walk really does step
    from the last seat back to the first.
    """

    n: int
    unordered_pairs_covered_after: dict[int, int]
    first_block_disjoint: bool
    ordered_pair_multiplicity: dict[tuple[int, int], int]

    @property
    def total_unordered_pairs(self) -> int:
        return self.n * (self.n - 1) // 2

    def all_pairs_covered_after(self) -> int | None:
        """Smallest prefix length covering every unordered pair, if any."""
        covered = sorted(self.unordered_pairs_covered_after.items())
        return next((b for b, c in covered if c >= self.total_unordered_pairs), None)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "unordered_pairs_covered_after": {
                str(b): c for b, c in sorted(self.unordered_pairs_covered_after.items())
            },
            "first_block_disjoint": self.first_block_disjoint,
            "ordered_pair_multiplicity": {
                f"{a}-{b}": c
                for (a, b), c in sorted(self.ordered_pair_multiplicity.items())
            },
        }


def coverage_report(arrs: Sequence[Arrangement], n: int) -> CoverageReport:
    """Tally pair coverage over a list of arrangements of ``1..n``.

    Every ring must seat each label ``1..n`` once; the rings are stacked into
    one ``(G, n)`` array and tallied at once, and rings of one seat add
    nothing.  For ``n >= 3`` a ring's leading-block pairs are then the edges
    of a cycle (odd ``n``) or a path (even ``n``) through distinct labels, so
    no ring repeats a pair of its own and the block is disjoint iff no
    unordered pair occurs in it twice.  For ``n <= 2`` the block is empty.
    """
    for a in arrs:
        if len(a.ring) != n:
            raise ValueError(f"arrangement {a.ring} is not on {n} labels")
    rings = np.array([a.ring for a in arrs])
    if rings.size and rings.dtype.kind not in "iu":
        raise ValueError(f"arrangement labels must be integers, got {rings.dtype}")
    rings = rings.astype(np.int64, copy=False).reshape(len(arrs), n)
    if not (np.sort(rings, axis=1) == np.arange(1, n + 1)).all():
        raise ValueError(f"every arrangement must seat each label 1..{n} once")

    count, side = len(arrs), n + 1
    seats = n if n >= 2 else 0
    heads = rings[:, :seats]
    tails = np.roll(rings, -1, axis=1)[:, :seats]
    ordered = np.bincount((heads * side + tails).ravel(), minlength=side * side)
    unordered = np.minimum(heads, tails) * side + np.maximum(heads, tails)

    # the first ring covering each unordered pair; count means never covered
    first = np.full(side * side, count)
    np.minimum.at(first, unordered.ravel(), np.repeat(np.arange(count), seats))
    fresh = np.bincount(first[first < count], minlength=count)
    covered_after = dict(zip(range(1, count + 1), np.cumsum(fresh).tolist()))

    block = max((n - 1) // 2, 0)
    lead = unordered[:block, : n - 1 if n % 2 == 0 else n]
    disjoint = np.bincount(lead.ravel(), minlength=1).max() <= 1

    ids = np.flatnonzero(ordered)
    a, b = np.divmod(ids, side)
    multiplicity = dict(zip(zip(a.tolist(), b.tolist()), ordered[ids].tolist()))
    return CoverageReport(n=n, unordered_pairs_covered_after=covered_after,
                          first_block_disjoint=bool(disjoint),
                          ordered_pair_multiplicity=multiplicity)
