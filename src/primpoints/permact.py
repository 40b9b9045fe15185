"""Finite permutation actions, for two jobs: the `perm` subcommand
(cycle notation, transitivity, the order, a finest block system) and the
block test on Frobenius cycle types (`cycle_type_fits_blocks`) behind the
primitivity certificate of `numfield`.  The group constructors, the
transitive groups of degree 2..7 and the machine check of the stabilizer
lemma are test-only, in `tests/oracles.py`.

Permutations are index tuples on {0, ..., n-1}; composition is "apply
right, then left": compose(a, b)[i] = a[b[i]].  That convention is fixed
here once and used everywhere.

Groups are never materialized: orders come from a stabilizer chain
(Schreier-Sims), each level built from one orbit transversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import SIZE_BOUND, BadInput, NotTransitive, ParseError


def compose(a, b):
    """Apply b first, then a."""
    return tuple(a[b[i]] for i in range(len(a)))


def identity(n):
    return tuple(range(n))


@dataclass(frozen=True)
class PermGroup:
    """Permutation group on {0, ..., degree-1} given by generators."""

    degree: int
    generators: tuple

    @staticmethod
    def make(degree, generators) -> "PermGroup":
        if degree < 1:
            raise BadInput(f"degree must be at least 1, got {degree}")
        gens = []
        for g in generators:
            g = tuple(g)
            if sorted(g) != list(range(degree)):
                raise BadInput(f"not a permutation of 0..{degree - 1}: {g}")
            gens.append(g)
        if not gens:
            gens = [identity(degree)]
        return PermGroup(degree, tuple(gens))


def parse_cycles(text: str, degree=None) -> tuple:
    """Parse cycle notation like '(0 1 2 3)(4 5)' into a permutation tuple.

    Points may be separated by spaces or commas; the degree defaults to
    1 + the largest point mentioned.  A degree or point above SIZE_BOUND
    is a ParseError.
    """
    if degree is not None and degree < 1:
        raise ParseError(f"degree must be at least 1, got {degree}")
    if degree is not None and degree > SIZE_BOUND:
        raise ParseError(f"degree {degree} is above the size bound {SIZE_BOUND}")
    text = text.strip()
    if text in ("", "()"):
        if degree is None:
            raise ParseError("empty cycle needs an explicit degree")
        return identity(degree)
    cycles = []
    depth = 0
    current = None
    for ch in text:
        if ch == "(":
            if depth:
                raise ParseError("nested parenthesis in cycle notation")
            depth, current = 1, []
        elif ch == ")":
            if not depth:
                raise ParseError("unbalanced parenthesis in cycle notation")
            cycles.append(current)
            depth, current = 0, None
        elif depth:
            current.append(ch)
        elif not ch.isspace():
            raise ParseError(f"unexpected character {ch!r} outside cycles")
    if depth:
        raise ParseError("unbalanced parenthesis in cycle notation")
    parsed = []
    seen = set()
    for raw in cycles:
        pts = [p for p in "".join(raw).replace(",", " ").split() if p]
        try:
            pts = [int(p) for p in pts]
        except ValueError as exc:
            raise ParseError(f"bad point in cycle: {exc}") from exc
        if len(set(pts)) != len(pts):
            raise ParseError("repeated point inside a cycle")
        for p in pts:
            if p < 0:
                raise ParseError(f"negative point {p} in cycle")
            if p > SIZE_BOUND:
                raise ParseError(f"point {p} is above the size bound {SIZE_BOUND}")
            if p in seen:
                raise ParseError(f"point {p} appears in two cycles")
            seen.add(p)
        parsed.append(pts)
    maxpt = max(seen, default=-1)
    n = degree if degree is not None else maxpt + 1
    if n < 1:
        raise ParseError("cycles name no point; give a degree")
    if maxpt >= n:
        raise ParseError("cycle mentions a point outside 0..degree-1")
    out = list(range(n))
    for pts in parsed:
        for i, p in enumerate(pts):
            out[p] = pts[(i + 1) % len(pts)]
    return tuple(out)


def orbit_transversal(gens, point: int, degree: int) -> dict:
    """The orbit of point, with one t_b in <gens> per orbit point b, t_b(point) = b."""
    transversal = {point: identity(degree)}
    frontier = [point]
    while frontier:
        b = frontier.pop()
        for s in gens:
            if s[b] not in transversal:
                transversal[s[b]] = compose(s, transversal[b])
                frontier.append(s[b])
    return transversal


def schreier_generators(gens, transversal: dict) -> tuple:
    """Generators t_{s(b)}^-1 s t_b of the stabilizer of the transversal's
    point in <gens> (Schreier's lemma; Seress, *Permutation Group
    Algorithms*, 2003, ch. 4)."""
    inverse = {b: _inverse(t) for b, t in transversal.items()}
    return tuple(
        compose(inverse[s[b]], compose(s, t)) for b, t in transversal.items() for s in gens
    )


def _inverse(a):
    return tuple(sorted(range(len(a)), key=a.__getitem__))


def _sims_filter(gens, degree: int) -> tuple:
    """At most degree*(degree-1)/2 generators of <gens>, none the identity.

    Sims' filter: slot (i, j) keeps one element fixing 0..i-1 and sending
    i to j; a generator is divided by the slot of its first moved point
    until it is the identity or fills an empty slot.
    """
    slots = {}
    for g in gens:
        while True:
            i = next((i for i in range(degree) if g[i] != i), None)
            if i is None:
                break
            h = slots.get((i, g[i]))
            if h is None:
                slots[(i, g[i])] = g
                break
            g = compose(_inverse(h), g)
    return tuple(slots.values())


def group_order(G: PermGroup) -> int:
    """|G| by Schreier-Sims over the base 0, 1, ..., degree-1.

    Level i holds generators of the pointwise stabilizer of 0..i-1; its
    orbit of i is one factor of the order, and its Schreier generators,
    filtered, generate the next level.  Exact, with no random element.
    """
    order = 1
    gens = G.generators
    for base in range(G.degree):
        transversal = orbit_transversal(gens, base, G.degree)
        order *= len(transversal)
        gens = _sims_filter(schreier_generators(gens, transversal), G.degree)
    return order


def is_transitive(G: PermGroup) -> bool:
    """True iff the orbit of 0 is the whole domain."""
    return len(orbit_transversal(G.generators, 0, G.degree)) == G.degree


@dataclass(frozen=True)
class BlockSystem:
    """A G-stable partition into blocks of equal size."""

    partition: tuple  # of frozensets

    @property
    def block_size(self) -> int:
        return len(self.partition[0])


def _pair_blocks(gens, n, a, b):
    """Finest G-stable partition putting a and b in a common block.

    Classical union-find propagation over generator images of fused pairs.
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = [(a, b)]
    parent[b] = a
    while queue:
        x, y = queue.pop()
        for g in gens:
            rx, ry = find(g[x]), find(g[y])
            if rx != ry:
                parent[ry] = rx
                queue.append((g[x], g[y]))
    blocks = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(i)
    return [frozenset(b) for b in blocks.values()]


def minimal_blocks(G: PermGroup):
    """A finest nontrivial G-stable partition, or None.

    Scans pair fusions (0, b); among the nontrivial systems produced,
    returns the one with the smallest block size (smallest b on ties).
    """
    if not is_transitive(G):
        raise NotTransitive("the group is not transitive; block systems need a transitive action")
    n = G.degree
    best = None
    for b in range(1, n):
        blocks = _pair_blocks(G.generators, n, 0, b)
        sizes = {len(blk) for blk in blocks}
        if len(blocks) == 1 or sizes == {1}:
            continue
        size = len(next(iter(blocks)))
        assert len(sizes) == 1, "transitive blocks must share a size"
        if best is None or size < best.block_size:
            best = BlockSystem(tuple(sorted(blocks, key=min)))
    return best


def cycle_type_fits_blocks(cycle_type, block_size: int) -> bool:
    """True iff a permutation of this cycle type can preserve blocks of size b.

    Such a permutation permutes the blocks; each of its cycles on blocks,
    of length l, covers l*b points whose cycle lengths are multiples of l.
    So the cycle type must split into groups, each with an l dividing all
    of its lengths and summing to l*b; conversely every such split is the
    cycle type of an element of S_b wr S_(d/b).
    """
    if block_size < 1 or sum(cycle_type) % block_size:
        raise BadInput(f"block size {block_size} does not divide {sum(cycle_type)}")
    return _fits_blocks(tuple(sorted(cycle_type, reverse=True)), block_size)


@lru_cache(maxsize=4096)
def _fits_blocks(lengths: tuple, b: int) -> bool:
    """`cycle_type_fits_blocks` on a descending tuple; the longest cycle
    goes into a group first, the rest is split recursively."""
    if not lengths:
        return True
    first, rest = lengths[0], lengths[1:]
    for ell in range(1, first + 1):
        if first % ell == 0:
            for left in _remove_sum(rest, ell, ell * b - first):
                if _fits_blocks(left, b):
                    return True
    return False


def _remove_sum(lengths: tuple, ell: int, total: int):
    """What remains of the descending `lengths` after removing a
    sub-multiset of multiples of ell summing to total, once per sub-multiset."""
    if total == 0:
        yield lengths
        return
    for i, c in enumerate(lengths):
        if c <= total and c % ell == 0 and (i == 0 or lengths[i - 1] != c):
            for left in _remove_sum(lengths[i + 1:], ell, total - c):
                yield lengths[:i] + left
