"""Finite permutation actions: transitivity, block systems, primitivity.

Permutations are index tuples on {0, ..., n-1}; composition is "apply
right, then left": compose(a, b)[i] = a[b[i]].  That convention is fixed
here once and used everywhere.

Groups are never materialized: orders come from a stabilizer chain
(Schreier-Sims), each level built from one orbit transversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import BadInput, NotTransitive, ParseError


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
    1 + the largest point mentioned.
    """
    if degree is not None and degree < 1:
        raise ParseError(f"degree must be at least 1, got {degree}")
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


def cycles_literal(perm) -> str:
    """Inverse of parse_cycles, with fixed points omitted."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        out.append("(" + " ".join(str(p) for p in cyc) + ")")
    return "".join(out) or "()"


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
        raise NotTransitive("block systems need a transitive action")
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


def is_primitive_action(G: PermGroup) -> bool:
    """True iff the transitive action admits no nontrivial block system."""
    return minimal_blocks(G) is None


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


def verify_stabilizer_lemma(G: PermGroup) -> bool:
    """Machine check: imprimitive iff the point stabilizer is non-maximal.

    Every subgroup above Stab(0) is a union of its cosets, and <Stab(0), g>
    depends only on the coset of g, that is on g(0); so one coset
    representative t_b per point b of the orbit of 0 stands for all of G,
    and the Schreier generators generate Stab(0).  H = <Stab(0), t_b> has
    |H| = |Stab(0)| * |orbit_H(0)|, so it is a proper intermediate subgroup
    exactly when 1 < |orbit_H(0)| < degree.  The outcome is compared with
    the independent block-system computation.
    """
    n = G.degree
    transversal = orbit_transversal(G.generators, 0, n)
    if len(transversal) != n:
        raise NotTransitive("the stabilizer lemma concerns transitive actions")
    stab_gens = schreier_generators(G.generators, transversal)
    exists_intermediate = any(
        1 < len(orbit_transversal(stab_gens + (t,), 0, n)) < n for t in transversal.values()
    )
    return exists_intermediate == (not is_primitive_action(G))


def cyclic_group(n: int) -> PermGroup:
    return PermGroup.make(n, [tuple((i + 1) % n for i in range(n))])


def dihedral_group(n: int) -> PermGroup:
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    return PermGroup.make(n, [rot, ref])


def symmetric_group(n: int) -> PermGroup:
    if n == 1:
        return PermGroup.make(1, [])
    if n == 2:
        return PermGroup.make(2, [(1, 0)])
    rot = tuple((i + 1) % n for i in range(n))
    swap = (1, 0) + tuple(range(2, n))
    return PermGroup.make(n, [rot, swap])


def alternating_group(n: int) -> PermGroup:
    if n <= 2:
        return PermGroup.make(max(n, 1), [])
    three = (1, 2, 0) + tuple(range(3, n))
    if n % 2:
        rot = tuple((i + 1) % n for i in range(n))
    else:
        rot = (0,) + tuple(1 + ((i + 1) % (n - 1)) for i in range(n - 1))
    return PermGroup.make(n, [three, rot])


def wreath_on_blocks(inner_gens, block_count: int, block_size: int, top_gens):
    """Generators of (inner wr top) acting on block_count*block_size points."""
    n = block_count * block_size
    gens = []
    for g in inner_gens:
        for b in range(block_count):
            perm = list(range(n))
            for i in range(block_size):
                perm[b * block_size + i] = b * block_size + g[i]
            gens.append(tuple(perm))
    for t in top_gens:
        perm = list(range(n))
        for b in range(block_count):
            for i in range(block_size):
                perm[b * block_size + i] = t[b] * block_size + i
        gens.append(tuple(perm))
    return gens


# ---------------------------------------------------------------------------
# Transitive groups of degree 2..7, one per conjugacy class, after Butler
# and McKay, "The transitive groups of degree up to eleven", Comm. Algebra
# 11 (1983): (name, degree, order, generators in cycle notation).

TRANSITIVE_GROUPS = (
    ("S2", 2, 2, ("(0 1)",)),
    ("C3", 3, 3, ("(0 1 2)",)),
    ("S3", 3, 6, ("(0 1 2)", "(0 1)")),
    ("C4", 4, 4, ("(0 1 2 3)",)),
    ("V4", 4, 4, ("(0 1)(2 3)", "(0 2)(1 3)")),
    ("D4", 4, 8, ("(0 1 2 3)", "(1 3)")),
    ("A4", 4, 12, ("(0 1 2)", "(1 2 3)")),
    ("S4", 4, 24, ("(0 1 2 3)", "(0 1)")),
    ("C5", 5, 5, ("(0 1 2 3 4)",)),
    ("D5", 5, 10, ("(0 1 2 3 4)", "(1 4)(2 3)")),
    ("F20", 5, 20, ("(0 1 2 3 4)", "(1 2 4 3)")),
    ("A5", 5, 60, ("(0 1 2)", "(0 1 2 3 4)")),
    ("S5", 5, 120, ("(0 1 2 3 4)", "(0 1)")),
    ("C6", 6, 6, ("(0 1 2 3 4 5)",)),
    ("S3(regular)", 6, 6, ("(0 3 4)(1 5 2)", "(0 2)(1 4)(3 5)")),
    ("D6", 6, 12, ("(0 1 2 3 4 5)", "(1 5)(2 4)")),
    ("A4(6)", 6, 12, ("(0 2 3)(1 5 4)", "(0 1 2)(3 4 5)")),
    ("C3wrC2", 6, 18, ("(0 1 2)", "(3 4 5)", "(0 3)(1 4)(2 5)")),
    ("C2wrC3", 6, 24, ("(0 1)", "(2 3)", "(4 5)", "(0 2 4)(1 3 5)")),
    ("S4(6c)", 6, 24, ("(1 2 4 3)", "(0 4)(1 5)(2 3)")),
    ("S4(6d)", 6, 24, ("(0 2 5 3)(1 4)", "(1 3)(2 4)")),
    ("(S3xS3):2 half A", 6, 36,
     ("(3 4 5)", "(1 2)(4 5)", "(0 1)(4 5)", "(0 3)(1 4)(2 5)")),
    ("(S3xS3):2 half B", 6, 36,
     ("(3 4 5)", "(1 2)(4 5)", "(0 1)(4 5)", "(0 3)(1 4 2 5)")),
    ("C2wrS3", 6, 48, ("(0 1)", "(2 3)", "(4 5)", "(0 2 4)(1 3 5)", "(0 2)(1 3)")),
    ("PSL(2,5)", 6, 60, ("(0 1 2 3 4)", "(0 5)(1 4)")),
    ("S3wrC2", 6, 72, ("(0 1 2)", "(3 4 5)", "(0 1)", "(3 4)", "(0 3)(1 4)(2 5)")),
    ("PGL(2,5)", 6, 120, ("(0 1 2 3 4)", "(0 5)(1 4)", "(1 2 4 3)")),
    ("A6", 6, 360, ("(0 1 2)", "(1 2 3 4 5)")),
    ("S6", 6, 720, ("(0 1 2 3 4 5)", "(0 1)")),
    ("C7", 7, 7, ("(0 1 2 3 4 5 6)",)),
    ("D7", 7, 14, ("(0 1 2 3 4 5 6)", "(1 6)(2 5)(3 4)")),
    ("F21", 7, 21, ("(0 1 2 3 4 5 6)", "(1 2 4)(3 6 5)")),
    ("F42", 7, 42, ("(0 1 2 3 4 5 6)", "(1 3 2 6 4 5)")),
    ("GL(3,2)", 7, 168, ("(1 2)(5 6)", "(0 1 3)(2 5 4)")),
    ("A7", 7, 2520, ("(0 1 2)", "(0 1 2 3 4 5 6)")),
    ("S7", 7, 5040, ("(0 1 2 3 4 5 6)", "(0 1)")),
)


def transitive_corpus(max_degree: int = 7):
    """(name, group, order) for every entry of degree at most max_degree.

    Complete up to conjugacy for every degree covered; the tests check
    each entry's transitivity and order, and completeness up to degree 5
    by exhaustion.
    """
    return [
        (name, PermGroup.make(degree, [parse_cycles(g, degree) for g in gens]), order)
        for name, degree, order, gens in TRANSITIVE_GROUPS
        if degree <= max_degree
    ]
