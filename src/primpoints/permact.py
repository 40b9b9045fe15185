"""Finite permutation actions: transitivity, block systems, primitivity.

Permutations are index tuples on {0, ..., n-1}; composition is "apply
right, then left": compose(a, b)[i] = a[b[i]].  That convention is fixed
here once and used everywhere.

Groups are materialized by breadth-first closure under a hard order cap;
this module targets desk-scale verification of small actions, not
large-group algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import BadInput, GroupTooLarge, NotTransitive, ParseError

ORDER_CAP = 10**6


def compose(a, b):
    """Apply b first, then a."""
    return tuple(a[b[i]] for i in range(len(a)))


def inverse(a):
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def identity(n):
    return tuple(range(n))


@dataclass(frozen=True)
class PermGroup:
    """Permutation group on {0, ..., degree-1} given by generators."""

    degree: int
    generators: tuple

    @staticmethod
    def make(degree, generators) -> "PermGroup":
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
    maxpt = -1
    for raw in cycles:
        pts = [p for p in "".join(raw).replace(",", " ").split() if p]
        try:
            pts = [int(p) for p in pts]
        except ValueError as exc:
            raise ParseError(f"bad point in cycle: {exc}") from exc
        if len(set(pts)) != len(pts):
            raise ParseError("repeated point inside a cycle")
        parsed.append(pts)
        maxpt = max(maxpt, max(pts, default=-1))
    n = degree if degree is not None else maxpt + 1
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


@lru_cache(maxsize=256)
def elements(G: PermGroup, cap: int = ORDER_CAP) -> frozenset:
    """Materialize the group by breadth-first closure; capped."""
    els = {identity(G.degree)}
    frontier = [g for g in G.generators if g not in els]
    els.update(frontier)
    while frontier:
        new = []
        for g in G.generators:
            for h in frontier:
                prod = compose(g, h)
                if prod not in els:
                    els.add(prod)
                    new.append(prod)
                    if len(els) > cap:
                        raise GroupTooLarge(f"group order exceeds cap {cap}")
        frontier = new
    return frozenset(els)


def group_order(G: PermGroup) -> int:
    return len(elements(G))


def orbit(gens, point: int) -> frozenset:
    seen = {point}
    frontier = [point]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = g[p]
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return frozenset(seen)


def is_transitive(G: PermGroup) -> bool:
    """True iff the orbit of 0 is the whole domain."""
    return len(orbit(G.generators, 0)) == G.degree


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

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return None
        parent[ry] = rx
        return rx, ry

    queue = [(a, b)]
    union(a, b)
    while queue:
        x, y = queue.pop()
        for g in gens:
            gx, gy = g[x], g[y]
            if find(gx) != find(gy):
                union(gx, gy)
                queue.append((gx, gy))
    blocks = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(i)
    return [frozenset(b) for b in blocks.values()]


def minimal_blocks(G: PermGroup, seed: int = 0):
    """A finest nontrivial G-stable partition through seed, or None.

    Scans pair fusions (seed, b); among the nontrivial systems produced,
    returns the one with the smallest block size (smallest b on ties).
    """
    if not is_transitive(G):
        raise NotTransitive("block systems need a transitive action")
    n = G.degree
    best = None
    for b in range(n):
        if b == seed:
            continue
        blocks = _pair_blocks(G.generators, n, seed, b)
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


def _generating_subset(els: list, target_size: int, degree: int) -> list:
    """Greedy small generating set for a materialized subgroup."""
    gens = []
    have = {identity(degree)}
    for g in els:
        if g in have:
            continue
        gens.append(g)
        have = set(elements(PermGroup.make(degree, gens), cap=target_size + 1))
        if len(have) == target_size:
            break
    return gens or [identity(degree)]


def verify_stabilizer_lemma(G: PermGroup) -> bool:
    """Machine check: imprimitive iff the point stabilizer is non-maximal.

    Materializes G, takes Stab(0), and scans subgroups generated by
    Stab(0) plus one extra element; such a subgroup H satisfies
    |H| = |Stab(0)| * |orbit_H(0)|, so H is a proper intermediate subgroup
    exactly when 1 < |orbit_H(0)| < degree.  The outcome is compared with
    the independent block-system computation.
    """
    if not is_transitive(G):
        raise NotTransitive("the stabilizer lemma concerns transitive actions")
    els = sorted(elements(G))
    n = G.degree
    stab = [g for g in els if g[0] == 0]
    stab_gens = _generating_subset(stab, len(stab), n)
    exists_intermediate = False
    for g in els:
        if g[0] == 0:
            continue
        orb = orbit(tuple(stab_gens) + (g,), 0)
        if 1 < len(orb) < n:
            exists_intermediate = True
            break
    return exists_intermediate == (not is_primitive_action(G))


# ---------------------------------------------------------------------------
# Transitive group corpus, degrees 2..7
#
# Degrees up to 5 can be regenerated exhaustively in-repo (tests do); the
# degree 6 and 7 lists follow the classical transitive-group tables, each
# entry built from a structural recipe (cyclic, dihedral, wreath, coset
# action, linear group) and re-verified for transitivity and order.


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


def frobenius_group(p: int, k: int) -> PermGroup:
    """Subgroup x -> a*x + b of the affine line over F_p with |a| = k."""
    # find a generator of the order-k subgroup of F_p^*
    gen = None
    for a in range(2, p):
        seen = set()
        x = 1
        for _ in range(p):
            x = x * a % p
            seen.add(x)
            if x == 1:
                break
        if len(seen) == p - 1:
            gen = a
            break
    assert gen is not None
    a = pow(gen, (p - 1) // k, p)
    translation = tuple((i + 1) % p for i in range(p))
    scaling = tuple(i * a % p for i in range(p))
    return PermGroup.make(p, [translation, scaling])


def coset_action(G: PermGroup, subgroup_gens) -> PermGroup:
    """Action of G on the right cosets of the subgroup, relabelled 0..k-1."""
    els = sorted(elements(G))
    H = sorted(elements(PermGroup.make(G.degree, subgroup_gens)))
    hset = set(H)
    cosets = []
    seen = set()
    for g in els:
        if g in seen:
            continue
        coset = frozenset(compose(h, g) for h in hset)
        seen.update(coset)
        cosets.append(coset)
    index = {}
    for i, coset in enumerate(cosets):
        for g in coset:
            index[g] = i
    new_gens = []
    reps = [min(c) for c in cosets]
    for gen in G.generators:
        new_gens.append(tuple(index[compose(rep, gen)] for rep in reps))
    return PermGroup.make(len(cosets), new_gens)


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


def _index_two_transitive_subgroups(G: PermGroup):
    """Transitive index-2 subgroups of G, via the quotient by squares."""
    els = sorted(elements(G))
    sq_gens = sorted({compose(g, g) for g in els})
    # normal closure of squares contains the commutator subgroup here
    S = set(elements(PermGroup.make(G.degree, sq_gens)))
    while True:
        grown = set(S)
        for g in G.generators:
            gi = inverse(g)
            for s in list(S):
                conj = compose(compose(g, s), gi)
                if conj not in grown:
                    grown.add(conj)
        extended = elements(PermGroup.make(G.degree, sorted(grown)))
        if len(extended) == len(S):
            break
        S = set(extended)
    out = []
    seen_orders = set()
    for g in els:
        if g in S:
            continue
        candidate = sorted(S | {compose(g, s) for s in S})
        if len(candidate) * 2 != len(els):
            continue
        Gsub = PermGroup.make(G.degree, _generating_subset(candidate, len(candidate), G.degree))
        key = frozenset(candidate)
        if key in seen_orders:
            continue
        seen_orders.add(key)
        if is_transitive(Gsub):
            out.append(Gsub)
    return out


def gl3_f2_on_points() -> PermGroup:
    """GL(3, 2) acting on the 7 nonzero vectors of F_2^3."""
    vectors = [v for v in range(1, 8)]  # bitmask encoding (b0, b1, b2)

    def apply(matrix, v):
        bits = [(v >> i) & 1 for i in range(3)]
        out = 0
        for i in range(3):
            s = sum(matrix[i][j] * bits[j] for j in range(3)) % 2
            out |= s << i
        return out

    gens_m = [
        [[1, 1, 0], [0, 1, 0], [0, 0, 1]],  # elementary transvection
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]],  # basis rotation
    ]
    gens = []
    for m in gens_m:
        imgs = [apply(m, v) for v in vectors]
        gens.append(tuple(vectors.index(w) for w in imgs))
    return PermGroup.make(7, gens)


def psl2_5() -> PermGroup:
    """PSL(2,5) on the projective line over F_5, points ordered 0..4, oo."""
    pts = [0, 1, 2, 3, 4, "oo"]

    def mobius_add1(z):
        return "oo" if z == "oo" else (z + 1) % 5

    def mobius_neg_inv(z):
        if z == "oo":
            return 0
        if z == 0:
            return "oo"
        return (-pow(z, -1, 5)) % 5

    g1 = tuple(pts.index(mobius_add1(z)) for z in pts)
    g2 = tuple(pts.index(mobius_neg_inv(z)) for z in pts)
    return PermGroup.make(6, [g1, g2])


def pgl2_5() -> PermGroup:
    base = psl2_5()
    pts = [0, 1, 2, 3, 4, "oo"]

    def mobius_double(z):
        return "oo" if z == "oo" else (2 * z) % 5

    g3 = tuple(pts.index(mobius_double(z)) for z in pts)
    return PermGroup.make(6, list(base.generators) + [g3])


def transitive_corpus(max_degree: int = 7):
    """Named transitive groups of each degree 2..max_degree.

    Complete up to conjugacy for every degree covered; degrees up to 5 are
    cross-checked exhaustively by the tests.
    """
    corpus = []

    def add(name, G, order):
        assert is_transitive(G), name
        assert group_order(G) == order, (name, group_order(G), order)
        corpus.append((name, G, order))

    if max_degree >= 2:
        add("S2", symmetric_group(2), 2)
    if max_degree >= 3:
        add("C3", cyclic_group(3), 3)
        add("S3", symmetric_group(3), 6)
    if max_degree >= 4:
        add("C4", cyclic_group(4), 4)
        add("V4", PermGroup.make(4, [(1, 0, 3, 2), (2, 3, 0, 1)]), 4)
        add("D4", dihedral_group(4), 8)
        add("A4", alternating_group(4), 12)
        add("S4", symmetric_group(4), 24)
    if max_degree >= 5:
        add("C5", cyclic_group(5), 5)
        add("D5", dihedral_group(5), 10)
        add("F20", frobenius_group(5, 4), 20)
        add("A5", alternating_group(5), 60)
        add("S5", symmetric_group(5), 120)
    if max_degree >= 6:
        s3 = symmetric_group(3)
        add("C6", cyclic_group(6), 6)
        add("S3(regular)", coset_action(s3, []), 6)
        add("D6", dihedral_group(6), 12)
        add("A4(6)", coset_action(alternating_group(4), [(1, 0, 3, 2)]), 12)
        add(
            "C3wrC2",
            PermGroup.make(6, wreath_on_blocks([(1, 2, 0)], 2, 3, [(1, 0)])),
            18,
        )
        add(
            "C2wrC3",
            PermGroup.make(6, wreath_on_blocks([(1, 0)], 3, 2, [(1, 2, 0)])),
            24,
        )
        add("S4(6c)", coset_action(symmetric_group(4), [(1, 2, 3, 0)]), 24)
        add("S4(6d)", coset_action(symmetric_group(4), [(1, 0, 2, 3), (0, 1, 3, 2)]), 24)
        s3wr2 = PermGroup.make(
            6, wreath_on_blocks([(1, 2, 0), (1, 0, 2)], 2, 3, [(1, 0)])
        )
        halves = _index_two_transitive_subgroups(s3wr2)
        assert len(halves) == 2, "expected two transitive order-36 subgroups"
        halves.sort(key=lambda H: sorted(elements(H))[1])
        add("(S3xS3):2 half A", halves[0], 36)
        add("(S3xS3):2 half B", halves[1], 36)
        add(
            "C2wrS3",
            PermGroup.make(
                6, wreath_on_blocks([(1, 0)], 3, 2, [(1, 2, 0), (1, 0, 2)])
            ),
            48,
        )
        add("PSL(2,5)", psl2_5(), 60)
        add("S3wrC2", s3wr2, 72)
        add("PGL(2,5)", pgl2_5(), 120)
        add("A6", alternating_group(6), 360)
        add("S6", symmetric_group(6), 720)
    if max_degree >= 7:
        add("C7", cyclic_group(7), 7)
        add("D7", dihedral_group(7), 14)
        add("F21", frobenius_group(7, 3), 21)
        add("F42", frobenius_group(7, 6), 42)
        add("GL(3,2)", gl3_f2_on_points(), 168)
        add("A7", alternating_group(7), 2520)
        add("S7", symmetric_group(7), 5040)
    return corpus
