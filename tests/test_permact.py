import itertools
import os
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import run_python
from oracles import (
    alternating_group,
    cycles_literal,
    cyclic_group,
    dihedral_group,
    is_primitive_action,
    symmetric_group,
    transitive_corpus,
    verify_stabilizer_lemma,
    wreath_on_blocks,
)
from primpoints.errors import SIZE_BOUND, BadInput, NotTransitive, ParseError
from primpoints.permact import (
    PermGroup,
    compose,
    cycle_type_fits_blocks,
    _sims_filter,
    group_order,
    identity,
    is_transitive,
    minimal_blocks,
    orbit_transversal,
    parse_cycles,
)


@lru_cache(maxsize=256)
def elements(G: PermGroup) -> frozenset:
    """Oracle for small groups: every element, by breadth-first closure."""
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
        frontier = new
    return frozenset(els)


def test_parse_cycles():
    assert parse_cycles("(0 1 2 3)(4 5)") == (1, 2, 3, 0, 5, 4)
    assert parse_cycles("(0,2)", degree=4) == (2, 1, 0, 3)
    assert parse_cycles("()", degree=3) == (0, 1, 2)
    with pytest.raises(ParseError):
        parse_cycles("(0 1")
    with pytest.raises(ParseError):
        parse_cycles("(0 0 1)")
    with pytest.raises(ParseError, match="point 1 appears in two cycles"):
        parse_cycles("(0 1)(1 2)")
    with pytest.raises(ParseError):
        parse_cycles("(-1 2)")
    for text, degree in (("()", 0), ("(0)", -2), ("()()", None)):
        with pytest.raises(ParseError):
            parse_cycles(text, degree)
    # the size bound: a degree or point above it, and not at it
    assert len(parse_cycles("()", SIZE_BOUND)) == SIZE_BOUND
    assert len(parse_cycles(f"(0 {SIZE_BOUND})")) == SIZE_BOUND + 1
    for text, degree in (("()", SIZE_BOUND + 1), (f"(0 {SIZE_BOUND + 1})", None)):
        with pytest.raises(ParseError, match="size bound"):
            parse_cycles(text, degree)
    with pytest.raises(BadInput):
        PermGroup.make(0, [])
    perm = parse_cycles("(0 3)(1 4 2)")
    assert parse_cycles(cycles_literal(perm)) == perm


def test_compose_convention():
    # apply right, then left
    a = parse_cycles("(0 1)", degree=3)
    b = parse_cycles("(1 2)", degree=3)
    assert compose(a, b) == (1, 2, 0)  # b first: 0->0->1, 1->2->2, 2->1->0


def test_is_transitive():
    assert is_transitive(cyclic_group(4))
    assert not is_transitive(PermGroup.make(3, [(1, 0, 2)]))
    assert is_transitive(symmetric_group(4))


def all_partitions(items):
    """Every set partition of items (Bell-number many)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in all_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def primitive_by_exhaustion(G):
    """Oracle: scan every nontrivial partition for G-stability."""
    n = G.degree
    gens = G.generators
    for part in all_partitions(range(n)):
        if len(part) in (1, n):
            continue
        blocks = [frozenset(b) for b in part]
        bset = set(blocks)
        if all(frozenset(g[x] for x in b) in bset for g in gens for b in blocks):
            return False
    return True


def test_minimal_blocks_examples():
    d4 = dihedral_group(4)
    blocks = minimal_blocks(d4)
    assert blocks is not None
    assert set(blocks.partition) == {frozenset({0, 2}), frozenset({1, 3})}
    assert not primitive_by_exhaustion(d4)

    a4 = alternating_group(4)
    assert minimal_blocks(a4) is None
    assert primitive_by_exhaustion(a4)

    c6 = cyclic_group(6)
    sys6 = minimal_blocks(c6)
    assert sys6 is not None and sys6.block_size in (2, 3)

    with pytest.raises(NotTransitive):
        minimal_blocks(PermGroup.make(3, [(1, 0, 2)]))


def test_is_primitive_examples():
    assert is_primitive_action(symmetric_group(5))
    assert not is_primitive_action(cyclic_group(4))
    assert is_primitive_action(symmetric_group(2))


def test_corpus_counts_and_structure():
    corpus = transitive_corpus(7)
    by_degree = {}
    for name, G, order in corpus:
        by_degree.setdefault(G.degree, []).append((name, G, order))
    assert {d: len(v) for d, v in by_degree.items()} == {
        2: 1,
        3: 2,
        4: 5,
        5: 5,
        6: 16,
        7: 7,
    }
    for name, G, order in corpus:
        assert is_transitive(G), name
        assert group_order(G) == order, name
    # Conjugate subgroups of S_d share the counts of cycle types over the
    # group, so distinct invariants prove the entries pairwise non-conjugate.
    invariants = {
        (G.degree, order, frozenset(Counter(cycle_type(g) for g in elements(G)).items()))
        for _, G, order in corpus
    }
    assert len(invariants) == len(corpus) == 36


def test_corpus_primitivity_matches_exhaustion():
    for name, G, order in transitive_corpus(7):
        if order <= 5040:
            assert is_primitive_action(G) == primitive_by_exhaustion(G), name


def test_stabilizer_lemma_on_corpus():
    for name, G, _ in transitive_corpus(7):
        assert verify_stabilizer_lemma(G), name


def _beyond_corpus():
    """(name, group, primitive?) for groups of degree 8 and 9, past the corpus."""
    s2, s3, s4 = (symmetric_group(n).generators for n in (2, 3, 4))
    return [
        ("S8", symmetric_group(8), True),
        ("A8", alternating_group(8), True),
        ("S9", symmetric_group(9), True),
        ("A9", alternating_group(9), True),
        ("C9", cyclic_group(9), False),
        ("D9", dihedral_group(9), False),
        ("S2wrS4", PermGroup.make(8, wreath_on_blocks(s2, 4, 2, s4)), False),
        ("S3wrS3", PermGroup.make(9, wreath_on_blocks(s3, 3, 3, s3)), False),
    ]


def test_stabilizer_lemma_beyond_the_corpus():
    for name, G, primitive in _beyond_corpus():
        assert verify_stabilizer_lemma(G), name
        assert is_primitive_action(G) == primitive, name


def test_group_order_beyond_the_corpus():
    orders = {"S8": 40320, "A8": 20160, "S9": 362880, "A9": 181440, "C9": 9, "D9": 18,
              "S2wrS4": 384, "S3wrS3": 1296}
    for name, G, _ in _beyond_corpus():
        assert group_order(G) == orders[name], name


@st.composite
def perm_groups(draw, max_degree=7):
    """Groups on at most max_degree points from up to three random permutations."""
    n = draw(st.integers(1, max_degree))
    gens = draw(st.lists(st.permutations(range(n)).map(tuple), max_size=3))
    return PermGroup.make(n, gens)


@settings(max_examples=40)
@given(perm_groups())
@example(PermGroup.make(1, []))
@example(PermGroup.make(5, [(1, 0, 2, 3, 4), (0, 1, 3, 4, 2)]))  # orbits {0 1}, {2 3 4}
def test_group_order_matches_the_closure(G):
    n = G.degree
    assert group_order(G) == len(elements(G))
    for point in range(n):
        transversal = orbit_transversal(G.generators, point, n)
        assert all(t[point] == b and t in elements(G) for b, t in transversal.items())
    kept = _sims_filter(G.generators, n)
    assert len(kept) <= n * (n - 1) // 2
    assert elements(PermGroup.make(n, kept)) == elements(G)


@pytest.mark.parametrize("optimize", [False, True])
def test_stabilizer_lemma_under_optimize(optimize):
    # the lemma check compares verdicts with ==, not assert, so -O keeps it
    code = (
        f"import sys; sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
        "from test_permact import _beyond_corpus\n"
        "from oracles import is_primitive_action, transitive_corpus, verify_stabilizer_lemma\n"
        "corpus = [G for _, G, _ in transitive_corpus(7)]\n"
        "print(sum(map(verify_stabilizer_lemma, corpus)))\n"
        "print(sum(verify_stabilizer_lemma(G) and is_primitive_action(G) == primitive\n"
        "          for _, G, primitive in _beyond_corpus()))\n"
    )
    done = run_python(["-c", code], optimize)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "36\n8\n"


def test_primitive_subgroup_implies_primitive_group():
    corpus = transitive_corpus(6)
    sets = {name: frozenset(elements(G)) for name, G, _ in corpus}
    groups = {name: G for name, G, _ in corpus}
    for a, b in itertools.permutations(sets, 2):
        ga, gb = groups[a], groups[b]
        if ga.degree != gb.degree or not sets[a] < sets[b]:
            continue
        if is_primitive_action(ga):
            assert is_primitive_action(gb), (a, b)


def subgroups_containing(n, seed_gens):
    """All subgroups of S_n containing the given seed, by closure extension."""
    base = frozenset(elements(PermGroup.make(n, seed_gens)))
    all_elems = sorted(elements(symmetric_group(n)))
    seen = {base: list(seed_gens)}
    frontier = [base]
    while frontier:
        new = []
        for sub in frontier:
            gens = seen[sub]
            for g in all_elems:
                if g in sub:
                    continue
                grown = frozenset(
                    elements(PermGroup.make(n, list(gens) + [g]))
                )
                if grown not in seen:
                    seen[grown] = list(gens) + [g]
                    new.append(grown)
        frontier = new
    return list(seen)


def conjugacy_classes_of_subgroups(n, subs):
    sym = sorted(elements(symmetric_group(n)))
    classes = []
    seen = set()
    for sub in subs:
        if sub in seen:
            continue
        cls = set()
        for g in sym:
            gi = tuple(sorted(range(n), key=lambda i: g[i]))
            conj = frozenset(compose(compose(g, h), gi) for h in sub)
            cls.add(conj)
        seen.update(cls)
        classes.append(sub)
    return classes


@pytest.mark.parametrize("n,expected", [(2, 1), (3, 2), (4, 5)])
def test_corpus_complete_small_degrees(n, expected):
    """Exhaustive check: the corpus lists every transitive class for n <= 4."""
    subs = subgroups_containing(n, [])
    transitive_subs = [
        s for s in subs if len({g[0] for g in s}) == n and len(s) >= n
    ]
    classes = conjugacy_classes_of_subgroups(n, transitive_subs)
    assert len(classes) == expected
    corpus_orders = sorted(
        order for _, G, order in transitive_corpus(n) if G.degree == n
    )
    assert corpus_orders == sorted(len(c) for c in classes)


def test_corpus_complete_degree5():
    """Transitive subgroups of S5 all contain a 5-cycle; enumerate above it."""
    subs = subgroups_containing(5, [parse_cycles("(0 1 2 3 4)")])
    transitive_subs = [s for s in subs if len({g[0] for g in s}) == 5]
    classes = conjugacy_classes_of_subgroups(5, transitive_subs)
    assert sorted(len(c) for c in classes) == [5, 10, 20, 60, 120]


# ---------------------------------------------------------------------------
# cycle types that preserve a block system


def cycle_type(perm):
    seen, lengths = set(), []
    for start in range(len(perm)):
        if start not in seen:
            length, nxt = 0, start
            while nxt not in seen:
                seen.add(nxt)
                nxt = perm[nxt]
                length += 1
            lengths.append(length)
    return tuple(sorted(lengths))


def partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def test_block_test_matches_wreath_product_cycle_types():
    """Cycle types fitting blocks of size b are those of S_b wr S_(d/b)."""
    checked = 0
    for d in range(4, 10):
        for b in range(2, d):
            if d % b:
                continue
            k = d // b
            gens = wreath_on_blocks(
                symmetric_group(b).generators, k, b, symmetric_group(k).generators
            )
            wreath = PermGroup.make(d, gens)
            types = {cycle_type(g) for g in elements(wreath)}
            for ct in partitions(d):
                assert cycle_type_fits_blocks(ct, b) == (tuple(sorted(ct)) in types), (ct, b)
            checked += 1
    assert checked == 6  # (d, b) = (4,2) (6,2) (6,3) (8,2) (8,4) (9,3)
    s3 = symmetric_group(3).generators
    assert group_order(PermGroup.make(9, wreath_on_blocks(s3, 3, 3, s3))) == 1296


def test_block_test_rejects_sizes_not_dividing_the_degree():
    with pytest.raises(BadInput):
        cycle_type_fits_blocks((1, 5), 4)
    with pytest.raises(BadInput):
        cycle_type_fits_blocks((1, 5), 0)
