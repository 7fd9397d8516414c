import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from finitetopo import ElementSet, InputError, Poset
from finitetopo import fixtures as fx
from finitetopo.poset import _iter_bits, bit_list
from tests.reference_local_data import closure, open_hull


def diamond() -> Poset:
    return Poset("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


def fence() -> Poset:
    # a < b > c, the three-element zigzag
    return Poset("abc", [("a", "b"), ("c", "b")])


def greatest(s: ElementSet) -> str | None:
    """The member of s above every member, if there is one, read off le()."""
    return next((m for m in s if all(s.poset.le(x, m) for x in s)), None)


def punctured_up(p: Poset, e: str) -> ElementSet:
    """The members strictly above e: its up-set without its down-set."""
    return ElementSet(p, p.up_set(e).mask & ~p.down_set(e).mask)


def least(s: ElementSet) -> str | None:
    """The member of s below every member, if there is one, read off le()."""
    return next((m for m in s if all(s.poset.le(m, x) for x in s)), None)


class TestConstruction:
    def test_elements_are_sorted_and_deduplicated(self):
        p = Poset(["b", "a", "b"], [("a", "b")])
        assert p.elements == ("a", "b")

    def test_relations_generate_transitive_order(self):
        p = Poset("abc", [("a", "b"), ("b", "c")])
        assert p.le("a", "c")
        assert not p.le("c", "a")

    def test_cycle_is_rejected(self):
        with pytest.raises(InputError, match="cycle"):
            Poset("ab", [("a", "b"), ("b", "a")])

    def test_unknown_element_in_relation(self):
        with pytest.raises(InputError, match="unknown element"):
            Poset("ab", [("a", "z")])

    def test_empty_name_rejected(self):
        with pytest.raises(InputError):
            Poset(["", "a"])

    @pytest.mark.parametrize("elements, bad", [([1, "a"], "1"), (["a", None], "None"), ([["a"], "b"], r"\['a'\]")],
                             ids=["int-and-string", "none", "unhashable"])
    def test_a_non_string_identifier_is_named_before_sorting(self, elements, bad):
        with pytest.raises(InputError, match=f"^element identifiers must be non-empty strings, got {bad}$"):
            Poset(elements)

    def test_self_relation_is_ignored(self):
        p = Poset("ab", [("a", "a"), ("a", "b")])
        assert p.cover_pairs == frozenset({("a", "b")})

    def test_equality_ignores_relation_presentation(self):
        p = Poset("abc", [("a", "b"), ("b", "c")])
        q = Poset("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        assert p == q
        assert hash(p) == hash(q)


class TestOrderQueries:
    def test_le_lt_comparable(self):
        p = diamond()
        assert p.le("a", "d") and not p.le("d", "a")
        assert p.le("b", "b")
        assert not p.le("b", "c") and not p.le("c", "b")

    def test_cover_pairs_are_transitive_reduction(self):
        p = diamond()
        assert set(p.cover_pairs) == {("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")}
        assert ("a", "d") not in p.cover_pairs
        assert ("a", "b") in p.cover_pairs

    def test_cover_neighbours(self):
        p = diamond()
        assert p.cover_successors("a") == ("b", "c")
        assert sorted(a for a, b in p.cover_pairs if b == "d") == ["b", "c"]

    def test_min_max(self):
        p = fence()
        assert p.minimal_elements() == ("a", "c")
        assert p.maximal_elements() == ("b",)

    def test_down_up_sets(self):
        p = diamond()
        assert set(p.down_set("b")) == {"a", "b"}
        assert set(p.up_set("b")) == {"b", "d"}
        assert set(p.punctured_down("d")) == {"a", "b", "c"}
        assert set(punctured_up(p, "a")) == {"b", "c", "d"}

    def test_closure_and_open_hull(self):
        p = diamond()
        assert set(closure(p.subset(["b"]))) == {"b", "d"}
        assert set(open_hull(p.subset(["b", "c"]))) == {"a", "b", "c"}

    def test_containment_protocol(self):
        p = diamond()
        assert "a" in p and "z" not in p
        assert len(p) == 4
        assert list(p) == ["a", "b", "c", "d"]


class TestSubstructures:
    def test_induced_preserves_order(self):
        p = diamond()
        q = p.induced(["a", "d"])
        assert q.le("a", "d")
        assert q.cover_pairs == frozenset({("a", "d")})

    def test_opposite_swaps_order(self):
        p = diamond()
        op = p.opposite()
        assert op.le("d", "a")
        assert op.opposite() == p

    def test_connected_components(self):
        p = Poset("abcd", [("a", "b"), ("c", "d")])
        comps = p.subset(p.elements).components()
        assert sorted(sorted(c.members) for c in comps) == [["a", "b"], ["c", "d"]]
        assert len(diamond().subset("abcd").components()) == 1


class TestElementSet:
    def test_down_up_predicates(self):
        p = diamond()
        assert p.subset(["a", "b"]).is_down_set()
        assert not p.subset(["b"]).is_down_set()
        assert closure(p.subset(["b", "d"])) == p.subset(["b", "d"])

    def test_mask_outside_the_poset_is_input_error(self):
        p = diamond()
        assert ElementSet(p, p.full_mask()) == p.subset("abcd")
        for bad in (-1, 1 << len(p), p.full_mask() + 1, frozenset("a")):
            with pytest.raises(InputError, match="not a subset"):
                ElementSet(p, bad)
        with pytest.raises(InputError, match="not a subset"):
            ElementSet(Poset([]), 1)

    def test_unknown_name_is_input_error(self):
        with pytest.raises(InputError, match="unknown element"):
            diamond().subset(["a", "z"])

    def test_induced_round_trip(self):
        p = diamond()
        q = p.subset(["a", "b", "d"]).induced()
        assert q.elements == ("a", "b", "d")
        assert q.le("a", "d")


# -- randomized order laws ----------------------------------------------------


@st.composite
def posets(draw, max_size: int = 7) -> Poset:
    n = draw(st.integers(min_value=1, max_value=max_size))
    names = [f"e{i}" for i in range(n)]
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda ij: ij[0] < ij[1]),
            max_size=3 * n,
        )
    )
    return Poset(names, [(names[i], names[j]) for i, j in pairs])


@given(posets())
def test_order_axioms(p: Poset):
    for a in p.elements:
        assert p.le(a, a)
        for b in p.elements:
            if p.le(a, b) and p.le(b, a):
                assert a == b
            for c in p.elements:
                if p.le(a, b) and p.le(b, c):
                    assert p.le(a, c)


@given(posets())
def test_linear_extension_is_order_preserving(p: Poset):
    ext = p.linear_extension()
    assert sorted(ext) == list(p.elements)
    pos = {e: i for i, e in enumerate(ext)}
    for a in p.elements:
        for b in p.elements:
            if a != b and p.le(a, b):
                assert pos[a] < pos[b]


@st.composite
def shuffled_relations(draw, max_size: int = 6) -> tuple[list[str], list[tuple[str, str]]]:
    """Names and acyclic relation pairs whose order runs against identifier
    order as often as with it."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    rank = draw(st.permutations(range(n)))
    names = [f"e{i}" for i in range(n)]
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    return names, [(names[rank[i]], names[rank[j]]) for i, j in pairs if i < j]


@st.composite
def shuffled_posets(draw, max_size: int = 6) -> Poset:
    """Like posets(), but the order runs against identifier order as often as with it."""
    return Poset(*draw(shuffled_relations(max_size)))


@given(shuffled_posets())
@example(Poset(["a", "b", "c", "d"], [("a", "b")]))  # a pop releases b before the ready c, d
@example(Poset(["a", "b", "c"], [("b", "a")]))  # a is released by b and comes before the ready c
@example(Poset(["a", "b", "c"], [("a", "c")]))  # the ready b comes before the released c
@example(Poset(["c", "a", "b"]))  # nothing is ever released
def test_linear_extension_is_the_least_one(p: Poset):
    # brute force: every permutation of the elements that preserves the
    # order, compared as sequences of identifiers
    below = [(a, b) for a in p.elements for b in p.elements if a != b and p.le(a, b)]
    least = min(
        ext for ext in itertools.permutations(p.elements)
        if all(ext.index(a) < ext.index(b) for a, b in below)
    )
    assert p.linear_extension() == least


@given(posets())
def test_opposite_reverses_le(p: Poset):
    op = p.opposite()
    for a in p.elements:
        for b in p.elements:
            assert p.le(a, b) == op.le(b, a)


@given(posets(), st.data())
def test_closure_smallest_up_set(p: Poset, data):
    members = data.draw(st.sets(st.sampled_from(p.elements)))
    cl = set(closure(p.subset(members)))

    def is_up_set(s: set) -> bool:
        return all(b in s for a in s for b in p.elements if p.le(a, b))

    assert is_up_set(cl)
    assert set(members) <= cl
    # minimality: dropping any added element breaks up-closure or containment
    for e in cl - set(members):
        smaller = cl - {e}
        assert not is_up_set(smaller) or not set(members) <= smaller


@given(posets())
def test_components_partition(p: Poset):
    comps = p.subset(p.elements).components()
    seen: set[str] = set()
    for c in comps:
        assert c.members
        assert not (seen & set(c))
        seen |= set(c)
    assert seen == set(p.elements)


@given(posets())
def test_cover_pairs_regenerate_poset(p: Poset):
    assert Poset(p.elements, p.cover_pairs) == p


@given(shuffled_posets(max_size=8), st.data())
def test_induced_is_the_restricted_order(p: Poset, data):
    """Brute force: the induced poset has the members, the parent's order
    between them, and a cover pair wherever no member lies strictly between."""
    members = data.draw(st.sets(st.sampled_from(p.elements)))
    q = p.induced(members)
    assert q.elements == tuple(sorted(members))
    assert all(q.le(a, b) == p.le(a, b) for a in members for b in members)
    covers = {(a, b) for a in members for b in members
              if a != b and p.le(a, b) and not any(c not in (a, b) and p.le(a, c) and p.le(c, b) for c in members)}
    assert q.cover_pairs == covers


def _closure(ids: list[str], pairs) -> list[list[bool]]:
    """le[i][j]: ids[i] <= ids[j] in the reflexive-transitive closure of the
    pairs, by brute force."""
    n = len(ids)
    le = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        le[ids.index(a)][ids.index(b)] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                le[i][j] = le[i][j] or (le[i][k] and le[k][j])
    return le


def assert_fields_by_brute_force(p: Poset, names, pairs) -> None:
    """Every field the constructor fills agrees with the closure of the
    pairs and its transitive reduction.  Bit i stands for the i-th
    identifier."""
    ids = sorted(set(names))
    n = len(ids)
    le = _closure(ids, pairs)
    lt = [[le[i][j] and i != j for j in range(n)] for i in range(n)]
    cover = [[lt[i][j] and not any(lt[i][k] and lt[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    def mask(bits):
        return sum(1 << j for j, b in enumerate(bits) if b)

    assert p.elements == tuple(ids)
    assert p._up == [mask(le[i]) for i in range(n)]
    assert p._down == [mask(le[i][j] for i in range(n)) for j in range(n)]
    assert p._succ_masks == [mask(cover[i]) for i in range(n)]
    assert p._pred_masks == [mask(cover[i][j] for i in range(n)) for j in range(n)]
    # the elements with a lower cover
    assert p._nonminimal == mask(any(cover[i][j] for i in range(n)) for j in range(n))
    assert p.cover_pairs == {(ids[i], ids[j]) for i in range(n) for j in range(n) if cover[i][j]}
    # the least linear extension: the least index whose predecessors are all placed
    order: list[int] = []
    while len(order) < n:
        order.append(min(j for j in range(n) if j not in order and all(i in order for i in range(n) if lt[i][j])))
    assert p._order == tuple(order)


@given(shuffled_relations(max_size=12), st.data())
def test_constructor_against_brute_force_closure(case, data):
    """Every field the constructor fills agrees with the reflexive-transitive
    closure of the input pairs and its transitive reduction, computed here
    by brute force from the pairs; repeated, reflexive and implied pairs
    are mixed into the input."""
    names, pairs = case
    ids = sorted(names)
    le = _closure(ids, pairs)
    implied = [(a, b) for i, a in enumerate(ids) for j, b in enumerate(ids) if le[i][j]]
    extra = data.draw(st.lists(st.sampled_from(implied), max_size=2 * len(ids)))
    pairs = data.draw(st.permutations(pairs + pairs[: data.draw(st.integers(0, len(pairs)))] + extra))
    assert_fields_by_brute_force(Poset(names, pairs), names, pairs)


def test_constructor_on_elements_related_to_nothing():
    """Elements in no relation, around and inside a chain: 50 isolated
    elements on either side of the chain a < b < c, and one isolated element
    that sorts between a and b, given in scrambled order."""
    names = [f"z{k:02d}" for k in range(25)] + ["b", "a5", "c", "a"] + [f"0{k:02d}" for k in range(25)]
    pairs = [("b", "c"), ("a", "b")]
    p = Poset(names, pairs)
    assert_fields_by_brute_force(p, names, pairs)
    assert p.cover_pairs == {("a", "b"), ("b", "c")}
    assert p._nonminimal == p._mask_of(["b", "c"])
    assert p.linear_extension() == tuple(sorted(names))


@given(st.one_of(st.integers(0, 2**70), st.integers(0, 2**5000)))
@example(0)
def test_bit_list_is_the_bit_loop(mask):
    """The digit pass lists the bits the bit loop yields, in the same order."""
    assert bit_list(mask) == list(_iter_bits(mask))


@st.composite
def posets_and_masks(draw, count: int = 2) -> tuple:
    """A shuffled or a generated random poset (from 11 elements on, e10
    sorts before e2) and `count` random masks of it."""
    if draw(st.booleans()):
        p = draw(shuffled_posets(max_size=12))
    else:
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        p = fx.random_poset(rng, draw(st.integers(1, 12)), draw(st.sampled_from([0.2, 0.4, 0.6])))
    return (p, *(draw(st.integers(0, p.full_mask())) for _ in range(count)))


@given(posets_and_masks(count=1))
def test_down_set_check_is_the_open_hull_definition(case):
    """is_down_set() reads only the lower covers of the non-minimal members;
    it agrees with "the open hull adds nothing" on a random mask, on its
    open hull and on the hull less any one member."""
    p, mask = case
    assert p._nonminimal == sum(1 << i for i, e in enumerate(p.elements) if p.punctured_down(e).mask)
    hull = open_hull(ElementSet(p, mask)).mask
    for m in [mask, hull, *(hull & ~(1 << i) for i in range(len(p)) if hull >> i & 1)]:
        s = ElementSet(p, m)
        assert s.is_down_set() == (open_hull(s).mask == m)


@given(posets_and_masks())
def test_element_set_against_brute_force(case):
    """Every ElementSet operation on masks agrees with its definition read
    off le() and names, bit i standing for p.elements[i]."""
    p, mask, other_mask = case
    names = {e for i, e in enumerate(p.elements) if mask >> i & 1}
    other = {e for i, e in enumerate(p.elements) if other_mask >> i & 1}
    s, t = ElementSet(p, mask), ElementSet(p, other_mask)

    assert len(s) == len(names) and list(s) == sorted(names) and s.members == frozenset(names)
    assert all((e in s) == (e in names) for e in p.elements) and "not-an-element" not in s
    assert set(closure(s)) == {b for a in names for b in p.elements if p.le(a, b)}
    assert s.is_down_set() == all(a in names for b in names for a in p.elements if p.le(a, b))

    comps = s.components()
    assert [min(c) for c in comps] == sorted(min(c) for c in comps)
    assert sum(len(c) for c in comps) == len(names) and set().union(*map(set, comps)) == names
    for c in comps:
        # connected: growing from one member by comparability reaches all
        reached = {min(c)}
        while grown := {b for a in reached for b in c if p.le(a, b) or p.le(b, a)} - reached:
            reached |= grown
        assert reached == set(c)
        assert not any(p.le(a, b) or p.le(b, a) for a in c for b in names - set(c))

    q = s.induced()
    assert q.elements == tuple(sorted(names))
    assert all(q.le(a, b) == p.le(a, b) for a in names for b in names)

    by_name = p.subset(sorted(names, reverse=True))
    assert by_name == s and hash(by_name) == hash(s)
    assert (s == t) == (names == other)
