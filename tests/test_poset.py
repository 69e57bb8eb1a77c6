import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantic.errors import InternalCheckError, StructureError
from quantic.poset import FinitePoset, ub_scan_sup


def three_chain():
    return FinitePoset.chain(3, labels=["0", "m", "1"])


@st.composite
def random_posets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    up = [1 << i for i in range(n)]
    # random edges i < j on a fixed linear order keep the relation acyclic
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                up[i] |= 1 << j
    # transitive closure
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            for j in range(n):
                if (up[i] >> j) & 1:
                    acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    return FinitePoset.from_up_masks(up)


class TestConstruction:
    def test_rejects_non_transitive(self):
        with pytest.raises(StructureError, match="transitive"):
            FinitePoset([[1, 1, 0], [0, 1, 1], [0, 0, 1]])

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(StructureError, match="antisymmetric"):
            FinitePoset([[1, 1], [1, 1]])

    def test_rejects_non_reflexive(self):
        with pytest.raises(StructureError, match="reflexive"):
            FinitePoset([[0]])

    def test_foreign_ids_rejected(self):
        p = three_chain()
        with pytest.raises(StructureError, match="foreign"):
            p.sup([0, 5])


class TestSupInf:
    def test_chain_pair(self):
        p = three_chain()
        assert p.sup([0, 1]) == 1

    def test_antichain_without_top_has_no_sup(self):
        p = FinitePoset.antichain(2)
        assert p.sup([0, 1]) is None

    def test_diamond_sup_and_inf(self):
        d = FinitePoset.diamond()
        assert d.sup([1, 2]) == 3
        assert d.inf([1, 2]) == 0

    def test_singleton_inf(self):
        d = FinitePoset.diamond()
        for x in range(4):
            assert d.inf([x]) == x

    def test_empty_sup_is_bottom_and_empty_inf_is_top(self):
        p = three_chain()
        assert p.sup([]) == 0
        assert p.inf([]) == 2
        a = FinitePoset.antichain(2)
        assert a.sup([]) is None
        assert a.inf([]) is None

    @given(random_posets(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_sup_matches_upper_bound_scan(self, p, data):
        xs = data.draw(st.lists(st.integers(0, p.n - 1), max_size=p.n))
        assert p.sup(xs) == ub_scan_sup(p, xs)

    @given(random_posets(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_inf_is_dual_sup(self, p, data):
        xs = data.draw(st.lists(st.integers(0, p.n - 1), max_size=p.n))
        assert p.inf(xs) == FinitePoset.from_up_masks(p.down, p.labels).sup(xs)


class TestDirected:
    def test_chain_subset_directed(self):
        assert three_chain().is_directed([0, 1, 2])

    def test_antichain_in_diamond_not_directed(self):
        assert not FinitePoset.diamond().is_directed([1, 2])

    def test_empty_not_directed(self):
        assert not three_chain().is_directed([])

    @given(random_posets(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_adding_an_upper_bound_preserves_directedness(self, p, data):
        xs = data.draw(st.lists(st.integers(0, p.n - 1), min_size=1, max_size=p.n))
        if not p.is_directed(xs):
            return
        ubs = [u for u in range(p.n) if all(p.leq(x, u) for x in xs)]
        for u in ubs:
            assert p.is_directed(xs + [u])


@given(random_posets())
@settings(max_examples=80, deadline=None)
def test_covers_are_the_elements_directly_above(p):
    for i in range(p.n):
        above = [j for j in range(p.n) if j != i and p.leq(i, j)]
        direct = [j for j in above if not any(k != j and p.leq(k, j) for k in above)]
        assert p.covers(i) == direct, i
    assert FinitePoset.diamond().covers(0) == [1, 2]


class TestClassification:
    def test_diamond_flags(self):
        f = FinitePoset.diamond().flags
        assert f.complete and f.near_sup_complete and f.bounded_complete and f.algebraic

    def test_two_antichain_not_join_semilattice(self):
        assert not FinitePoset.antichain(2).flags.join_semilattice

    def test_finite_posets_are_dcpos_and_algebraic(self):
        for p in [three_chain(), FinitePoset.diamond(), FinitePoset.antichain(3)]:
            assert p.flags.dcpo and p.flags.bdcpo and p.flags.algebraic

    def test_compact_elements_everything(self):
        p = FinitePoset.diamond()
        assert p.compact_elements() == [0, 1, 2, 3]

    def test_powerset_poset(self):
        b = FinitePoset.powerset(3)
        assert b.flags.complete and b.flags.lattice
        assert b.bottom == 0 and b.top == 7


def test_flag_disagreement_names_the_poset_its_size_and_the_scan_subset():
    # A lookup that forgets up[1] makes the scan miss the sup of {0, 1}
    # while the pairwise joins, built before, still find every join.
    p = FinitePoset.chain(3)
    p.join_table, p.top, p.bottom
    p.principal_up = {p.up[0]: 0, p.up[2]: 2}
    with pytest.raises(InternalCheckError, match="pairwise and exhaustive poset classification disagree") as info:
        p.flags
    assert "FinitePoset (3 elements)" in str(info.value)
    assert "first parting subset [0, 1]" in str(info.value)


def test_flag_disagreement_names_the_first_subset_of_the_parting_class():
    # On 0, 1 < 2 the empty set has no sup on either route.  A lookup that
    # forgets up[1] makes the scan also miss the sup of {1}: near
    # sup-completeness parts, and its witness is {1}, the first nonempty
    # miss, not the empty set, the first miss.
    p = FinitePoset.from_covers([[2], [2], []])
    p.join_table, p.top, p.bottom
    p.principal_up = {p.up[0]: 0, p.up[2]: 2}
    with pytest.raises(InternalCheckError, match="pair=\\(False, True, True\\) scan=\\(False, False, False\\)") as info:
        p.flags
    assert str(info.value).endswith("first parting subset [1]")


def test_flag_disagreement_names_the_pair_the_joins_miss(monkeypatch):
    # The bowtie (0, 1 < 2, 3): {0, 1} has two minimal upper bounds.
    p = FinitePoset.from_covers([[2, 3], [2, 3], [], []])
    # A scan that finds every sup holds all three flags.
    monkeypatch.setattr(FinitePoset, "_subsets_without_sup", lambda self: [])
    with pytest.raises(InternalCheckError, match="FinitePoset \\(4 elements\\)") as info:
        p.flags
    assert "first parting subset [0, 1]" in str(info.value)
