"""Hash-consed parse forests: sharing, yields, rendering."""

import pytest

from repro.grammar.rules import Rule
from repro.grammar.symbols import NonTerminal, Terminal
from repro.runtime.errors import CyclicForestError, ForestCapExceeded
from repro.runtime.forest import (
    ENUMERATION_CAP,
    Forest,
    ParseForest,
    bracketed,
    count_trees,
    depth,
    enumerate_strings,
    node_count,
    pretty,
    tokens_of,
)

B = NonTerminal("B")
true = Terminal("true")
or_ = Terminal("or")
R_TRUE = Rule(B, [true])
R_OR = Rule(B, [B, or_, B])


class TestHashConsing:
    def test_leaves_are_shared(self):
        forest = Forest()
        assert forest.leaf(true, 0) is forest.leaf(true, 0)

    def test_leaves_differ_by_position(self):
        forest = Forest()
        assert forest.leaf(true, 0) is not forest.leaf(true, 2)

    def test_nodes_are_shared(self):
        forest = Forest()
        leaf = forest.leaf(true, 0)
        assert forest.node(R_TRUE, [leaf]) is forest.node(R_TRUE, [leaf])

    def test_nodes_differ_by_children_identity(self):
        forest = Forest()
        a = forest.node(R_TRUE, [forest.leaf(true, 0)])
        b = forest.node(R_TRUE, [forest.leaf(true, 2)])
        assert a is not b

    def test_size_counts_distinct_nodes(self):
        forest = Forest()
        leaf = forest.leaf(true, 0)
        forest.node(R_TRUE, [leaf])
        forest.node(R_TRUE, [leaf])  # shared, no growth
        assert forest.size == 2


class TestNodes:
    def test_arity_checked(self):
        forest = Forest()
        with pytest.raises(ValueError):
            forest.node(R_OR, [forest.leaf(true, 0)])

    def test_symbols(self):
        forest = Forest()
        leaf = forest.leaf(true, 0)
        node = forest.node(R_TRUE, [leaf])
        assert leaf.symbol == true
        assert node.symbol == B

    def test_width(self):
        forest = Forest()
        left = forest.node(R_TRUE, [forest.leaf(true, 0)])
        right = forest.node(R_TRUE, [forest.leaf(true, 2)])
        top = forest.node(R_OR, [left, forest.leaf(or_, 1), right])
        assert top.width() == 3

    def test_immutability(self):
        forest = Forest()
        node = forest.node(R_TRUE, [forest.leaf(true, 0)])
        with pytest.raises(AttributeError):
            node.children = ()  # type: ignore[misc]


class TestUtilities:
    def _tree(self):
        forest = Forest()
        left = forest.node(R_TRUE, [forest.leaf(true, 0)])
        right = forest.node(R_TRUE, [forest.leaf(true, 2)])
        return forest.node(R_OR, [left, forest.leaf(or_, 1), right])

    def test_tokens_of(self):
        assert tokens_of(self._tree()) == (true, or_, true)

    def test_bracketed(self):
        assert bracketed(self._tree()) == "B(B(true) or B(true))"

    def test_pretty_contains_rules(self):
        rendered = pretty(self._tree())
        assert "B ::= B or B" in rendered
        assert "true" in rendered

    def test_depth(self):
        assert depth(self._tree()) == 3

    def test_node_count_respects_sharing(self):
        forest = Forest()
        shared = forest.node(R_TRUE, [forest.leaf(true, 0)])
        top = forest.node(R_OR, [shared, forest.leaf(or_, 1), shared])
        # shared subtree counted once: top + shared + leaf(true) + leaf(or)
        assert node_count(top) == 4


class TestPackedForests:
    """SPPF packing: shared ambiguity nodes, counting, lazy enumeration."""

    def _ambiguous_five(self):
        """``true or true or true`` packed Rekers-style: two derivations."""
        f = Forest()
        leaves = {i: f.leaf(true, i) for i in (0, 2, 4)}
        ors = {i: f.leaf(or_, i) for i in (1, 3)}
        packed = {}
        for start in (0, 2, 4):
            p = f.packed(B, start, start + 1)
            p.add(f.node(R_TRUE, [leaves[start]]))
            packed[start, start + 1] = p
        p03 = f.packed(B, 0, 3)
        p03.add(f.node(R_OR, [packed[0, 1], ors[1], packed[2, 3]]))
        p25 = f.packed(B, 2, 5)
        p25.add(f.node(R_OR, [packed[2, 3], ors[3], packed[4, 5]]))
        p05 = f.packed(B, 0, 5)
        p05.add(f.node(R_OR, [p03, ors[3], packed[4, 5]]))
        p05.add(f.node(R_OR, [packed[0, 1], ors[1], p25]))
        return f, p05

    def test_packed_nodes_are_per_span(self):
        f, _ = self._ambiguous_five()
        assert f.packed(B, 0, 5) is f.packed(B, 0, 5)
        assert f.packed(B, 0, 5) is not f.packed(B, 0, 3)

    def test_add_dedups_by_identity(self):
        f = Forest()
        p = f.packed(B, 0, 1)
        alt = f.node(R_TRUE, [f.leaf(true, 0)])
        assert p.add(alt) is True
        # hash-consing returns the same node, add refuses the duplicate
        assert p.add(f.node(R_TRUE, [f.leaf(true, 0)])) is False
        assert len(p.alternatives) == 1

    def test_count_trees_sums_alternatives(self):
        _, p05 = self._ambiguous_five()
        assert count_trees(p05) == 2

    def test_forest_handle_counts_and_enumerates(self):
        _, p05 = self._ambiguous_five()
        forest = ParseForest((p05,))
        assert forest.tree_count() == 2
        assert forest.is_ambiguous
        trees = list(forest.trees())
        assert len(trees) == 2
        assert forest.brackets() == [
            "B(B(B(true) or B(true)) or B(true))",
            "B(B(true) or B(B(true) or B(true)))",
        ]
        assert list(forest.trees(1)) and len(list(forest.trees(1))) == 1

    def test_enumerate_strings_matches_brackets(self):
        _, p05 = self._ambiguous_five()
        assert sorted(enumerate_strings(p05)) == ParseForest((p05,)).brackets()

    def _exponential_forest(self, width=14):
        """2**width derivations out of O(width) nodes."""
        f = Forest()
        alt_rule = Rule(B, [or_])
        spans = []
        for i in range(width):
            p = f.packed(B, i, i + 1)
            p.add(f.node(R_TRUE, [f.leaf(true, i)]))
            p.add(f.node(alt_rule, [f.leaf(or_, i)]))
            spans.append(p)
        wide = Rule(B, [B] * width)
        return ParseForest((f.node(wide, spans),)), width

    def test_unbounded_enumeration_over_cap_is_refused(self):
        forest, width = self._exponential_forest()
        assert forest.tree_count() == 2 ** width > ENUMERATION_CAP
        with pytest.raises(ForestCapExceeded, match="pass an explicit limit"):
            list(forest.trees())
        with pytest.raises(ForestCapExceeded):
            forest.brackets()
        with pytest.raises(ForestCapExceeded):
            list(enumerate_strings(forest.roots[0]))

    def test_bounded_enumeration_over_huge_forest_works(self):
        forest, _ = self._exponential_forest()
        some = list(forest.trees(5))
        assert len(some) == 5
        assert len({bracketed(t) for t in some}) == 5
        assert len(list(enumerate_strings(forest.roots[0], limit=3))) == 3

    def test_cyclic_forest_raises_instead_of_looping(self):
        f = Forest()
        unit = Rule(B, [B])
        p = f.packed(B, 0, 1)
        p.add(f.node(unit, [p]))  # B =>+ B over the same span
        with pytest.raises(CyclicForestError):
            count_trees(p)
        with pytest.raises(CyclicForestError):
            ParseForest((p,)).tree_count()

    def test_deep_chains_do_not_recurse(self):
        f = Forest()
        unit = Rule(B, [B])
        node = f.node(R_TRUE, [f.leaf(true, 0)])
        for _ in range(5000):  # far past the default recursion limit
            node = f.node(unit, [node])
        forest = ParseForest((node,))
        assert forest.tree_count() == 1
        (only,) = forest.trees()
        assert only is node  # identity preserved when nothing unpacks
        expected = "B(" * 5001 + "true" + ")" * 5001
        assert forest.brackets() == [expected]
        assert bracketed(node) == expected
        assert list(enumerate_strings(node)) == [expected]

    def test_bracketed_renders_first_alternative_of_packed_nodes(self):
        _, p05 = self._ambiguous_five()
        (first,) = ParseForest((p05,)).trees(1)
        assert bracketed(p05) == bracketed(first)

