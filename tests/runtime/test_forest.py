"""Hash-consed parse forests: sharing, yields, rendering."""

import pytest

from repro.api import Language
from repro.grammar.rules import Rule
from repro.grammar.symbols import NonTerminal, Terminal
from repro.runtime.errors import CyclicForestError, ForestCapExceeded
from repro.runtime.forest import (
    ENUMERATION_CAP,
    Forest,
    ParseForest,
    bracketed,
    count_trees,
    enumerate_strings,
    node_count,
    tokens_of,
)

B = NonTerminal("B")
true = Terminal("true")
or_ = Terminal("or")
R_TRUE = Rule(B, [true])
R_OR = Rule(B, [B, or_, B])
R_UNIT = Rule(B, [B])


class TestHashConsing:
    def test_leaves_are_shared(self):
        # a leaf is its interned terminal: one object wherever it occurs
        forest = Forest()
        left = forest.node(R_TRUE, [Terminal("true")])
        right = forest.node(R_TRUE, [Terminal("true")])
        assert left.children[0] is right.children[0] is true

    def test_nodes_are_shared(self):
        forest = Forest()
        assert forest.node(R_TRUE, [true]) is forest.node(R_TRUE, [true])

    def test_nodes_differ_by_children_identity(self):
        forest = Forest()
        inner = forest.node(R_TRUE, [true])
        a = forest.node(R_UNIT, [inner])
        b = forest.node(R_UNIT, [forest.node(R_UNIT, [inner])])
        assert a is not b

    def test_size_counts_distinct_nodes(self):
        forest = Forest()
        inner = forest.node(R_TRUE, [true])
        forest.node(R_UNIT, [inner])
        forest.node(R_UNIT, [inner])  # shared, no growth
        assert forest.size == 2  # leaves are terminals, not forest nodes


class TestNodes:
    def test_arity_checked(self):
        forest = Forest()
        with pytest.raises(ValueError):
            forest.node(R_OR, [true])

    def test_symbols(self):
        forest = Forest()
        node = forest.node(R_TRUE, [true])
        assert node.children == (true,)
        assert node.symbol == B

    def test_immutability(self):
        forest = Forest()
        node = forest.node(R_TRUE, [true])
        with pytest.raises(AttributeError):
            node.children = ()  # type: ignore[misc]


class TestUtilities:
    def _tree(self):
        forest = Forest()
        operand = forest.node(R_TRUE, [true])
        return forest.node(R_OR, [operand, or_, operand])

    def test_tokens_of(self):
        assert tokens_of(self._tree()) == (true, or_, true)

    def test_bracketed(self):
        assert bracketed(self._tree()) == "B(B(true) or B(true))"

    def test_node_count_respects_sharing(self):
        # shared subtree counted once: top + B(true) + true + or
        assert node_count(self._tree()) == 4


class TestDeepTrees:
    """A right-recursive list nests one node per token; the tree helpers
    walk it without recursion."""

    TOKENS = 2000

    @pytest.mark.parametrize("engine", ["gss"])
    def test_helpers_walk_a_deep_tree(self, engine):
        lang = Language.from_text("START ::= L\nL ::= x\nL ::= x L")
        outcome = lang.parse(" ".join(["x"] * self.TOKENS), engine=engine)
        tree = outcome.tree
        x = Terminal("x")
        assert tokens_of(tree) == (x,) * self.TOKENS
        # START, one L per token, and the one leaf x they all share
        assert node_count(tree) == self.TOKENS + 2
        assert bracketed(tree).count("x") == self.TOKENS


class TestPackedForests:
    """SPPF packing: shared ambiguity nodes, counting, lazy enumeration."""

    def _ambiguous_five(self):
        """``true or true or true`` packed Rekers-style: two derivations."""
        f = Forest()
        packed = {}
        for start in (0, 2, 4):
            p = f.packed(B, start, start + 1)
            p.add(f.node(R_TRUE, [true]))
            packed[start, start + 1] = p
        p03 = f.packed(B, 0, 3)
        p03.add(f.node(R_OR, [packed[0, 1], or_, packed[2, 3]]))
        p25 = f.packed(B, 2, 5)
        p25.add(f.node(R_OR, [packed[2, 3], or_, packed[4, 5]]))
        p05 = f.packed(B, 0, 5)
        p05.add(f.node(R_OR, [p03, or_, packed[4, 5]]))
        p05.add(f.node(R_OR, [packed[0, 1], or_, p25]))
        return f, p05

    def test_packed_nodes_are_per_span(self):
        f, _ = self._ambiguous_five()
        assert f.packed(B, 0, 5) is f.packed(B, 0, 5)
        assert f.packed(B, 0, 5) is not f.packed(B, 0, 3)

    def test_add_dedups_by_identity(self):
        f = Forest()
        p = f.packed(B, 0, 1)
        alt = f.node(R_TRUE, [true])
        assert p.add(alt) is True
        # hash-consing returns the same node, add refuses the duplicate
        assert p.add(f.node(R_TRUE, [true])) is False
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
            p.add(f.node(R_TRUE, [true]))
            p.add(f.node(alt_rule, [or_]))
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
        node = f.node(R_TRUE, [true])
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

