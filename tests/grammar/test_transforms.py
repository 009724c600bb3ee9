"""Iterator desugaring and grammar augmentation."""

from repro.grammar import transforms
from repro.grammar.builders import grammar_from_text
from repro.grammar.grammar import Grammar
from repro.grammar.rules import Rule
from repro.grammar.symbols import NonTerminal, Terminal
from repro import Language


def _accepts(grammar: Grammar, sentence: str) -> bool:
    # "" is the empty sentence, which several of these languages contain.
    return Language(grammar.copy()).recognize(sentence).accepted


class TestPlus:
    def test_creates_left_recursive_list(self):
        grammar = Grammar()
        nt = transforms.plus(grammar, Terminal("a"))
        assert nt == NonTerminal("a+")
        assert Rule(nt, [Terminal("a")]) in grammar
        assert Rule(nt, [nt, Terminal("a")]) in grammar

    def test_idempotent(self):
        grammar = Grammar()
        first = transforms.plus(grammar, Terminal("a"))
        count = len(grammar)
        second = transforms.plus(grammar, Terminal("a"))
        assert first == second
        assert len(grammar) == count

    def test_language(self):
        grammar = Grammar()
        nt = transforms.plus(grammar, Terminal("a"))
        transforms.augment(grammar, nt)
        assert _accepts(grammar, "a")
        assert _accepts(grammar, "a a a")
        assert not _accepts(grammar, "")


class TestStar:
    def test_language_includes_empty(self):
        grammar = Grammar()
        nt = transforms.star(grammar, Terminal("a"))
        transforms.augment(grammar, nt)
        assert _accepts(grammar, "")
        assert _accepts(grammar, "a a")

    def test_reuses_plus(self):
        grammar = Grammar()
        transforms.star(grammar, Terminal("a"))
        assert grammar.defines(NonTerminal("a+"))


class TestSeparatedLists:
    def test_separated_plus_language(self):
        grammar = Grammar()
        nt = transforms.separated_plus(grammar, Terminal("a"), Terminal(","))
        transforms.augment(grammar, nt)
        assert _accepts(grammar, "a")
        assert _accepts(grammar, "a , a , a")
        assert not _accepts(grammar, "a ,")
        assert not _accepts(grammar, ", a")

    def test_separated_star_language(self):
        grammar = Grammar()
        nt = transforms.separated_star(grammar, Terminal("a"), Terminal(","))
        transforms.augment(grammar, nt)
        assert _accepts(grammar, "")
        assert _accepts(grammar, "a , a")

    def test_distinct_separators_distinct_nonterminals(self):
        grammar = Grammar()
        comma = transforms.separated_plus(grammar, Terminal("a"), Terminal(","))
        semi = transforms.separated_plus(grammar, Terminal("a"), Terminal(";"))
        assert comma != semi


class TestOptional:
    def test_language(self):
        grammar = Grammar()
        nt = transforms.optional(grammar, Terminal("a"))
        transforms.augment(grammar, nt)
        assert _accepts(grammar, "")
        assert _accepts(grammar, "a")
        assert not _accepts(grammar, "a a")


class TestAugment:
    def test_adds_start_rule(self):
        grammar = Grammar([Rule(NonTerminal("E"), [Terminal("n")])])
        transforms.augment(grammar, NonTerminal("E"))
        assert Rule(grammar.start, [NonTerminal("E")]) in grammar

    def test_multiple_roots(self):
        grammar = Grammar(
            [
                Rule(NonTerminal("E"), [Terminal("n")]),
                Rule(NonTerminal("S"), [Terminal("s")]),
            ]
        )
        transforms.augment(grammar, NonTerminal("E"), NonTerminal("S"))
        assert len(grammar.start_rules()) == 2


class TestStripUnreachable:
    def test_removes_disconnected_rules(self):
        grammar = grammar_from_text(
            """
            S ::= a
            Z ::= z
            START ::= S
            """
        )
        removed = transforms.strip_unreachable(grammar)
        assert {str(r) for r in removed} == {"Z ::= z"}
        assert not grammar.defines(NonTerminal("Z"))

    def test_keeps_everything_reachable(self):
        grammar = grammar_from_text(
            """
            S ::= A
            A ::= a
            START ::= S
            """
        )
        assert transforms.strip_unreachable(grammar) == ()
