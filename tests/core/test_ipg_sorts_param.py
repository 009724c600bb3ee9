"""The sorts= escape hatch for forward-referenced non-terminals.

Sorts named on an edit join ``Language.sorts``, the one sort set a
service session or the REPL keeps.
"""

import pytest

from repro import Language
from repro.grammar.rules import Rule
from repro.grammar.symbols import NonTerminal, Terminal


@pytest.fixture()
def lang():
    return Language.from_text(
        """
        CMD ::= go
        START ::= CMD
        """
    )


class TestSortsParameter:
    def test_forward_reference_without_sorts_is_terminal(self, lang):
        lang.add_rule("CMD ::= turn N")
        # N became a terminal: the literal token 'N' is required
        assert lang.recognize([Terminal("turn"), Terminal("N")])

    def test_forward_reference_with_sorts_is_nonterminal(self, lang):
        lang.add_rule("CMD ::= turn N", sorts={"N"})
        lang.add_rule("N ::= 1")
        assert lang.recognize("turn 1")
        assert not lang.recognize("turn N")

    def test_sorts_accepted_on_delete(self, lang):
        lang.add_rule("CMD ::= turn N", sorts={"N"})
        lang.add_rule("N ::= 1")
        assert lang.delete_rule("CMD ::= turn N", sorts={"N"})
        assert not lang.recognize("turn 1")
        # A sort named only on the delete resolves the rule text too, and
        # joins the language's one sort set.
        added = Rule(NonTerminal("CMD"), [Terminal("turn"), NonTerminal("M")])
        assert lang.add_rule(added)
        assert lang.delete_rule("CMD ::= turn M", sorts={"M"})
        assert lang.sorts == {"N", "M"}

    def test_known_nonterminals_do_not_need_sorts(self, lang):
        lang.add_rule("CMD ::= CMD then CMD")
        assert lang.recognize("go then go")
