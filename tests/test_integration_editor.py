"""End-to-end integration: the ASF+SDF editor loop of section 1.

*"The universal syntax-directed editor of this environment is
parametrized with a syntax written in SDF, and uses ISG/IPG as its
parsing component."*  This test drives the full loop:

    SDF definition text
        → bootstrap parse → AST
        → normalize        → grammar (+ disambiguation metadata)
        → ISG bridge       → scanner (lazy DFA)
        → IPG (Language)   → parser (lazy LR(0) table)
    then *edits the language definition* and keeps parsing, with both the
    scanner and the parser updated incrementally.
"""

import pytest

from repro import Language
from repro.grammar.symbols import Terminal
from repro.lexing import literal, scanner_from_sdf
from repro.runtime.forest import bracketed
from repro.sdf import normalize_with_metadata, parse_sdf, rule_for_function
from repro.sdf.ast import CfLiteral, CfSort, Function

LANGUAGE_V1 = """
module While
begin
  lexical syntax
    sorts LETTER, ID, DIGIT, NUM
    layout WS
    functions
      [a-z]    -> LETTER
      LETTER+  -> ID
      [0-9]    -> DIGIT
      DIGIT+   -> NUM
      [\\ \\t\\n] -> WS
  context-free syntax
    sorts PROGRAM, STMT, EXPR
    functions
      STMT                          -> PROGRAM
      PROGRAM ";" PROGRAM           -> PROGRAM {right-assoc}
      ID ":=" EXPR                  -> STMT
      "skip"                        -> STMT
      "while" EXPR "do" STMT "od"   -> STMT
      ID                            -> EXPR
      NUM                           -> EXPR
      EXPR "<" EXPR                 -> EXPR
end While
"""


class EditorSession:
    """The glue an editor would own: scanner + parser + metadata."""

    def __init__(self, definition_text: str) -> None:
        self.definition = parse_sdf(definition_text)
        self.grammar, self.metadata = normalize_with_metadata(self.definition)
        self.scanner = scanner_from_sdf(self.definition)
        self.language = Language(self.grammar)

    def tokens(self, program: str):
        out = []
        for lexeme in self.scanner.scan(program):
            if lexeme.sort.startswith("lit:"):
                out.append(Terminal(lexeme.sort[4:]))
            else:
                out.append(Terminal(lexeme.sort))
        return out

    def parse(self, program: str):
        outcome = self.language.parse(self.tokens(program))
        if not outcome.accepted:
            return False, ()
        return True, self.metadata.filter.filter(tuple(outcome.forest.trees()))

    def add_function(self, function: Function) -> None:
        """A language-definition edit: one new SDF function."""
        rule = rule_for_function(
            self.grammar, function, self.definition.contextfree.sorts
        )
        self.language.add_rule(rule)
        # new keywords must outrank the identifier sort on length ties
        anchor = next(
            (s for s in self.scanner.sorts if not s.startswith("lit:")), None
        )
        for elem in function.elems:
            if isinstance(elem, CfLiteral):
                self.scanner.add_token(
                    f"lit:{elem.text}", literal(elem.text), before=anchor
                )


@pytest.fixture()
def session():
    return EditorSession(LANGUAGE_V1)


class TestProgramEditing:
    def test_programs_parse(self, session):
        accepted, trees = session.parse("x := 1 ; while x < 10 do skip od")
        assert accepted
        assert len(trees) == 1

    def test_bad_programs_rejected(self, session):
        accepted, _ = session.parse("while do od")
        assert not accepted

    def test_right_assoc_sequencing(self, session):
        accepted, trees = session.parse("skip ; skip ; skip")
        assert accepted
        assert len(trees) == 1  # {right-assoc} disambiguates
        assert "PROGRAM(PROGRAM(STMT(skip)) ; PROGRAM(PROGRAM" in bracketed(
            trees[0]
        )

    def test_table_grows_lazily(self, session):
        before = session.language.summary()["complete"]
        session.parse("skip")
        mid = session.language.summary()["complete"]
        session.parse("while x < y do x := y od")
        after = session.language.summary()["complete"]
        assert before == 0 < mid <= after


class TestLanguageEditing:
    def test_add_statement_form(self, session):
        accepted, _ = session.parse("if x < y then skip else skip fi")
        assert not accepted
        session.add_function(
            Function(
                elems=(
                    CfLiteral("if"),
                    CfSort("EXPR"),
                    CfLiteral("then"),
                    CfSort("STMT"),
                    CfLiteral("else"),
                    CfSort("STMT"),
                    CfLiteral("fi"),
                ),
                sort="STMT",
            )
        )
        accepted, trees = session.parse("if x < y then skip else x := 1 fi")
        assert accepted and len(trees) == 1

    def test_edit_keeps_warm_regions(self, session):
        session.parse("x := 1 ; skip")
        expansions_before = session.language.summary()["expansions"]
        session.add_function(
            Function(elems=(CfLiteral("abort"),), sort="STMT")
        )
        # the edit itself expands nothing (lazy re-expansion)
        assert session.language.summary()["expansions"] == expansions_before
        accepted, _ = session.parse("abort ; x := 2")
        assert accepted

    def test_old_programs_survive_edits(self, session):
        program = "while x < y do x := y od"
        assert session.parse(program)[0]
        session.add_function(
            Function(elems=(CfLiteral("abort"),), sort="STMT")
        )
        assert session.parse(program)[0]

    def test_scanner_learns_new_keywords(self, session):
        with pytest.raises(Exception):
            session.tokens("x ?? y")
        session.add_function(
            Function(
                elems=(CfSort("EXPR"), CfLiteral("??"), CfSort("EXPR")),
                sort="EXPR",
            )
        )
        # '??' is not in the lexer's alphabet handling... but '??' is two
        # chars the scanner now has a literal for
        assert session.parse("x := y ?? z")[0]
