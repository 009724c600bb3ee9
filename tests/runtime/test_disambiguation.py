"""Priority/associativity tree filters."""

import pytest

from repro import Language
from repro.grammar.builders import grammar_from_text
from repro.grammar.rules import Rule
from repro.grammar.symbols import NonTerminal, Terminal
from repro.runtime.disambiguation import DisambiguationFilter
from repro.runtime.forest import bracketed


E = NonTerminal("E")
PLUS = Rule(E, [E, Terminal("+"), E])
TIMES = Rule(E, [E, Terminal("*"), E])
NUM = Rule(E, [Terminal("n")])

GRAMMAR = """
    E ::= n
    E ::= E + E
    E ::= E * E
    START ::= E
"""


def trees(lang, text):
    """Every derivation of ``text``, straight off the parse forest."""
    return tuple(lang.parse(text).forest.trees())


@pytest.fixture()
def lang():
    return Language(grammar_from_text(GRAMMAR))


class TestAssociativity:
    def test_left_assoc_keeps_left_leaning_tree(self, lang):
        filt = DisambiguationFilter().left_assoc(PLUS)
        derivations = trees(lang, "n + n + n")
        assert len(derivations) == 2
        survivors = filt.filter(derivations)
        assert len(survivors) == 1
        assert bracketed(survivors[0]) == "START(E(E(E(n) + E(n)) + E(n)))"

    def test_right_assoc_keeps_right_leaning_tree(self, lang):
        filt = DisambiguationFilter().right_assoc(PLUS)
        survivors = filt.filter(trees(lang, "n + n + n"))
        assert [bracketed(t) for t in survivors] == [
            "START(E(E(n) + E(E(n) + E(n))))"
        ]

    def test_non_assoc_rejects_chains_entirely(self, lang):
        filt = DisambiguationFilter().non_assoc(PLUS)
        assert filt.filter(trees(lang, "n + n + n")) == ()
        # single application is still fine
        assert len(filt.filter(trees(lang, "n + n"))) == 1

    def test_assoc_on_non_recursive_rule_rejected(self):
        with pytest.raises(ValueError):
            DisambiguationFilter().left_assoc(NUM)

    def test_assoc_group(self, lang):
        # '+' and '*' mutually left-associative: 'n + n * n' read
        # left-to-right when both at the same level
        filt = (
            DisambiguationFilter()
            .left_assoc(PLUS, group=[TIMES])
            .left_assoc(TIMES, group=[PLUS])
        )
        survivors = filt.filter(trees(lang, "n + n * n"))
        assert [bracketed(t) for t in survivors] == [
            "START(E(E(E(n) + E(n)) * E(n)))"
        ]


class TestPriorities:
    def test_times_binds_tighter(self, lang):
        filt = DisambiguationFilter().priority_chain([TIMES], [PLUS])
        survivors = filt.filter(trees(lang, "n + n * n"))
        assert [bracketed(t) for t in survivors] == [
            "START(E(E(n) + E(E(n) * E(n))))"
        ]

    def test_chain_is_transitive(self):
        grammar = grammar_from_text(
            """
            E ::= n
            E ::= E + E
            E ::= E * E
            E ::= E ^ E
            START ::= E
            """
        )
        power = Rule(E, [E, Terminal("^"), E])
        filt = DisambiguationFilter().priority_chain([power], [TIMES], [PLUS])
        lang = Language(grammar)
        survivors = filt.filter(trees(lang, "n + n ^ n"))
        assert [bracketed(t) for t in survivors] == [
            "START(E(E(n) + E(E(n) ^ E(n))))"
        ]

    def test_full_expression_disambiguation(self, lang):
        filt = (
            DisambiguationFilter()
            .priority_chain([TIMES], [PLUS])
            .left_assoc(PLUS)
            .left_assoc(TIMES)
        )
        derivations = trees(lang, "n + n * n + n")
        survivors = filt.filter(derivations)
        assert len(survivors) == 1
        assert bracketed(survivors[0]) == (
            "START(E(E(E(n) + E(E(n) * E(n))) + E(n)))"
        )

    def test_empty_filter_keeps_everything(self, lang):
        filt = DisambiguationFilter()
        assert filt.is_empty
        derivations = trees(lang, "n + n + n")
        assert filt.filter(derivations) == derivations


class TestFromSdf:
    TEXT = """
module calc
begin
  lexical syntax
    sorts NUM
    functions
      [0-9] -> NUM
  context-free syntax
    sorts EXP
    priorities
      EXP "*" EXP -> EXP > EXP "+" EXP -> EXP
    functions
      NUM             -> EXP
      EXP "+" EXP     -> EXP {left-assoc}
      EXP "*" EXP     -> EXP {left-assoc}
end calc
"""

    def test_filter_built_from_sdf(self):
        from repro.sdf.normalize import normalize_with_metadata
        from repro.sdf.parser import parse_sdf

        grammar, metadata = normalize_with_metadata(parse_sdf(self.TEXT))
        lang = Language(grammar)
        derivations = trees(lang, "NUM + NUM * NUM + NUM")
        assert len(derivations) > 1
        survivors = metadata.filter.filter(derivations)
        assert len(survivors) == 1
        tree = bracketed(survivors[0])
        assert tree == (
            "START(EXP(EXP(EXP(NUM) + EXP(EXP(NUM) * EXP(NUM))) + EXP(NUM)))"
        )

    def test_metadata_records_attributes(self):
        from repro.sdf.normalize import normalize_with_metadata
        from repro.sdf.parser import parse_sdf

        _grammar, metadata = normalize_with_metadata(parse_sdf(self.TEXT))
        attributed = {
            str(rule): words for rule, words in metadata.attributes.items()
        }
        assert attributed == {
            "EXP ::= EXP + EXP": ("left-assoc",),
            "EXP ::= EXP * EXP": ("left-assoc",),
        }

    def test_priorities_transitive_across_chains(self):
        # ^ > * and * > + declared in *separate* chains must still imply
        # ^ > + (the relation is one global partial order)
        text = """
module calc
begin
  lexical syntax
    sorts NUM
    functions
      [0-9] -> NUM
  context-free syntax
    sorts EXP
    priorities
      EXP "^" EXP -> EXP > EXP "*" EXP -> EXP,
      EXP "*" EXP -> EXP > EXP "+" EXP -> EXP
    functions
      NUM         -> EXP
      EXP "^" EXP -> EXP {right-assoc}
      EXP "*" EXP -> EXP {left-assoc}
      EXP "+" EXP -> EXP {left-assoc}
end calc
"""
        from repro.sdf.normalize import normalize_with_metadata
        from repro.sdf.parser import parse_sdf

        grammar, metadata = normalize_with_metadata(parse_sdf(text))
        lang = Language(grammar)
        derivations = trees(lang, "NUM ^ NUM + NUM")
        survivors = metadata.filter.filter(derivations)
        assert [bracketed(t) for t in survivors] == [
            "START(EXP(EXP(EXP(NUM) ^ EXP(NUM)) + EXP(NUM)))"
        ]

    def test_corpus_sdf_metadata_is_buildable(self):
        # the ASF.sdf priorities section must at least not crash
        from repro.sdf.corpus import CORPUS
        from repro.sdf.normalize import normalize_with_metadata
        from repro.sdf.parser import parse_sdf

        _grammar, metadata = normalize_with_metadata(
            parse_sdf(CORPUS["ASF.sdf"])
        )
        assert not metadata.filter.is_empty
