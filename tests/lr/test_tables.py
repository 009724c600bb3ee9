"""Tabular parse tables: LR(0), SLR(1), LALR(1), conflict resolution."""

import pytest

from repro.grammar.builders import grammar_from_text
from repro.grammar.symbols import NonTerminal, Terminal
from repro.lr.generator import ConventionalGenerator
from repro.lr.graph import ItemSetGraph
from repro.lr.lalr import lalr_table, lalr_table_from_graph
from repro.lr.slr import slr_table, slr_table_from_graph
from repro.lr.table import lr0_table, resolve_conflicts
from repro.runtime.lr_parse import SimpleLRParser
from repro.runtime.errors import AmbiguousInputError, ParseError

from ..conftest import BOOLEANS, EPSILON, toks

#: LR(0)-conflicting but SLR(1)-clean grammar (ASU's expression grammar:
#: the state {E ::= T •, T ::= T • * F} has a shift/reduce on '*').
SLR_GRAMMAR = """
    E ::= E + T
    E ::= T
    T ::= T * F
    T ::= F
    F ::= n
    F ::= ( E )
    START ::= E
"""

#: SLR-conflicting but LALR(1)-clean (the classic example: ASU 4.7).
LALR_GRAMMAR = """
    S ::= L = R
    S ::= R
    L ::= * R
    L ::= id
    R ::= L
    START ::= S
"""

#: LALR(1)-conflicting (needs full LR(1)): classic reduce/reduce merge.
NON_LALR_GRAMMAR = """
    S ::= a A d
    S ::= b B d
    S ::= a B e
    S ::= b A e
    A ::= c
    B ::= c
    START ::= S
"""


#: The left-recursive sum grammar of the golden tables.
PLUS_GRAMMAR = """
    E ::= E + T
    E ::= T
    T ::= n
    START ::= E
"""

GOLDEN_GRAMMARS = {"booleans": BOOLEANS, "plus": PLUS_GRAMMAR, "epsilon": EPSILON}

GOLDEN_BUILDERS = {
    "lr0": lr0_table,
    "slr": slr_table_from_graph,
    "lalr": lalr_table_from_graph,
}

#: ``render()`` and the ``(state, terminal)`` conflict list of every table
#: kind, written from the per-kind builders that preceded the shared one.
GOLDEN_TABLES = {
    ("booleans", "lr0"): (
        """\
state  and    false  or     true  $    B
0             s3            s2         1
1      s4            s5           acc
2      r1     r1     r1     r1    r1
3      r0     r0     r0     r0    r0
4             s3            s2         6
5             s3            s2         7
6      r2/s4  r2     r2/s5  r2    r2
7      r3/s4  r3     r3/s5  r3    r3
""",
        [(6, "and"), (6, "or"), (7, "and"), (7, "or")],
    ),
    ("booleans", "slr"): (
        """\
state  and    false  or     true  $    B
0             s3            s2         1
1      s4            s5           acc
2      r1            r1           r1
3      r0            r0           r0
4             s3            s2         6
5             s3            s2         7
6      r2/s4         r2/s5        r2
7      r3/s4         r3/s5        r3
""",
        [(6, "and"), (6, "or"), (7, "and"), (7, "or")],
    ),
    ("booleans", "lalr"): (
        """\
state  and    false  or     true  $    B
0             s3            s2         1
1      s4            s5           acc
2      r1            r1           r1
3      r0            r0           r0
4             s3            s2         6
5             s3            s2         7
6      r2/s4         r2/s5        r2
7      r3/s4         r3/s5        r3
""",
        [(6, "and"), (6, "or"), (7, "and"), (7, "or")],
    ),
    ("plus", "lr0"): (
        """\
state  +   n   $    E  T
0          s3       1  2
1      s4      acc
2      r1  r1  r1
3      r3  r3  r3
4          s3          5
5      r0  r0  r0
""",
        [],
    ),
    ("plus", "slr"): (
        """\
state  +   n   $    E  T
0          s3       1  2
1      s4      acc
2      r1      r1
3      r3      r3
4          s3          5
5      r0      r0
""",
        [],
    ),
    ("plus", "lalr"): (
        """\
state  +   n   $    E  T
0          s3       1  2
1      s4      acc
2      r1      r1
3      r3      r3
4          s3          5
5      r0      r0
""",
        [],
    ),
    ("epsilon", "lr0"): (
        """\
state  a      b   c      $    A  C  S
0      r0/s3  r0  r0     r0   2     1
1                        acc
2             s4
3      r1     r1  r1     r1
4      r2     r2  r2/s6  r2      5
5      r4     r4  r4     r4
6      r3     r3  r3     r3
""",
        [(0, "a"), (4, "c")],
    ),
    ("epsilon", "slr"): (
        """\
state  a   b   c   $    A  C  S
0      s3  r0           2     1
1                  acc
2          s4
3          r1
4              s6  r2      5
5                  r4
6                  r3
""",
        [],
    ),
    ("epsilon", "lalr"): (
        """\
state  a   b   c   $    A  C  S
0      s3  r0           2     1
1                  acc
2          s4
3          r1
4              s6  r2      5
5                  r4
6                  r3
""",
        [],
    ),
}

GOLDEN_RESOLVED = {
    ("booleans", "lr0"): """\
state  and  false  or  true  $    B
0           s3         s2         1
1      s4          s5        acc
2      r1   r1     r1  r1    r1
3      r0   r0     r0  r0    r0
4           s3         s2         6
5           s3         s2         7
6      s4   r2     s5  r2    r2
7      s4   r3     s5  r3    r3
""",
    ("booleans", "lalr"): """\
state  and  false  or  true  $    B
0           s3         s2         1
1      s4          s5        acc
2      r1          r1        r1
3      r0          r0        r0
4           s3         s2         6
5           s3         s2         7
6      s4          s5        r2
7      s4          s5        r3
""",
    ("epsilon", "lr0"): """\
state  a   b   c   $    A  C  S
0      s3  r0  r0  r0   2     1
1                  acc
2          s4
3      r1  r1  r1  r1
4      r2  r2  s6  r2      5
5      r4  r4  r4  r4
6      r3  r3  r3  r3
""",
    ("epsilon", "lalr"): """\
state  a   b   c   $    A  C  S
0      s3  r0           2     1
1                  acc
2          s4
3          r1
4              s6  r2      5
5                  r4
6                  r3
""",
}


def _graph(text):
    generator = ConventionalGenerator(grammar_from_text(text))
    generator.generate()
    return generator.graph


class TestLR0Table:
    def test_lr0_has_conflicts_on_slr_grammar(self):
        table = lr0_table(_graph(SLR_GRAMMAR))
        assert not table.is_deterministic

    def test_action_returns_all_actions(self, booleans):
        generator = ConventionalGenerator(booleans)
        generator.generate()
        table = lr0_table(generator.graph)
        # state 6/7 conflict cells return two actions
        conflict = table.conflicts()[0]
        assert len(table.action(conflict.state, conflict.terminal)) == 2

    def test_goto_raises_on_missing_entry(self, booleans):
        generator = ConventionalGenerator(booleans)
        generator.generate()
        table = lr0_table(generator.graph)
        with pytest.raises(LookupError):
            table.goto(0, NonTerminal("NOPE"))

    def test_cell_count_positive(self, booleans):
        generator = ConventionalGenerator(booleans)
        generator.generate()
        assert lr0_table(generator.graph).cell_count() >= 20


class TestSLRTable:
    def test_slr_resolves_lr0_conflicts(self):
        table = slr_table(grammar_from_text(SLR_GRAMMAR))
        assert table.is_deterministic

    def test_slr_parses(self):
        grammar = grammar_from_text(SLR_GRAMMAR)
        table = slr_table(grammar)
        parser = SimpleLRParser(table, grammar)
        assert parser.parse(toks("n + n + n")).accepted
        assert not parser.recognize(toks("n +"))

    def test_slr_conflicts_on_lalr_grammar(self):
        table = slr_table(grammar_from_text(LALR_GRAMMAR))
        assert not table.is_deterministic


class TestLALRTable:
    def test_lalr_clean_on_lalr_grammar(self):
        table = lalr_table(grammar_from_text(LALR_GRAMMAR))
        assert table.is_deterministic

    def test_lalr_parses_lalr_grammar(self):
        grammar = grammar_from_text(LALR_GRAMMAR)
        parser = SimpleLRParser(
            lalr_table(grammar), grammar
        )
        assert parser.recognize(toks("id = id"))
        assert parser.recognize(toks("* id = * * id"))
        assert parser.recognize(toks("id"))
        assert not parser.recognize(toks("= id"))

    def test_lalr_conflicts_on_non_lalr_grammar(self):
        table = lalr_table(grammar_from_text(NON_LALR_GRAMMAR))
        conflicts = table.conflicts()
        assert conflicts, "LALR merging must produce reduce/reduce here"
        assert any(c.kind == "reduce/reduce" for c in conflicts)

    def test_lalr_handles_epsilon_rules(self, epsilon_grammar):
        table = lalr_table(epsilon_grammar)
        parser = SimpleLRParser(table, epsilon_grammar)
        assert parser.recognize(toks("b"))
        assert parser.recognize(toks("a b c"))
        assert not parser.recognize(toks("a c"))

    def test_lalr_accepts_empty_sentence_for_nullable_start(self):
        grammar = grammar_from_text(
            """
            S ::=
            S ::= a S
            START ::= S
            """
        )
        parser = SimpleLRParser(lalr_table(grammar), grammar)
        assert parser.recognize([])
        assert parser.recognize(toks("a a"))


class TestConflictResolution:
    def test_resolution_prefers_shift(self):
        grammar = grammar_from_text(
            """
            S ::= if S
            S ::= if S else S
            S ::= x
            START ::= S
            """
        )
        table = lalr_table(grammar)
        assert not table.is_deterministic  # dangling else
        resolved, conflicts = resolve_conflicts(table)
        assert resolved.is_deterministic
        assert conflicts
        parser = SimpleLRParser(resolved, grammar)
        # prefer-shift binds the else to the inner if (C semantics)
        assert parser.recognize(toks("if if x else x"))

    def test_resolution_is_identity_for_clean_tables(self):
        table = lalr_table(grammar_from_text(LALR_GRAMMAR))
        resolved, conflicts = resolve_conflicts(table)
        assert conflicts == ()
        assert resolved is table

    def test_reduce_reduce_prefers_first_rule(self):
        table = lalr_table(grammar_from_text(NON_LALR_GRAMMAR))
        resolved, conflicts = resolve_conflicts(table)
        assert resolved.is_deterministic
        assert any(c.kind == "reduce/reduce" for c in conflicts)


class TestDeterministicParserErrors:
    def test_multiple_actions_raise_ambiguous(self, booleans):
        generator = ConventionalGenerator(booleans)
        generator.generate()
        table = lr0_table(generator.graph)
        parser = SimpleLRParser(table, booleans)
        with pytest.raises(AmbiguousInputError):
            parser.parse(toks("true or true or true"))

    def test_error_carries_position(self):
        grammar = grammar_from_text(SLR_GRAMMAR)
        parser = SimpleLRParser(
            slr_table(grammar), grammar
        )
        with pytest.raises(ParseError) as excinfo:
            parser.parse(toks("n + +"))
        assert excinfo.value.position == 2
        assert excinfo.value.symbol == Terminal("+")


def _expanded(name):
    graph = ItemSetGraph(grammar_from_text(GOLDEN_GRAMMARS[name]))
    graph.expand_all()
    return graph


class TestGoldenTables:
    @pytest.mark.parametrize("name, kind", sorted(GOLDEN_TABLES))
    def test_render_and_conflicts(self, name, kind):
        table = GOLDEN_BUILDERS[kind](_expanded(name))
        rendered, conflicts = GOLDEN_TABLES[name, kind]
        assert table.render() + "\n" == rendered
        assert [(c.state, c.terminal.name) for c in table.conflicts()] == conflicts

    @pytest.mark.parametrize("name, kind", sorted(GOLDEN_RESOLVED))
    def test_resolved_render(self, name, kind):
        table, _ = resolve_conflicts(GOLDEN_BUILDERS[kind](_expanded(name)))
        assert table.render() + "\n" == GOLDEN_RESOLVED[name, kind]
