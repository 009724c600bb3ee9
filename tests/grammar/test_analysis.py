"""FIRST / FOLLOW / nullable / reachability / usefulness analyses."""


from repro.grammar.analysis import GrammarAnalysis
from repro.grammar.builders import grammar_from_text
from repro.grammar.symbols import END, NonTerminal, Terminal


def analysis_of(text: str) -> GrammarAnalysis:
    return GrammarAnalysis(grammar_from_text(text))


class TestNullable:
    def test_direct_epsilon(self):
        a = analysis_of("A ::=\nSTART ::= A")
        assert a.is_nullable(NonTerminal("A"))

    def test_transitive_epsilon(self):
        a = analysis_of(
            """
            A ::= B B
            B ::=
            START ::= A
            """
        )
        assert a.is_nullable(NonTerminal("A"))

    def test_terminal_blocks_nullability(self):
        a = analysis_of("A ::= x\nSTART ::= A")
        assert not a.is_nullable(NonTerminal("A"))
        assert not a.is_nullable(Terminal("x"))

    def test_sequence_nullable(self):
        a = analysis_of(
            """
            A ::=
            B ::=
            START ::= A B
            """
        )
        assert a.sequence_nullable([NonTerminal("A"), NonTerminal("B")])
        assert not a.sequence_nullable([NonTerminal("A"), Terminal("x")])
        assert a.sequence_nullable([])


class TestFirst:
    def test_terminal_heads(self):
        a = analysis_of(
            """
            E ::= n
            E ::= ( E )
            START ::= E
            """
        )
        assert a.first(NonTerminal("E")) == frozenset(
            {Terminal("n"), Terminal("(")}
        )

    def test_first_through_nullable(self):
        a = analysis_of(
            """
            S ::= A b
            A ::=
            A ::= a
            START ::= S
            """
        )
        assert a.first(NonTerminal("S")) == frozenset(
            {Terminal("a"), Terminal("b")}
        )

    def test_first_of_sequence(self):
        a = analysis_of(
            """
            A ::=
            A ::= a
            START ::= A
            """
        )
        assert a.first_of([NonTerminal("A"), Terminal("z")]) == frozenset(
            {Terminal("a"), Terminal("z")}
        )

    def test_left_recursion_terminates(self):
        a = analysis_of(
            """
            E ::= E + n
            E ::= n
            START ::= E
            """
        )
        assert a.first(NonTerminal("E")) == frozenset({Terminal("n")})


class TestFollow:
    def test_start_followed_by_end(self):
        a = analysis_of("START ::= E\nE ::= n")
        assert END in a.follow(NonTerminal("START"))
        assert END in a.follow(NonTerminal("E"))

    def test_follow_from_successor(self):
        a = analysis_of(
            """
            S ::= E x
            E ::= n
            START ::= S
            """
        )
        assert Terminal("x") in a.follow(NonTerminal("E"))

    def test_follow_through_nullable_tail(self):
        a = analysis_of(
            """
            S ::= E A y
            A ::=
            E ::= n
            START ::= S
            """
        )
        follow_e = a.follow(NonTerminal("E"))
        assert Terminal("y") in follow_e

    def test_follow_inherits_from_lhs(self):
        a = analysis_of(
            """
            S ::= x E
            E ::= n
            START ::= S z
            """
        )
        # not possible: START cannot appear in rhs; use another pair
        a = analysis_of(
            """
            S ::= T
            T ::= n
            U ::= S w
            START ::= U
            """
        )
        assert Terminal("w") in a.follow(NonTerminal("T"))


class TestCachingAndInvalidation:
    def test_results_refresh_after_edit(self):
        from repro.grammar.rules import Rule

        grammar = grammar_from_text("E ::= n\nSTART ::= E")
        analysis = GrammarAnalysis(grammar)
        assert Terminal("x") not in analysis.first(NonTerminal("E"))
        grammar.add_rule(Rule(NonTerminal("E"), [Terminal("x")]))
        assert Terminal("x") in analysis.first(NonTerminal("E"))


class TestStructural:
    def test_reachable(self):
        a = analysis_of(
            """
            S ::= A
            A ::= a
            Z ::= z
            START ::= S
            """
        )
        reachable = a.reachable()
        assert NonTerminal("A") in reachable
        assert NonTerminal("Z") not in reachable

    def test_productive(self):
        a = analysis_of(
            """
            S ::= a
            L ::= L x
            START ::= S
            """
        )
        productive = a.productive()
        assert NonTerminal("S") in productive
        assert NonTerminal("L") not in productive

    def test_useless_rules(self):
        a = analysis_of(
            """
            S ::= a
            S ::= L
            L ::= L x
            Z ::= z
            START ::= S
            """
        )
        useless = a.useless_rules()
        texts = {str(rule) for rule in useless}
        assert "Z ::= z" in texts
        assert "L ::= L x" in texts
        assert "S ::= L" in texts
        assert "S ::= a" not in texts

    def test_left_recursive_direct(self):
        a = analysis_of(
            """
            E ::= E + n
            E ::= n
            START ::= E
            """
        )
        assert NonTerminal("E") in a.left_recursive()

    def test_left_recursive_indirect_through_nullable(self):
        a = analysis_of(
            """
            A ::= N B x
            B ::= A y
            N ::=
            START ::= A
            """
        )
        assert NonTerminal("A") in a.left_recursive()

    def test_not_left_recursive(self):
        a = analysis_of(
            """
            E ::= n + E
            E ::= n
            START ::= E
            """
        )
        assert NonTerminal("E") not in a.left_recursive()

    def test_cycle_detection(self):
        a = analysis_of(
            """
            A ::= B
            B ::= A
            A ::= a
            START ::= A
            """
        )
        assert a.has_cycles()

    def test_no_cycles(self):
        a = analysis_of(
            """
            E ::= E + n
            E ::= n
            START ::= E
            """
        )
        assert not a.has_cycles()
