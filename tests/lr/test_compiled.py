"""The compiled control plane: memoization, invalidation, table controls."""

import pytest

from repro import Language
from repro.core.incremental import IncrementalGenerator
from repro.grammar.builders import grammar_from_text
from repro.lr.compiled import (
    STEP_ACCEPT,
    STEP_REDUCE,
    STEP_SHIFT,
    CompiledControl,
    encode_step,
)
from repro.lr.actions import Reduce, Shift
from repro.lr.graph import ItemSetGraph
from repro.lr.slr import slr_table
from repro.lr.table import lr0_table
from repro.grammar.symbols import END, NonTerminal, Terminal
from repro.runtime.gss import GSSParser
from repro.runtime.parallel import PoolParser

BOOLEANS = """
    B ::= true
    B ::= false
    B ::= B or B
    B ::= B and B
    START ::= B
"""


def booleans():
    return grammar_from_text(BOOLEANS)


def compiled_setup(grammar):
    generator = IncrementalGenerator(grammar)
    control = CompiledControl(generator.control, grammar)
    return generator, control


def toks(text):
    return [Terminal(part) for part in text.split()]


class TestMemoization:
    def test_repeated_action_returns_shared_tuple(self):
        grammar = booleans()
        _, control = compiled_setup(grammar)
        parser = PoolParser(control, grammar)
        assert parser.recognize(toks("true and false"))
        state = control.start_state
        first = control.action(state, Terminal("true"))
        second = control.action(state, Terminal("true"))
        assert first is second  # the memo hands back the same tuple object

    def test_hits_and_misses_counted(self):
        grammar = booleans()
        _, control = compiled_setup(grammar)
        parser = PoolParser(control, grammar)
        parser.recognize(toks("true and false"))
        cold = control.stats.snapshot()
        assert cold["action_cache_misses"] > 0
        parser.recognize(toks("true and false"))
        warm = control.stats.snapshot()
        assert warm["action_cache_misses"] == cold["action_cache_misses"]
        assert warm["action_cache_hits"] > cold["action_cache_hits"]

    def test_results_equal_inner_control(self):
        grammar = booleans()
        generator, control = compiled_setup(grammar)
        parser = PoolParser(control, grammar)
        parser.recognize(toks("true or true and false"))
        for state in generator.graph.states():
            if not state.is_complete:
                continue
            for name in ("true", "false", "and", "or"):
                symbol = Terminal(name)
                assert control.action(state, symbol) == generator.control.action(
                    state, symbol
                )

    def test_step_cache_mirrors_actions(self):
        grammar = booleans()
        _, control = compiled_setup(grammar)
        parser = PoolParser(control, grammar)
        parser.recognize(toks("true and false"))
        assert control.fast_step_cache  # populated during the parse
        for state, steps in control.fast_step_cache.items():
            for symbol, step in steps.items():
                assert step == encode_step(control.action(state, symbol))


class TestInvalidation:
    def test_add_rule_is_visible_through_the_cache(self):
        grammar = booleans()
        _, control = compiled_setup(grammar)
        parser = PoolParser(control, grammar)
        assert not parser.recognize(toks("true or unknown"))
        grammar.add_rule(Language(booleans()).coerce_rule("B ::= unknown"))
        assert parser.recognize(toks("true or unknown"))

    def test_delete_rule_is_visible_through_the_cache(self):
        grammar = booleans()
        _, control = compiled_setup(grammar)
        parser = PoolParser(control, grammar)
        assert parser.recognize(toks("true and false"))
        [and_rule] = [r for r in grammar.rules if Terminal("and") in r.rhs]
        grammar.delete_rule(and_rule)
        assert not parser.recognize(toks("true and false"))
        assert parser.recognize(toks("true or false"))

    def test_flush_is_precise(self):
        # An edit only evicts the states MODIFY un-expanded, not the
        # whole cache.
        grammar = grammar_from_text(
            """
            A ::= x
            C ::= z
            START ::= A C
            """
        )
        _, control = compiled_setup(grammar)
        parser = PoolParser(control, grammar)
        assert parser.recognize(toks("x z"))
        cached_before = control.cached_states()
        assert cached_before > 0
        grammar.add_rule(Language(grammar.copy()).coerce_rule("C ::= zz"))
        evicted = control.stats.action_cache_evicted
        assert 0 < evicted < cached_before
        assert parser.recognize(toks("x zz"))

    def test_summary_reports_cache_counters(self):
        lang = Language.from_text(BOOLEANS)
        lang.parse("true and true")
        summary = lang.summary()
        assert "action_cache_hits" in summary
        assert "action_cache_misses" in summary
        assert summary["action_cache_misses"] > 0


class TestFollowFilter:
    """Step cells are SLR(1); ``action()`` stays LR(0)."""

    def test_conflict_that_follow_resolves_is_one_step(self):
        # After an x, L ::= x . reduces on any terminal in LR(0), but
        # FOLLOW(L) = {$}: on another x only the shift survives.
        grammar = grammar_from_text("START ::= L\nL ::= x\nL ::= x L")
        _, control = compiled_setup(grammar)
        result = GSSParser(control).recognize_result(toks("x x x"))
        assert result.accepted and result.stats.general_sweeps == 0
        x = Terminal("x")
        [state] = [
            state
            for state, cells in control.action_cache.items()
            if len(cells.get(x, ())) > 1
        ]
        actions = control.action(state, x)
        assert {type(action) for action in actions} == {Reduce, Shift}
        assert control.fast_step_cache[state][x][0] == STEP_SHIFT

    def test_follow_is_computed_on_the_first_conflicted_cell(self, monkeypatch):
        from repro.grammar.analysis import GrammarAnalysis

        calls = []
        original = GrammarAnalysis.follow_sets
        monkeypatch.setattr(
            GrammarAnalysis,
            "follow_sets",
            lambda self: calls.append(1) or original(self),
        )
        free = grammar_from_text("START ::= A C\nA ::= x\nC ::= z")
        _, control = compiled_setup(free)
        assert PoolParser(control, free).recognize(toks("x z"))
        free.add_rule(Language(free.copy()).coerce_rule("C ::= zz"))
        assert calls == []  # conflict-free: never computed, not on edits
        grammar = booleans()
        _, control = compiled_setup(grammar)
        assert calls == []  # not in the constructor
        assert PoolParser(control, grammar).recognize(toks("true or true or true"))
        assert calls == [1]
        grammar.add_rule(Language(booleans()).coerce_rule("B ::= unknown"))
        assert calls == [1, 1]  # once computed, recomputed on every edit

    def test_edit_that_moves_follow_reencodes_surviving_cells(self):
        # FOLLOW(A) = {$} resolves the A ::= x . / A ::= x . y conflict
        # on y to the shift; START ::= A y puts y into FOLLOW(A), so the
        # cell (whose state survives the edit) must fork again.
        grammar = grammar_from_text("START ::= A\nA ::= x\nA ::= x y")
        _, control = compiled_setup(grammar)
        parser = PoolParser(control, grammar)
        assert len(parser.parse(toks("x y")).trees) == 1
        y = Terminal("y")
        [state] = [
            state
            for state, cells in control.action_cache.items()
            if len(cells.get(y, ())) > 1
        ]
        assert control.fast_step_cache[state][y][0] == STEP_SHIFT
        grammar.add_rule(Language(grammar.copy()).coerce_rule("START ::= A y"))
        assert state in control.fast_step_cache  # not flushed by MODIFY
        assert control.fast_step_cache[state][y] is False
        assert len(parser.parse(toks("x y")).trees) == 2


class TestEncodeStep:
    def test_multi_action_cells_encode_false(self):
        grammar = booleans()
        graph = ItemSetGraph(grammar)
        graph.expand_all()
        table = lr0_table(graph)
        conflicted = [
            (state, terminal)
            for state in range(len(table))
            for terminal in table.terminals
            if len(table.action(state, terminal)) > 1
        ]
        assert conflicted  # LR(0) booleans has shift/reduce conflicts
        state, terminal = conflicted[0]
        assert encode_step(table.action(state, terminal)) is False

    def test_kinds(self):
        grammar = booleans()
        table = lr0_table_of(grammar)
        steps = [
            encode_step(table.action(state, terminal))
            for state in range(len(table))
            for terminal in list(table.terminals) + [END]
        ]
        kinds = {step[0] for step in steps if step is not False}
        assert kinds == {STEP_SHIFT, STEP_REDUCE, STEP_ACCEPT}


def lr0_table_of(grammar):
    graph = ItemSetGraph(grammar)
    graph.expand_all()
    return lr0_table(graph)


class TestTableAsControl:
    """A :class:`ParseTable` is its own parser control."""

    def grammar(self):
        return grammar_from_text(
            """
            E ::= E + T
            E ::= T
            T ::= n
            START ::= E
            """
        )

    def test_unknown_terminal_gets_lookahead_free_reduces(self):
        # A terminal outside the grammar gets the state's lookahead-free
        # reduces: every LR(0) reduce, and nothing in an SLR(1) table.
        stranger = Terminal("stranger")
        table = lr0_table_of(self.grammar())
        for state in range(len(table)):
            reduces = tuple(a for a in table.action(state, END) if isinstance(a, Reduce))
            assert table.action(state, stranger) == reduces
        assert any(table.action(state, stranger) for state in range(len(table)))
        slr = slr_table(self.grammar())
        assert all(slr.action(state, stranger) == () for state in range(len(slr)))

    def test_goto_unknown_nonterminal_raises(self):
        table = slr_table(self.grammar())
        with pytest.raises(LookupError):
            table.goto(0, NonTerminal("GHOST"))

    def test_action_tuples_are_shared_across_calls(self):
        table = slr_table(self.grammar())
        a = table.action(table.start_state, Terminal("n"))
        b = table.action(table.start_state, Terminal("n"))
        assert a is b
        # Equal cells anywhere in the grid are one tuple.
        cells = {}
        for state in range(len(table)):
            for terminal in list(table.terminals) + [END]:
                cell = table.action(state, terminal)
                assert cells.setdefault(cell, cell) is cell

    def test_default_only_cells_keep_steps_in_sync(self):
        # Regression: a state whose lookahead-less reduce + full shift row
        # makes its *defaults* tuple a brand-new shared cell used to desync
        # the pre-decoded steps and crash construction with IndexError.
        grammar = grammar_from_text(
            """
            START ::= S
            S ::= Z
            S ::= a
            Z ::= S
            Z ::= S a
            """
        )
        table = lr0_table_of(grammar)  # must not raise
        for state in range(len(table)):
            for symbol in list(table.terminals) + [END]:
                step = encode_step(table.action(state, symbol))
                assert step is False or step[0] in (STEP_SHIFT, STEP_REDUCE, STEP_ACCEPT)

    def test_state_objects_are_interned(self):
        # Duplicate elision keys on state identity, so every occurrence of
        # a state number must be the same int object — also past CPython's
        # small-int cache, which a 300-symbol rule's states reach.
        grammar = grammar_from_text(
            "S ::= " + " ".join(f"t{i}" for i in range(300)) + "\nSTART ::= S"
        )
        table = lr0_table_of(grammar)
        assert len(table) > 300
        # The first occurrence of each state number is its object.
        interned = {table.start_state: table.start_state}
        for state in range(len(table)):
            for terminal in list(table.terminals) + [END]:
                for action in table.action(state, terminal):
                    if isinstance(action, Shift):
                        target = action.target
                        assert target is interned.setdefault(target, target)
            for nonterminal in table.nonterminals:
                try:
                    target = table.goto(state, nonterminal)
                except LookupError:
                    continue
                assert target is interned.setdefault(target, target)
        assert len(interned) > 300


class TestConflictCaching:
    def test_conflicts_computed_once(self):
        table = lr0_table_of(booleans())
        first = table.conflicts()
        assert first  # LR(0) booleans is conflicted
        assert table.conflicts() is first  # cached tuple, not a re-scan

    def test_is_deterministic_uses_the_cache(self):
        table = slr_table(
            grammar_from_text(
                """
                A ::= x
                START ::= A
                """
            )
        )
        assert table.is_deterministic
        assert table.conflicts() is table.conflicts()
