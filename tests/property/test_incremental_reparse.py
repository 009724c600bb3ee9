"""Differential properties: ``reparse(edit)`` ≡ ``parse(spliced tokens)``.

The incremental layer's whole contract is observational equivalence with
a from-scratch parse of the edited input — trees (bracketed forms),
ambiguity counts, acceptance, and rejection diagnostics (token index +
expected set) must all match, for random grammars, random inputs, random
splice edits, chained edits, and edits interleaved with grammar
modifications (which must invalidate checkpoints: each MODIFY moves the
grammar revision a checkpoint was taken at).  The bulk suites below are deterministic
seeded sweeps (hundreds of cases, no shrinking overhead); a hypothesis
pass adds shape diversity on top.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Language
from repro.grammar.grammar import Grammar, GrammarError
from repro.grammar.rules import Rule
from repro.grammar.symbols import NonTerminal, Terminal
from repro.runtime.errors import SweepLimitExceeded

from .strategies import derive_sentence, grammars, is_pool_safe

TERMINALS = [Terminal(name) for name in ("x", "y", "z")]
NONTERMINAL_NAMES = ("A", "B", "C")


def random_grammar(rng: random.Random) -> Optional[Grammar]:
    """A small random grammar (pool-safe or None)."""
    grammar = Grammar()
    grammar.add_rule(Rule(grammar.start, [NonTerminal("A")]))
    nonterminals = [
        NonTerminal(name) for name in NONTERMINAL_NAMES[: rng.randint(1, 3)]
    ]
    symbols = TERMINALS + nonterminals
    for _ in range(rng.randint(1, 9)):
        body = [rng.choice(symbols) for _ in range(rng.randint(0, 4))]
        try:
            grammar.add_rule(Rule(rng.choice(nonterminals), body))
        except GrammarError:
            continue
    return grammar if is_pool_safe(grammar) else None


def random_input(
    rng: random.Random, grammar: Grammar, max_length: int = 10
) -> List[Terminal]:
    """Half valid sentences (random derivation), half arbitrary strings."""
    if rng.random() < 0.5:
        derived = derive_sentence(grammar, seed=rng.randrange(1 << 30))
        if derived is not None and len(derived) <= max_length:
            return derived
    return [rng.choice(TERMINALS) for _ in range(rng.randint(0, max_length))]


def random_edit(
    rng: random.Random, length: int
) -> Tuple[int, int, List[Terminal]]:
    start = rng.randint(0, length)
    end = rng.randint(start, length)
    replacement = [rng.choice(TERMINALS) for _ in range(rng.randint(0, 4))]
    return start, end, replacement


def fingerprint(outcome) -> dict:
    """Everything the equivalence promise covers, in comparable form."""
    data = {
        "accepted": outcome.accepted,
        "ambiguity": outcome.ambiguity,
        "brackets": outcome.brackets(),
        "diagnostic": None,
    }
    if outcome.diagnostic is not None:
        payload = outcome.diagnostic.to_payload()
        data["diagnostic"] = (
            payload["message"],
            payload["token_index"],
            tuple(payload["expected"]),
        )
    return data


def splice(tokens, start, end, replacement):
    return list(tokens[:start]) + list(replacement) + list(tokens[end:])


class TestReparseEquivalence:
    def test_bulk_random_grammars_and_edits(self):
        """>=200 random (grammar, input, edit) cases, tree mode."""
        rng = random.Random(20260728)
        checked = 0
        attempts = 0
        while checked < 220 and attempts < 2500:
            attempts += 1
            grammar = random_grammar(rng)
            if grammar is None:
                continue
            language = Language(grammar)
            tokens = random_input(rng, grammar)
            start, end, replacement = random_edit(rng, len(tokens))
            try:
                base = language.parse(tokens, checkpoint=True)
                edited = language.reparse(base, start, end, replacement)
                scratch = language.parse(splice(tokens, start, end, replacement))
                # One shared sweep: a checkpointed parse takes exactly the
                # steps a plain parse takes, so their stats agree too.
                stats = {
                    engine: (
                        language.parse(tokens, engine=engine, checkpoint=True).stats,
                        language.parse(tokens, engine=engine).stats,
                    )
                    for engine in ("compiled", "lazy")
                }
            except SweepLimitExceeded:
                continue  # indirect hidden left recursion slipped the filter
            for engine, (checkpointed, plain) in stats.items():
                assert checkpointed == plain, (engine, grammar.pretty(), tokens)
            assert fingerprint(edited) == fingerprint(scratch), (
                f"divergence: grammar={grammar.pretty()!r} "
                f"tokens={[t.name for t in tokens]} "
                f"edit=[{start}:{end}]->"
                f"{[t.name for t in replacement]}"
            )
            checked += 1
        assert checked >= 220

    def test_bulk_recognition_mode(self):
        rng = random.Random(9241)
        checked = 0
        attempts = 0
        while checked < 120 and attempts < 1500:
            attempts += 1
            grammar = random_grammar(rng)
            if grammar is None:
                continue
            language = Language(grammar)
            tokens = random_input(rng, grammar)
            start, end, replacement = random_edit(rng, len(tokens))
            try:
                base = language.recognize(tokens, checkpoint=True)
                edited = language.reparse(base, start, end, replacement)
                scratch = language.recognize(
                    splice(tokens, start, end, replacement)
                )
            except SweepLimitExceeded:
                continue
            assert fingerprint(edited) == fingerprint(scratch)
            checked += 1
        assert checked >= 120

    def test_chained_edits(self):
        """Each reparse output is itself a valid base for the next edit."""
        rng = random.Random(5150)
        checked = 0
        attempts = 0
        while checked < 60 and attempts < 900:
            attempts += 1
            grammar = random_grammar(rng)
            if grammar is None:
                continue
            language = Language(grammar)
            tokens = random_input(rng, grammar)
            try:
                current = language.parse(tokens, checkpoint=True)
            except SweepLimitExceeded:
                continue
            ok = True
            for _ in range(3):
                start, end, replacement = random_edit(rng, len(tokens))
                tokens = splice(tokens, start, end, replacement)
                try:
                    current = language.reparse(current, start, end, replacement)
                    scratch = language.parse(tokens)
                except SweepLimitExceeded:
                    ok = False
                    break
                assert fingerprint(current) == fingerprint(scratch)
            if ok:
                checked += 1
        assert checked >= 60

    def test_interleaved_grammar_edits_invalidate_checkpoints(self):
        """A MODIFY between parse and reparse forces (correct) fallback."""
        rng = random.Random(31337)
        checked = 0
        fallbacks = 0
        attempts = 0
        while checked < 50 and attempts < 800:
            attempts += 1
            grammar = random_grammar(rng)
            if grammar is None:
                continue
            language = Language(grammar)
            tokens = random_input(rng, grammar)
            start, end, replacement = random_edit(rng, len(tokens))
            try:
                base = language.parse(tokens, checkpoint=True)
            except SweepLimitExceeded:
                continue
            # Interleaved MODIFY: add (or delete) a rule, then reparse.
            lhs = NonTerminal(rng.choice(NONTERMINAL_NAMES))
            body = [rng.choice(TERMINALS) for _ in range(rng.randint(1, 3))]
            try:
                changed = language.add_rule(Rule(lhs, body))
            except GrammarError:
                continue
            if not is_pool_safe(language.grammar):
                continue
            try:
                edited = language.reparse(base, start, end, replacement)
                scratch = language.parse(splice(tokens, start, end, replacement))
            except SweepLimitExceeded:
                continue
            assert fingerprint(edited) == fingerprint(scratch)
            if changed:
                # The checkpoints predate the MODIFY: the reparse must
                # have refused them (the grammar revision moved on).
                assert edited.reuse is not None
                assert edited.reuse.get("fallback") == "grammar-modified"
                fallbacks += 1
            checked += 1
        assert checked >= 50
        assert fallbacks >= 25  # the MODIFY genuinely changed the grammar

    @pytest.mark.parametrize("engine", ["lazy", "gss", "earley"])
    def test_other_engines_agree(self, engine):
        """Supporting engines reuse, the rest fall back — all must agree."""
        rng = random.Random(hash(engine) & 0xFFFF)
        checked = 0
        attempts = 0
        while checked < 25 and attempts < 400:
            attempts += 1
            grammar = random_grammar(rng)
            if grammar is None:
                continue
            language = Language(grammar)
            tokens = random_input(rng, grammar)
            start, end, replacement = random_edit(rng, len(tokens))
            # Recognize-only engines refuse tree mode outright, so the
            # equivalence for them is over acceptance.
            entry = (
                language.parse
                if language.engine(engine).supports_trees
                else language.recognize
            )
            try:
                base = entry(tokens, engine=engine, checkpoint=True)
                edited = language.reparse(base, start, end, replacement)
                scratch = entry(
                    splice(tokens, start, end, replacement), engine=engine
                )
            except SweepLimitExceeded:
                continue
            assert edited.accepted == scratch.accepted
            assert edited.brackets() == scratch.brackets()
            checked += 1
        assert checked >= 25


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(data=st.data())
def test_reparse_equivalence_hypothesis(data):
    """Shape diversity on top of the seeded sweeps (epsilon rules etc.)."""
    grammar = data.draw(grammars(max_nonterminals=3, max_rules=8))
    if not is_pool_safe(grammar):
        return
    language = Language(grammar)
    tokens = data.draw(
        st.lists(st.sampled_from(TERMINALS), max_size=8)
    )
    start = data.draw(st.integers(0, len(tokens)))
    end = data.draw(st.integers(start, len(tokens)))
    replacement = data.draw(st.lists(st.sampled_from(TERMINALS), max_size=3))
    try:
        base = language.parse(tokens, checkpoint=True)
        edited = language.reparse(base, start, end, replacement)
        scratch = language.parse(splice(tokens, start, end, replacement))
    except SweepLimitExceeded:
        return
    assert fingerprint(edited) == fingerprint(scratch)
