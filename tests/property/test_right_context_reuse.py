"""Right-context reuse: tree-mode ``reparse(edit)`` ≡ ``parse(spliced)``.

A tree-mode reparse that changes a token shifts the base tree's
subtrees after the edit whole, once the LR state matches (see
:mod:`repro.runtime.gss`).  The random-grammar suites of
``test_incremental_reparse.py`` almost never reach that path, so this
suite runs chains of edits on deterministic grammars shaped to reuse —
expression precedence, left- and right-recursive lists, ε-lists,
dangling-else and parenthesised booleans — and on the SDF corpus with
the edit kinds of the incremental bench.  Every step is compared with a
fresh parse of the edited input, and each suite asserts that it reused
subtrees at all.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

import pytest

from repro.api import Language
from repro.bench.incremental import EDIT_KINDS, edit_grid
from repro.grammar.builders import grammar_from_text
from repro.grammar.grammar import Grammar
from repro.grammar.symbols import NonTerminal
from repro.sdf.corpus import corpus_tokens, sdf_grammar

from .test_incremental_reparse import fingerprint

#: name -> (grammar text, token rewrites that keep a sentence in the language)
GRAMMARS: Dict[str, Tuple[str, Dict[str, str]]] = {
    "precedence": (
        """
        E ::= E + T
        E ::= T
        T ::= T * F
        T ::= F
        F ::= n
        F ::= ( E )
        START ::= E
        """,
        {"+": "*", "*": "+", "n": "( n * n )"},
    ),
    "left-list": (
        """
        S ::= [ L ]
        L ::= L , X
        L ::= X
        X ::= x
        X ::= y
        X ::= [ L ]
        START ::= S
        """,
        {"x": "y", "y": "[ y , x ]"},
    ),
    "right-list": (
        """
        S ::= R ;
        R ::= X R
        R ::= X
        X ::= x
        X ::= y
        X ::= { R }
        START ::= S
        """,
        {"x": "y", "y": "{ x y }"},
    ),
    "epsilon-list": (
        """
        S ::= a L b L
        L ::= L X
        L ::=
        X ::= x
        X ::= y
        X ::= ( L )
        START ::= S
        """,
        {"x": "( y x )", "y": "x", "b": "b b"},
    ),
    "dangling-else": (
        """
        S ::= if c then S
        S ::= if c then S else S
        S ::= a
        S ::= b
        S ::= { L }
        L ::= L S
        L ::= S
        START ::= S
        """,
        {"a": "b", "b": "{ a if c then b }"},
    ),
    "booleans": (
        """
        B ::= true
        B ::= false
        B ::= B or B
        B ::= B and B
        B ::= ( B )
        START ::= B
        """,
        {"true": "( false and true )", "false": "true", "and": "or", "or": "and"},
    ),
}

#: Bracket comparisons render every tree; past this count the fingerprint
#: keeps the count and leaves the tree list out.
MAX_RENDERED = 500


def compare(edited, scratch) -> None:
    if scratch.ambiguity > MAX_RENDERED:
        assert edited.ambiguity == scratch.ambiguity
        assert edited.accepted == scratch.accepted
        return
    assert fingerprint(edited) == fingerprint(scratch)


def _min_lengths(grammar: Grammar) -> Dict[NonTerminal, int]:
    """Shortest terminal yield per non-terminal (a fixpoint)."""
    lengths: Dict[NonTerminal, int] = {}
    changed = True
    while changed:
        changed = False
        for rule in grammar.rules:
            total = 0
            for symbol in rule.rhs:
                if isinstance(symbol, NonTerminal):
                    if symbol not in lengths:
                        break
                    total += lengths[symbol]
                else:
                    total += 1
            else:
                if total < lengths.get(rule.lhs, total + 1):
                    lengths[rule.lhs] = total
                    changed = True
    return lengths


def derive(grammar: Grammar, rng: random.Random, target: int) -> Optional[List[str]]:
    """A sentence of about ``target`` tokens, by random leftmost
    derivation: random rules while the sentential form is short, then
    the rules with the shortest yields."""
    lengths = _min_lengths(grammar)

    def cost(rule) -> int:
        return sum(
            lengths.get(symbol, 10**6) if isinstance(symbol, NonTerminal) else 1
            for symbol in rule.rhs
        )

    sentential: list = list(next(iter(grammar.start_rules())).rhs)
    for _ in range(4000):
        index = next(
            (i for i, s in enumerate(sentential) if isinstance(s, NonTerminal)),
            None,
        )
        if index is None:
            return [symbol.name for symbol in sentential]
        rules = list(grammar.rules_for(sentential[index]))
        if len(sentential) < target:
            rule = rng.choice(rules)
        else:
            rule = min(rules, key=lambda r: (cost(r), len(r.rhs)))
        sentential[index : index + 1] = list(rule.rhs)
    return None


def sentences(grammar: Grammar, rng: random.Random, count: int) -> List[List[str]]:
    found: List[List[str]] = []
    while len(found) < count:
        sentence = derive(grammar, rng, rng.randint(6, 70))
        if sentence is not None and 6 <= len(sentence) <= 80:
            found.append(sentence)
    return found


def random_step(
    rng: random.Random, tokens: List[str], rewrites: Dict[str, str], terminals: List[str]
) -> Tuple[int, int, List[str]]:
    """A validity-preserving token rewrite two times in three (when the
    input has a rewritable token), else a random splice of up to three
    tokens."""
    sites = [i for i, token in enumerate(tokens) if token in rewrites]
    if sites and rng.random() < 0.67:
        site = rng.choice(sites)
        return site, site + 1, rewrites[tokens[site]].split()
    start = rng.randint(0, len(tokens))
    end = rng.randint(start, min(len(tokens), start + 3))
    return start, end, [rng.choice(terminals) for _ in range(rng.randint(0, 3))]


@pytest.mark.parametrize("name", sorted(GRAMMARS))
def test_edit_chains_on_reuse_shaped_grammars(name):
    text, rewrites = GRAMMARS[name]
    grammar = grammar_from_text(text)
    terminals = sorted({s.name for r in grammar.rules for s in r.rhs} - {
        n.name for n in grammar.nonterminals
    })
    language = Language.from_text(text)
    rng = random.Random(f"right-context/{name}")
    reused = 0
    for tokens in sentences(grammar, rng, 16):
        current = language.parse(tokens, checkpoint=True)
        assert current.accepted, tokens
        for _ in range(5):
            if current.accepted:
                start, end, replacement = random_step(rng, tokens, rewrites, terminals)
            else:
                # Undo a rejected splice, as an editor's user would.
                start, end, replacement = start, start + len(replacement), removed
            removed = tokens[start:end]
            tokens = tokens[:start] + replacement + tokens[end:]
            current = language.reparse(current, start, end, replacement)
            compare(current, language.parse(tokens))
            reused += current.stats["subtrees_reused"]
    assert reused > 0


def test_edit_chains_on_the_sdf_corpus():
    """The incremental bench's edit kinds, chained on every corpus input:
    each step picks a seeded site of its kind in the current tokens."""
    language = Language(sdf_grammar())
    rng = random.Random("right-context/sdf")
    reused = 0
    for name, base_tokens in sorted(corpus_tokens().items()):
        for order in (list(EDIT_KINDS), list(reversed(EDIT_KINDS))):
            tokens = list(base_tokens)
            current = language.parse(tokens, checkpoint=True)
            for kind in order:
                edits = edit_grid(tokens).get(kind)
                if not edits:
                    continue
                edit = rng.choice(edits)
                replacement = [t.name for t in edit.replacement]
                tokens = tokens[: edit.start] + list(edit.replacement) + tokens[edit.end :]
                current = language.reparse(current, edit.start, edit.end, replacement)
                compare(current, language.parse(tokens))
                reused += current.stats["subtrees_reused"]
    assert reused > 0


def test_a_subtree_spanning_a_base_sweep_is_parsed_again():
    """Packed-free is not enough: ``W`` below is a plain parse node, but
    the base built it after a general sweep at ``e2`` (reduce ``V`` or
    shift ``e2``) whose ``V`` branch died only because the left context
    said ``c1``.  After ``c1 -> c2`` that branch is the parse, so the
    reparse must not shift the base's ``W`` whole."""
    language = Language.from_text(
        """
        S ::= c1 R e1 f
        S ::= c2 R e2 e1 f
        S ::= c2 R e1 h
        R ::= x W
        R ::= x V
        W ::= y z e2
        V ::= y z
        START ::= S
        """
    )
    base = language.parse("c1 x y z e2 e1 f", checkpoint=True)
    assert base.brackets() == ["START(S(c1 R(x W(y z e2)) e1 f))"]
    edited = language.reparse(base, 0, 1, ["c2"])
    assert edited.brackets() == ["START(S(c2 R(x V(y z)) e2 e1 f))"]
    assert edited.stats["subtrees_reused"] == 0


def test_frontiers_inside_a_reused_subtree_stay_unrecorded():
    """Boundaries inside (and at the end of) a subtree shifted whole are
    ``None``; a chained edit there resumes before it and still matches a
    fresh parse."""
    language = Language.from_text(GRAMMARS["left-list"][0])
    tokens = "[ x , [ y , x , y ] , x , y ]".split()
    base = language.parse(tokens, checkpoint=True)
    edited = language.reparse(base, 1, 2, ["y"])
    assert edited.stats["subtrees_reused"] > 0
    frontiers = edited.incremental.frontiers
    assert any(frontier is None for frontier in frontiers[2:-1])
    tokens[1] = "y"
    chained = language.reparse(edited, 6, 7, ["y"])
    tokens[6] = "y"
    compare(chained, language.parse(tokens))
