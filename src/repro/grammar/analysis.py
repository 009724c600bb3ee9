"""Classic grammar analyses: nullability, FIRST, FOLLOW, reachability.

The LR(0) machinery of the paper needs none of these, but every baseline the
paper compares against does:

* SLR(1) needs FOLLOW,
* LALR(1) (the Yacc baseline of section 7) needs FIRST of sentential tails,
* LL(1) needs FIRST and FOLLOW and their disjointness,
* Earley's nullable-completion fix needs nullability.

All analyses are computed against a grammar *snapshot*; an
:class:`GrammarAnalysis` instance caches its fixpoints and transparently
recomputes them when the underlying grammar's revision counter moves.  This
keeps call sites simple (``analysis.first_of(seq)``) without ever serving
stale data to the incremental generator's test harness.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .grammar import Grammar
from .rules import Rule
from .symbols import END, NonTerminal, Symbol, Terminal


class GrammarAnalysis:
    """Lazily computed, revision-tracking analyses over a :class:`Grammar`."""

    def __init__(self, grammar: Grammar) -> None:
        self._grammar = grammar
        self._revision: Optional[int] = None
        self._nullable: FrozenSet[NonTerminal] = frozenset()
        self._first: Dict[NonTerminal, FrozenSet[Terminal]] = {}
        self._follow: Dict[NonTerminal, FrozenSet[Terminal]] = {}

    # -- cache management ------------------------------------------------

    def _refresh(self) -> None:
        if self._revision == self._grammar.revision:
            return
        self._nullable = _compute_nullable(self._grammar)
        self._first = _compute_first(self._grammar, self._nullable)
        self._follow = _compute_follow(
            self._grammar, self._nullable, self._first
        )
        self._revision = self._grammar.revision

    # -- queries ---------------------------------------------------------

    @property
    def nullable(self) -> FrozenSet[NonTerminal]:
        """Non-terminals that derive the empty string."""
        self._refresh()
        return self._nullable

    def is_nullable(self, symbol: Symbol) -> bool:
        self._refresh()
        return isinstance(symbol, NonTerminal) and symbol in self._nullable

    def sequence_nullable(self, seq: Sequence[Symbol]) -> bool:
        """True if every symbol of ``seq`` is nullable (so ``seq`` =>* ε)."""
        self._refresh()
        return all(
            isinstance(s, NonTerminal) and s in self._nullable for s in seq
        )

    def first(self, nonterminal: NonTerminal) -> FrozenSet[Terminal]:
        self._refresh()
        return self._first.get(nonterminal, frozenset())

    def first_of(self, seq: Sequence[Symbol]) -> FrozenSet[Terminal]:
        """FIRST of a sentential form (terminals that can begin ``seq``)."""
        self._refresh()
        result: Set[Terminal] = set()
        for sym in seq:
            if isinstance(sym, Terminal):
                result.add(sym)
                break
            result |= self._first.get(sym, frozenset())
            if sym not in self._nullable:
                break
        return frozenset(result)

    def follow(self, nonterminal: NonTerminal) -> FrozenSet[Terminal]:
        """FOLLOW set; the start symbol's always contains the end-marker."""
        self._refresh()
        return self._follow.get(nonterminal, frozenset())

    def follow_sets(self) -> Dict[NonTerminal, FrozenSet[Terminal]]:
        """Every FOLLOW set at once: a fresh mapping per grammar revision,
        so a caller may keep it to diff against the next one."""
        self._refresh()
        return self._follow

    # -- structural well-formedness --------------------------------------

    def reachable(self) -> FrozenSet[NonTerminal]:
        """Non-terminals reachable from the start symbol."""
        g = self._grammar
        seen: Set[NonTerminal] = {g.start}
        work: List[NonTerminal] = [g.start]
        while work:
            nt = work.pop()
            for rule in g.rules_for(nt):
                for sym in rule.rhs:
                    if isinstance(sym, NonTerminal) and sym not in seen:
                        seen.add(sym)
                        work.append(sym)
        return frozenset(seen)

    def productive(self) -> FrozenSet[NonTerminal]:
        """Non-terminals that derive at least one terminal string."""
        g = self._grammar
        productive: Set[NonTerminal] = set()
        changed = True
        while changed:
            changed = False
            for rule in g.rules:
                if rule.lhs in productive:
                    continue
                if all(
                    isinstance(s, Terminal) or s in productive for s in rule.rhs
                ):
                    productive.add(rule.lhs)
                    changed = True
        return frozenset(productive)

    def useless_rules(self) -> FrozenSet[Rule]:
        """Rules that can never take part in a derivation of a sentence."""
        reachable = self.reachable()
        productive = self.productive()
        useless: Set[Rule] = set()
        for rule in self._grammar.rules:
            if rule.lhs not in reachable:
                useless.add(rule)
                continue
            for sym in rule.rhs:
                if isinstance(sym, NonTerminal) and sym not in productive:
                    useless.add(rule)
                    break
        return frozenset(useless)

    def left_recursive(self) -> FrozenSet[NonTerminal]:
        """Non-terminals A with A =>+ A alpha (direct or indirect).

        Used by the Fig. 2.1 capability bench: recursive-descent/LL
        baselines reject grammars containing such non-terminals.
        """
        self._refresh()
        g = self._grammar
        # edge A -> B when A ::= alpha B beta with alpha nullable
        edges: Dict[NonTerminal, Set[NonTerminal]] = {}
        for rule in g.rules:
            for sym in rule.rhs:
                if isinstance(sym, NonTerminal):
                    edges.setdefault(rule.lhs, set()).add(sym)
                if not self.is_nullable(sym):
                    break
        result: Set[NonTerminal] = set()
        for nt in g.nonterminals:
            if _on_cycle(nt, edges):
                result.add(nt)
        return frozenset(result)

    def has_cycles(self) -> bool:
        """True if A =>+ A for some non-terminal (unit-derivation cycle).

        Cyclic grammars give sentences with infinitely many parse trees;
        the pool parser's sweep guard exists precisely for them.
        """
        self._refresh()
        g = self._grammar
        edges: Dict[NonTerminal, Set[NonTerminal]] = {}
        for rule in g.rules:
            body = rule.rhs
            for i, sym in enumerate(body):
                if not isinstance(sym, NonTerminal):
                    continue
                rest_nullable = all(
                    self.is_nullable(s) for j, s in enumerate(body) if j != i
                )
                if rest_nullable:
                    edges.setdefault(rule.lhs, set()).add(sym)
        return any(_on_cycle(nt, edges) for nt in g.nonterminals)


def _on_cycle(start: NonTerminal, edges: Dict[NonTerminal, Set[NonTerminal]]) -> bool:
    seen: Set[NonTerminal] = set()
    work = list(edges.get(start, ()))
    while work:
        nt = work.pop()
        if nt == start:
            return True
        if nt in seen:
            continue
        seen.add(nt)
        work.extend(edges.get(nt, ()))
    return False


# -- fixpoint computations ---------------------------------------------------


def _compute_nullable(grammar: Grammar) -> FrozenSet[NonTerminal]:
    nullable: Set[NonTerminal] = set()
    changed = True
    while changed:
        changed = False
        for rule in grammar.rules:
            if rule.lhs in nullable:
                continue
            if all(isinstance(s, NonTerminal) and s in nullable for s in rule.rhs):
                nullable.add(rule.lhs)
                changed = True
    return frozenset(nullable)


def _propagate(
    sets: Dict[NonTerminal, Set[Terminal]],
    edges: Iterable[Tuple[NonTerminal, NonTerminal]],
) -> None:
    """Close ``sets`` under ``edges``: each ``(source, target)`` pair makes
    everything in ``sets[source]`` flow into ``sets[target]``.

    The rule bodies are walked once to build the edges; only the (few)
    edges are iterated to the fixpoint.
    """
    edges = list(dict.fromkeys(edge for edge in edges if edge[0] != edge[1]))
    changed = True
    while changed:
        changed = False
        for source, target in edges:
            into = sets[target]
            before = len(into)
            into |= sets[source]
            if len(into) != before:
                changed = True


def _compute_first(
    grammar: Grammar, nullable: FrozenSet[NonTerminal]
) -> Dict[NonTerminal, FrozenSet[Terminal]]:
    first: Dict[NonTerminal, Set[Terminal]] = {
        nt: set() for nt in grammar.nonterminals
    }
    # (B, A) for A ::= alpha B beta with alpha nullable: FIRST(B) ⊆ FIRST(A)
    edges: List[Tuple[NonTerminal, NonTerminal]] = []
    for rule in grammar.rules:
        target = first.setdefault(rule.lhs, set())
        for sym in rule.rhs:
            if isinstance(sym, Terminal):
                target.add(sym)
                break
            first.setdefault(sym, set())
            edges.append((sym, rule.lhs))
            if sym not in nullable:
                break
    _propagate(first, edges)
    return {nt: frozenset(ts) for nt, ts in first.items()}


def _compute_follow(
    grammar: Grammar,
    nullable: FrozenSet[NonTerminal],
    first: Dict[NonTerminal, FrozenSet[Terminal]],
) -> Dict[NonTerminal, FrozenSet[Terminal]]:
    follow: Dict[NonTerminal, Set[Terminal]] = {
        nt: set() for nt in grammar.nonterminals
    }
    follow.setdefault(grammar.start, set()).add(END)
    # (A, B) for A ::= alpha B beta with beta nullable: FOLLOW(A) ⊆ FOLLOW(B)
    edges: List[Tuple[NonTerminal, NonTerminal]] = []
    for rule in grammar.rules:
        body = rule.rhs
        for i, sym in enumerate(body):
            if not isinstance(sym, NonTerminal):
                continue
            target = follow.setdefault(sym, set())
            for t in body[i + 1 :]:
                if isinstance(t, Terminal):
                    target.add(t)
                    break
                target |= first.get(t, frozenset())
                if t not in nullable:
                    break
            else:
                follow.setdefault(rule.lhs, set())
                edges.append((rule.lhs, sym))
    _propagate(follow, edges)
    return {nt: frozenset(ts) for nt, ts in follow.items()}
