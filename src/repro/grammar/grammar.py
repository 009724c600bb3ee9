"""The mutable, observable grammar object.

The incremental parser generator of section 6 revolves around a grammar that
changes over time: ``ADD-RULE`` and ``DELETE-RULE`` update the global
``Grammar`` variable and then repair the graph of item sets.  This module
provides that mutable grammar:

* a *set* of :class:`~repro.grammar.rules.Rule` (the paper's ``Grammar``),
* the distinguished start symbol ``START`` which may not occur in any
  right-hand side (enforced),
* an observer interface so that generators (and anything else, e.g. the
  metrics layer) are notified of every rule addition and deletion,
* derived views: terminals, non-terminals, rules-per-non-terminal, all kept
  incrementally so queries are O(1).

A :class:`Grammar` is deliberately *not* hashable — it is an identity-bearing
mutable object.  Snapshots (:meth:`Grammar.snapshot`) are frozen sets of
rules and can be compared, stored, and replayed.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Tuple,
)

from .rules import Rule
from .symbols import END, NonTerminal, START, Symbol, Terminal

#: Observer signature: ``callback(grammar, rule, added)`` where ``added`` is
#: True for an addition and False for a deletion.  Observers run *after* the
#: grammar has been updated, matching the order of the paper's ``MODIFY``
#: (grammar first, then the graph of item sets).
GrammarObserver = Callable[["Grammar", Rule, bool], None]


class GrammarError(ValueError):
    """Raised for structurally invalid grammars or invalid edits."""


class Grammar:
    """A mutable set of syntax rules with change notification.

    Parameters
    ----------
    rules:
        Initial rules.  At least one rule must (eventually) define
        ``START``; parsing an empty grammar is permitted but accepts
        nothing.
    start:
        The start symbol; defaults to the distinguished ``START``
        non-terminal of the paper.
    """

    def __init__(
        self,
        rules: Iterable[Rule] = (),
        start: NonTerminal = START,
    ) -> None:
        if not isinstance(start, NonTerminal):
            raise GrammarError(f"start symbol must be a NonTerminal, got {start!r}")
        self._start = start
        # Insertion-ordered: closure computation (and therefore item-set
        # numbering) follows the order rules were written, exactly like
        # the paper's figures follow its grammar listings.
        self._rules: Dict[Rule, None] = {}
        self._by_lhs: Dict[NonTerminal, List[Rule]] = {}
        self._terminal_counts: Dict[Terminal, int] = {}
        self._nonterminal_counts: Dict[NonTerminal, int] = {}
        self._observers: List[GrammarObserver] = []
        self._revision = 0
        for rule in rules:
            self.add_rule(rule)

    # -- basic queries -------------------------------------------------

    @property
    def start(self) -> NonTerminal:
        return self._start

    @property
    def revision(self) -> int:
        """Monotone counter bumped by every successful edit."""
        return self._revision

    def advance_revision(self, to: int) -> int:
        """Raise the revision counter to at least ``to`` (never lowers it).

        A restored snapshot continues the counter of the session that was
        saved, so protocol clients keying on the advertised version never
        see it move backwards.
        """
        self._revision = max(self._revision, to)
        return self._revision

    @property
    def rules(self) -> FrozenSet[Rule]:
        return frozenset(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(sorted(self._rules))

    def __contains__(self, rule: Rule) -> bool:
        return rule in self._rules

    def rules_for(self, nonterminal: NonTerminal) -> Tuple[Rule, ...]:
        """All rules defining ``nonterminal``, in insertion order.

        Insertion order is what makes closure computation — and therefore
        item-set numbering — both deterministic *and* faithful to the
        paper's figures, which follow the order of the grammar listing.
        """
        return tuple(self._by_lhs.get(nonterminal, ()))

    def start_rules(self) -> Tuple[Rule, ...]:
        """The rules defining the start symbol (kernel seeds of section 4)."""
        return self.rules_for(self._start)

    @property
    def terminals(self) -> FrozenSet[Terminal]:
        return frozenset(self._terminal_counts)

    @property
    def nonterminals(self) -> FrozenSet[NonTerminal]:
        return frozenset(self._nonterminal_counts)

    @property
    def symbols(self) -> FrozenSet[Symbol]:
        return self.terminals | self.nonterminals

    def defines(self, nonterminal: NonTerminal) -> bool:
        """True if at least one rule has ``nonterminal`` as left-hand side."""
        return bool(self._by_lhs.get(nonterminal))

    # -- mutation --------------------------------------------------------

    def add_rule(self, rule: Rule) -> bool:
        """Add ``rule``; return True if the grammar changed.

        Enforces the two structural restrictions of section 4: the start
        symbol may not occur in a right-hand side, and the end-marker ``$``
        may not occur anywhere (it is reserved for the accept transition).
        """
        self._validate(rule)
        if rule in self._rules:
            return False
        self._rules[rule] = None
        self._by_lhs.setdefault(rule.lhs, []).append(rule)
        self._count_symbols(rule, +1)
        self._revision += 1
        self._notify(rule, added=True)
        return True

    def delete_rule(self, rule: Rule) -> bool:
        """Delete ``rule``; return True if the grammar changed."""
        if rule not in self._rules:
            return False
        del self._rules[rule]
        bucket = self._by_lhs[rule.lhs]
        bucket.remove(rule)
        if not bucket:
            del self._by_lhs[rule.lhs]
        self._count_symbols(rule, -1)
        self._revision += 1
        self._notify(rule, added=False)
        return True

    def replace_rule(self, old: Rule, new: Rule) -> None:
        """Delete ``old`` and add ``new`` (two notifications, as in MODIFY)."""
        if not self.delete_rule(old):
            raise GrammarError(f"cannot replace absent rule {old}")
        self.add_rule(new)

    def update(self, add: Iterable[Rule] = (), delete: Iterable[Rule] = ()) -> None:
        """Batch edit: deletions first, then additions."""
        for rule in delete:
            self.delete_rule(rule)
        for rule in add:
            self.add_rule(rule)

    # -- observation -------------------------------------------------------

    def subscribe(self, observer: GrammarObserver) -> Callable[[], None]:
        """Register ``observer``; returns an unsubscribe callable."""
        self._observers.append(observer)

        def unsubscribe() -> None:
            try:
                self._observers.remove(observer)
            except ValueError:
                pass

        return unsubscribe

    def _notify(self, rule: Rule, added: bool) -> None:
        for observer in list(self._observers):
            observer(self, rule, added)

    # -- snapshots -----------------------------------------------------

    def snapshot(self) -> FrozenSet[Rule]:
        """An immutable copy of the current rule set."""
        return frozenset(self._rules)

    def copy(self) -> "Grammar":
        """An independent grammar with the same rules (no observers)."""
        return Grammar(self._rules, start=self._start)

    # -- internals -----------------------------------------------------

    def _validate(self, rule: Rule) -> None:
        if not isinstance(rule, Rule):
            raise GrammarError(f"expected a Rule, got {rule!r}")
        for sym in rule.rhs:
            if sym == self._start:
                raise GrammarError(
                    f"start symbol {self._start} may not occur in a "
                    f"right-hand side (rule {rule})"
                )
            if sym == END:
                raise GrammarError(
                    f"the end-marker {END} is reserved and may not occur "
                    f"in a rule (rule {rule})"
                )
        if rule.lhs == END:  # unreachable given types, kept for clarity
            raise GrammarError("the end-marker cannot be defined")

    def _count_symbols(self, rule: Rule, delta: int) -> None:
        for sym in rule.symbols():
            counts = (
                self._terminal_counts
                if isinstance(sym, Terminal)
                else self._nonterminal_counts
            )
            new = counts.get(sym, 0) + delta
            if new:
                counts[sym] = new
            else:
                counts.pop(sym, None)

    def __repr__(self) -> str:
        return f"Grammar({len(self._rules)} rules, start={self._start})"

    def pretty(self) -> str:
        """A BNF-style listing, one rule per line, deterministic order."""
        return "\n".join(str(rule) for rule in self)
