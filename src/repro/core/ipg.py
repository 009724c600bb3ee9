"""IPG — the classic facade, now a thin wrapper over :class:`repro.api.Language`.

This is the object a downstream user holds.  A typical interactive
language-definition session (the use case of section 1)::

    from repro import IPG

    ipg = IPG.from_text('''
        B ::= true
        B ::= false
        B ::= B or B
        B ::= B and B
        START ::= B
    ''')
    assert ipg.parse("true and true").accepted       # lazily expands states
    ipg.add_rule("B ::= unknown")                    # incremental MODIFY
    assert ipg.parse("true or unknown").accepted     # re-expands by need

Parsing is Tomita-style parallel LR over LR(0) tables, so *any* (finitely
ambiguous) context-free grammar works; ambiguous sentences come back with
several trees.

The heavy lifting — generator, compiled control, engines — lives in the
wrapped :class:`~repro.api.language.Language` (``ipg.language``), which is
also where new code should start: it adds real lexing, per-call engine
selection, and structured rejection diagnostics.  ``IPG`` keeps the
historical token-stream API: ``parse`` takes whitespace-separated terminal
names or explicit token sequences and returns the raw
:class:`~repro.runtime.parallel.ParseResult`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Union

from ..grammar.grammar import Grammar
from ..grammar.rules import Rule
from ..grammar.symbols import Terminal
from ..runtime.errors import ParseError
from ..runtime.parallel import ParseResult
from ..runtime.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from ..api.language import Language

TokenInput = Union[str, Iterable[Union[str, Terminal]]]
RuleInput = Union[Rule, str]


class IPG:
    """The Incremental Parser Generator (the paper's system, end to end)."""

    def __init__(
        self,
        grammar: Grammar,
        gc: bool = True,
        max_sweep_steps: int = 1_000_000,
    ) -> None:
        # Imported here, not at module top: repro.api builds on repro.core
        # (generator, compiled control), so the facade must not create an
        # import cycle just to wrap it.
        from ..api.language import Language

        self.language = Language(
            grammar, gc=gc, max_sweep_steps=max_sweep_steps
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_text(cls, text: str, **kwargs) -> "IPG":
        """Build from the BNF notation of the paper's figures."""
        from ..grammar.builders import grammar_from_text

        return cls(grammar_from_text(text), **kwargs)

    @classmethod
    def from_rules(cls, rules: Iterable[Rule], **kwargs) -> "IPG":
        return cls(Grammar(rules), **kwargs)

    # -- the shared infrastructure (owned by the Language) ---------------

    @property
    def grammar(self) -> Grammar:
        return self.language.grammar

    @property
    def generator(self):
        return self.language.generator

    @property
    def control(self):
        return self.language.control

    @property
    def _pool(self):
        return self.language.engine("compiled").pool

    @property
    def _gss(self):
        return self.language.engine("gss").gss

    # -- parsing ---------------------------------------------------------

    def parse(self, tokens: TokenInput, trace: Optional[Trace] = None) -> ParseResult:
        """Parse a token sequence; builds trees; expands the table by need.

        ``tokens`` may be a whitespace-separated string (convenient for
        examples and tests) or any iterable of terminal names/objects.  Do
        **not** append the end-marker; the runtime does that.
        """
        return self._pool.parse(self.coerce_tokens(tokens), trace=trace)

    def recognize(self, tokens: TokenInput) -> bool:
        """Accept/reject without building trees (states-only signatures)."""
        return self._pool.recognize(self.coerce_tokens(tokens))

    def recognize_gss(self, tokens: TokenInput) -> bool:
        """Recognition on the merged (graph-structured) stack engine."""
        return self._gss.recognize(self.coerce_tokens(tokens))

    # -- grammar modification ----------------------------------------------

    def add_rule(self, rule: RuleInput, sorts: Iterable[str] = ()) -> bool:
        """ADD-RULE; accepts a Rule or ``"A ::= b c"`` text.

        In rule text, a name is a non-terminal iff the grammar already has
        a rule for it (or it is the new rule's own left-hand side).  Pass
        ``sorts`` to force names that are *going to be* defined — e.g.
        ``add_rule("CMD ::= turn N", sorts={"N"})`` before ``N`` has rules.
        """
        return self.generator.add_rule(self.coerce_rule(rule, sorts))

    def delete_rule(self, rule: RuleInput, sorts: Iterable[str] = ()) -> bool:
        """DELETE-RULE; accepts a Rule or ``"A ::= b c"`` text."""
        return self.generator.delete_rule(self.coerce_rule(rule, sorts))

    def collect_garbage(self, force_sweep: bool = False) -> int:
        """Trigger the mark-and-sweep fallback (refcounting is automatic)."""
        return self.generator.collect_garbage(force_sweep=force_sweep)

    # -- introspection -----------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone grammar version, bumped by every successful MODIFY.

        Mirrors :attr:`Grammar.revision`; the service layer keys result
        caches on it so a grammar edit implicitly invalidates every parse
        computed against the older grammar.
        """
        return self.grammar.revision

    @property
    def graph(self):
        return self.generator.graph

    def summary(self) -> Dict[str, int]:
        return self.language.summary()

    def table_fraction(self) -> float:
        """How much of the full parse table has been generated (§5.2)."""
        return self.language.table_fraction()

    # -- coercion helpers --------------------------------------------------

    def coerce_tokens(self, tokens: TokenInput) -> List[Terminal]:
        """Terminal objects from a token string or sequence.

        A string is whitespace-split into terminal names.  An empty (or
        blank) string is rejected: at this layer it is almost always an
        accidental missing argument, not the empty sentence — pass an
        explicit empty sequence (``[]``) to parse the empty sentence, or
        use :meth:`Language.parse`, whose tokenizer makes "" unambiguous.
        """
        if isinstance(tokens, str):
            if not tokens.strip():
                raise ParseError(
                    "empty input: pass an explicit empty token sequence "
                    "([]) to parse the empty sentence"
                )
            parts: Iterable[Union[str, Terminal]] = tokens.split()
        else:
            parts = tokens
        result: List[Terminal] = []
        for part in parts:
            if isinstance(part, Terminal):
                result.append(part)
            elif isinstance(part, str):
                result.append(Terminal(part))
            else:
                raise TypeError(f"cannot use {part!r} as a token")
        return result

    def coerce_rule(self, rule: RuleInput, sorts: Iterable[str] = ()) -> Rule:
        return self.language.coerce_rule(rule, sorts)

    def __repr__(self) -> str:
        s = self.summary()
        return (
            f"IPG({len(self.grammar)} rules, {s['states']} states, "
            f"{s['complete']} complete)"
        )
