"""Tokenizers: the lexical half of a :class:`~repro.api.language.Language`.

The paper's system is ISG *and* IPG — the scanner generator and the parser
generator are two halves of one incremental front end.  A tokenizer binds
them: it turns raw source text into a stream of
:class:`~repro.lexing.scanner.Lexeme` (each with its character offset, for
diagnostics) and maps every lexeme onto the
:class:`~repro.grammar.symbols.Terminal` the parser sees.

Three implementations cover the repo's scenarios:

* :class:`WhitespaceTokenizer` — the token-stream convention of the
  paper's examples (whitespace-separated terminal names), with offsets;
* :class:`ScannerTokenizer` via :meth:`ScannerTokenizer.from_sdf` — the
  ISG scanner compiled from an SDF definition's lexical syntax, so
  ``Language.from_sdf(text).parse(raw)`` runs end to end;
* :class:`ScannerTokenizer` via :meth:`ScannerTokenizer.from_grammar` —
  an ISG scanner whose token sorts are the grammar's own terminal
  literals, *kept in sync with grammar edits* through
  :meth:`Grammar.subscribe` — ADD-RULE of a rule mentioning a new keyword
  makes that keyword scannable immediately, the live-language scenario of
  section 1 transposed to scanning.
"""

from __future__ import annotations

import re
from typing import Callable, List, Optional

from ..grammar.grammar import Grammar
from ..grammar.rules import Rule
from ..grammar.symbols import Terminal
from ..lexing.chars import CharSet
from ..lexing.regex import Sym, literal, plus
from ..lexing.scanner import Lexeme, ScanError, Scanner
from ..lexing.sdf_bridge import scanner_from_sdf
from ..sdf.ast import SdfDefinition

__all__ = [
    "Tokenizer",
    "WhitespaceTokenizer",
    "ScannerTokenizer",
    "ScanError",
]

#: Sort-name prefix the SDF bridge gives literal tokens; a ``lit:`` lexeme's
#: terminal is its spelled text, any other lexeme's terminal is its sort.
LITERAL_PREFIX = "lit:"


class Tokenizer:
    """Text → lexeme stream → terminal stream (the lexical protocol)."""

    #: registry-style identifier, shown by the CLI ``lexer`` command
    name = "abstract"

    def tokenize(self, text: str) -> List[Lexeme]:
        """Scan ``text`` completely; raises :class:`ScanError` on garbage."""
        raise NotImplementedError

    def terminal_of(self, lexeme: Lexeme) -> Terminal:
        """The grammar terminal a lexeme denotes."""
        raise NotImplementedError

    def terminals(self, text: str) -> List[Terminal]:
        """Convenience: ``tokenize`` + ``terminal_of`` in one call."""
        return [self.terminal_of(lexeme) for lexeme in self.tokenize(text)]

    def describe(self) -> str:
        return self.name


class WhitespaceTokenizer(Tokenizer):
    """Split on whitespace; every run of non-blank characters is a token.

    This is the tokenizer ``Language.parse("true and true")`` uses by
    default, carrying character offsets so rejected parses can still
    point at a line and column.  An empty (or blank) text is simply the
    empty sentence — with a real tokenizer there is no ambiguity between
    "no input" and "empty program".
    """

    name = "whitespace"
    _WORD = re.compile(r"\S+")

    def tokenize(self, text: str) -> List[Lexeme]:
        return [
            Lexeme(match.group(), match.group(), match.start())
            for match in self._WORD.finditer(text)
        ]

    def terminal_of(self, lexeme: Lexeme) -> Terminal:
        return Terminal(lexeme.text)

    def describe(self) -> str:
        return "whitespace (each blank-separated word is one terminal)"


def _lexeme_terminal(lexeme: Lexeme) -> Terminal:
    if lexeme.sort.startswith(LITERAL_PREFIX):
        return Terminal(lexeme.sort[len(LITERAL_PREFIX):])
    return Terminal(lexeme.sort)


#: The default layout definition of scanner-backed tokenizers: blanks,
#: tabs, newlines and carriage returns, skipped silently.
_LAYOUT_CHARS = CharSet(" \t\n\r")


class ScannerTokenizer(Tokenizer):
    """A tokenizer backed by the lazy & incremental ISG scanner."""

    name = "scanner"

    def __init__(
        self,
        scanner: Scanner,
        description: Optional[str] = None,
    ) -> None:
        self.scanner = scanner
        self._description = description or "ISG scanner"
        self._unsubscribe: Optional[Callable[[], None]] = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_sdf(cls, definition: SdfDefinition) -> "ScannerTokenizer":
        """The scanner of an SDF definition's lexical syntax (Appendix B).

        A definition that declares no layout sorts (``exp.sdf`` has no
        lexical section at all) gets implicit whitespace layout — raw
        text with blanks must still be scannable.
        """
        scanner = scanner_from_sdf(definition)
        if not scanner.layout_sorts:
            scanner.add_token("implicit-layout", plus(Sym(_LAYOUT_CHARS)), layout=True)
        return cls(
            scanner,
            description=f"ISG scanner from SDF module {definition.name!r}",
        )

    @classmethod
    def from_grammar(
        cls,
        grammar: Grammar,
        follow_edits: bool = True,
    ) -> "ScannerTokenizer":
        """A literal scanner over the grammar's own terminals.

        Every terminal of ``grammar`` becomes a literal token sort, with
        whitespace as layout, so punctuation needs no surrounding blanks:
        a grammar with terminals ``(``, ``)``, ``n``, ``+`` scans
        ``"(n+n)"`` directly.  With ``follow_edits`` the scanner observes
        the grammar: rules added or deleted at runtime add or remove
        literal definitions incrementally (ISG's MODIFY next to IPG's).
        """
        scanner = Scanner()
        scanner.add_token("LAYOUT", plus(Sym(_LAYOUT_CHARS)), layout=True)
        tokenizer = cls(
            scanner,
            description="ISG scanner over the grammar's terminal literals",
        )
        for terminal in sorted(grammar.terminals):
            tokenizer._add_literal(terminal.name)
        if follow_edits:
            tokenizer._unsubscribe = grammar.subscribe(tokenizer._on_modify)
        return tokenizer

    # -- the incremental half ---------------------------------------------

    def _add_literal(self, text: str) -> None:
        self.scanner.add_token(LITERAL_PREFIX + text, literal(text))

    def _on_modify(self, grammar: Grammar, rule: Rule, added: bool) -> None:
        """Keep the literal sorts equal to the grammar's terminal set."""
        del rule, added
        wanted = {LITERAL_PREFIX + t.name for t in grammar.terminals}
        have = {s for s in self.scanner.sorts if s.startswith(LITERAL_PREFIX)}
        for sort in sorted(wanted - have):
            self._add_literal(sort[len(LITERAL_PREFIX):])
        for sort in sorted(have - wanted):
            self.scanner.remove_token(sort)

    def close(self) -> None:
        """Detach from the observed grammar, if any."""
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    # -- the protocol ------------------------------------------------------

    def tokenize(self, text: str) -> List[Lexeme]:
        return self.scanner.scan(text)

    def terminal_of(self, lexeme: Lexeme) -> Terminal:
        return _lexeme_terminal(lexeme)

    def describe(self) -> str:
        return self._description
