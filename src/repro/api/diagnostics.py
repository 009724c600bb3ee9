"""Structured parse outcomes and rejection diagnostics.

A raw :class:`~repro.runtime.parallel.ParseResult` answers a rejection
with a bare ``accepted=False`` — fine for the §7 measurements, useless for the
interactive language-definition environment the paper is actually about.
:class:`ParseOutcome` is the uniform answer every front end (library,
service, CLI, bench) receives: acceptance, the derivations, ambiguity,
wall-clock time, engine identity, and — on rejection — a
:class:`Diagnostic` that names the offending token, its line/column (from
:attr:`~repro.lexing.scanner.Lexeme.position`) and the *expected terminal
set* read off the ACTION rows of the states the parser died in.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..grammar.symbols import Terminal
from ..lexing.scanner import Lexeme
from ..runtime.forest import ENUMERATION_CAP, ParseForest, TreeNode

__all__ = ["Diagnostic", "ParseOutcome", "line_and_column"]

_RENDER_TREES = obs.counter("repro.render.trees")
_RENDER_CHARS = obs.counter("repro.render.chars")


def line_and_column(text: str, offset: int) -> Tuple[int, int]:
    """1-based (line, column) of character ``offset`` in ``text``."""
    offset = max(0, min(offset, len(text)))
    line = text.count("\n", 0, offset) + 1
    last_newline = text.rfind("\n", 0, offset)
    return line, offset - last_newline


class Diagnostic:
    """Why (and where) an input was rejected.

    ``token_index`` indexes the lexeme stream; an index equal to the
    stream length means the input ended too early (the offending "token"
    is the end of input and ``token`` is ``None``).  ``line``/``column``
    are 1-based and present whenever the input came as raw text;
    token-list inputs have no source positions.  ``expected`` holds the
    terminal names that *would* have been accepted at the failure point —
    ``$`` stands for the end of input.
    """

    __slots__ = (
        "message",
        "kind",
        "token_index",
        "token",
        "offset",
        "line",
        "column",
        "expected",
    )

    def __init__(
        self,
        message: str,
        kind: str = "syntax",
        token_index: Optional[int] = None,
        token: Optional[str] = None,
        offset: Optional[int] = None,
        line: Optional[int] = None,
        column: Optional[int] = None,
        expected: Sequence[str] = (),
    ) -> None:
        self.message = message
        self.kind = kind
        self.token_index = token_index
        self.token = token
        self.offset = offset
        self.line = line
        self.column = column
        self.expected = tuple(expected)

    def describe(self) -> str:
        """One human-readable line (the CLI's rejection detail)."""
        where = ""
        if self.line is not None and self.column is not None:
            where = f" at line {self.line}, column {self.column}"
        elif self.token_index is not None:
            where = f" at token {self.token_index}"
        detail = f"{self.message}{where}"
        if self.expected:
            detail += f"; expected: {', '.join(self.expected)}"
        return detail

    def to_payload(self) -> Dict[str, Any]:
        """JSON-able rendering (the service's ``diagnostics`` field)."""
        return {
            "message": self.message,
            "kind": self.kind,
            "token_index": self.token_index,
            "token": self.token,
            "offset": self.offset,
            "line": self.line,
            "column": self.column,
            "expected": list(self.expected),
        }

    def __repr__(self) -> str:
        return f"Diagnostic({self.describe()!r})"


class ParseOutcome:
    """The structured result of one ``Language.parse``/``recognize`` call.

    Derivations live behind the :attr:`forest` handle
    (:class:`~repro.runtime.forest.ParseForest`): ``tree_count()`` is
    cheap even when the count is exponential, and ``trees(limit=...)``
    enumerates lazily.
    """

    __slots__ = (
        "accepted",
        "forest",
        "engine",
        "elapsed",
        "diagnostic",
        "lexemes",
        "stats",
        "trees_built",
        "terminals",
        "incremental",
        "reuse",
    )

    def __init__(
        self,
        accepted: bool,
        forest: Optional[ParseForest] = None,
        engine: str = "",
        elapsed: float = 0.0,
        diagnostic: Optional[Diagnostic] = None,
        lexemes: Tuple[Lexeme, ...] = (),
        stats: Optional[Dict[str, int]] = None,
        trees_built: bool = True,
        terminals: Tuple[Terminal, ...] = (),
        incremental: Optional[Any] = None,
        reuse: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.accepted = accepted
        #: the packed derivations of an accepting parse; ``None`` on
        #: rejection and for recognition-only calls
        self.forest = forest
        self.engine = engine
        self.elapsed = elapsed
        self.diagnostic = diagnostic
        self.lexemes = lexemes
        self.stats = stats
        #: False for recognition-only calls: their missing ``forest``
        #: means "not built", not "zero derivations".
        self.trees_built = trees_built
        #: the parsed terminal sequence — what ``Language.reparse`` splices
        self.terminals = terminals
        #: opaque checkpoint handle (set by checkpointed/incremental
        #: parses); feeding it back via ``Language.reparse`` reuses work
        self.incremental = incremental
        #: reuse accounting of an incremental call (``None`` otherwise)
        self.reuse = reuse

    # -- convenience views -------------------------------------------------

    @property
    def ambiguity(self) -> int:
        """Number of distinct derivations (0 for rejected inputs)."""
        return self.forest.tree_count() if self.forest is not None else 0

    @property
    def is_ambiguous(self) -> bool:
        return self.ambiguity > 1

    @property
    def tree(self) -> Optional[TreeNode]:
        """The unique tree, if there is exactly one."""
        if self.forest is None or self.forest.tree_count() != 1:
            return None
        return next(iter(self.forest.trees(1)))

    def brackets(self, limit: Optional[int] = None) -> List[str]:
        """Derivations in bracketed text form, deterministically sorted."""
        if self.forest is None:
            return []
        return self.forest.brackets(limit)

    def __bool__(self) -> bool:
        return self.accepted

    # -- serialization -----------------------------------------------------

    def to_payload(self, max_trees: Optional[int] = None) -> Dict[str, Any]:
        """The JSON-able payload the parse service caches and returns.

        ``max_trees`` caps how many derivations are rendered into
        ``trees``; ``ambiguity`` always reports the true count and
        whether the rendering was truncated.  With ``max_trees=None`` the
        rendering is still bounded by the forest enumeration cap.  The
        rendering runs in a ``render`` span and feeds the
        ``repro.render.trees`` / ``repro.render.chars`` counters.
        """
        tree_count = self.ambiguity
        if max_trees is None:
            enumerated = min(tree_count, ENUMERATION_CAP)
        else:
            enumerated = min(tree_count, max_trees)
        with obs.span("render") as span:
            trees = self.brackets(enumerated)
            chars = sum(map(len, trees))
            span.set(trees=len(trees), chars=chars)
        _RENDER_TREES.inc(len(trees))
        _RENDER_CHARS.inc(chars)
        payload: Dict[str, Any] = {
            "accepted": self.accepted,
            "trees": trees,
            "engine": self.engine,
        }
        if self.trees_built:
            payload["ambiguity"] = {
                "tree_count": tree_count,
                "enumerated": enumerated,
                "truncated": enumerated < tree_count,
            }
        else:
            payload["trees_built"] = False
        if self.diagnostic is not None:
            payload["diagnostics"] = self.diagnostic.to_payload()
        if self.reuse is not None:
            payload["reuse"] = dict(self.reuse)
        return payload

    def __repr__(self) -> str:
        detail = f"{self.ambiguity} trees" if self.accepted else "rejected"
        return f"ParseOutcome({self.engine}: accepted={self.accepted}, {detail})"


def expected_names(terminals: Iterable[Terminal]) -> Tuple[str, ...]:
    """Sorted, deduplicated terminal names (the end-marker prints as ``$``)."""
    return tuple(sorted({t.name for t in terminals}))
