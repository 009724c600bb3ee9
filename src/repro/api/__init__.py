"""``repro.api`` — the unified public surface of the reproduction.

Three pillars (one PR, one protocol, every front end):

* :class:`Language` — binds a grammar, a tokenizer (whitespace, ISG
  scanner from SDF, or grammar-literal scanner) and an engine choice;
  ``Language.from_sdf(text).parse("true and false")`` runs the full
  ISG/IPG pipeline on raw text.
* the **engine registry** — ``lazy`` / ``gss`` / ``earley`` behind one
  ``recognize``/``parse``/``invalidate`` protocol, discoverable via
  :func:`engines` and selectable per call.
* :class:`ParseOutcome` — structured results everywhere: acceptance,
  trees, ambiguity, timing, and on rejection a :class:`Diagnostic` with
  token index, line/column and the expected terminal set.

The parse service, the CLI REPL and the bench harness all drive their
parsing through this package; each of their sessions holds one
:class:`Language`.
"""

from .diagnostics import Diagnostic, ParseOutcome
from .engines import (
    Engine,
    EngineReport,
    create_engine,
    engines,
    expected_terminals,
    register_engine,
)
from ..runtime.errors import CapabilityError
from ..runtime.forest import ParseForest
from ..runtime.incremental import Edit
from .language import DEFAULT_ENGINE, Language, LexedInput
from .tokenizers import (
    ScanError,
    ScannerTokenizer,
    Tokenizer,
    WhitespaceTokenizer,
)

__all__ = [
    "Language",
    "LexedInput",
    "DEFAULT_ENGINE",
    "Edit",
    "ParseOutcome",
    "ParseForest",
    "CapabilityError",
    "Diagnostic",
    "Engine",
    "EngineReport",
    "engines",
    "create_engine",
    "register_engine",
    "expected_terminals",
    "Tokenizer",
    "WhitespaceTokenizer",
    "ScannerTokenizer",
    "ScanError",
]
