#!/usr/bin/env python3
"""SDF priorities and associativity, applied to the parse forest.

The parallel parser returns *every* parse; SDF's ``priorities`` section
and ``{left-assoc}``-style attributes then select the intended one.  This
example defines a calculator language entirely in SDF — lexical syntax,
context-free syntax, priorities — and runs the complete front end:

    SDF text ──► bootstrap parser ──► grammar + disambiguation filter
                                  └─► ISG scanner
    input ──► scanner ──► IPG (all parses) ──► filter (one parse)

Run:  python examples/priorities_and_associativity.py
"""

from repro import Language
from repro.grammar.symbols import Terminal
from repro.lexing import scanner_from_sdf
from repro.runtime.forest import bracketed
from repro.sdf import normalize_with_metadata, parse_sdf

CALCULATOR = """
module Calc
begin
  lexical syntax
    sorts DIGIT, NUM
    layout WS
    functions
      [0-9]    -> DIGIT
      DIGIT+   -> NUM
      [\\ \\t]  -> WS
  context-free syntax
    sorts EXP
    priorities
      EXP "^" EXP -> EXP > EXP "*" EXP -> EXP,
      EXP "*" EXP -> EXP > EXP "+" EXP -> EXP
    functions
      NUM                -> EXP
      "(" EXP ")"        -> EXP
      EXP "^" EXP        -> EXP {right-assoc}
      EXP "*" EXP        -> EXP {left-assoc}
      EXP "+" EXP        -> EXP {left-assoc}
end Calc
"""


def main() -> None:
    definition = parse_sdf(CALCULATOR)
    grammar, metadata = normalize_with_metadata(definition)
    scanner = scanner_from_sdf(definition)
    lang = Language(grammar)
    print("calculator grammar:", len(grammar), "rules;", metadata.filter)

    def tokens_of_text(text):
        out = []
        for lexeme in scanner.scan(text):
            if lexeme.sort.startswith("lit:"):
                out.append(Terminal(lexeme.sort[4:]))
            else:
                out.append(Terminal(lexeme.sort))
        return out

    for text in ("1 + 2 * 3", "1 + 2 + 3", "2 ^ 3 ^ 4", "(1 + 2) * 3",
                 "1 + 2 * 3 ^ 4 + 5"):
        trees = tuple(lang.parse(tokens_of_text(text)).forest.trees())
        survivors = metadata.filter.filter(trees)
        print(f"\n{text!r}: {len(trees)} parses, "
              f"{len(survivors)} after disambiguation")
        assert len(survivors) == 1, "priorities must fully disambiguate"
        print("  ", bracketed(survivors[0]))

    # the filter composes with incremental modification: add a '-' operator
    # at '+'-level associativity and priority
    print("\nadding subtraction incrementally...")
    from repro.grammar.rules import Rule
    from repro.grammar.symbols import NonTerminal

    EXP = NonTerminal("EXP")
    minus = Rule(EXP, [EXP, Terminal("-"), EXP])
    times = next(r for r in grammar.rules if Terminal("*") in r.rhs)
    lang.add_rule(minus)
    metadata.filter.left_assoc(minus)
    metadata.filter.priority_chain([times], [minus])
    scanner.add_token("lit:-", __import__("repro.lexing", fromlist=["literal"]).literal("-"))

    trees = tuple(lang.parse(tokens_of_text("9 - 2 - 3 * 2")).forest.trees())
    survivors = metadata.filter.filter(trees)
    print(f"'9 - 2 - 3 * 2': {len(trees)} parses, "
          f"{len(survivors)} after disambiguation")
    assert len(survivors) == 1
    print("  ", bracketed(survivors[0]))


if __name__ == "__main__":
    main()
