#!/usr/bin/env python3
"""The unified ``repro.api`` surface: one Language object, every engine.

Shows the three pillars of the redesigned public API:

1. ``Language`` binds lexical syntax + grammar + parser: built from an
   SDF definition, ``parse`` takes raw program text — no manual lexing;
2. the engine registry: the same input driven through every registered
   parsing runtime (``lazy`` / ``gss`` / ``earley``),
   selectable per call;
3. structured outcomes: rejected inputs carry a diagnostic with
   line/column and the *expected terminal set*, which tracks live
   grammar edits.

Run:  python examples/language_api.py
"""

from repro.api import Language, ScannerTokenizer, engines
from repro.sdf.corpus import EXP_SDF


def main() -> None:
    # --- pillar 1: from SDF text to parsing raw programs ----------------
    lang = Language.from_sdf(EXP_SDF)
    print("language:", lang)

    outcome = lang.parse("true and not false or true")
    print(f"\n'true and not false or true' accepted: {outcome.accepted}")
    print(f"derivations (ambiguous expression grammar): {outcome.ambiguity}")
    for bracket in outcome.brackets():
        print("  ", bracket)

    # --- pillar 3: diagnostics on rejection -----------------------------
    bad = lang.parse("true and\nnot and")
    print(f"\n'not and' rejected: {bad.diagnostic.describe()}")

    bad = lang.parse("true @ false")
    print(f"lexical garbage:    {bad.diagnostic.describe()}")

    # expected sets track MODIFY: make 'maybe' a boolean constant
    lang.add_rule('EXP ::= maybe')
    print("\nafter add_rule('EXP ::= maybe'):")
    print("  ", lang.parse("true and").diagnostic.describe())

    # --- pillar 2: the engine registry ----------------------------------
    print("\nengines:")
    for name, record in engines(detail=True).items():
        print(f"  {name:10s} {record['summary']}")

    sentence = "not true and not false"
    print(f"\n{sentence!r} through every engine:")
    for name in engines():
        # Recognize-only engines (earley) build no trees: ask them to
        # recognize instead of parse.
        if lang.engine(name).supports_trees:
            result = lang.parse(sentence, engine=name)
            trees = f"{result.ambiguity} trees"
        else:
            result = lang.recognize(sentence, engine=name)
            trees = "no trees"
        print(
            f"  {name:10s} accepted={result.accepted}  {trees}  "
            f"({result.elapsed * 1000:.2f} ms)"
        )

    # --- bonus: an ISG scanner derived from a plain BNF grammar ---------
    expr = Language.from_text(
        """
        E ::= E + T
        E ::= T
        T ::= T * F
        T ::= F
        F ::= n
        F ::= ( E )
        START ::= E
        """
    )
    expr.use_tokenizer(ScannerTokenizer.from_grammar(expr.grammar))
    print("\ngrammar-literal scanner: '(n+n)*n' accepted:",
          expr.parse("(n+n)*n").accepted)


if __name__ == "__main__":
    main()
