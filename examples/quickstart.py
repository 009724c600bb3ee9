#!/usr/bin/env python3
"""Quickstart: the booleans grammar of Fig. 4.1, end to end.

Shows the three headline behaviours of IPG, through ``repro.Language``:

1. construction is free — the parse table is generated *while parsing*;
2. the grammar can be modified mid-session and only the affected parts of
   the table are regenerated;
3. the parser handles ambiguity by returning every parse tree.

Run:  python examples/quickstart.py
"""

from repro import Language


def main() -> None:
    lang = Language.from_text(
        """
        B ::= true
        B ::= false
        B ::= B or B
        B ::= B and B
        START ::= B
        """
    )
    print("freshly constructed:", lang.summary())

    # --- lazy generation: the table grows as sentences need it ---------
    result = lang.parse("true and true")
    print("\n'true and true' accepted:", result.accepted)
    print("after one sentence:     ", lang.summary())
    print("fraction of full table: ", f"{lang.table_fraction():.0%}")

    result = lang.parse("false or false")
    print("\n'false or false' accepted:", result.accepted)
    print("after covering 'or'/'false':", f"{lang.table_fraction():.0%}")

    # --- incremental modification (section 6) ---------------------------
    print("\nadding rule: B ::= unknown")
    lang.add_rule("B ::= unknown")
    result = lang.parse("true and unknown")
    print("'true and unknown' accepted:", result.accepted)

    print("deleting it again")
    lang.delete_rule("B ::= unknown")
    print("'unknown' accepted now:", lang.recognize("unknown").accepted)

    # --- ambiguity: every parse comes back -------------------------------
    result = lang.parse("true or false and true")
    print(f"\n'true or false and true' has {result.ambiguity} parses:")
    for tree in result.brackets():
        print("  ", tree)


if __name__ == "__main__":
    main()
