#!/usr/bin/env python3
"""Incremental re-parsing: an editor-style edit loop over the SDF corpus.

A client holding a large definition open re-submits it after every small
edit.  Re-parsing from scratch pays the full input each time; a
checkpointed parse (``Language.parse(..., checkpoint=True)``) lets every
follow-up ``Language.reparse(prev, start, end, replacement)`` resume from
the last stack-frontier checkpoint before the edit and stop as soon as
the frontier re-converges with the previous run — for a one-token change
in a 475-token SDF module that is typically a 2-token re-parse.

The loop below drives splice edits over the paper's own §7 workload (the
SDF-definition-of-SDF grammar and the corpus token streams), prints how
much of each input was actually re-parsed, and finishes with a grammar
edit — which moves the grammar revision every checkpoint was taken at,
so the next reparse falls back to a (correct) full parse.

Run:  python examples/incremental_editing.py
"""

from repro.api import Language
from repro.grammar.symbols import Terminal
from repro.sdf.corpus import corpus_tokens, modification_rule, sdf_grammar

ID = Terminal("ID")


def describe(outcome) -> str:
    reuse = outcome.reuse or {}
    if reuse.get("fallback"):
        return f"full re-parse ({reuse['fallback']})"
    note = (
        f"re-parsed {reuse.get('parsed_tokens')} of "
        f"{reuse.get('total_tokens')} tokens"
    )
    if reuse.get("converged_at") is not None:
        note += f", converged at token {reuse['converged_at']}"
    return note


def main() -> None:
    language = Language(sdf_grammar())
    corpus = corpus_tokens()

    print("edit loop over the SDF corpus (single-token LITERAL -> ID edits)")
    for name, tokens in corpus.items():
        # Recognition mode: checkpoints carry pure state frontiers, so
        # the re-parse converges with the previous run a couple of tokens
        # past the edit — this is the service's re-submission regime.
        outcome = language.recognize(tokens, checkpoint=True)
        print(f"\n{name}: {len(tokens)} tokens, accepted={outcome.accepted}")

        # Edit every LITERAL in turn (an editor walking through a file),
        # each time re-parsing the *previous* result incrementally.
        sites = [i for i, t in enumerate(tokens) if t.name == "LITERAL"][:4]
        for site in sites:
            outcome = language.reparse(outcome, site, site + 1, [ID])
            print(
                f"  edit [{site}:{site + 1}] -> ID: "
                f"accepted={outcome.accepted} ({describe(outcome)})"
            )

    # Tree-building parses checkpoint too; there the reuse is the skipped
    # prefix (a changed region keeps its differing subtree on the stack,
    # so the suffix re-reduces), and the trees match a scratch parse.
    tokens = corpus["Exam.sdf"]
    base = language.parse(tokens, checkpoint=True)
    site = max(i for i, t in enumerate(tokens) if t.name == "LITERAL")
    edited = language.reparse(base, site, site + 1, [ID])
    print(
        f"\ntree mode, edit at token {site} of {len(tokens)}: "
        f"accepted={edited.accepted} ({describe(edited)})"
    )

    # A grammar edit (the paper's §7 modification) invalidates every
    # outstanding checkpoint: the next reparse is a full parse again.
    tokens = corpus["exp.sdf"]
    base = language.parse(tokens, checkpoint=True)
    language.add_rule(modification_rule(language.grammar))
    stale = language.reparse(base, 0, 1, [ID])
    print(
        f"\nafter a grammar edit: accepted={stale.accepted} "
        f"({describe(stale)})"
    )


if __name__ == "__main__":
    main()
