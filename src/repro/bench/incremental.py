"""Incremental re-parsing benchmark: edit-size × input-size grid.

Measures, for every SDF corpus input and a grid of splice edits, the
same-run cost of :func:`~repro.runtime.incremental.reparse` against a full
re-parse of the spliced tokens through the production hot path.  Both
sides run the one :class:`~repro.runtime.parallel.PoolParser` loop over
the compiled control, deterministic stretch and all; the reparse only
adds the checkpoint resume and the convergence stop.

Edits are realistic editor operations on the SDF token streams, chosen so
the edited input stays in the language (asserted — an accidental
rejection would make the full-parse baseline stop early and flatter the
ratio):

* ``sub1`` — replace one ``LITERAL`` token with ``ID`` (a sort name is a
  valid CF-ELEM wherever a literal is), edit size 1;
* ``ins2`` / ``ins8`` — insert ``, ID`` (×1 / ×4) into a comma-separated
  sort list, edit sizes 2 and 8 with a length delta;
* ``del2`` — delete one ``, ID`` pair from a sort list.

Each edit kind is measured at several positions (fractions of the input)
and the *worst* (slowest incremental) position is reported — the floor
gate then guards the weakest case, not a lucky one.

The headline numbers are **recognition mode** (the regime the service's
re-submission traffic runs in, and the same mode the hot-path bench
reports); a tree-mode section is included for visibility — there the
reuse is prefix-skipping only, since a genuinely changed region keeps its
differing subtree on the stack (see :mod:`repro.runtime.incremental`).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.incremental import IncrementalGenerator
from ..grammar.grammar import Grammar
from ..grammar.symbols import Terminal
from ..lr.compiled import CompiledControl
from ..runtime.incremental import Edit, checkpointed_parse, reparse
from ..runtime.parallel import PoolParser

#: Input-fraction positions each edit kind is tried at.
POSITIONS = (0.25, 0.5, 0.75)

_ID = Terminal("ID")
_COMMA = Terminal(",")


def _substitution_sites(tokens: Sequence[Terminal]) -> List[int]:
    """Positions whose ``LITERAL`` can become ``ID`` (validity-preserving)."""
    return [i for i, t in enumerate(tokens) if t.name == "LITERAL"]


def _list_sites(tokens: Sequence[Terminal]) -> List[int]:
    """Positions of ``,`` inside ``ID , ID`` runs (sort/layout lists)."""
    return [
        i
        for i in range(1, len(tokens) - 1)
        if tokens[i].name == ","
        and tokens[i - 1].name == "ID"
        and tokens[i + 1].name == "ID"
    ]


def _nearest(sites: List[int], target: int) -> Optional[int]:
    return min(sites, key=lambda i: abs(i - target)) if sites else None


EDIT_KINDS: Dict[str, Tuple[int, Callable[[Sequence[Terminal], int], Optional[Edit]]]] = {
    # name -> (edit size, site -> Edit)
    "sub1": (1, lambda tokens, p: Edit(p, p + 1, (_ID,))),
    "ins2": (2, lambda tokens, p: Edit(p, p, (_COMMA, _ID))),
    "ins8": (8, lambda tokens, p: Edit(p, p, (_COMMA, _ID) * 4)),
    "del2": (2, lambda tokens, p: Edit(p, p + 2)),
}


def edit_grid(tokens: Sequence[Terminal]) -> Dict[str, List[Edit]]:
    """Every (edit kind, position) cell applicable to ``tokens``."""
    literal_sites = _substitution_sites(tokens)
    list_sites = _list_sites(tokens)
    grid: Dict[str, List[Edit]] = {}
    for kind, (_size, make) in EDIT_KINDS.items():
        sites = literal_sites if kind == "sub1" else list_sites
        edits: List[Edit] = []
        used = set()
        for fraction in POSITIONS:
            site = _nearest(sites, int(fraction * len(tokens)))
            if site is None or site in used:
                continue
            used.add(site)
            edits.append(make(tokens, site))
        if edits:
            grid[kind] = edits
    return grid


def _best(run: Callable[[], Any], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best


def _measure_input(
    grammar_factory: Callable[[], Grammar],
    tokens: Sequence[Terminal],
    repeats: int,
    build_trees: bool,
) -> Dict[str, Any]:
    """The (edit kind → worst-position cell) table for one input."""
    grammar = grammar_factory()
    generator = IncrementalGenerator(grammar)
    control = CompiledControl(generator.control, grammar)
    pool = PoolParser(control, grammar)

    tokens = tuple(tokens)
    full_run = pool.parse if build_trees else pool.recognize
    if not full_run(tokens):  # warm-up doubling as the acceptance check
        raise ValueError("corpus input rejected — workload is broken")
    base = checkpointed_parse(pool, tokens, build_trees=build_trees)

    report: Dict[str, Any] = {"tokens": len(tokens), "edits": {}}
    for kind, edits in edit_grid(tokens).items():
        worst: Optional[Dict[str, Any]] = None
        for edit in edits:
            spliced = edit.apply(tokens)
            # Both sides must accept: a rejecting edit would let the full
            # baseline stop early and inflate the reported speedup.
            fresh = reparse(pool, base, edit, build_trees=build_trees)
            if not fresh.result.accepted or not full_run(spliced):
                continue
            full_seconds = _best(lambda s=spliced: full_run(s), repeats)
            inc_seconds = _best(
                lambda e=edit: reparse(pool, base, e, build_trees=build_trees),
                repeats,
            )
            cell = {
                "edit_size": len(edit.replacement) or (edit.end - edit.start),
                "position": edit.start,
                "full_us": round(full_seconds * 1e6, 1),
                "incremental_us": round(inc_seconds * 1e6, 1),
                "speedup": round(full_seconds / inc_seconds, 2)
                if inc_seconds
                else float("inf"),
                "reparsed_tokens": fresh.reuse.get("parsed_tokens"),
                "converged_at": fresh.reuse.get("converged_at"),
            }
            if worst is None or cell["speedup"] < worst["speedup"]:
                worst = cell
        if worst is not None:
            report["edits"][kind] = worst
    return report


def collect_incremental_report(repeats: int = 7) -> Dict[str, Any]:
    """The full ``BENCH_incremental.json`` payload (SDF corpus grid)."""
    from ..sdf.corpus import corpus_tokens, sdf_grammar

    inputs = corpus_tokens()
    report: Dict[str, Any] = {
        "benchmark": "incremental_reparse",
        "unit": "microseconds (best of warm repeats); speedup = full/incremental",
        "mode": "recognition",
        "repeats": repeats,
        "inputs": {
            name: _measure_input(sdf_grammar, tokens, repeats, build_trees=False)
            for name, tokens in inputs.items()
        },
    }
    # Tree-mode visibility row: the largest input, single-token edit.
    largest = max(inputs, key=lambda name: len(inputs[name]))
    report["tree_mode"] = {
        largest: _measure_input(
            sdf_grammar, inputs[largest], max(3, repeats // 2), build_trees=True
        )
    }
    return report


def render_incremental(report: Dict[str, Any]) -> str:
    """ASCII rendering of the recognition-mode grid."""
    lines = [
        f"incremental re-parse vs full ({report['mode']}, worst position per cell)",
        f"  {'input':12s} {'tokens':>7s} {'edit':>6s} {'size':>5s} "
        f"{'full':>10s} {'incr':>10s} {'speedup':>9s} {'reparsed':>9s}",
    ]
    for name, data in report["inputs"].items():
        for kind, cell in data["edits"].items():
            lines.append(
                f"  {name:12s} {data['tokens']:>7d} {kind:>6s} "
                f"{cell['edit_size']:>5d} {cell['full_us']:>8,.0f}us "
                f"{cell['incremental_us']:>8,.0f}us {cell['speedup']:>8.1f}x "
                f"{cell['reparsed_tokens']:>9}"
            )
    return "\n".join(lines)


def check_floor(
    report: Dict[str, Any],
    floor: Dict[str, Any],
    max_regression: float = 3.0,
) -> List[str]:
    """Compare a report to the committed floor; return failure strings.

    * ``relative`` — machine-independent same-run ratios: each rule
      ``{"input", "edit", "min_speedup"}`` fails when the measured
      incremental/full speedup for that cell drops below ``min_speedup``.
      This is the real signal: losing checkpoint resume or convergence
      collapses the ratio on any machine.
    * ``incremental_us`` — absolute per-cell ceilings (microseconds),
      failing only beyond ``max_regression`` — a gross sanity net.
    """
    problems: List[str] = []
    for rule in floor.get("relative", ()):
        cell = (
            report["inputs"]
            .get(rule["input"], {})
            .get("edits", {})
            .get(rule["edit"])
        )
        if cell is None:
            problems.append(
                f"{rule['input']}/{rule['edit']}: cell missing from the report"
            )
            continue
        if cell["speedup"] < rule["min_speedup"]:
            problems.append(
                f"{rule['input']}/{rule['edit']}: incremental is only "
                f"{cell['speedup']:.2f}x full in this run "
                f"(floor requires >= {rule['min_speedup']}x)"
            )
    for name, ceilings in floor.get("incremental_us", {}).items():
        measured_input = report["inputs"].get(name)
        if measured_input is None:
            problems.append(f"input {name!r} missing from the report")
            continue
        for kind, ceiling in ceilings.items():
            cell = measured_input["edits"].get(kind)
            if cell is None:
                problems.append(f"{name}/{kind}: cell missing from the report")
            elif cell["incremental_us"] > ceiling * max_regression:
                problems.append(
                    f"{name}/{kind}: {cell['incremental_us']:,.0f}us is more "
                    f"than {max_regression:.0f}x over the ceiling of "
                    f"{ceiling:,.0f}us"
                )
    return problems
