"""Hot-path throughput: tokens/sec per control-plane tier.

Measures the *warm* parse loop — the steady state the lazy/incremental
generators put the system in — for each tier of the control plane:

* ``lazy`` — the paper reference: :class:`LazyControl`, every ACTION a
  method call on the item-set graph, the denominator of the floor's
  same-run ratios;
* ``compiled`` — :class:`~repro.lr.compiled.CompiledControl` memoizing
  ACTION into shared tuples (the control every
  :class:`~repro.api.Language` builds), under the same PAR-PARSE loop;
* ``table`` — a :class:`~repro.lr.table.ParseTable` decided once from a
  fully expanded LR(0) graph, run as its own control (the
  conventional-generator representation; no engine serves it);
* ``gss`` — the merged-stack :class:`~repro.runtime.gss.GSSParser` over
  the compiled control, the production engine: Tomita's
  graph-structured stack bounds the live frontier by the state count, so
  the heavily ambiguous booleans medium/large inputs (exponential for
  every linear-stack tier) stay polynomial and join the measurement.

Every tier drives the same token streams, so the numbers isolate the
control plane and the stack discipline.  The first parse per tier is a
discarded warm-up (it pays lazy expansion / cache population); reported
throughput is the best of ``repeats`` timed warm parses.

:func:`measure_render` adds the step after the parse: µs per
``ParseForest.brackets()`` call, the service's tree rendering, for the
429-tree booleans forest and the ASF.sdf tree.  Its floor is a same-run
ratio against counting the same forest, so a renderer that builds
intermediate trees again fails on any machine.

Two more sections guard the compiled control's SLR(1) step cells, which
only gss's deterministic stretch reads: :func:`measure_lookahead` counts
the ASF.sdf positions gss's general sweep handles (the LR(0) conflicts
FOLLOW left standing) next to the same-run ``gss``/``lazy`` ratio on
that input, and :func:`measure_right_recursion` times ``gss`` on a
right-recursive list at two lengths, whose ratio tells linear from
quadratic on any machine.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional, Sequence

from ..api import Language
from ..core.incremental import IncrementalGenerator
from ..grammar.builders import grammar_from_text
from ..grammar.grammar import Grammar
from ..grammar.symbols import Terminal
from ..lr.compiled import CompiledControl
from ..lr.graph import ItemSetGraph
from ..lr.table import lr0_table
from ..runtime.forest import ParseForest
from ..runtime.gss import GSSParser
from ..runtime.parallel import PoolParser
from .workloads import (
    Fig71Workload,
    TokenStream,
    _boolean_sentence,
    booleans_workload,
    sdf_workload,
)

CONTROL_TIERS = ("lazy", "compiled", "table", "gss")

#: PAR-PARSE keeps one linear stack per live parser, so heavily ambiguous
#: sentences (the booleans medium/large inputs) are exponential in every
#: linear-stack control tier — only the small inputs measure the hot loop
#: rather than the ambiguity blow-up the paper's section 2.1 restriction
#: excludes.
FEASIBLE_INPUTS: Dict[str, Sequence[str]] = {"booleans": ("tiny", "small")}

#: Per-tier overrides of the feasible-input lists: the merged-stack GSS
#: tier shares states across forked parsers, so the booleans inputs that
#: are exponential for the linear-stack pool stay polynomial for it.
TIER_FEASIBLE_INPUTS: Dict[str, Dict[str, Sequence[str]]] = {
    "booleans": {"gss": ("tiny", "small", "medium", "large")},
}


def _lazy_parser(grammar: Grammar) -> PoolParser:
    return PoolParser(IncrementalGenerator(grammar).control, grammar)


def _compiled_parser(grammar: Grammar) -> PoolParser:
    generator = IncrementalGenerator(grammar)
    control = CompiledControl(generator.control, grammar)
    return PoolParser(control, grammar)


def _table_parser(grammar: Grammar) -> PoolParser:
    graph = ItemSetGraph(grammar)
    graph.expand_all()
    return PoolParser(lr0_table(graph), grammar)


def _gss_parser(grammar: Grammar) -> GSSParser:
    generator = IncrementalGenerator(grammar)
    control = CompiledControl(generator.control, grammar)
    return GSSParser(control)


TIER_FACTORIES: Dict[str, Callable[[Grammar], Any]] = {
    "lazy": _lazy_parser,
    "compiled": _compiled_parser,
    "table": _table_parser,
    "gss": _gss_parser,
}


def _throughputs(
    parsers: Dict[str, Any], tokens: TokenStream, repeats: int, mode: str
) -> Dict[str, float]:
    """Best warm tokens/sec per tier over ``repeats`` interleaved rounds.

    ``recognize`` (the default upstream) is the pure ACTION/GOTO loop and
    works on arbitrarily ambiguous workloads; ``parse`` adds tree
    building, which on heavily ambiguous sentences (booleans) grows
    Catalan-fast regardless of the control plane.

    Each timing round measures every tier once before the next round
    starts, so transient machine noise lands on all tiers alike instead
    of skewing whichever tier happened to run during the disturbance.
    """
    runs: Dict[str, Callable[[TokenStream], Any]] = {}
    for tier, parser in parsers.items():
        run = parser.recognize if mode == "recognize" else parser.parse
        # Discarded warm-up (expansion + cache population) doubling as the
        # acceptance check; a plain statement so -O cannot strip it.
        if not run(tokens):
            raise ValueError(
                f"hot-path workload sentence rejected by the {tier!r} tier"
            )
        runs[tier] = run
    best: Dict[str, float] = {tier: float("inf") for tier in parsers}
    for _ in range(repeats):
        for tier, run in runs.items():
            started = time.perf_counter()
            run(tokens)
            elapsed = time.perf_counter() - started
            if elapsed < best[tier]:
                best[tier] = elapsed
    return {
        tier: (len(tokens) / seconds if seconds > 0 else float("inf"))
        for tier, seconds in best.items()
    }


def measure_hotpath(
    workload: Fig71Workload,
    repeats: int = 3,
    tiers: Sequence[str] = CONTROL_TIERS,
    inputs: Optional[Sequence[str]] = None,
    mode: str = "recognize",
    tier_inputs: Optional[Dict[str, Sequence[str]]] = None,
) -> Dict[str, Any]:
    """Tokens/sec per (input, control tier) for one §7 workload.

    ``inputs`` is the default feasible-input list; ``tier_inputs`` maps a
    tier name to its own list (e.g. the merged-stack ``gss`` tier runs
    the booleans inputs the linear-stack tiers cannot).  An input's
    ``tokens_per_sec`` only contains the tiers that ran it.

    Returns a JSON-able dict::

        {"workload": ..., "repeats": ..., "mode": ...,
         "inputs": {name: {"tokens": N, "tokens_per_sec": {tier: t/s}}},
         "speedup_compiled_vs_lazy": {name: ratio}}
    """
    base = list(inputs) if inputs is not None else list(workload.input_names())
    overrides = dict(tier_inputs or {})
    allowed = {tier: tuple(overrides.get(tier, base)) for tier in tiers}
    names = [
        name
        for name in workload.input_names()
        if any(name in allowed[tier] for tier in tiers)
    ]
    report: Dict[str, Any] = {
        "workload": workload.name,
        "repeats": repeats,
        "mode": mode,
        "inputs": {},
        "speedup_compiled_vs_lazy": {},
    }
    for name in names:
        tokens = workload.inputs[name]
        parsers = {
            tier: TIER_FACTORIES[tier](workload.fresh_grammar())
            for tier in tiers
            if name in allowed[tier]
        }
        rates = {
            tier: round(rate, 1)
            for tier, rate in _throughputs(parsers, tokens, repeats, mode).items()
        }
        report["inputs"][name] = {
            "tokens": len(tokens),
            "tokens_per_sec": rates,
        }
        if rates.get("lazy") and rates.get("compiled"):
            report["speedup_compiled_vs_lazy"][name] = round(
                rates["compiled"] / rates["lazy"], 2
            )
    # Workload-level aggregate: total tokens / total seconds per tier
    # (equivalently the token-weighted harmonic mean of the input rates),
    # which is the steady-state throughput of serving the whole corpus.
    # Only the inputs a tier actually ran participate in its aggregate —
    # summing tokens over inputs another tier served would overstate the
    # slower tier's throughput.
    aggregate: Dict[str, float] = {}
    for tier in tiers:
        ran = [
            d
            for d in report["inputs"].values()
            if d["tokens_per_sec"].get(tier)
        ]
        total_tokens = sum(d["tokens"] for d in ran)
        total_seconds = sum(
            d["tokens"] / d["tokens_per_sec"][tier] for d in ran
        )
        if total_seconds:
            aggregate[tier] = round(total_tokens / total_seconds, 1)
    report["aggregate_tokens_per_sec"] = aggregate
    if aggregate.get("lazy") and aggregate.get("compiled"):
        report["speedup_compiled_vs_lazy"]["aggregate"] = round(
            aggregate["compiled"] / aggregate["lazy"], 2
        )
    return report


#: Operands of the booleans render input: Catalan(7) = 429 trees, like
#: the 8-operand parses of the end-to-end booleans traffic.
RENDER_OPERANDS = 8


def _render_forests() -> Dict[str, ParseForest]:
    """The forests :func:`measure_render` renders, parsed by the default
    (``gss``) engine: the booleans packed forest, one ASF.sdf tree."""
    booleans = booleans_workload()
    sdf = sdf_workload()
    parses = {
        "booleans8": (booleans, _boolean_sentence(RENDER_OPERANDS)),
        "ASF.sdf": (sdf, sdf.inputs["ASF.sdf"]),
    }
    forests = {}
    for name, (workload, tokens) in parses.items():
        outcome = Language(workload.fresh_grammar()).parse(tokens)
        if not outcome.accepted:
            raise ValueError(f"render workload input {name!r} rejected")
        forests[name] = outcome.forest
    return forests


def measure_render(repeats: int = 5) -> Dict[str, Any]:
    """Best-of-``repeats`` µs per render and per count, per forest.

    ``render_us`` times ``brackets()`` on a forest whose counts are
    already known (what ``ParseOutcome.to_payload`` does after reading
    ``tree_count()``); ``count_us`` times ``tree_count()`` on a fresh
    handle over the same roots.  Rounds interleave every measurement so
    machine noise lands on all of them alike.  Returns::

        {"unit": ..., "forests": {name: {"trees", "chars", "render_us",
         "count_us", "render_vs_count"}}}
    """
    forests = _render_forests()
    best: Dict[str, Dict[str, float]] = {
        name: {"render": float("inf"), "count": float("inf")}
        for name in forests
    }
    for _ in range(repeats):
        for name, forest in forests.items():
            started = time.perf_counter()
            ParseForest(forest.roots).tree_count()
            counted = time.perf_counter()
            forest.brackets()
            rendered = time.perf_counter()
            timings = best[name]
            timings["count"] = min(timings["count"], counted - started)
            timings["render"] = min(timings["render"], rendered - counted)
    report: Dict[str, Any] = {
        "unit": "us per call (best of warm repeats)",
        "forests": {},
    }
    for name, forest in forests.items():
        trees = forest.brackets()
        timings = best[name]
        report["forests"][name] = {
            "trees": len(trees),
            "chars": sum(map(len, trees)),
            "render_us": round(timings["render"] * 1e6, 1),
            "count_us": round(timings["count"] * 1e6, 1),
            "render_vs_count": round(timings["render"] / timings["count"], 2),
        }
    return report


#: The SDF corpus input of the ``lookahead`` section (the largest one).
LOOKAHEAD_INPUT = "ASF.sdf"


def measure_lookahead(repeats: int = 5) -> Dict[str, Any]:
    """Sweeps and same-run recognition tok/s of ASF.sdf, lazy vs gss.

    ``lazy`` is pure LR(0) (the paper's automaton): every conflicted cell
    forks a parser.  gss's deterministic stretch reads FOLLOW-filtered
    step cells, so only the conflicts SLR(1) keeps send a position to the
    general sweep.  Returns::

        {"input", "tokens", "lazy_forks": n, "gss_general_sweeps": n,
         "tokens_per_sec": {tier: t/s}, "gss_vs_lazy": ratio}
    """
    workload = sdf_workload()
    tokens = workload.inputs[LOOKAHEAD_INPUT]
    parsers = {
        tier: TIER_FACTORIES[tier](workload.fresh_grammar())
        for tier in ("lazy", "gss")
    }
    rates = _throughputs(parsers, tokens, repeats, "recognize")
    return {
        "input": LOOKAHEAD_INPUT,
        "tokens": len(tokens),
        "lazy_forks": parsers["lazy"].recognize_result(tokens).stats.forks,
        "gss_general_sweeps": (
            parsers["gss"].recognize_result(tokens).stats.general_sweeps
        ),
        "tokens_per_sec": {tier: round(rate, 1) for tier, rate in rates.items()},
        "gss_vs_lazy": round(rates["gss"] / rates["lazy"], 2),
    }


RIGHT_RECURSION_GRAMMAR = "START ::= L\nL ::= x\nL ::= x L"

#: Lengths of the ``right_recursion`` inputs: linear work grows their
#: time ratio by 4x, quadratic work by 16x.
RIGHT_RECURSION_TOKENS = (500, 2000)


def measure_right_recursion(repeats: int = 5) -> Dict[str, Any]:
    """Best-of-``repeats`` ms per tree-mode parse of ``x``^n on ``L ::= x L``.

    Returns ``{"grammar", "unit", "engines": {tier: {"ms": {n: ms},
    "growth": ms(longest) / ms(shortest)}}}``, for ``gss``.
    """
    report: Dict[str, Any] = {
        "grammar": RIGHT_RECURSION_GRAMMAR,
        "unit": "ms per parse (best of warm repeats, tree mode)",
        "engines": {},
    }
    shortest, longest = str(RIGHT_RECURSION_TOKENS[0]), str(RIGHT_RECURSION_TOKENS[-1])
    for tier in ("gss",):
        ms: Dict[str, float] = {}
        for length in RIGHT_RECURSION_TOKENS:
            parser = TIER_FACTORIES[tier](grammar_from_text(RIGHT_RECURSION_GRAMMAR))
            tokens = [Terminal("x")] * length
            rate = _throughputs({tier: parser}, tokens, repeats, "parse")[tier]
            ms[str(length)] = round(length / rate * 1e3, 3)
        report["engines"][tier] = {
            "ms": ms,
            "growth": round(ms[longest] / ms[shortest], 2),
        }
    return report


def collect_hotpath_report(
    repeats: int = 5, workload_names: Optional[Sequence[str]] = None
) -> Dict[str, Any]:
    """The full ``BENCH_parse_hotpath.json`` payload.

    The single owner of the report shape and the per-workload feasible
    input lists — both ``benchmarks/bench_parse_hotpath.py`` and
    ``benchmarks/collect_experiments.py`` write the repo-root JSON through
    this function, so the tracked artifact never depends on which entry
    point ran last.  The ``render``, ``lookahead`` and
    ``right_recursion`` sections are measured whatever ``workload_names``
    selects.
    """
    factories = {"sdf": sdf_workload, "booleans": booleans_workload}
    names = list(workload_names) if workload_names is not None else list(factories)
    return {
        "benchmark": "parse_hotpath",
        "unit": "tokens/sec (best of warm repeats, recognition)",
        "workloads": {
            name: measure_hotpath(
                factories[name](),
                repeats=repeats,
                inputs=FEASIBLE_INPUTS.get(name),
                tier_inputs=TIER_FEASIBLE_INPUTS.get(name),
            )
            for name in names
        },
        "render": measure_render(repeats=repeats),
        "lookahead": measure_lookahead(repeats=repeats),
        "right_recursion": measure_right_recursion(repeats=repeats),
    }


def render_hotpath(report: Dict[str, Any]) -> str:
    """ASCII rendering of a :func:`measure_hotpath` report."""
    tiers = CONTROL_TIERS
    header = f"  {'input':12s} {'tokens':>7s}" + "".join(
        f" {tier:>14s}" for tier in tiers
    ) + f" {'speedup':>9s}"
    lines = [f"workload: {report['workload']}", header]
    for name, data in report["inputs"].items():
        rates = data["tokens_per_sec"]
        cells = "".join(f" {rates.get(tier, 0.0):>14,.0f}" for tier in tiers)
        speedup = report["speedup_compiled_vs_lazy"].get(name)
        suffix = f" {speedup:>8.2f}x" if speedup is not None else ""
        lines.append(f"  {name:12s} {data['tokens']:>7d}{cells}{suffix}")
    return "\n".join(lines)


def render_tree_timings(report: Dict[str, Any]) -> str:
    """ASCII rendering of a :func:`measure_render` report."""
    lines = [
        "tree rendering (ParseForest.brackets, gss engine)",
        f"  {'forest':12s} {'trees':>6s} {'chars':>8s} {'render us':>10s}"
        f" {'count us':>10s} {'ratio':>6s}",
    ]
    for name, data in report["forests"].items():
        lines.append(
            f"  {name:12s} {data['trees']:>6d} {data['chars']:>8d}"
            f" {data['render_us']:>10,.1f} {data['count_us']:>10,.1f}"
            f" {data['render_vs_count']:>6.2f}"
        )
    return "\n".join(lines)


def render_step_cells(report: Dict[str, Any]) -> str:
    """ASCII rendering of the ``lookahead`` and ``right_recursion``
    sections of a :func:`collect_hotpath_report` payload."""
    lookahead = report["lookahead"]
    lines = [
        f"SLR(1) step cells ({lookahead['input']}, {lookahead['tokens']} "
        f"tokens, recognition)",
    ]
    rates = lookahead["tokens_per_sec"]
    lines.append(
        f"  lazy {lookahead['lazy_forks']:>5d} forks"
        f"           {rates['lazy']:>12,.0f} tok/s"
    )
    lines.append(
        f"  gss  {lookahead['gss_general_sweeps']:>5d} general sweeps"
        f"  {rates['gss']:>12,.0f} tok/s"
    )
    lines.append(f"  gss/lazy {lookahead['gss_vs_lazy']:.2f}x")
    right = report["right_recursion"]
    lines.append(f"right recursion ({right['unit']})")
    for tier, data in right["engines"].items():
        cells = "  ".join(f"n={n}: {ms:,.2f}" for n, ms in data["ms"].items())
        lines.append(f"  {tier:9s} {cells}  growth {data['growth']:.2f}x")
    return "\n".join(lines)


def check_floor(
    report: Dict[str, Any],
    floor: Dict[str, Any],
    max_regression: float = 3.0,
) -> list:
    """Compare a report against a checked-in floor; return failure strings.

    Three kinds of guard, all read from the floor file:

    * ``tokens_per_sec`` — absolute floors: a tier/input pair fails when
      measured tokens/sec drops below ``floor / max_regression``.  A
      gross sanity net only, since absolute numbers depend on the
      machine.
    * ``relative`` — machine-independent ratios *within the same run*:
      each rule ``{"input", "numerator", "denominator", "min_ratio"}``
      fails when ``numerator`` tokens/sec is less than ``min_ratio`` ×
      ``denominator``.  This is the real regression signal: losing the
      compiled control's memoized ACTION cells or gss's deterministic
      stretch collapses its ratio to lazy no matter how fast the runner
      is.
    * ``growth`` — same-run time ceilings: each rule fails when ``tier``
      takes more than ``max_ratio`` × its ``denominator`` time on ``numerator``.
    """
    problems = []
    for name, floor_rates in floor.get("tokens_per_sec", {}).items():
        measured_input = report["inputs"].get(name)
        if measured_input is None:
            problems.append(f"input {name!r} missing from the measured report")
            continue
        for tier, floor_rate in floor_rates.items():
            measured = measured_input["tokens_per_sec"].get(tier)
            if measured is None:
                problems.append(f"{name}/{tier}: tier missing from the report")
            elif measured * max_regression < floor_rate:
                problems.append(
                    f"{name}/{tier}: {measured:,.0f} tokens/sec is more than "
                    f"{max_regression:.0f}x below the floor of "
                    f"{floor_rate:,.0f}"
                )
    for rule in floor.get("relative", ()):
        name = rule["input"]
        numerator = rule["numerator"]
        denominator = rule["denominator"]
        min_ratio = rule["min_ratio"]
        measured_input = report["inputs"].get(name)
        if measured_input is None:
            problems.append(f"input {name!r} missing from the measured report")
            continue
        rates = measured_input["tokens_per_sec"]
        if not rates.get(numerator) or not rates.get(denominator):
            problems.append(
                f"{name}: cannot compare {numerator} vs {denominator} "
                f"(tier missing or zero)"
            )
            continue
        ratio = rates[numerator] / rates[denominator]
        if ratio < min_ratio:
            problems.append(
                f"{name}: {numerator} is only {ratio:.2f}x {denominator} "
                f"in this run (floor requires >= {min_ratio}x)"
            )
    for rule in floor.get("growth", ()):
        tier, slow, fast = rule["tier"], rule["numerator"], rule["denominator"]
        seconds = {
            name: data["tokens"] / data["tokens_per_sec"][tier]
            for name, data in report["inputs"].items()
            if data["tokens_per_sec"].get(tier)
        }
        if slow not in seconds or fast not in seconds:
            problems.append(f"growth/{tier}: {slow} or {fast} missing from the report")
        elif seconds[slow] > rule["max_ratio"] * seconds[fast]:
            problems.append(
                f"growth/{tier}: {slow} takes {seconds[slow] / seconds[fast]:.1f}x "
                f"the time of {fast} in this run (ceiling {rule['max_ratio']}x)"
            )
    return problems


def check_render_floor(report: Dict[str, Any], floor: Dict[str, Any]) -> list:
    """Failure strings for a :func:`measure_render` report against the
    floor file's ``render.max_render_vs_count`` ratios (same-run
    ``render_us / count_us`` per forest, so machine-independent)."""
    problems = []
    limits = floor.get("render", {}).get("max_render_vs_count", {})
    for name, max_ratio in limits.items():
        measured = report["forests"].get(name)
        if measured is None:
            problems.append(f"render forest {name!r} missing from the report")
        elif measured["render_vs_count"] > max_ratio:
            problems.append(
                f"render/{name}: rendering takes "
                f"{measured['render_vs_count']:.2f}x the time of counting "
                f"the same forest (floor allows <= {max_ratio}x)"
            )
    return problems


def check_step_cell_floor(report: Dict[str, Any], floor: Dict[str, Any]) -> list:
    """Failure strings for the ``lookahead`` and ``right_recursion``
    sections of a :func:`collect_hotpath_report` payload.

    Rules read from the floor file, all machine-independent:
    ``lookahead.max_gss_general_sweeps`` (a count),
    ``lookahead.min_gss_vs_lazy`` (a same-run ratio) and
    ``right_recursion.max_growth`` per engine (the same-run time ratio of
    the longest to the shortest input).
    """
    problems = []
    rules = floor.get("lookahead", {})
    lookahead = report.get("lookahead")
    if rules and lookahead is None:
        problems.append("lookahead section missing from the report")
    elif rules:
        sweeps = lookahead["gss_general_sweeps"]
        ceiling = rules.get("max_gss_general_sweeps")
        if ceiling is not None and sweeps > ceiling:
            problems.append(
                f"lookahead: gss's general sweep handles {sweeps} positions "
                f"of {lookahead['input']} (ceiling {ceiling})"
            )
        ratio = lookahead["gss_vs_lazy"]
        minimum = rules.get("min_gss_vs_lazy")
        if minimum is not None and ratio < minimum:
            problems.append(
                f"lookahead: gss is only {ratio:.2f}x lazy on "
                f"{lookahead['input']} in this run (floor requires >= "
                f"{minimum}x)"
            )
    rules = floor.get("right_recursion", {})
    right = report.get("right_recursion")
    if rules and right is None:
        problems.append("right_recursion section missing from the report")
    elif rules:
        for tier, ceiling in rules.get("max_growth", {}).items():
            data = right["engines"].get(tier)
            if data is None:
                problems.append(f"right_recursion/{tier}: engine missing")
            elif data["growth"] > ceiling:
                problems.append(
                    f"right_recursion/{tier}: time grows {data['growth']:.2f}x "
                    f"from the shortest to the longest input (ceiling "
                    f"{ceiling}x; linear is 4x)"
                )
    return problems
