"""Command-line interface.

Subcommands: `table` prints a character table, `quiver` builds a McKay
quiver, `analyze` runs the full quiver analysis, `check-mckay` runs the
obstruction battery, `verify` checks a table file.  Exit codes are a
stable contract: 0 success or all checks passed, 1 some check failed,
2 bad input, 3 an internal consistency assertion tripped.

Vertex and irreducible indices are 1-based in every report; JSON output
is deterministic (sorted keys, fixed indentation).
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import GroupSpecError, natural_rep, parse_group_spec, regular_rep
from .chartab import (
    CharacterTable,
    TableFormatError,
    TableValidationError,
    render_table_text,
    table_from_json,
    table_to_json,
)
from .mckay import InternalInconsistency, McKayQuiver
from .obstructions import QuiverAnalysis, mckay_obstruction_battery
from .polynomials import MAX_FACTOR_DEGREE
from .quiver import Quiver, QuiverFormatError, ade_classify, to_dot


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(args, rendered: dict[str, str]) -> None:
    """Write the output in the requested format.

    --out takes a path (format inferred from a .json/.dot suffix unless
    --format was given) or one of the literal format names to force
    stdout rendering.
    """
    fmt = args.format
    path = getattr(args, "out", None)
    if path in rendered:
        fmt, path = path, None
    elif path and "." in path:
        suffix = path.rsplit(".", 1)[1].lower()
        if fmt is None and suffix in rendered:
            fmt = suffix
    if fmt is None:
        fmt = "text" if "text" in rendered else "json"
    if fmt not in rendered:
        raise ValueError(f"format {fmt!r} is not available for this command")
    text = rendered[fmt]
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_table(args) -> CharacterTable:
    if getattr(args, "table", None):
        with open(args.table, encoding="utf-8") as fh:
            return table_from_json(fh.read(), force=args.force)
    if not args.group:
        raise GroupSpecError("give a group spec or --table FILE")
    return parse_group_spec(args.group)


def _load_quiver(path: str) -> Quiver:
    """The quiver in a file.  One with more than MAX_FACTOR_DEGREE
    vertices is rejected here, before any analysis, because its char
    poly could not be factored."""
    with open(path, encoding="utf-8") as fh:
        q = Quiver.from_json(fh.read())
    if q.n > MAX_FACTOR_DEGREE:
        raise ValueError(
            f"degree {q.n} is above the supported bound {MAX_FACTOR_DEGREE}")
    return q


def _resolve_rep(t: CharacterTable, text: str) -> tuple[int, ...]:
    text = text.strip()
    if text == "natural":
        return natural_rep(t)
    if text == "regular":
        return regular_rep(t)
    try:
        if "," in text:
            mult = tuple(int(p) for p in text.split(","))
        else:
            k = int(text)
            if not 1 <= k <= t.n_classes:
                raise ValueError(
                    f"irreducible index {k} out of range 1..{t.n_classes}")
            mult = tuple(int(i == k - 1) for i in range(t.n_classes))
    except ValueError as ex:
        raise ValueError(f"bad --rep {text!r}: {ex}") from ex
    return mult


# -- subcommands ---------------------------------------------------------------


def cmd_table(args) -> int:
    t = _load_table(args)
    _emit(args, {"text": render_table_text(t) + "\n",
                 "json": _json_text(table_to_json(t))})
    return 0


def cmd_quiver(args) -> int:
    t = _load_table(args)
    mq = McKayQuiver(t, _resolve_rep(t, args.rep))
    q = mq.to_quiver()
    lines = [f"McKay quiver of {t.name}, representation of dimension {mq.dim}"]
    width = max(len(v) for v in q.vertices)
    for i, name in enumerate(q.vertices):
        row = " ".join(str(a) for a in q.adjacency[i])
        lines.append(f"  {name.rjust(width)} (dim {q.weights[i]}): {row}")
    _emit(args, {"text": "\n".join(lines) + "\n",
                 "json": _json_text(q.to_json()),
                 "dot": to_dot(q) + "\n"})
    return 0


def _analyze_report(q: Quiver, prime_budget: int) -> dict:
    """The analyze report, with the battery's report embedded.

    One QuiverAnalysis serves the report and the battery, so the strong
    and weak components, the reduced weightings, the characteristic
    polynomials, their factorizations and each factor's witness search
    are computed once.  On a weakly connected quiver the battery's one
    component is the whole quiver, whose polynomial and verdict the
    report has already computed.
    """
    a = QuiverAnalysis(q, prime_budget)
    components = []
    for comp in a.weak_components:
        sub = a.induced(comp)
        components.append({
            "vertices": [v + 1 for v in comp],
            "adjacency": [list(r) for r in sub.adjacency],
            "ade": ade_classify(sub),
        })
    weightings = []
    for comp in a.strong_components:
        rw = a.weighting(comp)
        weightings.append({
            "vertices": [v + 1 for v in comp],
            "k": None if rw is None else rw.k,
            "weights": None if rw is None else list(rw.weights),
        })
    cp = a.char_poly(a.all_vertices)
    factors: list[list] = []
    for g in a.factors(cp):
        if factors and factors[-1][0] == str(g):
            factors[-1][1] += 1
        else:
            factors.append([str(g), 1])
    return {
        "vertices": list(q.vertices),
        "ade": ade_classify(q),
        "components": components,
        "weightings": weightings,
        "char_poly": str(cp),
        "factorization": [{"factor": f, "multiplicity": m} for f, m in factors],
        "solvability": a.solvability(cp).to_json(),
        "battery": mckay_obstruction_battery(q, prime_budget, analysis=a).to_json(),
    }


def _analyze_text(report: dict) -> str:
    lines = [f"quiver on {len(report['vertices'])} vertices"]
    lines.append(f"ADE class: {report['ade'] or 'none'}")
    lines.append("components:")
    for comp in report["components"]:
        vs = ",".join(str(v) for v in comp["vertices"])
        lines.append(f"  vertices {vs}  ADE {comp['ade'] or 'none'}")
    lines.append("reduced weightings per strong component:")
    for w in report["weightings"]:
        vs = ",".join(str(v) for v in w["vertices"])
        if w["k"] is None:
            lines.append(f"  vertices {vs}: none")
        else:
            lines.append(f"  vertices {vs}: k = {w['k']}, weights {w['weights']}")
    lines.append(f"char poly: {report['char_poly']}")
    parts = " * ".join(
        f"({f['factor']})" + (f"^{f['multiplicity']}" if f['multiplicity'] > 1 else "")
        for f in report["factorization"])
    lines.append(f"factorization: {parts}")
    lines.append(f"solvability: {report['solvability']['status']}")
    lines.append("battery:")
    for t in report["battery"]["tests"]:
        lines.append(f"  [{t['status']}] {t['name']}: {t['detail']}")
    lines.append(f"battery verdict: {report['battery']['verdict']}")
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    q = _load_quiver(args.quiver_file)
    report = _analyze_report(q, args.prime_budget)
    _emit(args, {"text": _analyze_text(report), "json": _json_text(report)})
    return 0


def cmd_check_mckay(args) -> int:
    q = _load_quiver(args.quiver_file)
    report = mckay_obstruction_battery(q, args.prime_budget)
    _emit(args, {"text": str(report) + "\n",
                 "json": _json_text(report.to_json())})
    return 0 if all(t.status == "pass" for t in report.tests) else 1


def cmd_verify(args) -> int:
    with open(args.table_file, encoding="utf-8") as fh:
        report = table_from_json(fh.read(), force=True).verification
    _emit(args, {"text": str(report) + "\n",
                 "json": _json_text(report.to_json())})
    return 0 if report.all_pass else 1


# -- parser --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mckayq",
        description="Exact McKay quivers from character tables, "
                    "and obstruction analysis of arbitrary quivers.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, formats):
        sp.add_argument("--format", choices=formats, default=None,
                        help="output format (default: text)")
        sp.add_argument("--out", metavar="PATH",
                        help="write to PATH instead of stdout; a bare "
                             "format name also works")

    def add_table_source(sp):
        sp.add_argument("group", nargs="?",
                        help="group spec: C:n, BD:m, Q8, 2T, 2O, 2I, or "
                             "products like C:2xBD:8")
        sp.add_argument("--table", metavar="FILE",
                        help="read the character table from a JSON file")
        sp.add_argument("--force", action="store_true",
                        help="accept a table file that fails verification")

    sp = sub.add_parser("table", help="print a character table")
    add_table_source(sp)
    add_common(sp, ("text", "json"))
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("quiver", help="build a McKay quiver")
    add_table_source(sp)
    sp.add_argument("--rep", default="natural",
                    help="representation: 'natural', 'regular', a 1-based "
                         "irreducible index, or multiplicities m1,m2,...")
    add_common(sp, ("text", "json", "dot"))
    sp.set_defaults(func=cmd_quiver)

    sp = sub.add_parser("analyze", help="full analysis of a quiver file")
    sp.add_argument("quiver_file")
    sp.add_argument("--prime-budget", type=int, default=10000,
                    help="prime search bound for solvability verdicts")
    add_common(sp, ("text", "json"))
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("check-mckay",
                        help="run the McKay obstruction battery on a quiver file")
    sp.add_argument("quiver_file")
    sp.add_argument("--prime-budget", type=int, default=10000)
    add_common(sp, ("text", "json"))
    sp.set_defaults(func=cmd_check_mckay)

    sp = sub.add_parser("verify", help="verify a character table file")
    sp.add_argument("table_file")
    add_common(sp, ("text", "json"))
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TableValidationError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 3
    except (InternalInconsistency, AssertionError) as ex:
        print(f"internal error: {ex}", file=sys.stderr)
        return 3
    except (GroupSpecError, TableFormatError, QuiverFormatError, OSError,
            ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
