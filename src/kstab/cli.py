"""Batch front-end: verify scenarios, dump chamber tables, run the series.

Exit codes: 0 all expectations match, 1 at least one mismatch,
2 parse or validation errors.  Reports print exact rationals first and
decimal approximations second, so diffs stay exact.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .rationals import format_decimal, format_rational, parse_rational
from .scenarios import (
    Scenario,
    ScenarioError,
    corpus_paths,
    load_scenario,
    run_expectations,
    ScenarioRuntime,
)
from .zariski import decompose_at


UNIVERSE_CAVEAT = (
    "nef/pseudoeffective are relative to each scenario's declared curve universe"
)


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=1, sort_keys=True))


def _rational_cell(value: Fraction) -> str:
    return f"{format_rational(value)} (~{format_decimal(value)})"


def _load_many(paths) -> list[Scenario]:
    return [load_scenario(p) for p in paths]


def cmd_list(args) -> int:
    scenarios = _load_many(corpus_paths())
    if args.json:
        _print_json([{"id": s.id, "lemma": s.lemma, "expectations": len(s.expectations)}
                     for s in scenarios])
        return 0
    for s in scenarios:
        print(f"{s.id:20s} {len(s.expectations):3d} expectations  {s.lemma}")
    return 0


def cmd_verify(args) -> int:
    paths = corpus_paths() if args.all else args.scenarios
    if not paths:
        print("nothing to verify: pass scenario files or --all", file=sys.stderr)
        return 2
    try:
        scenarios = _load_many(paths)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports = [run_expectations(s) for s in scenarios]
    reports.sort(key=lambda r: r.scenario_id)
    if args.json:
        _print_json({"caveat": UNIVERSE_CAVEAT,
                     "reports": [r.to_json_dict() for r in reports]})
    else:
        print(f"note: {UNIVERSE_CAVEAT}")
        for report in reports:
            mark = "ok" if report.ok else "FAIL"
            print(f"[{mark:4s}] {report.scenario_id} "
                  f"({len(report.rows)} expectations, {report.seconds:.2f}s)")
            for row in report.rows:
                if row.status == "match" and not args.verbose:
                    continue
                computed = (
                    _rational_cell(row.computed)
                    if isinstance(row.computed, Fraction)
                    else row.computed
                )
                line = f"    {row.status:8s} {row.op} {row.args} = {computed}"
                if row.status != "match":
                    line += f"  expected {row.expected}"
                if row.detail:
                    line += f"  [{row.detail}]"
                print(line)
    if any(r.errored for r in reports):
        return 2
    return 0 if all(r.ok for r in reports) else 1


def _find_scenario(token: str) -> Scenario:
    for path in corpus_paths():
        if path.stem == token:
            return load_scenario(path)
    return load_scenario(token)


def cmd_decompose(args) -> int:
    try:
        scenario = _find_scenario(args.scenario)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runtime = ScenarioRuntime(scenario)
    try:
        famdec = runtime.family_decomposition(args.family)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lat = scenario.lattice
    if args.at:
        try:
            point = {}
            for item in args.at.split(","):
                key, _, value = item.partition("=")
                point[key.strip()] = parse_rational(value)
            u, v = point["u"], point["v"]
        except (KeyError, ValueError) as exc:
            print(f"error: malformed --at (want u=p/q,v=p/q): {exc}", file=sys.stderr)
            return 2
        hit = None
        for dec in famdec.parts:
            if dec.domain.contains((u, v)):
                hit = dec
                break
        if hit is None:
            print("error: point is outside parameter domain", file=sys.stderr)
            return 2
        result = decompose_at(lat, hit.divisor.at(u, v))
        payload = {
            "point": {"u": format_rational(u), "v": format_rational(v)},
            "support": [lat.names[i] for i in result.support],
            "negative": {
                lat.names[i]: format_rational(c)
                for i, c in zip(result.support, result.neg_coeffs)
            },
            "P_squared": format_rational(result.p_squared),
        }
        if args.json:
            _print_json(payload)
        else:
            print(f"at (u, v) = ({format_rational(u)}, {format_rational(v)}):")
            print("  N =", payload["negative"] or "0")
            print("  P^2 =", _rational_cell(result.p_squared))
        return 0
    rows = []
    for dec in famdec.parts:
        for chamber in dec.chambers:
            rows.append({
                "support": [lat.names[i] for i in chamber.support],
                "region": [[format_rational(x), format_rational(y)]
                           for x, y in chamber.region.vertices],
                "negative": {
                    lat.names[i]: repr(form)
                    for i, form in zip(chamber.support, chamber.neg_coeffs)
                },
                "P_squared": repr(chamber.p_squared),
            })
    if args.json:
        _print_json({"scenario": scenario.id, "family": args.family,
                     "caveat": UNIVERSE_CAVEAT, "chambers": rows})
    else:
        print(f"{scenario.id} family {args.family}: {len(rows)} chambers "
              f"({UNIVERSE_CAVEAT})")
        for k, row in enumerate(rows):
            print(f"  chamber {k}: support {{{', '.join(row['support']) or 'empty'}}}")
            print(f"    region  {row['region']}")
            if row["negative"]:
                for name, form in row["negative"].items():
                    print(f"    N[{name}] = {form}")
            print(f"    P^2 = {row['P_squared']}")
    return 0


def series_payload(report) -> dict:
    """The JSON document `kstab series --json` prints for a SeriesReport."""
    return {
        "n_max": report.n_max,
        "S_partial": format_rational(report.s_partial),
        "S_decimal": report.s_decimal,
        "M_partial": format_rational(report.m_partial),
        "F_partial": format_rational(report.f_partial),
        "F_decimal": report.f_decimal,
        "S_tail_heuristic": report.tail_estimate(),
        "ledger": [
            {
                "n": entry.n,
                "S": [format_rational(x) for x in entry.s_terms],
                "M": [[format_rational(a), format_rational(b)]
                      for a, b in entry.m_terms],
                "F": [format_rational(x) for x in entry.f_terms],
            }
            for entry in report.entries
        ],
    }


def cmd_series(args) -> int:
    from .series import series_sum

    if args.max_n < 0:
        print("error: --max-n must be non-negative", file=sys.stderr)
        return 2
    report = series_sum(args.max_n)
    if args.json:
        _print_json(series_payload(report))
        return 0
    print(f"series ledger up to n = {report.n_max}")
    for entry in report.entries:
        s_text = " + ".join(format_rational(x) for x in entry.s_terms)
        f_text = " + ".join(format_rational(x) for x in entry.f_terms)
        print(f"  n={entry.n}: S terms {s_text}")
        print(f"        F terms {f_text}")
    print(f"S partial = {format_rational(report.s_partial)} (~{report.s_decimal})")
    print(f"F partial = {format_rational(report.f_partial)} (~{report.f_decimal})")
    print(f"S tail estimate (HEURISTIC, not a bound): ~{report.tail_estimate():.3g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kstab",
        description="exact chamber decompositions and stability invariant integrals",
    )
    parser.add_argument("--version", action="version", version=f"kstab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list built-in scenarios")
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(func=cmd_list)

    p_verify = sub.add_parser("verify", help="run scenario expectations")
    p_verify.add_argument("scenarios", nargs="*", help="scenario JSON files")
    p_verify.add_argument("--all", action="store_true", help="run the built-in corpus")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--verbose", action="store_true", help="print matching rows too")
    p_verify.set_defaults(func=cmd_verify)

    p_dec = sub.add_parser("decompose", help="print a family's chamber table")
    p_dec.add_argument("scenario", help="scenario id from the corpus, or a JSON path")
    p_dec.add_argument("--family", required=True)
    p_dec.add_argument("--at", help="pointwise decomposition at u=p/q,v=p/q")
    p_dec.add_argument("--json", action="store_true")
    p_dec.set_defaults(func=cmd_decompose)

    p_series = sub.add_parser("series", help="exact partial sums of the 2.7 series")
    p_series.add_argument("--max-n", type=int, required=True)
    p_series.add_argument("--json", action="store_true")
    p_series.set_defaults(func=cmd_series)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
