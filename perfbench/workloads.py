"""The three benchmark workloads, their seeded inputs and correctness gates.

Each workload drives kstab through its public functions only:

* ``ladder``   ``kstab series --max-n N --json``, N drawn near 30 by the seed;
* ``corpus``   ``kstab verify <all 30 corpus files> --json`` in seeded order;
* ``surfaces`` ``scenarios.run_expectations`` over the non-series scenarios,
  ten passes, each with its own scenario order and oracle sample seed.

No kstab module is imported here at module level, so that the set-up
probe can time the import.  Calls go through module attributes (never
through names bound at import time), so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = SRC / "kstab" / "corpus"

LADDER_LEVELS = (29, 30)
SURFACE_PASSES = 10


def use_source_tree() -> None:
    """Put the checkout's ``src`` first on the import path, or exit 2."""
    if not (SRC / "kstab" / "__init__.py").is_file():
        print(f"perfbench: no kstab sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def corpus_files() -> list[Path]:
    """The scenario files, read as inputs without importing kstab."""
    return sorted(CORPUS.glob("*.json"))


def _cli_call(argv: list[str]) -> tuple[int, str]:
    cli = importlib.import_module("kstab.cli")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _same(text, value: Fraction) -> bool:
    try:
        return Fraction(text) == value
    except (TypeError, ValueError, ZeroDivisionError):
        return False


# -- ladder ------------------------------------------------------------------


class Ladder:
    """The series user's path: one exact ledger for every level n <= N."""

    name = "ladder"
    rate_name = "bands_per_s"

    @staticmethod
    def params(seed: int) -> dict:
        return {"max_n": random.Random(seed).choice(LADDER_LEVELS)}

    @staticmethod
    def setup(params: dict) -> dict:
        importlib.import_module("kstab.cli")
        importlib.import_module("kstab.series")
        return {"max_n": params["max_n"]}

    @staticmethod
    def items(state: dict) -> int:
        """Bands computed by one call."""
        return 4 * (state["max_n"] + 1)

    @staticmethod
    def iteration(state: dict):
        return _cli_call(["series", "--max-n", str(state["max_n"]), "--json"])

    @staticmethod
    def check(state: dict, output) -> tuple[int, int]:
        return check_ladder(*output, state["max_n"])


def check_ladder(code: int, text: str, max_n: int) -> tuple[int, int]:
    """(attempted, failed) over every S, M', M'', F entry and the 3 partial sums.

    Each entry must equal its closed form exactly; so must the partial sums.
    """
    from kstab.closed_forms import f_closed, m_closed, s_closed

    attempted = 16 * (max_n + 1) + 3
    if code != 0:
        return attempted, attempted
    try:
        payload = json.loads(text)
        ledger = {entry["n"]: entry for entry in payload["ledger"]}
    except (ValueError, KeyError, TypeError):
        return attempted, attempted
    failed = 0
    sums = {"S": Fraction(0), "M": Fraction(0), "F": Fraction(0)}
    for n in range(max_n + 1):
        entry = ledger.get(n)
        for k, i in enumerate((1, 2, 3, 4)):
            s, mp, mpp, f = s_closed(n, i), m_closed(n, i, "p"), m_closed(n, i, "pp"), f_closed(n, i)
            sums["S"] += s
            sums["M"] += mp + mpp
            sums["F"] += f
            try:
                cells = [entry["S"][k], entry["M"][k][0], entry["M"][k][1], entry["F"][k]]
            except (KeyError, IndexError, TypeError):
                failed += 4
                continue
            failed += sum(not _same(c, v) for c, v in zip(cells, (s, mp, mpp, f)))
    for key in ("S", "M", "F"):
        failed += not _same(payload.get(f"{key}_partial"), sums[key])
    return attempted, failed


# -- corpus ------------------------------------------------------------------


class Corpus:
    """The verify user's path, CLI JSON rendering included."""

    name = "corpus"
    rate_name = "expectations_per_s"

    @staticmethod
    def params(seed: int) -> dict:
        names = [path.name for path in corpus_files()]
        random.Random(seed).shuffle(names)
        return {"order": names}

    @staticmethod
    def setup(params: dict) -> dict:
        importlib.import_module("kstab.cli")
        scenarios = importlib.import_module("kstab.scenarios")
        paths = [CORPUS / name for name in params["order"]]
        loaded = [scenarios.load_scenario(path) for path in paths]
        return {
            "argv": ["verify", *map(str, paths), "--json"],
            "rows": sum(len(s.expectations) for s in loaded),
        }

    @staticmethod
    def items(state: dict) -> int:
        """Expectation rows evaluated by one call."""
        return state["rows"]

    @staticmethod
    def iteration(state: dict):
        return _cli_call(state["argv"])

    @staticmethod
    def check(state: dict, output) -> tuple[int, int]:
        return check_corpus(*output, state["rows"])


def check_corpus(code: int, text: str, rows: int) -> tuple[int, int]:
    """(attempted, failed): exit code 0 and every row of every report "match"."""
    try:
        found = [row for report in json.loads(text)["reports"] for row in report["rows"]]
    except (ValueError, KeyError, TypeError):
        return rows, rows
    failed = sum(row.get("status") != "match" for row in found) + max(0, rows - len(found))
    if code != 0:
        failed = max(failed, 1)
    return rows, min(failed, rows)


# -- surfaces ----------------------------------------------------------------


class Surfaces:
    """Library use: small lattices, pointwise oracle checks, no series."""

    name = "surfaces"
    rate_name = "expectations_per_s"

    @staticmethod
    def _raw_scenarios() -> dict[str, dict]:
        out = {}
        for path in corpus_files():
            raw = json.loads(path.read_text())
            if not any(e["op"].startswith("series") for e in raw["expect"]):
                out[raw["id"]] = raw
        return out

    @classmethod
    def params(cls, seed: int) -> dict:
        rng = random.Random(seed)
        ids = sorted(cls._raw_scenarios())
        passes = []
        for _ in range(SURFACE_PASSES):
            order = ids[:]
            rng.shuffle(order)
            passes.append({"order": order, "oracle_seed": rng.randrange(2**31)})
        return {"passes": passes}

    @classmethod
    def setup(cls, params: dict) -> dict:
        scenarios = importlib.import_module("kstab.scenarios")
        raw = cls._raw_scenarios()
        passes = []
        for spec in params["passes"]:
            loaded = []
            for sid in spec["order"]:
                source = raw[sid]
                expect = [
                    {**e, "args": {**e.get("args", {}), "seed": spec["oracle_seed"]}}
                    if e["op"] == "oracle" else e
                    for e in source["expect"]
                ]
                loaded.append(scenarios.scenario_from_dict({**source, "expect": expect}, sid))
            passes.append(loaded)
        rows = sum(len(s.expectations) for loaded in passes for s in loaded)
        return {"passes": passes, "rows": rows, "scenario_seconds": []}

    @staticmethod
    def items(state: dict) -> int:
        """Expectation rows evaluated by one iteration (all passes)."""
        return state["rows"]

    @staticmethod
    def iteration(state: dict):
        """Reports of every pass; each scenario's seconds go to the state."""
        scenarios = importlib.import_module("kstab.scenarios")
        reports = []
        for loaded in state["passes"]:
            for scenario in loaded:
                start = time.perf_counter()
                reports.append(scenarios.run_expectations(scenario))
                state["scenario_seconds"].append(time.perf_counter() - start)
        return reports

    @staticmethod
    def check(state: dict, reports) -> tuple[int, int]:
        failed = max(0, state["rows"] - sum(len(report.rows) for report in reports))
        for report in reports:
            if not report.ok:
                failed += max(1, sum(row.status != "match" for row in report.rows))
        return state["rows"], min(failed, state["rows"])


WORKLOADS = {w.name: w for w in (Ladder, Corpus, Surfaces)}
