"""Declarative scenarios: one JSON file per source configuration.

A scenario carries a curve lattice, optional threefold data, restriction
families, flags, and a list of expectations; running it evaluates every
expectation and reports exact matches.  All numbers in scenario files are
rational strings ("p/q"); decimal expectations carry an explicit tolerance.

Schema (field names are part of the file format):

    {"id", "lemma", "V": "p/q", "curves": [...], "gram": [["p/q", ...]],
     "threefold": {...}, "families": {...}, "flags": {...},
     "expect": [{"op", "args", "value"}], "notes"}
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__
from .invariants import (
    QUARTIC_VERDICTS,
    FamilyDecomposition,
    FlagData,
    SurfaceFamily,
    SurfacePiece,
    ThreefoldFamilyData,
    ThreefoldInterval,
    beta,
    beta_lower_bound,
    decompose_family,
    delta_min_combinator,
    f_term,
    fiber_delta_bound,
    quartic_fiber_bound,
    s_curve,
    s_point,
    s_threefold,
    _point_base,
)
from .lattice import (
    CurveLattice,
    DivisorClass,
    LatticeError,
    ParametricDivisor,
    pair,
)
from .poly import AffineForm, Polynomial2, poly_from_terms
from .rationals import format_decimal, format_rational, parse_rational, rat
from .zariski import oracle_check


class ScenarioError(ValueError):
    """Malformed scenario file; the message carries the offending field path."""


def _ctx(path: str, exc: Exception) -> ScenarioError:
    return ScenarioError(f"{path}: {exc}")


_REQUIRED = object()
_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _typed(value, kind: type, path: str, length: int | None = None):
    """value itself, if it is a JSON value of the given kind (and length)."""
    if not isinstance(value, kind) or (length is not None and len(value) != length):
        entries = f" of {length} entries" if length is not None else ""
        raise ScenarioError(f"{path}: expected {_KINDS[kind]}{entries}")
    return value


def _field(spec, key: str, path: str, kind: type | None = None, default=_REQUIRED):
    """spec[key], where spec is the object at path (a top-level path ends in
    ":"); a missing optional key gives default.  The object and the value are
    type-checked, so each iteration site of the loader gets a field path
    instead of a traceback."""
    if not isinstance(spec, dict):
        raise ScenarioError(f"{path}: expected an object")
    value = spec.get(key, default)
    if value is not _REQUIRED and (kind is None or value is default or isinstance(value, kind)):
        return value
    field_path = f"{path}{key}" if path.endswith(":") else f"{path}.{key}"
    if value is _REQUIRED:
        raise ScenarioError(f"{field_path}: missing field")
    raise ScenarioError(f"{field_path}: expected {_KINDS[kind]}")


def _rational(value, path: str) -> Fraction:
    try:
        return parse_rational(value)
    except (ValueError, AttributeError) as exc:  # AttributeError: not a string
        raise _ctx(path, exc) from None


_BOUND_KEYS = ({"decimal", "tol"}, {"max"}, {"min"})


def _bound(key: str, text) -> Fraction:
    """The rational of one key of a bound value; decimal and tol also take
    decimal notation ("0.9767")."""
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {text!r}")
    return Fraction(text) if key in ("decimal", "tol") else parse_rational(text)


def _check_value(value, origin: str, idx: int) -> None:
    """expect[idx].value: a rational string (or a quartic_fiber_bound
    verdict), a bool or int, a list, or an object {decimal, tol}, {max} or
    {min} of rationals.  The path is formatted only on error."""
    key = None
    try:
        if isinstance(value, str):
            if value not in QUARTIC_VERDICTS:
                parse_rational(value)
            return
        if isinstance(value, (int, list)):  # bool is an int
            return
        if isinstance(value, dict) and set(value) in _BOUND_KEYS:
            for key, text in value.items():
                _bound(key, text)
            return
    except (ValueError, ZeroDivisionError) as exc:
        path = f"{origin}:expect[{idx}].value" + (f".{key}" if key else "")
        raise _ctx(path, exc) from None
    raise ScenarioError(
        f"{origin}:expect[{idx}].value: expected a rational string, a bool, an int, "
        "a list, or an object with decimal and tol, max or min"
    )


def _span(spec, path: str) -> tuple[Fraction, Fraction]:
    """A two-entry [lo, hi] pair of rationals."""
    lo, hi = _typed(spec, list, path, 2)
    return _rational(lo, f"{path}[0]"), _rational(hi, f"{path}[1]")


def _known_curve(lattice: CurveLattice, name, path: str) -> None:
    """Reject a curve name the lattice does not declare, at load time."""
    try:
        lattice.index(name)
    except LatticeError as exc:
        raise _ctx(path, exc) from None


def _affine(spec, path: str) -> AffineForm:
    try:
        parts = [rat(x) for x in spec]
    except Exception as exc:
        raise _ctx(path, exc) from None
    if len(parts) == 2:
        return AffineForm(parts[0], parts[1], 0)
    if len(parts) == 3:
        return AffineForm(parts[0], parts[1], parts[2])
    raise ScenarioError(f"{path}: affine form needs 2 or 3 entries")


def _poly(spec, path: str) -> Polynomial2:
    try:
        return poly_from_terms((int(du), int(dv), rat(c)) for du, dv, c in spec)
    except Exception as exc:
        raise _ctx(path, exc) from None


@dataclass(frozen=True)
class FlagSpec:
    family: str
    data: FlagData


@dataclass
class Scenario:
    id: str
    lemma: str
    V: Fraction
    lattice: CurveLattice
    threefold: ThreefoldSpec | None
    families: dict[str, SurfaceFamily]
    flags: dict[str, FlagSpec]
    expectations: list[dict]
    notes: str = ""


@dataclass(frozen=True)
class ThreefoldSpec:
    basis: tuple[str, ...]
    triple: dict[tuple[int, int, int], Fraction]
    families: dict[str, tuple[ThreefoldInterval, ...]]

    def family_data(self, name: str, volume: Fraction) -> ThreefoldFamilyData:
        if name not in self.families:
            raise ScenarioError(f"unknown threefold family {name!r}")
        return ThreefoldFamilyData(self.basis, self.triple, volume, self.families[name])

    def interval_for(self, name: str, lo: Fraction, hi: Fraction) -> ThreefoldInterval:
        for interval in self.families[name]:
            if interval.u_lo <= lo and hi <= interval.u_hi:
                return interval
        raise ScenarioError(f"no interval of {name!r} spans [{lo}, {hi}]")


def scenario_from_dict(raw: dict, origin: str = "<memory>") -> Scenario:
    top = f"{origin}:"
    _typed(raw, dict, origin)
    sid = _field(raw, "id", top)
    volume = _rational(_field(raw, "V", top), f"{origin}:V")
    if volume <= 0:
        raise ScenarioError(f"{origin}:V: anticanonical volume must be positive")
    curves = _field(raw, "curves", top, list)
    gram = _field(raw, "gram", top)
    try:
        lattice = CurveLattice(curves, [[parse_rational(x) for x in row] for row in gram])
    except Exception as exc:
        raise _ctx(f"{origin}:gram", exc) from None

    threefold = None
    tf = _field(raw, "threefold", top, dict, None)
    if tf:
        tf_path = f"{origin}:threefold"
        basis = tuple(_field(tf, "basis", tf_path, list))
        triple = {}
        for idx, entry in enumerate(_field(tf, "triple", tf_path, list)):
            path = f"{tf_path}.triple[{idx}]"
            i, j, k, value = _typed(entry, list, path, 4)
            try:
                key = tuple(sorted((int(i), int(j), int(k))))
            except (ValueError, TypeError) as exc:
                raise _ctx(path, exc) from None
            triple[key] = _rational(value, path)
        families = {}
        for name, spec in _field(tf, "families", tf_path, dict, {}).items():
            intervals = []
            for idx, piece in enumerate(_field(spec, "intervals", f"{tf_path}.{name}", list)):
                path = f"{tf_path}.{name}[{idx}]"
                lo, hi = _span(_field(piece, "u", path), f"{path}.u")
                p = tuple(_affine(c, path) for c in _field(piece, "P", path, list))
                n = tuple(_affine(c, path) for c in _field(piece, "N", path, list))
                intervals.append(ThreefoldInterval(lo, hi, p, n))
            families[name] = tuple(intervals)
        threefold = ThreefoldSpec(basis, triple, families)

    families: dict[str, SurfaceFamily] = {}
    for name, spec in _field(raw, "families", top, dict, {}).items():
        fam_path = f"{origin}:families.{name}"
        pieces = []
        for idx, piece in enumerate(_field(spec, "pieces", fam_path, list)):
            path = f"{fam_path}[{idx}]"
            lo, hi = _span(_field(piece, "u", path), f"{path}.u")
            coeffs = tuple(_affine(c, path) for c in _field(piece, "coeffs", path, list))
            if len(coeffs) != lattice.rank:
                raise ScenarioError(f"{path}: expected {lattice.rank} coefficients")
            pieces.append(SurfacePiece(lo, hi, ParametricDivisor(coeffs)))
        declared = _field(spec, "threshold", fam_path, list, None)
        if declared is not None:
            entries = []
            for idx, entry in enumerate(declared):
                path = f"{fam_path}.threshold[{idx}]"
                lo, hi, form = _typed(entry, list, path, 3)
                entries.append((_rational(lo, path), _rational(hi, path), _affine(form, path)))
            declared = tuple(entries)
        families[name] = SurfaceFamily(name, tuple(pieces), declared)

    flags: dict[str, FlagSpec] = {}
    for name, spec in _field(raw, "flags", top, dict, {}).items():
        path = f"{origin}:flags.{name}"
        mults = {
            k: _rational(v, f"{path}.mults.{k}")
            for k, v in _field(spec, "mults", path, dict, {}).items()
        }
        center = _field(spec, "center", path)
        _known_curve(lattice, center, f"{path}.center")
        for curve in mults:
            _known_curve(lattice, curve, f"{path}.mults.{curve}")
        ords = []
        for idx, p in enumerate(_field(spec, "threefold_ord", path, list, [])):
            ord_path = f"{path}.threefold_ord[{idx}]"
            lo, hi = _span(_field(p, "u", ord_path), f"{ord_path}.u")
            ords.append((lo, hi, _affine(_field(p, "form", ord_path), ord_path)))
        data = FlagData(
            center=center,
            point_multiplicities=mults,
            weight=_rational(spec.get("A", "1"), f"{path}.A"),
            different={
                k: _rational(v, f"{path}.different.{k}")
                for k, v in _field(spec, "different", path, dict, {}).items()
            },
            threefold_ord=tuple(ords),
        )
        family = _field(spec, "family", path, str, None)
        if family is not None and family not in families:
            raise ScenarioError(f"{path}: unknown family {family!r}")
        flags[name] = FlagSpec(family, data)

    expectations = _field(raw, "expect", top, list, [])
    for idx, entry in enumerate(expectations):
        if not isinstance(entry, dict) or "op" not in entry or "value" not in entry:
            raise ScenarioError(f"{origin}:expect[{idx}]: needs an object with op and value")
        _field(entry, "args", f"{origin}:expect[{idx}]", dict, {})
        _check_value(entry["value"], origin, idx)
    return Scenario(
        id=sid,
        lemma=raw.get("lemma", ""),
        V=volume,
        lattice=lattice,
        threefold=threefold,
        families=families,
        flags=flags,
        expectations=expectations,
        notes=raw.get("notes", ""),
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return scenario_from_dict(raw, origin=str(path))


def corpus_dir() -> Path:
    return Path(__file__).parent / "corpus"


def corpus_paths() -> list[Path]:
    return sorted(corpus_dir().glob("*.json"))


def load_corpus() -> list[Scenario]:
    return [load_scenario(p) for p in corpus_paths()]


# -- evaluation --------------------------------------------------------------


class _Args(dict):
    """The arguments of one expectation; a missing one is a ScenarioError
    that names it."""

    def __missing__(self, key):
        raise ScenarioError(f"missing argument {key!r}")


def _int_arg(args: dict, key: str, minimum: int | None = None, default: int | None = None) -> int:
    """``args[key]`` as a JSON integer (not a bool), at least ``minimum``."""
    value = args[key] if default is None else args.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"argument {key!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"argument {key!r} must be >= {minimum}, got {value}")
    return value


def _bool_arg(args: dict, key: str) -> bool:
    value = args[key]
    if not isinstance(value, bool):
        raise ScenarioError(f"argument {key!r} must be a boolean, got {value!r}")
    return value


def _list_arg(args: dict, key: str, what: str, entry_ok) -> list:
    """``args[key]`` as a JSON list whose every entry passes ``entry_ok``."""
    value = args[key]
    if not isinstance(value, list) or not all(entry_ok(x) for x in value):
        raise ScenarioError(f"argument {key!r} must be a list of {what}, got {value!r}")
    return value


def _is_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2


class ScenarioRuntime:
    """Evaluates expectation operations against one scenario, with caching."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self._decompositions: dict[str, FamilyDecomposition] = {}
        self._bands: dict[tuple[int, int], object] = {}  # (n, i) -> series.BandResult

    def family_decomposition(self, name: str) -> FamilyDecomposition:
        if name not in self._decompositions:
            family = self.scenario.families.get(name)
            if family is None:
                raise ScenarioError(f"unknown family {name!r}")
            self._decompositions[name] = decompose_family(self.scenario.lattice, family)
        return self._decompositions[name]

    def band(self, n: int, i: int):
        """series.compute_band(n, i), computed once per runtime; the band
        source of every series op."""
        if (n, i) not in self._bands:
            from . import series

            self._bands[(n, i)] = series.compute_band(n, i)
        return self._bands[(n, i)]

    def _divisor(self, spec) -> DivisorClass:
        if isinstance(spec, str):
            coeffs = [Fraction(0)] * self.scenario.lattice.rank
            coeffs[self.scenario.lattice.index(spec)] = Fraction(1)
            return DivisorClass(tuple(coeffs))
        return DivisorClass.of([rat(x) for x in spec])

    def _flag(self, name: str) -> tuple[FamilyDecomposition, FlagData]:
        spec = self.scenario.flags.get(name)
        if spec is None:
            raise ScenarioError(f"unknown flag {name!r}")
        return self.family_decomposition(spec.family), spec.data

    def _ord_pieces(self, spec) -> list[tuple[Fraction, Fraction, Polynomial2]]:
        """First-summand integrand pieces for s_curve: (P(u)^2 . face) * ord."""
        threefold = self.scenario.threefold
        if threefold is None:
            raise ScenarioError("ord pieces need threefold data")
        face = threefold.basis.index(spec["face"])
        name = spec["threefold_family"]
        out = []
        for piece in spec["pieces"]:
            lo, hi = (rat(x) for x in piece["u"])
            ord_form = _affine(piece["ord"], "ord")
            interval = threefold.interval_for(name, lo, hi)
            data = threefold.family_data(name, self.scenario.V)
            integrand = data.square_against(interval.p, face) * ord_form
            out.append((lo, hi, integrand))
        return out

    def evaluate(self, op: str, args: dict):
        args = _Args(args)
        scenario = self.scenario
        lat = scenario.lattice
        if op == "pair":
            return pair(lat, self._divisor(args["a"]), self._divisor(args["b"]))
        if op == "s_threefold":
            if scenario.threefold is None:
                raise ScenarioError("scenario has no threefold data")
            data = scenario.threefold.family_data(args["family"], scenario.V)
            return s_threefold(data)
        if op == "s_curve":
            famdec = self.family_decomposition(args["family"])
            ord_pieces = self._ord_pieces(args["ord"]) if "ord" in args else ()
            return s_curve(scenario.V, famdec, ord_pieces)
        if op == "s_curve_sum":
            total = Fraction(0)
            for name in args["families"]:
                total += s_curve(scenario.V, self.family_decomposition(name))
            return total
        if op == "s_point":
            famdec, flag = self._flag(args["flag"])
            return s_point(scenario.V, famdec, flag)
        if op == "point_base":
            famdec, flag = self._flag(args["flag"])
            return _point_base(scenario.V, famdec, flag)
        if op == "f_term":
            famdec, flag = self._flag(args["flag"])
            return f_term(scenario.V, famdec, flag)
        if op == "threshold":
            famdec = self.family_decomposition(args["family"])
            return [
                [format_rational(lo), format_rational(hi),
                 [format_rational(f.c), format_rational(f.cu)]]
                for lo, hi, f in famdec.thresholds
            ]
        if op == "chamber_count":
            famdec = self.family_decomposition(args["family"])
            return sum(len(dec.chambers) for dec in famdec.parts)
        if op == "chamber_supports":
            famdec = self.family_decomposition(args["family"])
            supports = []
            for dec in famdec.parts:
                for chamber in dec.chambers:
                    names = [lat.names[i] for i in chamber.support]
                    if names not in supports:
                        supports.append(names)
            return sorted(supports)
        if op == "chamber_pairing":
            famdec = self.family_decomposition(args["family"])
            chambers = list(famdec.chambers())
            k = _int_arg(args, "chamber", minimum=0)
            if k >= len(chambers):
                raise ScenarioError(
                    f"argument 'chamber' must be below the {len(chambers)} chambers "
                    f"of family {args['family']!r}, got {k}"
                )
            chamber = chambers[k]
            form = chamber.p_pairings[lat.index(args["curve"])]
            return [format_rational(form.c), format_rational(form.cu), format_rational(form.cv)]
        if op == "oracle":
            famdec = self.family_decomposition(args["family"])
            samples = _int_arg(args, "samples", minimum=1, default=20)
            seed = _int_arg(args, "seed", default=7)
            for dec in famdec.parts:
                report = oracle_check(lat, dec.divisor, dec, samples, seed=seed)
                if not report.passed:
                    return False
            return True
        if op == "continuity":
            famdec = self.family_decomposition(args["family"])
            for dec in famdec.parts:
                dec.validate_continuity()
            return True
        if op == "beta":
            return beta(rat(args["A"]), rat(args["S"]))
        if op == "beta_lower_bound":
            pieces = [
                (rat(p["u"][0]), rat(p["u"][1]), _poly(p["poly"], "beta piece"))
                for p in _list_arg(
                    args, "pieces", '{"u": [lo, hi], "poly": terms} objects',
                    lambda p: isinstance(p, dict) and _is_pair(p.get("u")) and "poly" in p,
                )
            ]
            return beta_lower_bound(scenario.V, rat(args["A"]), pieces)
        if op == "delta_min":
            terms = _list_arg(args, "terms", "[numerator, denominator] pairs", _is_pair)
            return delta_min_combinator([(rat(n), rat(d)) for n, d in terms])
        if op == "fiber_delta_bound":
            return fiber_delta_bound(
                _int_arg(args, "d"), rat(args["delta"]), _bool_arg(args, "on_E")
            )
        if op == "quartic_fiber_bound":
            return quartic_fiber_bound(rat(args["delta"]), _bool_arg(args, "singular"))
        if op == "series_term":
            from .series import series_term

            n, i = _int_arg(args, "n"), _int_arg(args, "i")
            return series_term(n, i, args["kind"], self.band)
        if op == "series_threshold":
            form = self.band(_int_arg(args, "n"), _int_arg(args, "i")).threshold
            return [format_rational(form.c), format_rational(form.cu)]
        if op == "series_partial":
            from .series import series_sum

            kind = args["kind"]
            if kind not in ("S", "F"):
                raise ValueError(f"unknown series partial kind {kind!r}")
            report = series_sum(_int_arg(args, "n_max"), self.band)
            return report.s_partial if kind == "S" else report.f_partial
        raise ScenarioError(f"unknown quantity op {op!r}")


def _value_matches(expected, computed) -> bool:
    """Whether a computed result meets an expectation value that passed
    ``_check_value``."""
    if isinstance(expected, dict):
        if not isinstance(computed, Fraction):
            return False
        bound = {key: _bound(key, text) for key, text in expected.items()}
        if "decimal" in bound:
            return abs(computed - bound["decimal"]) <= bound["tol"]
        if "max" in bound:
            return computed <= bound["max"]
        return computed >= bound["min"]
    if isinstance(computed, Fraction):
        return (
            isinstance(expected, str)
            and expected not in QUARTIC_VERDICTS
            and parse_rational(expected) == computed
        )
    if isinstance(computed, bool):
        return expected is computed
    if isinstance(computed, int):
        return expected == computed
    return expected == computed  # structured lists compare directly


def _render(value):
    if isinstance(value, Fraction):
        return {"rational": format_rational(value), "decimal": format_decimal(value)}
    return value


@dataclass
class ExpectationRow:
    op: str
    args: dict
    expected: object
    computed: object
    status: str  # match | mismatch | error
    detail: str = ""


@dataclass
class ScenarioReport:
    scenario_id: str
    lemma: str
    rows: list[ExpectationRow]
    seconds: float
    engine_version: str = __version__

    @property
    def ok(self) -> bool:
        return all(row.status == "match" for row in self.rows)

    @property
    def errored(self) -> bool:
        return any(row.status == "error" for row in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario_id,
            "lemma": self.lemma,
            "engine_version": self.engine_version,
            "seconds": round(self.seconds, 3),
            "ok": self.ok,
            "rows": [
                {
                    "op": row.op,
                    "args": row.args,
                    "expected": row.expected,
                    "computed": _render(row.computed),
                    "status": row.status,
                    **({"detail": row.detail} if row.detail else {}),
                }
                for row in self.rows
            ],
        }


def run_expectations(scenario: Scenario) -> ScenarioReport:
    runtime = ScenarioRuntime(scenario)
    rows = []
    started = time.perf_counter()
    for entry in scenario.expectations:
        op = entry["op"]
        args = entry.get("args", {})
        expected = entry["value"]
        try:
            computed = runtime.evaluate(op, args)
        except Exception as exc:  # evaluation error: report, keep going
            rows.append(ExpectationRow(op, args, expected, None, "error", str(exc)))
            continue
        status = "match" if _value_matches(expected, computed) else "mismatch"
        rows.append(ExpectationRow(op, args, expected, computed, status))
    return ScenarioReport(scenario.id, scenario.lemma, rows, time.perf_counter() - started)
