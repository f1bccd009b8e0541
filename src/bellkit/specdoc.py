"""Functional and setup documents: the CLI's input and output contracts.

A functional document is a JSON object with a scenario, a form tag, an
optional finite "bound", and exactly one coefficient route:

  construction: {"basis": "fourier"|"k2-conjugate", "pairing": ..., "g": nested ints}
  coefficients: nested [re, im] over settings tuples
  terms:        [{"settings": [...], "mask": [...], "weight": [re, im]}, ...]

The construction and coefficients routes take an optional top-level "mask";
a terms document refuses one, since each term carries its own.  Every
route yields one BellFunctional.  The terms route keeps its terms in
the order listed; it has a dense coefficient tensor and a mask only when every
term carries the same mask.  Any malformed document raises SpecParseError.
functional_document writes a functional's terms document, which parses back
to an equal functional.

A setup document carries amplitudes as [re, im] pairs in canonical mode order
(party 0 slowest) and phases as nested [party][setting][port] arrays.

Every number in a document is a finite JSON number: strings such as "3" and
the literals true and false are refused.  A complex number is a number or an
[re, im] pair of numbers.

The serialize_* functions return JSON-ready values unrounded.  The CLI
rounds each result document once with round_floats, to 12 significant digits
with complex values as [re, im], and encodes it once with canonical_json, so
identical results produce byte-identical documents.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, fields, replace
from typing import Any

import numpy as np

from .core import Scenario, as_mask
from .bases import (
    BellFunctional,
    FunctionalForm,
    GTable,
    Pairing,
    build_functional,
    fourier_party_basis,
    k2_conjugate_basis,
)
from .lhv import ClassicalBoundResult, FacetReport, _strategies
from .multiport import QuantumSetup
from .optimize import OptResult, ScanRow

__all__ = [
    "SpecParseError",
    "functional_document",
    "parse_functional_document",
    "parse_setup_document",
    "round_floats",
    "canonical_json",
    "document_digest",
    "serialize_setup",
    "serialize_strategy",
    "serialize_bound_result",
    "serialize_facet_report",
    "serialize_opt_result",
    "serialize_scan_rows",
    "scan_rows_csv",
]

ROUNDING = ".12g"  # the format of every float in a result document: 12 significant digits
MAX_STRATEGIES = 256  # saturating strategies listed in a bound document


class SpecParseError(ValueError):
    """A malformed document; the message carries the offending location."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


def _need(doc: dict, key: str, location: str):
    if key not in doc:
        raise SpecParseError(f"{location}.{key}", "missing required field")
    return doc[key]


def _parse_int(value: Any, location: str) -> int:
    # int() would truncate 2.7 and read true as 1
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecParseError(location, f"expected an integer, got {value!r}")
    return value


def _parse_int_list(value: Any, location: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise SpecParseError(location, f"expected a list of integers, got {value!r}")
    return tuple(_parse_int(v, location) for v in value)


def _parse_scenario(doc: Any, location: str) -> Scenario:
    if not isinstance(doc, dict):
        raise SpecParseError(location, "scenario must be an object")
    counts = [_parse_int(_need(doc, key, location), f"{location}.{key}")
              for key in ("parties", "settings", "outcomes")]
    try:
        return Scenario(*counts)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecParseError(location, str(exc)) from exc


def _parse_real(value: Any, location: str) -> float:
    # float() would read "3" and true as numbers
    number = math.nan
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    if not math.isfinite(number):
        raise SpecParseError(location, f"expected a finite number, got {value!r}")
    return number


def _parse_complex(value: Any, location: str) -> complex:
    if not isinstance(value, list):
        return complex(_parse_real(value, location))
    if len(value) != 2:
        raise SpecParseError(location, f"expected a number or [re, im] pair, got {value!r}")
    return complex(_parse_real(value[0], location), _parse_real(value[1], location))


def _parse_choice(kind, value: Any, location: str):
    try:
        return kind(value)  # an enum such as FunctionalForm or Pairing
    except ValueError as exc:
        options = ", ".join(member.value for member in kind)
        raise SpecParseError(location, f"must be one of {options}") from exc


def _nested_to_array(data: Any, shape: tuple[int, ...], location: str, parse_leaf, dtype):
    # the leaves are collected first, so a malformed document allocates nothing large
    leaves = []
    def fill(node, depth, loc):
        if depth == len(shape):
            leaves.append(parse_leaf(node, loc))
            return
        if not isinstance(node, list) or len(node) != shape[depth]:
            raise SpecParseError(loc, f"expected a list of length {shape[depth]}")
        for i, child in enumerate(node):
            fill(child, depth + 1, f"{loc}[{i}]")
    fill(data, 0, location)
    try:
        return np.array(leaves, dtype=dtype).reshape(shape)
    except ValueError as exc:  # more axes than numpy supports
        raise SpecParseError(location, str(exc)) from exc


def parse_functional_document(doc: dict, location: str = "spec") -> BellFunctional:
    """Build the BellFunctional a parsed JSON object describes."""
    if not isinstance(doc, dict):
        raise SpecParseError(location, "document must be a JSON object")
    scenario = _parse_scenario(_need(doc, "scenario", location), f"{location}.scenario")
    form = _parse_choice(FunctionalForm, _need(doc, "form", location), f"{location}.form")
    routes = [key for key in ("construction", "coefficients", "terms") if key in doc]
    if len(routes) != 1:
        raise SpecParseError(
            location, "exactly one of construction/coefficients/terms is required"
        )
    bound = doc.get("bound")
    if bound is not None:
        bound = _parse_real(bound, f"{location}.bound")

    if routes[0] == "terms":
        if doc.get("mask") is not None:
            raise SpecParseError(f"{location}.mask",
                                 "a terms document gives each term its own mask")
        loc = f"{location}.terms"
        raw = doc["terms"]
        if not isinstance(raw, list) or not raw:
            raise SpecParseError(loc, "terms must be a nonempty list")
        parsed = []
        for i, item in enumerate(raw):
            tloc = f"{loc}[{i}]"
            if not isinstance(item, dict):
                raise SpecParseError(tloc, "term must be an object")
            parsed.append((
                _parse_int_list(_need(item, "settings", tloc), f"{tloc}.settings"),
                _parse_int_list(_need(item, "mask", tloc), f"{tloc}.mask"),
                _parse_complex(_need(item, "weight", tloc), f"{tloc}.weight"),
            ))
        try:
            return BellFunctional(scenario, parsed, form, bound)
        except ValueError as exc:
            raise SpecParseError(loc, str(exc)) from exc

    mask = doc.get("mask")
    if mask is not None:
        mask = _parse_int_list(mask, f"{location}.mask")
        try:
            mask = as_mask(scenario, mask)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SpecParseError(f"{location}.mask", str(exc)) from exc

    if routes[0] == "coefficients":
        loc = f"{location}.coefficients"
        coeff = _nested_to_array(doc["coefficients"], scenario.settings_shape(), loc,
                                 _parse_complex, complex)
        try:
            return BellFunctional.from_coefficients(scenario, coeff, form, mask, bound)
        except ValueError as exc:
            raise SpecParseError(loc, str(exc)) from exc

    loc = f"{location}.construction"
    spec = doc["construction"]
    if not isinstance(spec, dict):
        raise SpecParseError(loc, "construction must be an object")
    basis_name = _need(spec, "basis", loc)
    pairing = _parse_choice(Pairing, spec.get("pairing", "bilinear"), f"{loc}.pairing")
    g = GTable(scenario, _nested_to_array(
        _need(spec, "g", loc), scenario.settings_shape(), f"{loc}.g",
        lambda v, l: _parse_int_exponent(v, l, scenario.outcomes), np.int64))
    if basis_name == "fourier":
        if scenario.settings != scenario.outcomes:
            raise SpecParseError(
                f"{loc}.basis", "the fourier basis needs settings = outcomes"
            )
        basis = fourier_party_basis(scenario.outcomes)
    elif basis_name == "k2-conjugate":
        if scenario.settings != 2 or scenario.outcomes < 3:
            raise SpecParseError(
                f"{loc}.basis", "the k2-conjugate basis needs settings = 2 and outcomes >= 3"
            )
        basis = k2_conjugate_basis(scenario.outcomes)
    else:
        raise SpecParseError(f"{loc}.basis", f"unknown basis {basis_name!r}")
    try:
        functional = build_functional(scenario, basis, g, form, pairing, mask)
    except ValueError as exc:
        raise SpecParseError(loc, str(exc)) from exc
    return functional if bound is None else replace(functional, cached_bound=bound)


def functional_document(functional: BellFunctional) -> dict:
    """The terms document of a functional, unrounded: it parses back to an equal one."""
    doc = {
        "scenario": asdict(functional.scenario),
        "form": functional.form.value,
        "terms": [{"settings": list(x), "mask": list(r), "weight": [w.real, w.imag]}
                  for x, r, w in functional.term_list],
    }
    if functional.cached_bound is not None:
        doc["bound"] = functional.cached_bound
    return doc


def _parse_int_exponent(value: Any, location: str, outcomes: int) -> int:
    if not 0 <= _parse_int(value, location) < outcomes:
        raise SpecParseError(location, f"g entry {value} outside [0, {outcomes})")
    return value


def parse_setup_document(doc: dict, location: str = "setup") -> QuantumSetup:
    """Build a QuantumSetup from a parsed JSON object."""
    if not isinstance(doc, dict):
        raise SpecParseError(location, "document must be a JSON object")
    scenario = _parse_scenario(_need(doc, "scenario", location), f"{location}.scenario")
    n, k, d = scenario.parties, scenario.settings, scenario.outcomes
    raw_amps = _need(doc, "amplitudes", location)
    # d**n >= 2**n, so the length test needs no big power for oversized n
    if (not isinstance(raw_amps, list) or n > len(raw_amps).bit_length()
            or len(raw_amps) != d**n):
        raise SpecParseError(
            f"{location}.amplitudes", f"expected d**N = {d}**{n} amplitudes in canonical order"
        )
    amps = np.array(
        [_parse_complex(v, f"{location}.amplitudes[{i}]") for i, v in enumerate(raw_amps)]
    ).reshape((d,) * n)
    loc = f"{location}.phases"
    try:
        phases = _nested_to_array(_need(doc, "phases", location), (n, k, d), loc, _parse_real,
                                  float)
    except SpecParseError as exc:
        # one location for the whole array; the message names the entry
        raise SpecParseError(loc, f"expected shape {(n, k, d)} of finite numbers; {exc}") from exc
    try:
        return QuantumSetup.normalized(scenario, amps, phases)
    except ValueError as exc:
        raise SpecParseError(location, str(exc)) from exc


# -- result serialization ----------------------------------------------------

def round_floats(value):
    """A copy of a JSON-ready structure: floats to 12 significant digits, complex to [re, im]."""
    # the commonest leaves are tested first
    if isinstance(value, float):  # numpy's float64 too
        return float(format(value, ROUNDING))
    if isinstance(value, (int, str)) or value is None:  # bool is an int
        return value
    if isinstance(value, dict):
        return {k: round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_floats(v) for v in value]
    if isinstance(value, complex):
        return [round_floats(value.real), round_floats(value.imag)]
    if isinstance(value, (np.number, np.ndarray)):  # numpy scalars and arrays
        return round_floats(value.tolist())
    raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_json(doc) -> str:
    """Compact key-sorted JSON of doc exactly as given; round it first with round_floats."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def document_digest(doc) -> str:
    """SHA-256 of canonical_json(round_floats(doc)).

    round_floats is idempotent, so the digest of a rounded document is the
    digest of the document it was rounded from.
    """
    return hashlib.sha256(canonical_json(round_floats(doc)).encode()).hexdigest()


def serialize_setup(setup: QuantumSetup) -> dict:
    return {
        "scenario": asdict(setup.scenario),
        "amplitudes": [[v.real, v.imag] for v in setup.amplitudes.ravel().tolist()],
        "phases": setup.phases.tolist(),
    }


def serialize_strategy(strategy) -> list[list[int]]:
    return strategy.assignments.tolist()


def serialize_bound_result(result: ClassicalBoundResult) -> dict:
    count = len(result.saturating)
    listed = _strategies(result.scenario, result.saturating[:MAX_STRATEGIES])
    doc = {
        "bound": result.bound,
        "strategies_examined": result.examined,
        "saturating_count": count,
        "witness": serialize_strategy(result.witness),
        "saturating": [serialize_strategy(s) for s in listed],
    }
    if count > MAX_STRATEGIES:
        doc["saturating_truncated"] = True
    return doc


def serialize_facet_report(report: FacetReport) -> dict:
    return asdict(report)


def serialize_opt_result(result: OptResult) -> dict:
    return {
        "quantum_value": result.quantum_value,
        "classical_bound": result.classical_bound,
        "ratio": result.ratio,
        "ratio_defined": result.ratio is not None,
        "setup": serialize_setup(result.setup),
        "restart_index": result.restart_index,
        "iterations": result.iterations,
        "restart_values": list(result.restart_values),
        "restart_iterations": list(result.restart_iterations),
    }


SCAN_COLUMNS = [field.name for field in fields(ScanRow)]


def serialize_scan_rows(rows: list[ScanRow]) -> list[dict]:
    return [asdict(row) for row in rows]


def scan_rows_csv(rows: list[dict]) -> str:
    """CSV text of rounded serialize_scan_rows output; an empty cell is None."""
    lines = [",".join(SCAN_COLUMNS)]
    for row in rows:
        lines.append(",".join("" if row[c] is None else str(row[c]) for c in SCAN_COLUMNS))
    return "\n".join(lines) + "\n"
