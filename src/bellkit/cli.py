"""Command-line front end: bound, optimize, table, facet, and ww subcommands.

Result documents are one line of canonical JSON on standard output (CSV
where requested); logs and diagnostics go to standard error.  Exit codes: 0
success, 2 parse or usage error, 3 enumeration budget exceeded, 4 unsupported
functional form.  Every run emits a manifest (inputs, seed, configuration,
result digest) from which it can be replayed; replays produce byte-identical
result documents.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .core import Scenario, contract_parties
from .bases import WALSH_PROBE
from .lhv import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    UnsupportedFormError,
    classical_bound,
    facet_check,
)
from .optimize import (
    BETA_CUTOFF,
    ConfigError,
    OptimizationConfig,
    _resolve_bound,
    maximize_restricted_ghz,
    maximize_violation,
    maximize_with_fixed_state,
    quantum_functional_value,
    scan_product_g,
)
from .presets import PRESETS, preset_names
from .specdoc import (
    SpecParseError,
    canonical_json,
    document_digest,
    parse_functional_document,
    parse_setup_document,
    round_floats,
    scan_rows_csv,
    serialize_bound_result,
    serialize_facet_report,
    serialize_opt_result,
    serialize_scan_rows,
    serialize_setup,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_FORM = 4

TABLE_SCENARIOS: list[tuple[int, int, int]] = (
    [(2, 2, d) for d in range(2, 15)]
    + [(3, 2, d) for d in range(2, 6)]
    + [(4, 2, d) for d in range(2, 5)]
    + [(5, 2, d) for d in range(2, 4)]
)


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to replay a run and check its output."""

    command: list[str]
    inputs: dict
    seed: int | None
    config: dict
    wall_clock_s: float
    version: str
    result_digest: str


def _log(message: str):
    print(message, file=sys.stderr)


def _read_document(path: str, location: str):
    """The JSON document in a file; main reports a JSONDecodeError."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecParseError(location, f"cannot read {path!r}: {exc}") from exc


def _load_spec(value: str):
    path = Path(value)
    if path.is_file():
        doc = _read_document(value, "spec")
        source = str(path)
    elif value in PRESETS:
        doc = PRESETS[value]
        source = f"preset:{value}"
    else:
        raise SpecParseError(
            "spec", f"{value!r} is neither a file nor a preset ({', '.join(preset_names())})"
        )
    functional = parse_functional_document(doc, source)
    return functional, {"source": source, "digest": document_digest(doc)}


def _emit(result, command: list[str], inputs: dict, seed, config: dict, started: float,
          csv=None) -> int:
    """Round and encode the result once; result_digest is the SHA-256 of that text.

    Prints the canonical document {"manifest":...,"result":...} as one line,
    or csv(rounded result), with the manifest line logged to stderr.
    """
    rounded = round_floats(result)
    text = canonical_json(rounded)
    manifest = RunManifest(
        command=command,
        inputs=inputs,
        seed=seed,
        config=config,
        wall_clock_s=time.time() - started,
        version=__version__,
        result_digest=hashlib.sha256(text.encode()).hexdigest(),
    )
    head = '{"manifest":' + canonical_json(round_floats(asdict(manifest)))
    if csv is not None:
        sys.stdout.write(csv(rounded))
        _log(head + "}")
    else:
        print(head + ',"result":' + text + "}")  # "manifest" < "result": still canonical
    return EXIT_OK


def _config_from_args(args) -> OptimizationConfig:
    """The search config of the optimizer flags; a bad value names its flag."""
    try:
        return OptimizationConfig(restarts=args.restarts, seed=args.seed)
    except ConfigError as exc:
        raise SpecParseError(f"--{exc.field}", str(exc)) from exc


def cmd_bound(args, argv) -> int:
    started = time.time()
    functional, spec_info = _load_spec(args.spec)
    result = classical_bound(functional, budget=args.budget)
    doc = serialize_bound_result(result)
    doc["form"] = functional.form.value
    return _emit(doc, argv, {"spec": spec_info}, None,
                 {"budget": args.budget}, started)


def cmd_optimize(args, argv) -> int:
    started = time.time()
    if args.ghz_family and args.setup is not None:
        raise SpecParseError("--ghz-family", "cannot be combined with --setup")
    if args.optimize_phases and args.setup is None:
        raise SpecParseError("--optimize-phases", "needs --setup")
    functional, spec_info = _load_spec(args.spec)
    config = _config_from_args(args)
    inputs = {"spec": spec_info}
    bound = _resolve_bound(functional, args.budget)

    if args.setup is not None:
        setup_doc = _read_document(args.setup, "--setup")
        setup = parse_setup_document(setup_doc, args.setup)
        inputs["setup"] = {"source": args.setup, "digest": document_digest(setup_doc)}
        if setup.scenario != functional.scenario:
            raise SpecParseError("setup.scenario", "setup and functional scenarios differ")
        if args.optimize_phases:
            result = maximize_with_fixed_state(
                functional, setup.amplitudes, config, beta=bound
            )
        else:
            value = quantum_functional_value(functional, setup, path="born")
            doc = {
                "quantum_value": value,
                "classical_bound": bound,
                "ratio": value / bound if abs(bound) > BETA_CUTOFF else None,
                "ratio_defined": abs(bound) > BETA_CUTOFF,
                "setup": serialize_setup(setup),
                "form": functional.form.value,
                "evaluated_only": True,
            }
            return _emit(doc, argv, inputs, args.seed,
                         {"budget": args.budget}, started)
    elif args.ghz_family:
        scenario = functional.scenario
        if scenario.parties != 3 or scenario.outcomes != 3:
            raise SpecParseError(
                "spec.scenario", "--ghz-family needs a three-party, three-outcome functional"
            )
        result = maximize_restricted_ghz(functional, config, beta=bound)
    else:
        result = maximize_violation(functional, config, beta=bound)
    doc = serialize_opt_result(result)
    doc["form"] = functional.form.value
    doc["ghz_family"] = bool(args.ghz_family)
    if result.ratio is None:
        doc["ratio_note"] = "classical bound is numerically zero; the ratio is undefined"
    return _emit(doc, argv, inputs, args.seed,
                 {"restarts": args.restarts, "budget": args.budget}, started)


def _parse_scenarios(text: str) -> list[tuple[int, int, int]]:
    if text is None:
        return TABLE_SCENARIOS
    entries = [chunk for chunk in text.replace(" ", "").split(";") if chunk]
    if not entries:
        raise SpecParseError("scenarios", f"expected at least one N,k,d triple, got {text!r}")
    out = []
    for i, chunk in enumerate(entries):
        parts = chunk.split(",")
        if len(parts) != 3:
            raise SpecParseError(f"scenarios[{i}]", f"expected N,k,d, got {chunk!r}")
        # int() would also read "1_0" as 10 and "٣" as 3
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise SpecParseError(f"scenarios[{i}]", f"expected N,k,d in ASCII digits, got {chunk!r}")
        triple = tuple(int(v) for v in parts)
        try:
            Scenario(*triple)
        except ValueError as exc:
            raise SpecParseError(f"scenarios[{i}]", str(exc)) from exc
        out.append(triple)
    return out


def cmd_table(args, argv) -> int:
    started = time.time()
    scenarios = _parse_scenarios(args.scenarios)
    config = _config_from_args(args)
    rows = scan_product_g(scenarios, config, budget=args.budget)
    csv = (lambda doc: scan_rows_csv(doc["rows"])) if args.format == "csv" else None
    return _emit({"rows": serialize_scan_rows(rows)}, argv,
                 {"scenarios": [list(s) for s in scenarios]}, args.seed,
                 {"restarts": args.restarts, "budget": args.budget}, started, csv=csv)


def cmd_facet(args, argv) -> int:
    started = time.time()
    functional, spec_info = _load_spec(args.spec)
    report = facet_check(functional, budget=args.budget)
    doc = serialize_facet_report(report)
    return _emit(doc, argv, {"spec": spec_info}, None, {"budget": args.budget}, started)


def _ww_rows(parties: int) -> list[dict]:
    """All sign choices f on {0,1}^N with their normalized coefficient families."""
    n = parties
    count = 2 ** 2**n
    # row i: the binary digits of i, first column most significant, as signs
    signs = 1.0 - 2.0 * (np.arange(count)[:, None] >> np.arange(2**n)[::-1] & 1)
    # row i is ww_coefficients of row i's signs, flattened: one expansion of all rows
    q = contract_parties(signs.T.reshape((2,) * n + (count,)), [WALSH_PROBE] * n)
    q = q.reshape(count, -1) / 2**n
    # column j = 2 a(0) + a(1): the signs (-1)^a(x) of a party's strategy a; a
    # vertex is the product of its parties' signs, so this values all 4^N
    # strategies in flat-index order
    party_signs = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])
    values = contract_parties(q.T.reshape((2,) * n + (count,)), [party_signs] * n)
    bounds = values.reshape(count, -1).max(axis=1)

    # f factorizes (trivial inequality) iff f(r) = s (-1)^(r.y), whose Walsh
    # coefficients are s at y and zero elsewhere: one nonzero coefficient
    nontrivial = np.count_nonzero(q, axis=1) > 1

    # one tolist per column: Python values converted in bulk, not per row
    columns = zip(signs.astype(np.int64).tolist(), q.tolist(), bounds.tolist(),
                  (np.abs(bounds - 1.0) < 1e-9).tolist(), nontrivial.tolist())
    return [
        {"f": f, "coefficients": c, "bound": b, "bound_is_one": one, "nontrivial": nt}
        for f, c, b, one, nt in columns
    ]


def cmd_ww(args, argv) -> int:
    started = time.time()
    if args.parties < 1 or args.parties > 4:
        raise SpecParseError("parties", "the family is enumerable for 1 <= N <= 4")
    rows = _ww_rows(args.parties)
    result = {
        "parties": args.parties,
        "count": len(rows),
        "nontrivial_count": sum(1 for r in rows if r["nontrivial"]),
        "all_bounds_one": all(r["bound_is_one"] for r in rows),
        "functionals": rows,
    }
    return _emit(result, argv, {"parties": args.parties}, None, {}, started,
                 csv=_ww_csv if args.format == "csv" else None)


def _ww_csv(result: dict) -> str:
    lines = ["f,bound,nontrivial"] + [
        f"{';'.join(map(str, row['f']))},{row['bound']},{int(row['nontrivial'])}"
        for row in result["functionals"]]
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellkit",
        description="Bell functionals on roots of unity: exact LHV bounds, facet "
        "certification, and multiport violation search.",
    )
    parser.add_argument("--version", action="version", version=f"bellkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = OptimizationConfig()

    def common(p, spec=True, optimizer=False, fmt=False):
        if spec:
            p.add_argument("--spec", required=True,
                           help="functional document path or preset name "
                                f"({', '.join(preset_names())})")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="max deterministic strategies to enumerate")
        if optimizer:
            p.add_argument("--restarts", type=int, default=defaults.restarts)
            p.add_argument("--seed", type=int, default=defaults.seed)
        if fmt:
            p.add_argument("--format", choices=["json", "csv"], default="json")

    p_bound = sub.add_parser("bound", help="exact classical bound by enumeration")
    common(p_bound)
    p_bound.set_defaults(func=cmd_bound)

    p_opt = sub.add_parser("optimize", help="maximize the quantum value over multiport setups")
    common(p_opt, optimizer=True)
    p_opt.add_argument("--ghz-family", action="store_true",
                       help="restrict amplitudes to a|000> + b|111> + c|222>")
    p_opt.add_argument("--setup", default=None,
                       help="setup document to evaluate instead of searching")
    p_opt.add_argument("--optimize-phases", action="store_true",
                       help="with --setup: keep its amplitudes, re-optimize the phases")
    p_opt.set_defaults(func=cmd_optimize)

    p_table = sub.add_parser("table", help="product-exponent scan over (N,2,d) scenarios")
    common(p_table, spec=False, optimizer=True, fmt=True)
    p_table.add_argument("--scenarios", default=None,
                         help='semicolon-separated N,k,d triples, e.g. "2,2,2;3,2,3" '
                              "(default: the full 22-row list)")
    p_table.set_defaults(func=cmd_table)

    p_facet = sub.add_parser("facet", help="rank-certify tightness of a real-part functional")
    common(p_facet)
    p_facet.set_defaults(func=cmd_facet)

    p_ww = sub.add_parser("ww", help="enumerate the two-outcome sign-family functionals")
    p_ww.add_argument("--parties", type=int, required=True)
    p_ww.add_argument("--format", choices=["json", "csv"], default="json")
    p_ww.set_defaults(func=cmd_ww)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except SpecParseError as exc:
        _log(f"parse error: {exc}")
        return EXIT_PARSE
    except json.JSONDecodeError as exc:
        _log(f"parse error: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
        return EXIT_PARSE
    except BudgetExceededError as exc:
        _log(f"budget exceeded: {exc}")
        return EXIT_BUDGET
    except UnsupportedFormError as exc:
        _log(f"unsupported form: {exc}")
        return EXIT_FORM


if __name__ == "__main__":
    sys.exit(main())
