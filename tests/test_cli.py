import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bellkit.cli import main
from bellkit.multiport import QuantumSetup
from bellkit.optimize import OptimizationConfig, scan_product_g
from bellkit.specdoc import (
    MAX_STRATEGIES,
    SpecParseError,
    canonical_json,
    document_digest,
    functional_document,
    parse_functional_document,
    parse_setup_document,
    round_floats,
    serialize_bound_result,
    serialize_scan_rows,
    serialize_setup,
)
from bellkit import (BellFunctional, DeterministicStrategy, FunctionalForm, Scenario,
                     classical_bound, ww_coefficients)
from bellkit.cglmp import (PROBABILITY_TO_CORRELATION_SCALE, TIGHT_323_G_TABLES,
                           cglmp_correlation_functional, i323_functional,
                           three_party_tight_functional)
from bellkit.presets import PRESETS, preset_names


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_bound_presets(capsys):
    expected = {"chsh": 2.0, "cglmp-223": 2.0, "cglmp-corr-223": 3.0, "i323": 3.0}
    for preset, bound in expected.items():
        doc = run_json(capsys, "bound", "--spec", preset)
        assert doc["result"]["bound"] == pytest.approx(bound, abs=1e-9)


def test_bound_reports_witness_and_counts(capsys):
    doc = run_json(capsys, "bound", "--spec", "chsh")
    result = doc["result"]
    assert result["strategies_examined"] == 16
    assert result["saturating_count"] == 8
    assert result["witness"] == [[0, 0], [0, 0]]
    assert len(result["saturating"]) == 8 and "saturating_truncated" not in result


def test_bound_document_lists_at_most_max_strategies():
    # a single-term modulus is 1 on every strategy: all 3^6 saturate
    functional = BellFunctional(Scenario(3, 2, 3), [((0, 1, 0), (1, 2, 1), 1.0)],
                                FunctionalForm.MODULUS)
    doc = serialize_bound_result(classical_bound(functional))
    assert doc["saturating_count"] == 729
    assert doc["saturating_truncated"] is True
    assert len(doc["saturating"]) == MAX_STRATEGIES == 256
    first = [DeterministicStrategy.from_flat_index(functional.scenario, i).assignments.tolist()
             for i in range(MAX_STRATEGIES)]
    assert doc["saturating"] == first
    assert doc["witness"] == first[0] == [[0, 0], [0, 0], [0, 0]]


# the result digests of `bellkit bound --spec P`, each listing its saturating
# strategies from their flat indices by the per-index digit loop
BOUND_DIGESTS = {
    "chsh": "53b5c35220a70b2019eaa4304bcd22d1e444cd07f86eaa63e3d3d09dd1098a16",
    "cglmp-223": "e273b8f62a65a87e113e665e54a9812156a24b7dcdf021552edf608b23f12a0c",
    "cglmp-corr-223": "73629dcf17419e77c5e2d401cf68c24831584a038c76c6015b901091a79bdea0",
    "i323": "112fdae5bbae0e7c039854edb578d9b5fc181f399e5f910073e215b8cd4ebfc6",
    "tight-323-g1": "f222a620212535403759abb58fc90b989ed90fa56de42ea8d041bcfbeb178c75",
    "tight-323-g2": "8a952ab91f412fa980acdddc50893fbe230ba9fbfda19d68ba5aeed2ff91d678",
    "tight-323-g3": "343c808983b82a4b5fd129e8d9e31fdc3147196d344a47df46718dfdd69726f0",
}


def test_bound_digests_cover_every_preset():
    assert sorted(BOUND_DIGESTS) == sorted(preset_names())


@pytest.mark.parametrize("preset", sorted(BOUND_DIGESTS))
def test_bound_documents_are_pinned(capsys, preset):
    doc = run_json(capsys, "bound", "--spec", preset)
    assert doc["manifest"]["result_digest"] == BOUND_DIGESTS[preset]
    # i323 and the three tight-323 presets list only the first MAX_STRATEGIES
    result = doc["result"]
    truncated = result["saturating_count"] > MAX_STRATEGIES
    assert truncated == (preset in ("i323", "tight-323-g1", "tight-323-g2", "tight-323-g3"))
    assert len(result["saturating"]) == min(result["saturating_count"], MAX_STRATEGIES)


def test_parse_failures_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"scenario": {"parties": 2}}')
    code, _, err = run_cli(capsys, "bound", "--spec", str(bad))
    assert code == 2
    assert "settings" in err

    worse = tmp_path / "worse.json"
    worse.write_text("{not json")
    code, _, err = run_cli(capsys, "bound", "--spec", str(worse))
    assert code == 2

    glitched = tmp_path / "glitched.json"
    glitched.write_text(json.dumps({
        "scenario": {"parties": 2, "settings": 2, "outcomes": 2},
        "form": "real-part",
        "construction": {"basis": "fourier", "g": [[0, 7], [0, 0]]},
    }))
    code, _, err = run_cli(capsys, "bound", "--spec", str(glitched))
    assert code == 2
    assert "construction.g" in err


CHSH_DOC = {
    "scenario": {"parties": 2, "settings": 2, "outcomes": 2},
    "form": "real-part",
    "coefficients": [[1, 1], [1, -1]],
}
RAGGED_SETUP = {
    "scenario": {"parties": 2, "settings": 2, "outcomes": 2},
    "amplitudes": [1, 0, 0, 1],
    "phases": [[[0, 1], [0]], [[0, 1], [0, 1]]],
}
# non-finite numbers as JSON text: 1e400 overflows to infinity, NaN and Infinity
# are the spellings Python's json module accepts
HUGE_COEFFICIENT = ('{"scenario": {"parties": 2, "settings": 2, "outcomes": 2}, '
                    '"form": "real-part", "coefficients": [[1e400, 1], [1, -1]]}')
NAN_WEIGHT = ('{"scenario": {"parties": 2, "settings": 2, "outcomes": 2}, "form": "real-part", '
              '"terms": [{"settings": [0, 0], "mask": [1, 1], "weight": NaN}]}')
INFINITE_AMPLITUDE = ('{"scenario": {"parties": 2, "settings": 2, "outcomes": 2}, '
                      '"amplitudes": [Infinity, 0, 0, 1], '
                      '"phases": [[[0, 1], [0, 1]], [[0, 1], [0, 1]]]}')
HUGE_PHASE = ('{"scenario": {"parties": 2, "settings": 2, "outcomes": 2}, '
              '"amplitudes": [1, 0, 0, 1], '
              '"phases": [[[0, 1e400], [0, 1]], [[0, 1], [0, 1]]]}')
# fractional counts, settings and masks: int() would truncate them to another functional
TERMS_DOC = {
    "scenario": {"parties": 2, "settings": 2, "outcomes": 2},
    "form": "real-part",
    "terms": [{"settings": [0, 1], "mask": [1, 1], "weight": 1.0}],
}
FRACTIONAL_PARTIES = dict(TERMS_DOC, scenario={"parties": 2.7, "settings": 2, "outcomes": 2})
FRACTIONAL_SETTINGS = dict(TERMS_DOC, terms=[{"settings": [0.9, 1.5], "mask": [1, 1],
                                              "weight": 1.0}])
FRACTIONAL_MASK = dict(TERMS_DOC, terms=[{"settings": [0, 1], "mask": [1, 1.99], "weight": 1.0}])
BOOLEAN_MASK = dict(CHSH_DOC, mask=[1, True])
# float() and a float array would read "3", "1.5" and true as numbers
BOOLEAN_WEIGHT = dict(TERMS_DOC, terms=[{"settings": [0, 1], "mask": [1, 1], "weight": True}])
SETUP_DOC = {
    "scenario": {"parties": 2, "settings": 2, "outcomes": 2},
    "amplitudes": [1, 0, 0, 1],
    "phases": [[[0, 1], [0, 1]], [[0, 1], [0, 1]]],
}
TEXT_PHASE = dict(SETUP_DOC, phases=[[[0, "1.5"], [0, 1]], [[0, 1], [0, 1]]])
BOOLEAN_AMPLITUDE = dict(SETUP_DOC, amplitudes=[True, 0, 0, 1])
# each term carries its own mask, so a top-level one would be ignored
TERMS_WITH_MASK = dict(TERMS_DOC, mask="garbage")

# the construction route's bases: fourier needs k = d, k2-conjugate k = 2 and d >= 3
FOURIER_223 = {"scenario": {"parties": 2, "settings": 2, "outcomes": 3}, "form": "real-part",
               "construction": {"basis": "fourier", "g": [[0, 0], [0, 1]]}}
K2_CONJUGATE_233 = {"scenario": {"parties": 2, "settings": 3, "outcomes": 3},
                    "form": "real-part",
                    "construction": {"basis": "k2-conjugate", "g": [[0, 0, 0]] * 3}}
K2_CONJUGATE_222 = dict(FOURIER_223, scenario={"parties": 2, "settings": 2, "outcomes": 2},
                        construction={"basis": "k2-conjugate", "g": [[0, 0], [0, 1]]})
UNKNOWN_BASIS = dict(K2_CONJUGATE_222, construction={"basis": "walsh", "g": [[0, 0], [0, 1]]})


def readme_functional_document() -> dict:
    """The example document under README's "Functional documents" heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index("### Functional documents"):]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))


OVERFLOW_COEFFICIENTS = dict(CHSH_DOC, coefficients=[[1e308, 1e308], [1e308, -1e308]])
OVERFLOW_WEIGHT = {"scenario": {"parties": 2, "settings": 2, "outcomes": 2}, "form": "modulus",
                   "terms": [{"settings": [0, 0], "mask": [0, 0], "weight": [1.7e308, 1.7e308]}]}
PARTIES_65 = {"scenario": {"parties": 65, "settings": 1, "outcomes": 2}, "form": "real-part"}


def wrapped(leaf, depth: int):
    """leaf wrapped in depth one-element lists."""
    for _ in range(depth):
        leaf = [leaf]
    return leaf


I323_SETUP = {
    "scenario": {"parties": 3, "settings": 3, "outcomes": 3},
    "amplitudes": [1] + [0] * 12 + [1] + [0] * 12 + [1],
    "phases": [[[0, 0, 0]] * 3] * 3,
}


@pytest.mark.parametrize("name, argv, location", [
    ("bound-text", ["bound", "--spec", "{bound_text}"], ".bound: "),
    ("bound-list", ["bound", "--spec", "{bound_list}"], ".bound: "),
    ("bound-object", ["bound", "--spec", "{bound_object}"], ".bound: "),
    ("ragged-phases", ["optimize", "--spec", "chsh", "--setup", "{ragged}"], ".phases: "),
    ("missing-setup", ["optimize", "--spec", "chsh", "--setup", "{missing}"], "--setup: "),
    ("optimize-restarts", ["optimize", "--spec", "chsh", "--restarts", "0"], "--restarts: "),
    ("table-restarts", ["table", "--scenarios", "2,2,2", "--restarts", "0"], "--restarts: "),
    # a negative budget admits no strategy count; --budget 0 is a budget (exit 3)
    ("bound-budget", ["bound", "--spec", "chsh", "--budget", "-5"], "--budget: "),
    ("facet-budget", ["facet", "--spec", "chsh", "--budget", "-5"], "--budget: "),
    ("optimize-budget", ["optimize", "--spec", "chsh", "--budget", "-5", "--restarts", "1"],
     "--budget: "),
    ("table-budget", ["table", "--scenarios", "2,2,2", "--budget", "-5", "--restarts", "1"],
     "--budget: "),
    # optimize takes a document's bound instead of enumerating, so it must be finite
    ("optimize-bound-nan", ["optimize", "--spec", "{bound_nan}", "--budget", "1"], ".bound: "),
    ("seed", ["table", "--scenarios", "2,2,2", "--seed", "-1"], "--seed: "),
    ("coefficient-1e400", ["bound", "--spec", "{huge_coefficient}"],
     ".coefficients[0][0]: "),
    ("weight-nan", ["bound", "--spec", "{nan_weight}"], ".terms[0].weight: "),
    ("amplitude-infinity", ["optimize", "--spec", "chsh", "--setup", "{infinite_amplitude}"],
     ".amplitudes[0]: "),
    ("phase-1e400", ["optimize", "--spec", "chsh", "--setup", "{huge_phase}"], ".phases: "),
    ("ghz-family-with-setup", ["optimize", "--spec", "i323", "--setup", "{i323_setup}",
                               "--ghz-family", "--optimize-phases"], "--ghz-family: "),
    ("optimize-phases-without-setup", ["optimize", "--spec", "chsh", "--optimize-phases"],
     "--optimize-phases: "),
    ("optimize-bound-infinity", ["optimize", "--spec", "{bound_infinity}", "--budget", "1"],
     ".bound: "),
    ("restarts-beyond-sobol", ["optimize", "--spec", "chsh", "--restarts", "2000000000"],
     "--restarts: "),
    ("parties-2.7", ["bound", "--spec", "{fractional_parties}"], ".scenario.parties: "),
    ("settings-0.9", ["bound", "--spec", "{fractional_settings}"], ".terms[0].settings: "),
    ("mask-1.99", ["bound", "--spec", "{fractional_mask}"], ".terms[0].mask: "),
    ("mask-true", ["bound", "--spec", "{boolean_mask}"], ".mask: "),
    ("bound-text-3", ["bound", "--spec", "{bound_text_3}"], ".bound: "),
    ("bound-true", ["bound", "--spec", "{bound_true}"], ".bound: "),
    ("weight-true", ["bound", "--spec", "{boolean_weight}"], ".terms[0].weight: "),
    ("phase-text", ["optimize", "--spec", "chsh", "--setup", "{text_phase}"], ".phases: "),
    ("amplitude-true", ["optimize", "--spec", "chsh", "--setup", "{boolean_amplitude}"],
     ".amplitudes[0]: "),
    ("terms-with-mask", ["bound", "--spec", "{terms_with_mask}"], ".mask: "),
    # README's example document with a mask entry of d = 3, and with one entry for two parties
    ("mask-entry-3", ["bound", "--spec", "{readme_mask_3}"], ".mask: "),
    ("mask-one-entry", ["bound", "--spec", "{readme_mask_1}"], ".mask: "),
    ("fourier-settings-not-outcomes", ["bound", "--spec", "{fourier_223}"],
     ".construction.basis: "),
    ("k2-conjugate-three-settings", ["bound", "--spec", "{k2_conjugate_233}"],
     ".construction.basis: "),
    ("k2-conjugate-two-outcomes", ["bound", "--spec", "{k2_conjugate_222}"],
     ".construction.basis: "),
    ("unknown-basis", ["bound", "--spec", "{unknown_basis}"], ".construction.basis: "),
    ("scenarios-semicolon", ["table", "--scenarios", ";"], "scenarios: "),
    ("scenarios-empty", ["table", "--scenarios", ""], "scenarios: "),
    # int() reads "1_0" as 10 and the Arabic-Indic digit three as 3
    ("scenarios-underscore", ["table", "--scenarios", "2,2,1_0"], "scenarios[0]: "),
    ("scenarios-non-ascii-digit", ["table", "--scenarios", "2,2,\u0663"], "scenarios[0]: "),
    ("scenarios-no-party", ["table", "--scenarios", "2,2,2;0,2,2"], "scenarios[1]: "),
    ("scenarios-one-outcome", ["table", "--scenarios", "2,2,1"], "scenarios[0]: "),
    # finite weights whose moduli sum past the float range bound no value
    ("coefficients-moduli-overflow", ["bound", "--spec", "{overflow_coefficients}"],
     ".coefficients: "),
    ("coefficients-moduli-overflow-facet", ["facet", "--spec", "{overflow_coefficients}"],
     ".coefficients: "),
    ("weight-modulus-overflow", ["optimize", "--spec", "{overflow_weight}", "--restarts", "1"],
     ".terms: "),
    # json.loads raises RecursionError on deep nesting
    ("spec-nested-too-deeply", ["bound", "--spec", "{deep}"], "spec: "),
    ("setup-nested-too-deeply", ["optimize", "--spec", "chsh", "--setup", "{deep}"],
     "--setup: "),
    # a dense route for 65 parties needs more axes than numpy supports
    ("coefficients-65-parties", ["bound", "--spec", "{coefficients_65}"], ".coefficients: "),
    ("construction-65-parties", ["bound", "--spec", "{construction_65}"], ".construction.g: "),
])
def test_malformed_inputs_exit_2_without_traceback(capsys, tmp_path, name, argv, location):
    files = {"ragged": RAGGED_SETUP, "missing": None,
             "bound_text": dict(CHSH_DOC, bound="abc"),
             "bound_list": dict(CHSH_DOC, bound=[2.0]),
             "bound_object": dict(CHSH_DOC, bound={"value": 2.0}),
             "bound_nan": dict(CHSH_DOC, bound=float("nan")),
             "bound_infinity": dict(CHSH_DOC, bound=float("inf")),
             "huge_coefficient": HUGE_COEFFICIENT, "nan_weight": NAN_WEIGHT,
             "infinite_amplitude": INFINITE_AMPLITUDE, "huge_phase": HUGE_PHASE,
             "i323_setup": I323_SETUP, "fractional_parties": FRACTIONAL_PARTIES,
             "fractional_settings": FRACTIONAL_SETTINGS, "fractional_mask": FRACTIONAL_MASK,
             "boolean_mask": BOOLEAN_MASK, "bound_text_3": dict(CHSH_DOC, bound="3"),
             "bound_true": dict(CHSH_DOC, bound=True), "boolean_weight": BOOLEAN_WEIGHT,
             "text_phase": TEXT_PHASE, "boolean_amplitude": BOOLEAN_AMPLITUDE,
             "terms_with_mask": TERMS_WITH_MASK,
             "readme_mask_3": dict(readme_functional_document(), mask=[1, 3]),
             "readme_mask_1": dict(readme_functional_document(), mask=[1]),
             "fourier_223": FOURIER_223, "k2_conjugate_233": K2_CONJUGATE_233,
             "k2_conjugate_222": K2_CONJUGATE_222, "unknown_basis": UNKNOWN_BASIS,
             "overflow_coefficients": OVERFLOW_COEFFICIENTS, "overflow_weight": OVERFLOW_WEIGHT,
             "deep": "[" * 5000 + "]" * 5000,
             "coefficients_65": dict(PARTIES_65, coefficients=wrapped(1, 65)),
             "construction_65": dict(PARTIES_65, construction={"basis": "fourier",
                                                               "g": wrapped(0, 65)})}
    paths = {key: tmp_path / f"{key}.json" for key in files}
    for key, doc in files.items():
        if doc is not None:
            paths[key].write_text(doc if isinstance(doc, str) else json.dumps(doc))
    argv = [arg.format(**paths) for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2, name
    assert out == ""
    assert "parse error: " in err and location in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["bound", "--spec", "chsh", "--threads", "2"],
    ["optimize", "--spec", "chsh", "--restarts", "1", "--threads", "2"],
    ["table", "--scenarios", "2,2,2", "--restarts", "1", "--threads", "2"],
    ["facet", "--spec", "chsh", "--threads", "2"],
    # a construction document's "pairing" field is the one place to set it
    ["bound", "--spec", "tight-323-g1", "--pairing", "sesquilinear"],
])
def test_threads_flag_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in err
    assert "Traceback" not in err


# The CLI fuzz draws cheap argument vectors only: two small presets, two small
# scenarios and at most two restarts.  About half of them are well formed; the
# others break one flag each.
GOOD_VALUES = {
    "--spec": ["chsh", "cglmp-corr-223"],
    "--scenarios": ["2,2,2", "2,2,3", "2,2,2;2,2,3", "", "2,3,3"],
    "--restarts": ["1", "2"],
    "--budget": [str(10**8)],
    "--seed": ["0"],
    "--format": ["json", "csv"],
    "--parties": ["2"],
}
BAD_VALUES = {
    "--spec": ["no-such-preset"],
    "--scenarios": ["2,2", "a,b,c", "2;2;2"],
    "--restarts": ["-1", "0"],
    "--budget": ["-1", "0", "3"],
    "--seed": ["-1", "x"],
    "--format": ["x"],
    "--parties": ["-1", "0", "5", "x"],
    "mode": [["--ghz-family"], ["--optimize-phases"], ["--setup", "no-such-setup.json"]],
}
COMMAND_FLAGS = {
    "bound": ["--spec", "--budget"],
    "facet": ["--spec", "--budget"],
    "optimize": ["--spec", "--restarts", "--budget", "--seed", "mode"],
    "table": ["--scenarios", "--restarts", "--budget", "--seed", "--format"],
    "ww": ["--parties"],
}
# always given: the defaults of --restarts (200) and --scenarios (22 rows) are costly
ALWAYS_GIVEN = {"--spec", "--scenarios", "--restarts", "--parties"}


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS) + ["other"]))
    if command == "other":
        return draw(st.sampled_from([[], ["nope"], ["--version"], ["bound", "--spec"]]))
    flags = COMMAND_FLAGS[command]
    broken = draw(st.none() | st.sampled_from(flags))
    argv = [command]
    for flag in flags:
        if flag == "mode":
            argv += draw(st.sampled_from(BAD_VALUES[flag])) if flag == broken else []
        elif flag == broken:
            argv += [flag, draw(st.sampled_from(BAD_VALUES[flag]))]
        elif flag in ALWAYS_GIVEN or draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(GOOD_VALUES[flag]))]
    return argv


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=cli_argvs())
def test_cli_exits_with_a_documented_code_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_budget_exit_3(capsys):
    code, _, err = run_cli(capsys, "bound", "--spec", "chsh", "--budget", "3")
    assert code == 3
    assert "16" in err


def test_zero_budget_is_a_budget(capsys):
    for command in ("bound", "facet"):
        code, _, err = run_cli(capsys, command, "--spec", "chsh", "--budget", "0")
        assert code == 3 and "budget" in err, command
    # chsh carries its bound, so optimize enumerates nothing
    run_json(capsys, "optimize", "--spec", "chsh", "--budget", "0", "--restarts", "1")
    (row,) = run_json(capsys, "table", "--scenarios", "2,2,2", "--budget", "0",
                      "--restarts", "1")["result"]["rows"]
    assert row["error"] == "enumeration needs 16 strategies, beyond the budget of 0"


def test_optimize_uses_the_document_bound(capsys):
    # chsh's document carries "bound": 2.0, so no enumeration runs
    doc = run_json(capsys, "optimize", "--spec", "chsh", "--budget", "1", "--restarts", "1")
    assert doc["result"]["classical_bound"] == 2.0
    code, _, err = run_cli(capsys, "bound", "--spec", "chsh", "--budget", "1")
    assert code == 3
    assert "budget" in err


def test_optimize_with_a_zero_bound_leaves_the_ratio_undefined(capsys, tmp_path):
    spec = tmp_path / "zero-bound.json"
    spec.write_text(json.dumps(dict(CHSH_DOC, bound=0)))
    result = run_json(capsys, "optimize", "--spec", str(spec), "--budget", "1",
                      "--restarts", "1")["result"]
    assert result["classical_bound"] == 0.0
    assert result["ratio"] is None
    assert result["ratio_defined"] is False
    assert result["ratio_note"] == "classical bound is numerically zero; the ratio is undefined"


def test_readme_functional_document_carries_its_classical_bound():
    doc = readme_functional_document()
    functional = parse_functional_document(doc, "README")
    assert functional.mask.entries == (1, 2)
    assert functional.cached_bound == doc["bound"]
    # the enumerated maximum is 1 up to round-off; the CLI reports 1.0
    assert classical_bound(functional).bound == pytest.approx(doc["bound"], rel=0, abs=1e-12)


def test_modulus_facet_exit_4(capsys, tmp_path):
    doc = {
        "scenario": {"parties": 2, "settings": 2, "outcomes": 2},
        "form": "modulus",
        "coefficients": [[1, 1], [1, -1]],
    }
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "facet", "--spec", str(path))
    assert code == 4
    assert "facet reports exist only for real-part functionals" in err


def test_facet_i323_mixed_masks(capsys):
    # i323 mixes conjugation masks: a facet of the projection onto its coordinates
    result = run_json(capsys, "facet", "--spec", "i323")["result"]
    found = (result["polytope_dimension"], result["saturating_count"], result["saturating_rank"])
    assert found == (32, 270, 31)
    assert result["is_facet"] is True and result["is_valid"] is True


def test_facet_chsh_and_trivial(capsys, tmp_path):
    doc = run_json(capsys, "facet", "--spec", "chsh")
    assert doc["result"]["is_facet"] is True
    assert doc["result"]["polytope_dimension"] == 4

    trivial = {
        "scenario": {"parties": 2, "settings": 2, "outcomes": 3},
        "form": "real-part",
        "coefficients": [[1, 0], [0, 0]],
    }
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(trivial))
    doc = run_json(capsys, "facet", "--spec", str(path))
    assert doc["result"]["is_facet"] is False


def test_facet_tight_family(capsys):
    doc = run_json(capsys, "facet", "--spec", "tight-323-g1")
    assert doc["result"]["is_facet"] is True
    assert doc["result"]["saturating_rank"] == doc["result"]["polytope_dimension"] - 1

    # a terms document whose terms share one mask is certified like any other
    doc = run_json(capsys, "facet", "--spec", "cglmp-223")
    assert doc["result"]["is_facet"] is True
    assert doc["result"]["saturating_rank"] == 7
    assert doc["result"]["polytope_dimension"] == 8


def test_optimize_chsh_and_manifest_replay(capsys):
    args = ("optimize", "--spec", "chsh", "--restarts", "6", "--seed", "3")
    first = run_json(capsys, *args)
    second = run_json(capsys, *args)
    assert first["result"]["ratio"] == pytest.approx(1.41421, abs=1e-3)
    assert json.dumps(first["result"], sort_keys=True) == json.dumps(
        second["result"], sort_keys=True
    )
    assert first["manifest"]["result_digest"] == second["manifest"]["result_digest"]
    assert first["manifest"]["command"] == list(args)


def test_optimize_ghz_family_flag(capsys):
    doc = run_json(
        capsys, "optimize", "--spec", "i323", "--ghz-family", "--restarts", "12", "--seed", "5"
    )
    assert doc["result"]["ghz_family"] is True
    assert doc["result"]["quantum_value"] <= 3.0 + 1e-6

    code, _, err = run_cli(
        capsys, "optimize", "--spec", "chsh", "--ghz-family", "--restarts", "2"
    )
    assert code == 2
    assert "three-party" in err


def test_optimize_finds_cglmp_violation(capsys):
    doc = run_json(
        capsys, "optimize", "--spec", "cglmp-corr-223", "--restarts", "8", "--seed", "1"
    )
    assert doc["result"]["quantum_value"] > 3.0
    # the returned setup replays to the reported value through the Born rule
    setup = parse_setup_document(doc["result"]["setup"])
    from bellkit.cglmp import cglmp_correlation_functional
    from bellkit.optimize import quantum_functional_value

    replay = quantum_functional_value(cglmp_correlation_functional(), setup)
    assert replay == pytest.approx(doc["result"]["quantum_value"], abs=1e-9)


def test_optimize_with_setup_document(capsys, tmp_path):
    found = run_json(
        capsys, "optimize", "--spec", "cglmp-corr-223", "--restarts", "4", "--seed", "1"
    )
    setup_path = tmp_path / "setup.json"
    setup_path.write_text(json.dumps(found["result"]["setup"]))

    evaluated = run_json(
        capsys, "optimize", "--spec", "cglmp-corr-223", "--setup", str(setup_path)
    )
    assert evaluated["result"]["evaluated_only"] is True
    assert evaluated["result"]["quantum_value"] == pytest.approx(
        found["result"]["quantum_value"], abs=1e-9
    )

    reoptimized = run_json(
        capsys, "optimize", "--spec", "cglmp-corr-223", "--setup", str(setup_path),
        "--optimize-phases", "--restarts", "4", "--seed", "2",
    )
    assert reoptimized["result"]["quantum_value"] >= evaluated["result"]["quantum_value"] - 1e-9

    mismatched = run_cli(
        capsys, "optimize", "--spec", "chsh", "--setup", str(setup_path), "--restarts", "2"
    )
    assert mismatched[0] == 2


def test_table_single_row_and_formats(capsys):
    doc = run_json(
        capsys, "table", "--scenarios", "2,2,2", "--restarts", "6", "--seed", "2"
    )
    rows = doc["result"]["rows"]
    assert len(rows) == 1
    assert rows[0]["ratio_re"] == pytest.approx(1.41421, abs=1e-3)
    assert rows[0]["ratio_abs"] == pytest.approx(1.41421, abs=1e-3)

    code, out, err = run_cli(
        capsys, "table", "--scenarios", "2,2,2", "--restarts", "6", "--seed", "2",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("parties,settings,outcomes,beta_re,quantum_re,ratio_re,"
                        "beta_abs,quantum_abs,ratio_abs,seed,error")
    assert len(lines) == 2


def test_table_rows_match_one_scan(capsys):
    scenarios = [(2, 2, 2), (2, 2, 3), (3, 2, 2)]
    doc = run_json(capsys, "table", "--scenarios", "2,2,2;2,2,3;3,2,2", "--restarts", "1",
                   "--seed", "4")
    rows = scan_product_g(scenarios, OptimizationConfig(restarts=1, seed=4))
    assert doc["result"]["rows"] == round_floats(serialize_scan_rows(rows))
    assert doc["manifest"]["result_digest"] == document_digest({"rows": serialize_scan_rows(rows)})
    # each row draws its own child seed
    assert len({row["seed"] for row in doc["result"]["rows"]}) == 3


def test_table_523_row_single_thread_has_no_error():
    # with one BLAS thread, numpy's eigh fails to converge on a 243x243 state
    # matrix of this row unless the eigensolve falls back to another driver
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-m", "bellkit.cli", "table", "--scenarios", "5,2,3",
         "--seed", "29", "--restarts", "4"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    (row,) = json.loads(completed.stdout)["result"]["rows"]
    assert row["error"] is None
    assert row["ratio_abs"] <= 1 + 1e-9
    assert row["ratio_re"] is not None


def optimize_setup_process(tmp_path, amplitudes):
    """bellkit optimize --spec chsh --setup on a (2,2,2) document: exit code and result digest."""
    path = tmp_path / "setup.json"
    path.write_text(json.dumps({"scenario": {"parties": 2, "settings": 2, "outcomes": 2},
                                "amplitudes": amplitudes,
                                "phases": [[[0, 1], [0, 2]], [[0, 3], [0, 4]]]}))
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-m", "bellkit.cli", "optimize", "--spec", "chsh", "--setup", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    digest = completed.returncode or json.loads(completed.stdout)["manifest"]["result_digest"]
    return completed.returncode, completed.stderr, digest


def test_setup_norms_past_the_float_range_as_a_process(tmp_path):
    # the squared norm of each of these states overflows or underflows
    code, err, unit = optimize_setup_process(tmp_path, [1, 1, 0, 0])
    assert code == 0, err
    for scale in (2.0**600, 2.0**-600):
        code, err, digest = optimize_setup_process(tmp_path, [scale, scale, 0, 0])
        assert code == 0 and digest == unit, (scale, err)
    for amplitudes in ([1e308, 1e308, 0, 0], [1e200, 0, 0, 0], [1e-320, 0, 0, 0],
                       [3e-160, 4e-160, 0, 0]):
        code, err, _ = optimize_setup_process(tmp_path, amplitudes)
        assert code == 0, (amplitudes, err)


HEAVY_SCIPY = ("scipy.stats", "scipy.optimize", "scipy.linalg")


@pytest.mark.parametrize("argv", [
    ["-c", "import bellkit, sys; print(sorted(m for m in sys.modules if m.startswith("
           f"{HEAVY_SCIPY!r})))"],
    ["-X", "importtime", "-m", "bellkit.cli", "--version"],
])
def test_cold_start_does_not_import_scipy_stats_optimize_or_linalg(argv):
    # each costs a large share of bellkit's start-up: the Sobol starts are
    # built without scipy.stats, and scipy.linalg loads only if numpy's eigh fails
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                               env=env, timeout=120)
    assert completed.returncode == 0, completed.stderr
    if argv[0] == "-c":
        assert completed.stdout.strip() == "[]"
    else:
        # -X importtime lists every module the process imported on stderr
        imported = [line.rsplit("|", 1)[-1].strip() for line in completed.stderr.splitlines()]
        assert "bellkit.optimize" in imported
        assert not [name for name in imported if name.startswith(HEAVY_SCIPY)]


def test_search_does_not_import_numpy_ma():
    # np.unique without options imports numpy.ma on its first call, 8-13 ms
    # of every process that searches; the coset support is found without it
    code = ("import sys\n"
            "from bellkit import OptimizationConfig, maximize_violation\n"
            "from bellkit.presets import PRESETS\n"
            "from bellkit.specdoc import parse_functional_document\n"
            "chsh = parse_functional_document(PRESETS['chsh'])\n"
            "maximize_violation(chsh, OptimizationConfig(restarts=1))\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               env=env, timeout=120)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"


def test_search_does_not_import_scipy():
    # the Sobol direction numbers ship with bellkit, so a search that converges
    # needs no scipy module at all
    code = ("import sys\n"
            "from bellkit import OptimizationConfig, maximize_violation\n"
            "from bellkit.presets import PRESETS\n"
            "from bellkit.specdoc import parse_functional_document\n"
            "i323 = parse_functional_document(PRESETS['i323'])\n"
            "maximize_violation(i323, OptimizationConfig(restarts=1))\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               env=env, timeout=120)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"


def test_table_bad_scenario_string(capsys):
    code, _, err = run_cli(capsys, "table", "--scenarios", "2,2")
    assert code == 2


def test_table_three_settings_is_a_row_error(capsys):
    # a well-formed scenario the product-g scan does not cover is a row
    # failure of a successful run, not a parse error
    doc = run_json(capsys, "table", "--scenarios", "2,3,3", "--restarts", "1")
    [row] = doc["result"]["rows"]
    assert row["error"] == "the product-g scan needs k = 2"


def test_ww_counts(capsys):
    doc = run_json(capsys, "ww", "--parties", "2")
    result = doc["result"]
    assert result["count"] == 16
    assert result["nontrivial_count"] == 8
    assert result["all_bounds_one"] is True

    doc = run_json(capsys, "ww", "--parties", "1")
    assert doc["result"]["count"] == 4
    assert doc["result"]["nontrivial_count"] == 0

    code, _, _ = run_cli(capsys, "ww", "--parties", "5")
    assert code == 2


@pytest.mark.parametrize("parties", [1, 2, 3])
def test_ww_rows_are_ww_coefficients(capsys, parties):
    rows = run_json(capsys, "ww", "--parties", str(parties))["result"]["functionals"]
    assert len(rows) == 2 ** 2 ** parties
    for row in rows:
        signs = np.array(row["f"], dtype=float).reshape((2,) * parties)
        assert row["coefficients"] == ww_coefficients(signs).ravel().tolist()


# the result digests of `bellkit ww --parties N`, N = 1..4, from the Kronecker-power
# Walsh matrix and the enumerated vertex matrix the family was first valued with
WW_DIGESTS = {
    1: "09b3e7d690df95e051b737df515494182d2f5b286799938a1da6db834a9a91b3",
    2: "6aea0d0b364b78595fd5fb3cdae93c3529566063ab146344ad06a056c5eb4475",
    3: "9fbff35f6f81e86d23cea9dd773bf98541d2e3ab64211cdc661b292e4f53dd92",
    4: "d42e8471b2e246455c631f7f4e3ff83f0311a646ae472f821ae9e7e50c5990db",
}


@pytest.mark.parametrize("parties", [1, 2, 3, 4])
def test_ww_documents_are_pinned(capsys, parties):
    # the csv run digests the same result document without printing it
    code, _, err = run_cli(capsys, "ww", "--parties", str(parties), "--format", "csv")
    assert code == 0
    assert json.loads(err)["manifest"]["result_digest"] == WW_DIGESTS[parties]


# the result digest of the six-row table the scan benchmark and CI run
TABLE_ARGV = ["table", "--scenarios", "2,2,2;2,2,3;3,2,2;4,2,2;2,2,6;5,2,3", "--seed", "23",
              "--restarts", "2"]
TABLE_DIGEST = "6ec7ee27954a8abfe279fb3356836149337ff084766b4ecf70485a36b7f52d22"


def test_six_row_table_is_pinned(capsys):
    doc = run_json(capsys, *TABLE_ARGV)
    assert [row["error"] for row in doc["result"]["rows"]] == [None] * 6
    assert doc["manifest"]["result_digest"] == TABLE_DIGEST


def test_ww_csv(capsys):
    code, out, _ = run_cli(capsys, "ww", "--parties", "1", "--format", "csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 5  # header + 4 rows


def test_numbers_serialized_to_12_significant_digits(capsys):
    doc = run_json(capsys, "optimize", "--spec", "chsh", "--restarts", "4", "--seed", "7")
    value = doc["result"]["quantum_value"]
    assert value == float(f"{value:.12g}")


json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.text(max_size=3),
    st.floats(allow_nan=False), st.complex_numbers(allow_nan=False),
    st.floats(allow_nan=False).map(np.float64),
    st.floats(width=32, allow_nan=False).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.lists(st.floats(allow_nan=False), max_size=3).map(np.array),
)
json_trees = st.recursive(json_leaves, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=3).map(tuple),
    st.dictionaries(st.text(max_size=3), children, max_size=4)), max_leaves=20)


@given(doc=json_trees)
def test_round_floats_is_idempotent(doc):
    once = round_floats(doc)
    # compared as text, so -0.0 against 0.0 and int against float would show
    assert json.dumps(round_floats(once)) == json.dumps(once)
    assert document_digest(once) == document_digest(doc)
    assert document_digest(doc) == hashlib.sha256(canonical_json(once).encode()).hexdigest()


def test_canonical_json_does_not_round():
    value = 0.12345678901234568  # 17 significant digits
    assert json.loads(canonical_json({"x": value}))["x"] == value != round_floats(value)


@pytest.mark.parametrize("argv", [
    ["bound", "--spec", "i323"],
    ["facet", "--spec", "tight-323-g1"],
    ["optimize", "--spec", "chsh", "--restarts", "2", "--seed", "1"],
    ["table", "--scenarios", "2,2,2", "--restarts", "1", "--seed", "1"],
    ["ww", "--parties", "2"],
])
def test_stdout_is_the_canonical_text_the_digest_hashes(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    doc = json.loads(out)
    assert out == canonical_json(doc) + "\n"
    text = canonical_json(doc["result"])
    assert doc["manifest"]["result_digest"] == hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", [
    ["table", "--scenarios", "2,2,2", "--restarts", "1", "--seed", "1"],
    ["ww", "--parties", "3"],
])
def test_json_and_csv_runs_report_one_digest(capsys, argv):
    digest = run_json(capsys, *argv)["manifest"]["result_digest"]
    code, _, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0, err
    assert json.loads(err)["manifest"]["result_digest"] == digest


def test_setup_document_roundtrip():
    scenario = Scenario(2, 2, 3)
    rng = np.random.default_rng(11)
    amps = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    phases = rng.uniform(0, 2 * np.pi, size=(2, 2, 3))
    setup = QuantumSetup.normalized(scenario, amps, phases)
    doc = serialize_setup(setup)
    back = parse_setup_document(doc)
    assert np.allclose(back.amplitudes, setup.amplitudes, atol=1e-11)
    assert np.allclose(back.phases, setup.phases, atol=1e-11)


def test_construction_pairing_field():
    doc = {
        "scenario": {"parties": 2, "settings": 2, "outcomes": 3},
        "form": "real-part",
        "construction": {
            "basis": "k2-conjugate",
            "pairing": "bilinear",
            "g": [[0, 1], [0, 2]],
        },
    }
    plain = parse_functional_document(doc)
    doc["construction"]["pairing"] = "sesquilinear"
    flipped = parse_functional_document(doc)
    assert not np.allclose(plain.coefficients, flipped.coefficients)


def test_presets_parse_to_their_constructors():
    expected = {
        "cglmp-223": cglmp_correlation_functional().rescaled(PROBABILITY_TO_CORRELATION_SCALE),
        "cglmp-corr-223": cglmp_correlation_functional(),
        "i323": i323_functional(),
        **{f"tight-323-{name}": three_party_tight_functional(name)
           for name in TIGHT_323_G_TABLES},
    }
    assert set(expected) == set(preset_names()) - {"chsh"}
    for name, functional in expected.items():
        assert parse_functional_document(PRESETS[name]) == functional, name
    assert parse_functional_document(PRESETS["cglmp-223"]).cached_bound == 2.0


finite = st.floats(allow_nan=False, allow_infinity=False)
# a functional's weights have a finite sum of moduli: seven weights whose parts
# are at most 1e307 in size sum below the float range
part = st.floats(-1e307, 1e307)


@st.composite
def functionals(draw):
    n, k, d = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(2, 4))
    term = st.tuples(st.tuples(*[st.integers(0, k - 1)] * n),
                     st.tuples(*[st.integers(0, d - 1)] * n),
                     st.builds(complex, part, part))
    terms = draw(st.lists(term, min_size=1, max_size=6))
    terms.append(((0,) * n, (1,) * n, complex(draw(part.filter(bool)), 0.0)))
    form = draw(st.sampled_from(list(FunctionalForm)))
    return BellFunctional(Scenario(n, k, d), draw(st.permutations(terms)), form,
                          draw(st.none() | finite))


@settings(max_examples=200, deadline=None)
@given(functional=functionals())
def test_functional_document_round_trip(functional):
    doc = functional_document(functional)
    assert set(doc) == {"scenario", "form", "terms"} | (
        set() if functional.cached_bound is None else {"bound"})
    assert parse_functional_document(doc) == functional
    assert parse_functional_document(json.loads(json.dumps(doc))) == functional


def test_functional_document_route_exclusivity():
    doc = {
        "scenario": {"parties": 2, "settings": 2, "outcomes": 2},
        "form": "real-part",
        "coefficients": [[1, 1], [1, -1]],
        "terms": [{"settings": [0, 0], "mask": [1, 1], "weight": 1.0}],
    }
    with pytest.raises(SpecParseError):
        parse_functional_document(doc)


# JSON-like values, plus documents that get past the first checks of each parser
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 4) | st.floats()
    | st.sampled_from(["", "real-part", "modulus", "fourier", "k2-conjugate", "bilinear"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=12,
)
scenarios = st.fixed_dictionaries(
    {"parties": st.integers(1, 3), "settings": st.integers(1, 3), "outcomes": st.integers(2, 4)}
) | json_values
nested = st.recursive(st.integers(-1, 4) | st.floats() | st.lists(st.floats(), max_size=2),
                      lambda inner: st.lists(inner, min_size=1, max_size=3), max_leaves=16)
routes = (
    st.fixed_dictionaries({"construction": st.fixed_dictionaries(
        {"basis": st.sampled_from(["fourier", "k2-conjugate"]) | json_values, "g": nested},
        optional={"pairing": st.sampled_from(["bilinear", "sesquilinear"]) | json_values},
    )})
    | st.fixed_dictionaries({"coefficients": nested})
    | st.fixed_dictionaries({"terms": st.lists(st.fixed_dictionaries(
        {"settings": nested, "mask": nested, "weight": nested}), max_size=3) | json_values})
)
functional_documents = json_values | st.builds(
    lambda head, route: {**head, **route},
    st.fixed_dictionaries(
        {"scenario": scenarios, "form": st.sampled_from(["real-part", "modulus"]) | json_values},
        optional={"mask": nested, "bound": json_values},
    ),
    routes,
)
setup_documents = json_values | st.fixed_dictionaries(
    {"scenario": scenarios, "amplitudes": nested | json_values, "phases": nested | json_values}
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(functional=functional_documents, setup=setup_documents)
def test_document_parsers_raise_only_spec_parse_errors(functional, setup):
    for parse, doc in ((parse_functional_document, functional), (parse_setup_document, setup)):
        try:
            parse(doc)
        except SpecParseError:
            pass
