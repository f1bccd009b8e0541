"""Named functional documents shipped with the package.

Each preset is a complete functional document (see specdoc), so the CLI and
the test suite need no external files.  Cached bounds are exact enumeration
results for the qutrit presets and the textbook value for chsh.
"""

from __future__ import annotations

import math

_SQRT3 = math.sqrt(3.0)
_ALPHA_RE, _ALPHA_IM = -0.5, _SQRT3 / 2  # primitive cube root of unity

# Correlation-form coefficients: 1 - alpha, 1 - alpha^2, alpha - 1 as pairs.
_ONE_MINUS_A = [1.5, -_ALPHA_IM]
_ONE_MINUS_A2 = [1.5, _ALPHA_IM]
_A_MINUS_ONE = [-1.5, _ALPHA_IM]
# alpha^2 * (1 - alpha) = alpha^2 - 1
_A2_MINUS_ONE = [-1.5, -_ALPHA_IM]

_CGLMP_SCENARIO = {"parties": 2, "settings": 2, "outcomes": 3}
_I323_SCENARIO = {"parties": 3, "settings": 2, "outcomes": 3}


def _scaled(pair, factor):
    return [pair[0] * factor, pair[1] * factor]


PRESETS: dict[str, dict] = {
    # Two-setting qubit functional recovering the CHSH coefficients (1,1,1,-1).
    "chsh": {
        "scenario": {"parties": 2, "settings": 2, "outcomes": 2},
        "form": "real-part",
        "construction": {"basis": "fourier", "pairing": "bilinear", "g": [[0, 0], [0, 1]]},
        "bound": 2.0,
    },
    # Probability-form qutrit inequality (coincidence aggregates, bound 2)
    # expressed through its exact correlation rewriting scaled by 2/3.
    "cglmp-223": {
        "scenario": _CGLMP_SCENARIO,
        "form": "real-part",
        "terms": [
            {"settings": [0, 0], "mask": [1, 2], "weight": _scaled(_ONE_MINUS_A, 2 / 3)},
            {"settings": [0, 1], "mask": [1, 2], "weight": _scaled(_ONE_MINUS_A2, 2 / 3)},
            {"settings": [1, 0], "mask": [1, 2], "weight": _scaled(_A_MINUS_ONE, 2 / 3)},
            {"settings": [1, 1], "mask": [1, 2], "weight": _scaled(_ONE_MINUS_A, 2 / 3)},
        ],
        "bound": 2.0,
    },
    # Correlation-form qutrit inequality, bound 3.
    "cglmp-corr-223": {
        "scenario": _CGLMP_SCENARIO,
        "form": "real-part",
        "mask": [1, 2],
        "coefficients": [
            [_ONE_MINUS_A, _ONE_MINUS_A2],
            [_A_MINUS_ONE, _ONE_MINUS_A],
        ],
        "bound": 3.0,
    },
    # Three-party generalization with per-term conjugation masks, bound 3.
    "i323": {
        "scenario": _I323_SCENARIO,
        "form": "real-part",
        "terms": [
            {"settings": [0, 1, 1], "mask": [1, 2, 1], "weight": _ONE_MINUS_A},
            {"settings": [1, 0, 1], "mask": [2, 2, 2], "weight": _A2_MINUS_ONE},
            {"settings": [1, 1, 0], "mask": [1, 1, 1], "weight": _ONE_MINUS_A},
            {"settings": [0, 0, 0], "mask": [1, 2, 1], "weight": _ONE_MINUS_A2},
        ],
        "bound": 3.0,
    },
    # Tight three-party conjugate-basis family (facets of the correlation polytope).
    "tight-323-g1": {
        "scenario": _I323_SCENARIO,
        "form": "real-part",
        "construction": {
            "basis": "k2-conjugate",
            "pairing": "bilinear",
            "g": [[[0, 0], [0, 0]], [[0, 1], [0, 0]]],
        },
    },
    "tight-323-g2": {
        "scenario": _I323_SCENARIO,
        "form": "real-part",
        "construction": {
            "basis": "k2-conjugate",
            "pairing": "bilinear",
            "g": [[[0, 0], [1, 0]], [[2, 2], [2, 0]]],
        },
    },
    "tight-323-g3": {
        "scenario": _I323_SCENARIO,
        "form": "real-part",
        "construction": {
            "basis": "k2-conjugate",
            "pairing": "bilinear",
            "g": [[[0, 0], [0, 0]], [[0, 0], [1, 1]]],
        },
    },
}


def preset_names() -> list[str]:
    return sorted(PRESETS)

