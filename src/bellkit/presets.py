"""Named functional documents shipped with the package.

Each preset is a complete functional document (see specdoc), so the CLI and
the test suite need no external files.  The CGLMP and three-party presets are
the terms documents of the cglmp constructors, with their exact cached
bounds; the tight three-party presets keep the construction route, whose
"pairing" field sets the pairing.  chsh carries the textbook bound.
"""

from __future__ import annotations

from dataclasses import asdict

from .cglmp import (
    I323_SCENARIO,
    PROBABILITY_TO_CORRELATION_SCALE,
    TIGHT_323_G_TABLES,
    cglmp_correlation_functional,
    i323_functional,
)
from .specdoc import functional_document

PRESETS: dict[str, dict] = {
    # Two-setting qubit functional recovering the CHSH coefficients (1,1,1,-1).
    "chsh": {
        "scenario": {"parties": 2, "settings": 2, "outcomes": 2},
        "form": "real-part",
        "construction": {"basis": "fourier", "pairing": "bilinear", "g": [[0, 0], [0, 1]]},
        "bound": 2.0,
    },
    # Probability-form qutrit inequality (coincidence aggregates, bound 2)
    # through its exact correlation rewriting.
    "cglmp-223": functional_document(
        cglmp_correlation_functional().rescaled(PROBABILITY_TO_CORRELATION_SCALE)
    ),
    # Correlation-form qutrit inequality, bound 3.
    "cglmp-corr-223": functional_document(cglmp_correlation_functional()),
    # Three-party generalization with per-term conjugation masks, bound 3.
    "i323": functional_document(i323_functional()),
    # Tight three-party conjugate-basis family (facets of the correlation polytope).
    **{
        f"tight-323-{name}": {
            "scenario": asdict(I323_SCENARIO),
            "form": "real-part",
            "construction": {"basis": "k2-conjugate", "pairing": "bilinear", "g": g.tolist()},
        }
        for name, g in TIGHT_323_G_TABLES.items()
    },
}


def preset_names() -> list[str]:
    return sorted(PRESETS)
