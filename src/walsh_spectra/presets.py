"""Built-in example process specifications.

Two time-varying moving-average surfaces that exercise the whole
pipeline end to end; their curve strings are the canonical demo inputs
for the spectrum and figure commands.
"""

from __future__ import annotations

from .processes import ProcessSpec, spec_from_dict

PRESETS: dict[str, dict] = {
    # order-1: one oscillating curve against a constant
    "figure1": {
        "kind": "tvDMA",
        "ma": ["-1.8*cos(1.5-cos(4*pi*u))", "0.81"],
        "sigma": 1.0,
        "distribution": "gaussian",
    },
    # order-2: faster oscillation plus a linear ramp coefficient
    "figure2": {
        "kind": "tvDMA",
        "ma": ["1.2*cos(2*pi*u)", "2*cos(1.5-cos(8*pi*u))", "u", "0"],
        "sigma": 1.0,
        "distribution": "gaussian",
    },
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(PRESETS))


def preset_spec(name: str, seed: int = 0) -> ProcessSpec:
    """Instantiate a named preset with the given seed."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    return spec_from_dict({**PRESETS[name], "seed": seed})
