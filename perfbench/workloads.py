"""Seeded workload generator for the jetsym benchmark.

Each workload is a batch of analyses, each one a ``jetsym`` command line
plus the decisive fields its JSON output must show.  The seed picks the
instances; the program under test sees only the generated command lines.
Seed 0 is the default: for ``criterion-goldens`` it reproduces the
acceptance-8 configurations exactly.  Every other seed draws instances
whose answer is known by construction, so the expectation is derived
from the seed and never from running the program.

The three workloads and the layers they load are described in README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 0

# Decay rates c for u_t = u_2 - c^2*u.  The pool holds small
# rationals only: ROADMAP item 4 records that a huge c^2 (10^20) hangs in
# rational_roots, so such inputs stay out until that is fixed.
C_POOL = (
    Fraction(2),
    Fraction(3),
    Fraction(1, 2),
    Fraction(3, 2),
    Fraction(2, 3),
    Fraction(4),
)

# Known symmetry characteristics (t-free), per equation.  The benchmark's
# tests re-verify each of them with jetsym.engine.symmetry_defect.
HEAT = "u_t = u_2"
KDV = "u_t = u_3 + u*u_1"
POT_BURGERS = "u_t = u_2 + u_1^2"

SYMMETRIES = {
    HEAT: ("1", "y", "u", "u_1", "u_2", "u_3", "u_4"),
    KDV: (
        "u_1",
        "u_3 + u*u_1",
        "u_5 + 5/3*u*u_3 + 10/3*u_1*u_2 + 5/6*u^2*u_1",
    ),
    # Cole-Hopf: v = exp(u) solves the heat equation, so exp(-u) times a
    # heat solution is a characteristic.
    POT_BURGERS: (
        "1",
        "u_1",
        "u_2 + u_1^2",
        "u_3 + 3*u_1*u_2 + u_1^3",
        "exp(-u)",
        "y*exp(-u)",
    ),
}

# Known non-symmetries.  The symmetry defect is linear in the
# characteristic, so S + k*N with S a symmetry and k != 0 has defect
# k*defect(N), which is nonzero.  The last entry of each list is a large
# power that makes the expression layer do real work.
NON_SYMMETRIES = {
    HEAT: ("u^2", "y*u_1", "u_1^2", "exp(y)*u", "(u + u_1 + u_2 + u_3 + u_4 + y)^6"),
    KDV: ("u", "y*u_1", "u^2", "u_2", "exp(y)*u_1", "(u + u_1 + u_2 + u_3 + y)^6"),
    POT_BURGERS: ("u", "y*u_1", "u_1^2", "exp(u)", "(u + u_1 + u_2 + u_3 + y)^6"),
}

SYMMETRIES_PER_RUN = 2


@dataclass(frozen=True)
class Item:
    """One analysis: its command line and the decisive fields it must show."""

    name: str
    argv: tuple
    expect: dict


def _decay_rate(seed: int) -> Fraction:
    """c for the seeded decay and spectrum instances; 1 for the default seed."""
    if seed == DEFAULT_SEED:
        return Fraction(1)
    return random.Random(f"c:{seed}").choice(C_POOL)


def _times_u(coeff: Fraction) -> str:
    return "u" if coeff == 1 else f"{coeff}*u"


def _exp_y(w: Fraction) -> str:
    return "exp(y)" if w == 1 else f"exp({w}*y)"


def criterion_goldens(seed: int) -> list:
    c = _decay_rate(seed)
    c2 = c * c
    return [
        Item(
            "heat-criterion",
            ("--eq", HEAT, "--mode", "criterion"),
            {
                "exit": 0,
                "candidates": ["0"],
                "residual_factors": [],
                "exists": True,
                "method": "direct-linear",
                "witness": "y",
                "witness_weights": {"y": "0"},
            },
        ),
        Item(
            "decay-criterion",
            ("--eq", f"u_t = u_2 - {_times_u(c2)}", "--mode", "criterion"),
            {
                "exit": 0,
                "candidates": [str(-c), "0", str(c)],
                "residual_factors": [],
                "exists": True,
                "method": "direct-exponential",
                "witness": _exp_y(c),
                "witness_weights": {"y": str(c)},
            },
        ),
        Item(
            "kdv-criterion",
            ("--eq", KDV, "--mode", "criterion", "--ydeg", "1"),
            {
                "exit": 0,
                "exists": False,
                "method": "direct",
                "witness": None,
                "certificate_kind": "ansatz-exhaustive",
            },
        ),
        Item(
            "spectrum-error",
            ("--eq", f"u_t = u_2 + {_times_u(c2)}", "--mode", "criterion"),
            {"exit": 5, "kind": "spectrum", "factors": [f"lambda^2 + {c2}"]},
        ),
        Item(
            "closure-error",
            (
                "--eq", "u_t = u_2 + u^2", "--target", "u",
                "--mode", "structure", "--lambda", "none",
            ),
            {"exit": 4, "kind": "closure", "factors": []},
        ),
    ]


def weight_scan(seed: int) -> list:
    c = _decay_rate(seed)
    c2 = c * c
    scan = ("--mode", "solve", "--ydeg", "0", "--jetdeg", "3")
    return [
        Item(
            "heat-scan",
            ("--eq", HEAT) + scan + ("--order", "4"),
            {"exit": 0, "candidates": ["0"], "residual_factors": []},
        ),
        Item(
            "growth-scan",
            ("--eq", f"u_t = u_2 + {_times_u(c2)}") + scan + ("--order", "3"),
            {"exit": 0, "candidates": ["0"], "residual_factors": [f"lambda^2 + {c2}"]},
        ),
        Item(
            "kdv-scan",
            ("--eq", KDV) + scan + ("--order", "3"),
            {"exit": 0, "candidates": ["0"], "residual_factors": []},
        ),
    ]


def _small_rational(rng: random.Random) -> Fraction:
    num = rng.choice((-1, 1)) * rng.randint(1, 9)
    return Fraction(num, rng.randint(1, 9))


def _combination(rng: random.Random, terms) -> str:
    return " + ".join(f"{_small_rational(rng)}*({t})" for t in terms)


def check_batch(seed: int) -> list:
    """One check run per equation: symmetries S, and S + k*N for every N."""
    rng = random.Random(f"checks:{seed}")
    items = []
    for name, eq in (("heat-check", HEAT), ("kdv-check", KDV), ("burgers-check", POT_BURGERS)):
        texts, flags = [], []
        for _ in range(SYMMETRIES_PER_RUN):
            texts.append(_combination(rng, SYMMETRIES[eq]))
            flags.append(True)
        for n in NON_SYMMETRIES[eq]:
            s = _combination(rng, rng.sample(SYMMETRIES[eq], 2))
            texts.append(f"{s} + {_small_rational(rng)}*({n})")
            flags.append(False)
        argv = ("--eq", eq)
        for t in texts:
            argv += ("--check", t)
        items.append(Item(name, argv, {"exit": 0, "symmetry": flags}))
    return items


WORKLOADS = {
    "criterion-goldens": criterion_goldens,
    "weight-scan": weight_scan,
    "check-batch": check_batch,
}


def generate(workload: str, seed: int) -> list:
    """The batch of items for a workload and seed; same seed, same items."""
    return WORKLOADS[workload](seed)
