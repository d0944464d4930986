"""Seeded random scenarios for property tests.

Polynomial profiles of degree <= 3 with coefficients uniform in [-1, 1],
resolutions uniform in [0.5, 4], endpoints uniform in [-1, 1], in internal
units (hbar = m = T = 1, g = 1).  The seed comes from the RPIF_SEED
environment variable when set, otherwise a fixed default; either way it is
echoed by the test session so runs are reproducible.
"""

from __future__ import annotations

import os

import numpy as np

from rpif.scenario import BeamRecord, PhysicalParams, Scenario, validate_scenario
from rpif.timefunctions import PolynomialFunction

DEFAULT_SEED = 721803


def resolve_seed() -> int:
    raw = os.environ.get("RPIF_SEED", "")
    return int(raw) if raw.strip() else DEFAULT_SEED


def random_polynomial(rng: np.random.Generator, max_degree: int = 3) -> PolynomialFunction:
    coefs = tuple(rng.uniform(-1.0, 1.0, size=max_degree + 1))
    return PolynomialFunction(coefs)


def random_scenario(rng: np.random.Generator) -> Scenario:
    params = PhysicalParams(m=1.0, g=1.0, hbar=1.0, tau_start=0.0, tau_end=1.0)
    scenario = Scenario(
        params=params,
        z1=float(rng.uniform(-1.0, 1.0)),
        z2=float(rng.uniform(-1.0, 1.0)),
        frame_profile=random_polynomial(rng),
        beam_a=BeamRecord(trajectory=random_polynomial(rng),
                          resolution=float(rng.uniform(0.5, 4.0))),
        beam_b=BeamRecord(trajectory=random_polynomial(rng),
                          resolution=float(rng.uniform(0.5, 4.0))),
    )
    return validate_scenario(scenario)
