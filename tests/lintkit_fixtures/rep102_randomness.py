# lint-as: src/repro/traffic/jitter.py
"""REP102 fixture: unseeded randomness in engine code."""
import random

import numpy as np


def noisy():
    a = random.random()  # expect: REP102
    b = np.random.rand(3)  # expect: REP102
    rng = np.random.default_rng()  # expect: REP102
    return a, b, rng


def seeded(seed):
    rng = np.random.default_rng(seed)
    explicit = random.Random(seed)
    return rng, explicit


def optional_seed(count, seed=None):
    rng = np.random.default_rng(seed)  # expect: REP102
    return rng.integers(0, 10, size=count)


def optional_seed_by_keyword(*, seed=None, entropy=None):
    explicit = random.Random(x=seed)  # expect: REP102
    sequence = np.random.SeedSequence(entropy=entropy)  # expect: REP102
    return explicit, sequence


def optional_seed_in_a_closure(seed=None):
    def draw():
        return np.random.default_rng(seed).random()  # expect: REP102

    return draw


def integer_default(seed=0, *, other=7):
    return np.random.default_rng(seed), random.Random(other)


def required_parameter(seed, scale=None):
    return np.random.default_rng(seed).random() * (scale or 1.0)


def derived_seed(cfg, label=None):
    return np.random.default_rng(cfg.seed + 1), np.random.SeedSequence(cfg.seed), label
