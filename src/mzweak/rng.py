"""Deterministic, splittable random number streams.

All randomness in the package flows from a single integer seed. Substreams
are derived from (seed, path) pairs, where the path is a tuple of small
integers naming the consumer, so a record is reproduced bit-exactly whatever
else is computed, in any order. A record draws its whole array in one call,
repeat-, profile- or draw-major, so its first k rows do not depend on the total.

The generator is Philox (counter-based); derivation uses SeedSequence spawn
keys, which is the documented numpy mechanism for non-overlapping streams.

Stream namespace (first path component):
    SCAN_COUNTS  (.., theta_key, axis_key)
    SCAN_DRIFT   (.., theta_key, axis_key)
    DRIFT_RUN    (.., axis_key)
    DRIFT_WALK   (.., axis_key)
    G2           (..)
    BOOTSTRAP    (.., theta_key, axis_key)
    ABL_MC       (.., free)
"""

from __future__ import annotations

import numpy as np

SCAN_COUNTS = 1
SCAN_DRIFT = 2
DRIFT_RUN = 3
DRIFT_WALK = 4
G2 = 5
BOOTSTRAP = 6
ABL_MC = 7

AXIS_KEY = {"x": 0, "y": 1}


# Largest |millidegrees| of an angle: its rounded count then fits a signed
# 32-bit integer, so no two keys alias modulo 2**32.
_MAX_MILLIDEGREES = 2**31 - 0.5


def theta_key(theta_deg: float) -> int:
    """Encode an angle as an unsigned 32-bit key (millidegree resolution).

    Raises ValueError for an angle whose rounded millidegree count would not
    fit a signed 32-bit integer (or is not a number)."""
    theta = float(theta_deg)
    milli = theta * 1000.0
    if not abs(milli) < _MAX_MILLIDEGREES:
        raise ValueError(
            f"theta must be in (-{_MAX_MILLIDEGREES / 1000}, {_MAX_MILLIDEGREES / 1000}) degrees, "
            f"so its millidegree count fits the signed 32-bit stream key, got {theta!r}"
        )
    return int(round(milli)) & 0xFFFFFFFF


def stream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator on the substream named by ``path`` under ``seed``."""
    key = tuple(int(p) & 0xFFFFFFFF for p in path)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))
