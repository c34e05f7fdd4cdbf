"""Deterministic, splittable random number streams.

All randomness in the package flows from a single integer seed. Substreams
are derived from (seed, path) pairs, where the path is a tuple of small
integers naming the consumer, so a record is reproduced bit-exactly whatever
else is computed, in any order. A record draws its whole array in one call,
repeat-, profile- or draw-major, so its first k rows do not depend on the total.

The generator is Philox (counter-based); derivation uses SeedSequence spawn
keys, which is the documented numpy mechanism for non-overlapping streams.

Stream namespace (first path component):
    SCAN_COUNTS  (.., theta_hi, theta_lo, axis_key)
    SCAN_DRIFT   (.., theta_hi, theta_lo, axis_key)
    DRIFT_RUN    (.., axis_key)
    DRIFT_WALK   (.., axis_key)
    G2           (..)
    BOOTSTRAP    (.., theta_hi, theta_lo, axis_key)
    ABL_MC       (.., free)

(theta_hi, theta_lo) = theta_key(theta), the two 32-bit words of the angle's
float64 bits, so two distinct angles never name one stream.
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


def theta_key(theta_deg: float) -> tuple[int, int]:
    """The (high, low) 32-bit words of the angle's float64 bits; -0.0 is 0.0."""
    return divmod(int(np.float64(float(theta_deg) + 0.0).view(np.uint64)), 2**32)


def stream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator on the substream named by ``path`` under ``seed``;
    each path word is an unsigned 32-bit integer."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=path)
    return np.random.Generator(np.random.Philox(ss))
