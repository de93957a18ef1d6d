"""How fast the host runs right now, from a fixed piece of reference work.

The 2-vCPU host this benchmark was built on drifts by up to 1.6x within
minutes, in phases that outlast a run: CPU time follows wall time, so no
time is stolen, the code just runs slower, and every kind of filtcoh job
slows down together. ``reference`` times a fixed mix of interpreter work
that does not touch filtcoh (GF(2) ranks, a big-integer binomial sum, dict
updates); run.py times it after every job and divides each round's job
times by the round's speed factor, the median reference time over
NOMINAL_S. Job times are then reported at one fixed host speed, and a change
to filtcoh still moves them in full, as the reference does not run its code.
Interpreter start-up slows less than the reference in a slow phase, so
set-up time is reported unscaled.
"""

from __future__ import annotations

import math
import random
import time

from checks import gf2_rank

# median reference time in a quiet, fast phase of the host (Xeon at
# 2.1 GHz, Python 3.11), where the factor is then 1; it fixes the unit
NOMINAL_S = 0.0042

_rng = random.Random(20261018)
_VECTORS = [_rng.getrandbits(200) for _ in range(200)]


def reference() -> float:
    """Wall time of the reference work."""
    start = time.perf_counter()
    gf2_rank(_VECTORS)
    sum((-1) ** k * math.comb(700, k) for k in range(350))
    table: dict[int, int] = {}
    for i, v in enumerate(_VECTORS * 8):
        table[v % 997] = table.get(v % 997, 0) ^ i
    return time.perf_counter() - start
