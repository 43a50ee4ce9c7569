"""A fixed unit of work that measures how fast the machine is right now.

On a shared host the speed of a core drifts by 20-30% over minutes, and
the benchmark's commands and other CPU work done at about the same time
drift together. The benchmark runs this unit between commands and divides
their times by its times, which takes most of the drift out of the gated
metrics while keeping every change in ruleforge's own code.

The unit is a mix of what ruleforge's commands spend time on: splitting
rule options into dicts, counting, a pure-Python edit distance, numpy
arithmetic and JSON. It uses no ruleforge code, so no change to the
program changes the unit, and its inputs are fixed, so every run does
the same work.
"""

from __future__ import annotations

import gc
import json
import random
import time
from collections import Counter
from functools import cache

import numpy as np


@cache
def _inputs() -> tuple:
    rng = random.Random(0)
    letters = "abcdefghijklmnopqrstuvwxyz0123456789"
    options = [
        "; ".join(f"k{rng.randrange(14)}:v{rng.randrange(40)}" for _ in range(rng.randrange(3, 10)))
        for _ in range(2000)
    ]
    words = ["".join(rng.choice(letters) for _ in range(18)) for _ in range(12)]
    counts = np.array([rng.randrange(1, 50) for _ in range(4096)], dtype=float)
    return options, words, counts


def _distance(a: str, b: str) -> int:
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        current = [i]
        for j, cb in enumerate(b, 1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


def _work() -> int:
    options, words, counts = _inputs()
    parsed = [dict(part.split(":", 1) for part in line.split("; ")) for line in options]
    pairs = Counter((key, value) for rule in parsed for key, value in rule.items())
    distances = sum(_distance(a, b) for a in words for b in words[:4])
    probabilities = counts / counts.sum()
    for _ in range(60):
        probabilities = np.log1p(np.outer(probabilities[:128], probabilities[:128]).ravel())
    model = json.loads(json.dumps({"pairs": {f"{k}={v}": n for (k, v), n in pairs.items()}, "rules": parsed}))
    return len(model["rules"]) + distances + int(probabilities.size)


def reference_unit() -> float:
    """Run the unit once and return its wall time in seconds.

    The collector is off while it runs, so a collection of the caller's
    heap is not counted.
    """
    _inputs()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        gc.enable()
