import os
import random
from pathlib import Path

import cf2
from cf2.surd import QuadraticSurd


def child_env() -> dict[str, str]:
    """The environment for a Python subprocess that imports cf2, with this checkout's src first."""
    src = str(Path(cf2.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def random_surd(rng: random.Random, d_max: int = 10**6) -> QuadraticSurd:
    """A normalized random surd; construction canonicalizes any (P, D, Q)."""
    while True:
        d = rng.randint(2, d_max)
        r = int(d ** 0.5)
        if r * r == d or (r + 1) * (r + 1) == d:
            continue
        p = rng.randint(-500, 500)
        q = rng.randint(-50, 50)
        if q == 0:
            continue
        return QuadraticSurd(p, d, q)


def random_periodic_cf(rng: random.Random, max_pre: int = 5, max_period: int = 8,
                       digit_max: int = 9):
    from cf2.cf import CF
    pre = tuple(rng.randint(1, digit_max) for _ in range(rng.randint(0, max_pre)))
    period = tuple(rng.randint(1, digit_max) for _ in range(rng.randint(1, max_period)))
    return CF(rng.randint(-3, 3), pre, period)
