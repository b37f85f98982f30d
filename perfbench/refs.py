"""Reference checks that do not come from the code under test.

Elementary number theory here; brute-force isotropy is the test suite's
oracle (tests/oracles.py, outside src/), imported read-only as `oracles`.
"""

from __future__ import annotations

import math
import os
import sys

sys.path.append(os.path.abspath("tests"))
import oracles  # noqa: E402,F401


# --- number theory -----------------------------------------------------------

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def primitive_root(p: int) -> int:
    """Smallest generator of (Z/p)^x."""
    factors = [q for q in range(2, p) if (p - 1) % q == 0 and is_prime(q)]
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    return 1   # p = 2
