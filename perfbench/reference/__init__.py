"""A frozen reference kernel that calibrates the benchmark's timings.

``weil.py`` and ``poly.py`` are verbatim copies of ``src/microlie/weil.py``
and ``src/microlie/poly.py`` at the commit that added the benchmark.  They
must never follow later changes to the package: the kernel measures how fast
this machine runs microlie's hot path at that moment, not how fast the
program is.  On a 2-CPU virtual machine whose speed drifts by up to 60% over
minutes, the ratio of a call's time to the kernel's time, taken in the same
run, is several times steadier than the call's time alone, and a kernel that
shares the program's instruction mix tracks the drift better than a generic
one.
"""

from __future__ import annotations

import random
import time

from .poly import Poly
from .weil import InfinitesimalDomain, WeilElement


def _random_poly(rng: random.Random, domain: InfinitesimalDomain) -> Poly:
    terms = {}
    for a in range(4):
        for b in range(4 - a):
            if rng.random() < 0.7:
                terms[(a, b)] = WeilElement(domain, {m: rng.randint(-3, 3) for m in domain.monomials()})
    return Poly(2, domain, terms)


class Kernel:
    """One fixed composition of degree-3 polynomials over D^2 coefficients."""

    def __init__(self) -> None:
        rng = random.Random(3)
        d2 = InfinitesimalDomain.power(2)
        self.outer = _random_poly(rng, d2)
        self.inner = (_random_poly(rng, d2), _random_poly(rng, d2))

    def seconds(self) -> float:
        start = time.perf_counter()
        self.outer.compose(self.inner)
        return time.perf_counter() - start
