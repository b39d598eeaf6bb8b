"""The reference task whose time measures the host's speed (see README.md).

It imports nothing but numpy and touches no brwre code, so the program
under test cannot change what it computes.
"""

import time

import numpy


class Reference:
    """A fixed mix of small numpy draws and Python arithmetic, about 6 ms."""

    def __init__(self):
        self.rng = numpy.random.default_rng(0)

    def time(self):
        start = time.perf_counter()
        counts = numpy.full(64, 1000, dtype=numpy.int64)
        for _ in range(200):
            drawn = self.rng.binomial(counts, 0.3)
            counts = numpy.maximum(counts + drawn - counts // 3, 1)
        return time.perf_counter() - start
