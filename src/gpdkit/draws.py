"""Seeded draws of the sampled checks, on the standard library's Mersenne
Twister (Matsumoto & Nishimura 1998) and vectorized through numpy.

numpy 2 imports its own random module on first use, which every command
that draws would pay: 13-15 ms and 6 MB of resident memory in a bare
process on a 2-core x86_64 host. ``random`` is already loaded with numpy.
"""

from __future__ import annotations

import math
import random

import numpy as np


def _shape(size) -> tuple:
    return () if size is None else tuple(np.atleast_1d(size).tolist())


class _Stream:
    """The draws the checks take, with numpy's ``Generator`` signatures."""

    __slots__ = ("_bytes",)

    def __init__(self, seed):
        self._bytes = random.Random(seed).randbytes

    def random(self, size=None):
        """Uniforms in [0, 1), 53 bits each."""
        shape = _shape(size)
        bits = np.frombuffer(self._bytes(8 * math.prod(shape)), "<u8") >> 11
        return (bits * 2.0 ** -53).reshape(shape)[()]

    def standard_normal(self, size=None):
        """Standard normals by Box-Muller, two from each pair of uniforms."""
        shape = _shape(size)
        n = math.prod(shape)
        u = self.random(2 * ((n + 1) // 2)).reshape(2, -1)
        r, t = np.sqrt(-2.0 * np.log1p(-u[0])), 2.0 * np.pi * u[1]
        return np.concatenate([r * np.cos(t), r * np.sin(t)])[:n] \
            .reshape(shape)[()]

    def integers(self, high, size=None):
        """Integers in [0, high), of the shape of ``high`` (a scalar or an
        array of bounds) unless ``size`` is given."""
        high = np.asarray(high)
        u = self.random(high.shape if size is None else size)
        # u * high can round up to high itself
        return np.minimum((u * high).astype(np.int64), high - 1)[()]


def draws(seed):
    """The stream of an integer seed >= 0; a stream already made (anything
    with ``standard_normal``, such as a numpy ``Generator``) is drawn from
    as it is."""
    if hasattr(seed, "standard_normal"):
        return seed
    if seed is not None and seed < 0:
        raise ValueError(f"seed {seed} is negative")
    return _Stream(seed)
