"""Deterministic random streams for data generation.

Every TPC-H table gets its own seeded stream derived from a master
seed and the table name, so regenerating one table (or adding a new
one) never perturbs the others — the property dbgen achieves with its
per-column seed tables.

A stream is a :class:`random.Random` Mersenne Twister read through the
only two primitives every other draw of that class is built from:
``getrandbits(k)`` and ``random()``. An integer or choice draw over
``n`` values is ``_randbelow``'s rejection loop written out here — draw
``k = n.bit_length()`` bits, redraw while the result is ``>= n`` — and a
float draw is ``lo + (hi - lo) * random()``, which is what ``uniform``
computes. So every draw takes the same twister words, in the same order,
as ``randint``, ``choice`` and ``uniform`` did on CPython 3.10–3.13
(``tests/test_tpch_generator.py`` checks the two agree), and the
generated database does not depend on how a release happens to route
those methods. It also costs one Python frame per draw instead of four
(``randint → randrange → _randbelow → getrandbits``), which is most of
the generator's time. The bound forms (:meth:`Stream.ints`,
:meth:`Stream.floats`) take the range once, so a table's inner loop does
not recompute a width and its ``bit_length`` for every value.

A choice from ``n`` options and ``ints(0, n - 1)`` take the same words,
so the index the integer draw makes is the option the choice would
have picked. The generator draws every small-domain column of
``orders`` and ``lineitem`` that way and stores the index as the
value's code; the table builds the values from their domain when a
query reads the column.
"""

from __future__ import annotations

import random
import zlib
from collections.abc import Callable, Sequence
from typing import TypeVar

__all__ = ["Stream", "stream_for"]

T = TypeVar("T")


class Stream:
    """A seeded random stream with the generator's helper draws.

    ``random`` is the stream's own ``random.Random.random``: a float in
    ``[0, 1)``, for a caller that compares it against a probability in
    its inner loop.
    """

    __slots__ = ("_bits", "random")

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self._bits = rng.getrandbits
        self.random = rng.random

    def uniform_int(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        n = hi - lo + 1
        if n <= 0:
            raise ValueError(f"empty range [{lo}, {hi}]")
        bits = self._bits
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return lo + r

    def uniform_float(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def choice(self, options: Sequence[T]) -> T:
        n = len(options)
        if not n:
            raise IndexError("cannot choose from an empty sequence")
        bits = self._bits
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return options[r]

    def choice_list(self, options: Sequence[T], count: int) -> list[T]:
        """``count`` independent :meth:`choice` draws, in one frame."""
        n = len(options)
        if not n:
            raise IndexError("cannot choose from an empty sequence")
        bits = self._bits
        k = n.bit_length()
        picked = []
        for _ in range(count):
            r = bits(k)
            while r >= n:
                r = bits(k)
            picked.append(options[r])
        return picked

    def ints(self, lo: int, hi: int) -> Callable[[], int]:
        """:meth:`uniform_int` over [lo, hi] bound once: the range is
        checked here, and each call is one draw."""
        n = hi - lo + 1
        if n <= 0:
            raise ValueError(f"empty range [{lo}, {hi}]")
        bits = self._bits
        k = n.bit_length()

        def draw() -> int:
            r = bits(k)
            while r >= n:
                r = bits(k)
            return lo + r

        return draw

    def floats(self, lo: float, hi: float) -> Callable[[], float]:
        """:meth:`uniform_float` over [lo, hi) bound once."""
        width = hi - lo
        rand = self.random

        def draw() -> float:
            return lo + width * rand()

        return draw


def stream_for(master_seed: int, name: str) -> Stream:
    """Derive a per-table stream from the master seed and a label."""
    derived = master_seed ^ zlib.crc32(name.encode("utf-8"))
    return Stream(derived)
