"""Comment-text generation for TPC-H columns.

TPC-H comments are pseudo-sentences over a fixed vocabulary. The only
query in our suite whose *answer* depends on comment content is Q13,
which filters orders whose comment matches ``%special%requests%``;
the generator plants that pattern in 2 % of orders (3.5 % match at scale
factor 0.011, seed 2007: an unplanted comment may draw "special" before
"requests"). A comment is drawn as word codes, kept a byte a word.
"""

from __future__ import annotations

from repro.tpch.rng import Stream

__all__ = ["comment_code", "comment_column", "matches_special_requests"]
__all__ += ["SPECIAL_REQUEST_PROBABILITY"]

# fmt: off
_WORDS = (
    "furiously", "quickly", "carefully", "blithely", "slyly", "ironic",
    "final", "pending", "regular", "express", "bold", "silent", "even",
    "special", "unusual", "deposits", "requests", "accounts", "packages",
    "theodolites", "instructions", "platelets", "foxes", "asymptotes",
    "dependencies", "pinto", "beans", "sleep", "wake", "nag", "haggle",
    "cajole", "integrate", "boost", "detect", "engage", "maintain",
)
# fmt: on
# A draw over as many codes as words takes the twister words a word's draw does.
_CODES = tuple(range(len(_WORDS)))
_END = len(_WORDS)  # ends one comment's codes in a column's buffer

SPECIAL_REQUEST_PROBABILITY = 0.02


def comment_code(
    stream: Stream, min_words: int = 4, max_words: int = 10, plant_special: bool = False
) -> list[int]:
    """One pseudo-sentence as word codes and ``_END``; may force the Q13 pattern in."""
    codes = stream.choice_list(_CODES, stream.uniform_int(min_words, max_words))
    if plant_special:
        # "special" strictly before "requests" with arbitrary filler,
        # which is what LIKE '%special%requests%' requires.
        pos = stream.uniform_int(0, max(len(codes) - 2, 0))
        codes[pos:pos] = [_WORDS.index("special"), _WORDS.index("requests")]
    codes.append(_END)
    return codes


def comment_column(codes: bytearray) -> list[str]:
    """The comments a column's buffer of :func:`comment_code` codes spells."""
    return [" ".join(map(_WORDS.__getitem__, row)) for row in codes.split(bytes((_END,)))[:-1]]


def matches_special_requests(text: str) -> bool:
    """Evaluate LIKE '%special%requests%' (Q13's predicate)."""
    first = text.find("special")
    if first < 0:
        return False
    return text.find("requests", first + len("special")) >= 0
