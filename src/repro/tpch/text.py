"""Comment-text generation for TPC-H columns.

TPC-H comments are pseudo-sentences over a fixed vocabulary. The only
query in our suite whose *answer* depends on comment content is Q13,
which filters orders whose comment matches ``%special%requests%``;
the generator therefore plants that pattern with a controlled
probability so Q13's selectivity is realistic and deterministic.
"""

from __future__ import annotations

from repro.tpch.rng import Stream

__all__ = ["comment", "SPECIAL_REQUEST_PROBABILITY", "matches_special_requests"]

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

SPECIAL_REQUEST_PROBABILITY = 0.02


def comment(
    stream: Stream, min_words: int = 4, max_words: int = 10, plant_special: bool = False
) -> str:
    """One pseudo-sentence; optionally force the Q13 pattern in."""
    words = stream.choice_list(_WORDS, stream.uniform_int(min_words, max_words))
    if plant_special:
        # "special" strictly before "requests" with arbitrary filler,
        # which is what LIKE '%special%requests%' requires.
        pos = stream.uniform_int(0, max(len(words) - 2, 0))
        words[pos:pos] = ["special", "requests"]
    return " ".join(words)


def matches_special_requests(text: str) -> bool:
    """Evaluate LIKE '%special%requests%' (Q13's predicate)."""
    first = text.find("special")
    if first < 0:
        return False
    return text.find("requests", first + len("special")) >= 0
