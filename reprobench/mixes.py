"""Seeded inputs for the five workloads.

A *shape* is a sequence of word classes.  Every word of a class has the
same category set in the English grammar (and the same preterminal in
``english_cfg``), so a shape fixes the constraint network, the template
cache key and the CYK chart.  The mixes below fix the shapes, their
lengths, their proportions and their order; the seed only picks which
word of each class fills each position.  A fresh seed therefore changes
the words and never the cost profile.

Each mix is built so that the p50 and p90 ranks of its per-op latencies
fall inside a block of same-cost ops, well away from a step between
blocks (see ``quantile_margins``).  Nothing here imports the program.
"""

from __future__ import annotations

import itertools
import math
import random

#: Word classes.  All words of one class share one category set.
CLASSES: dict[str, tuple[str, ...]] = {
    "det": ("the", "a", "an", "every", "some", "this"),
    "adj": ("big", "red", "old", "small", "happy", "quick", "lazy"),
    "noun": (
        "dog", "dogs", "cat", "cats", "man", "woman", "bird", "tree", "park",
        "house", "telescope", "computer", "student", "sentence",
    ),
    "verb": (
        "runs", "barks", "bark", "sees", "likes", "walks", "eats", "sleeps",
        "chases", "chase", "parses",
    ),
    "amb": ("saw", "duck", "flies", "program"),  # noun or verb
    "prep": ("in", "on", "with", "under", "near"),
    "adv": ("quickly", "slowly", "often", "today", "loudly"),
}

#: Fixed, seed-independent order of every round (ops of one shape are
#: spread through the round rather than run back to back).
_ORDER_SEED = 20260501


def clause(adjs: tuple[int, ...], *, adverb: bool = False, amb: int = -1) -> str:
    """``NP verb NP (prep NP)* [adv]`` with ``adjs[i]`` adjectives in NP *i*.

    ``amb`` names the NP whose head noun is lexically ambiguous (-1: none).
    """
    phrases = []
    for index, n_adj in enumerate(adjs):
        head = "amb" if index == amb else "noun"
        phrases.append(" ".join(["det"] + ["adj"] * n_adj + [head]))
    words = [phrases[0], "verb", phrases[1]]
    words += [f"prep {phrase}" for phrase in phrases[2:]]
    if adverb:
        words.append("adv")
    return " ".join(words)


def shape_length(shape: str) -> int:
    return len(shape.split())


def adjective_spreads(n_phrases: int, n_adjs: int) -> list[tuple[int, ...]]:
    """Every way to place *n_adjs* adjectives over *n_phrases* NPs, in a
    fixed order that puts the most even spreads first."""
    spreads = [
        combo
        for combo in itertools.product(range(n_adjs + 1), repeat=n_phrases)
        if sum(combo) == n_adjs
    ]
    return sorted(spreads, key=lambda combo: (max(combo) - min(combo), combo))


# -- the mixes ----------------------------------------------------------------

#: warm_parse / served_parse: eight shapes of 6-16 words and their weights
#: per 40-op round.  Sorted by cost the blocks are 6-9 words (ranks 0-11),
#: 10 words (12-27, holds p50 = rank 19.5) and 16 words (32-39, holds
#: p90 = rank 35.1).
WARM_MIX: tuple[tuple[str, int], ...] = (
    (clause((1, 0)), 4),  # 6
    (clause((0, 0, 0)), 4),  # 8
    (clause((1, 0, 0)), 4),  # 9
    (clause((1, 1, 0)), 16),  # 10
    (clause((0, 1, 1), adverb=True), 1),  # 11
    (clause((1, 0, 0, 0), amb=0), 2),  # 12
    (clause((0, 0, 0, 0, 0)), 1),  # 14
    (clause((1, 1, 0, 0, 0)), 8),  # 16
)

#: cold_shapes: (length, distinct shapes per round) blocks; every shape of
#: one block has the same length and the same category multiset.  30
#: distinct shapes cycle through the 16-entry template LRU, so every op
#: misses.  Blocks: 8 words (ranks 0-3), 10 (4-7), 12 (8-19, holds p50 =
#: rank 14.5), 16 (20-28, holds p90 = rank 26.1), 20 (29).
COLD_BLOCKS: tuple[tuple[int, int, int, int], ...] = (
    # (length, shapes, noun phrases, adjectives)
    (8, 4, 2, 3),
    (10, 4, 3, 2),
    (12, 12, 3, 4),
    (16, 9, 4, 5),
    (20, 1, 5, 6),
)

#: stream_words: every sentence is a prefix of one 16-word master
#: sentence, so the ops at prefix length k are same-cost across
#: sentences.  Each length ends a grammatical sentence.  Sorted by
#: prefix length the 110 ops of a round put p50 (rank 54.5) inside the
#: k=6 block (ranks 50-59) and p90 (rank 98.1) inside k=11 (95-101).
STREAM_MASTER = clause((1, 0, 0, 0, 0), adverb=True)  # 16 words
STREAM_LENGTHS: tuple[int, ...] = (6, 6, 6, 12, 12, 12, 12, 12, 16, 16)

#: cyk_chart: (length, ops per round).  Blocks: 12 words (ranks 0-5), 20
#: (6-15, holds p50 = rank 11.5), 28 (16-17), 40 (18-23, holds p90 =
#: rank 20.7).
CYK_BLOCKS: tuple[tuple[int, int], ...] = ((12, 6), (20, 10), (28, 2), (40, 6))


def _pp_clause(length: int) -> str:
    """A transitive clause with PP chunks and adjectives making *length*."""
    n_pp, n_adj = divmod(length - 5, 3)
    adjs = [0] * (2 + n_pp)
    for i in range(n_adj):
        adjs[i % len(adjs)] += 1
    return clause(tuple(adjs))


def cold_shapes() -> list[str]:
    shapes = []
    for length, count, n_phrases, n_adjs in COLD_BLOCKS:
        for adjs in adjective_spreads(n_phrases, n_adjs)[:count]:
            shape = clause(adjs)
            assert shape_length(shape) == length, (shape, length)
            shapes.append(shape)
    return shapes


def _rounded(shapes: list[str]) -> list[str]:
    order = list(shapes)
    random.Random(_ORDER_SEED).shuffle(order)
    return order


def round_shapes(workload: str) -> list[str]:
    """The fixed shape sequence of one round (one entry per op, except
    ``stream_words``, where each entry is one streamed sentence)."""
    if workload in ("warm_parse", "served_parse"):
        return _rounded([shape for shape, weight in WARM_MIX for _ in range(weight)])
    if workload == "cold_shapes":
        return _rounded(cold_shapes())
    if workload == "stream_words":
        master = STREAM_MASTER.split()
        return [" ".join(master[:length]) for length in STREAM_LENGTHS]
    if workload == "cyk_chart":
        return _rounded([_pp_clause(n) for n, count in CYK_BLOCKS for _ in range(count)])
    raise KeyError(workload)


def fill(shape: str, rng: random.Random) -> tuple[str, ...]:
    return tuple(rng.choice(CLASSES[cls]) for cls in shape.split())


def round_inputs(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The words of one round: same shapes for every seed, seeded words."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "stream_words":
        # Prefixes of one master sentence share its words, so every
        # stream re-grows the same prefix shapes.
        master = fill(STREAM_MASTER, rng)
        return [master[:length] for length in STREAM_LENGTHS]
    return [fill(shape, rng) for shape in round_shapes(workload)]


def op_cost_keys(workload: str) -> list[tuple]:
    """One cost class per op of a round, ordered by expected cost.

    Ops with equal keys are same-cost inputs: the same shape (or, for
    ``cold_shapes``, the same length and category multiset; for
    ``stream_words``, the same prefix length of one master shape).
    """
    if workload == "stream_words":
        return [(k,) for length in STREAM_LENGTHS for k in range(1, length + 1)]
    if workload == "cold_shapes":
        return [(shape_length(s),) for s in round_shapes(workload)]
    return [(shape_length(s), s) for s in round_shapes(workload)]


def quantile_margins(keys: list[tuple], q: float) -> tuple[float, float]:
    """Distance, in ops of one round, from the q-quantile rank to the
    nearest lower and upper edge of its same-cost block (ranks are
    interpolated as ``q * (n - 1)`` over the cost-sorted round)."""
    ordered = sorted(keys)
    rank = q * (len(ordered) - 1)
    key = ordered[int(rank)]
    if ordered[math.ceil(rank)] != key:
        return 0.0, 0.0  # the interpolation straddles two blocks
    first = ordered.index(key)
    last = len(ordered) - 1 - ordered[::-1].index(key)
    return rank - first, last - rank
