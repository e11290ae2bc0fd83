import operator
import random

import pytest

from mdkmlp.pathdp import INF, split


def brute_split(first, rest, combine):
    """Per mask: the least combine over its disjoint (sub, mask ^ sub)
    pairs, and the first minimizing sub in descending order (INF, 0 when
    no pair is finite)."""
    out, picks = [], []
    for msk in range(len(first)):
        best, pick = INF, 0
        for sub in range(msk, -1, -1):
            if sub & ~msk:
                continue
            val = combine(first[sub], rest[msk ^ sub])
            if val < best:
                best, pick = val, sub
        out.append(best)
        picks.append(pick)
    return out, picks


@pytest.mark.parametrize("combine", [max, operator.add])
def test_split_matches_brute_force(combine):
    rng = random.Random(11)
    for _ in range(60):
        full = 1 << rng.randint(0, 6)
        # small values force ties, so the pick order is tested too; INF
        # entries leave some masks without a finite pair
        first = [INF if rng.random() < 0.25 else rng.randint(0, 5) for _ in range(full)]
        rest = [INF if rng.random() < 0.25 else rng.randint(0, 5) for _ in range(full)]
        assert split(first, rest, combine) == brute_split(first, rest, combine)

