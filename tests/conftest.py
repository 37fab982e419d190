import math
from itertools import combinations

import numpy as np
import pytest

from dhym.reports import FAILURE_CAP, Tally


def sigma_enumeration(vals, k):
    """Independent oracle: sum of products over all k-subsets."""
    if k == 0:
        return 1.0
    return sum(math.prod(c) for c in combinations(vals, k))


@pytest.fixture
def enum_sigma():
    return sigma_enumeration


class ReferenceTally(Tally):
    """Tally.add scanning every block for failures, failing or not."""

    def add(self, blocks, flags=()):
        seen, fails = [], []
        for b, (rows, mg) in enumerate(blocks):
            keys = [f"{mg.label}.{name}" if self.qualified else name for name in mg.names]
            masked = np.where(mg.present, mg.margin, np.inf)
            low = masked[masked.argmin(axis=0), np.arange(len(keys))].tolist()
            first = rows[mg.present.argmax(axis=0)].tolist()
            for k, exists in enumerate(mg.present.any(axis=0).tolist()):
                if exists:
                    seen.append((first[k], b, k, keys[k], low[k]))
            r, c = (x[:FAILURE_CAP] for x in np.nonzero(mg.present & ~mg.passed))
            hits = zip(rows[r].tolist(), c.tolist(), mg.margin[r, c].tolist())
            fails += [(i, b, k, keys[k], m) for i, k, m in hits]
        for f, (key, rows) in enumerate(flags):
            fails += [(i, len(blocks) + f, 0, key, 0.0) for i in rows[:FAILURE_CAP].tolist()]
        for *_, key, low in sorted(seen):
            self.mins[key] = min(self.mins.get(key, low), low)
        fails = sorted(fails)[: FAILURE_CAP - len(self.failures)]
        self.failures += tuple((i, key, m) for i, _, _, key, m in fails)


class DrawLog:
    """A Generator stand-in that logs the rows of each random draw."""

    def __init__(self, rng, sizes):
        self.rng, self.sizes = rng, sizes

    def random(self, size):
        self.sizes.append(size[0])
        return self.rng.random(size)
