"""Named-inequality reports with signed margins, and the table they come from.

Every check's margin is the inequality rewritten as ``margin > 0`` (or
``>= 0`` for the non-strict ones), so a report never loses the distance to
the boundary.  Margins within ``BOUNDARY_REL`` of zero, relative to
``max(|lhs|, |rhs|)`` and capped at that of the largest double (so a side
that overflows to inf gets a finite band), are flagged as boundary cases
instead of being silently rounded to a verdict.  The scale is purely relative: entries of a
profile scaled by c > 0 scale uniformly, so verdicts are invariant under
rescaling the underlying classes.

The margin expressions of every pointwise and Chern/KT check live in one
table, ``MARGINS``, evaluated over arrays of rows: sorted eigenvalue rows
with their sigma rows for the branch checks, profile rows ``d`` for the
rest.  A scalar check is the table on one row; the suites evaluate it one
row block at a time and fold the columns into a ``Tally``.  The table is
column-major: ``compare_rows`` allocates every (m, K) array F-ordered, so
an entry's write and the fold's reads of it are contiguous columns, like
the row blocks that feed it; it runs only the pass tests of relations in use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

#: relative tolerance for boundary / equality detection
BOUNDARY_REL = 1e-12
#: the widest band: the tolerance of a side at the largest double
_BAND_CAP = BOUNDARY_REL * np.finfo(float).max

#: failures a suite report lists before it stops recording them
FAILURE_CAP = 32


@dataclass(frozen=True)
class InequalityReport:
    """A labelled check: ``entries`` maps each entry's name, in check order,
    to the dict it prints (lhs, rhs, margin, pass, relation, boundary)."""

    label: str
    entries: dict[str, dict]

    @property
    def passed(self) -> bool:
        return all(e["pass"] for e in self.entries.values())

    def entry(self, name: str) -> dict:
        return self.entries[name]

    def margin(self, name: str) -> float:
        return self.entries[name]["margin"]

    def to_dict(self):
        return {"label": self.label, "pass": self.passed, "entries": self.entries}


class Margin(NamedTuple):
    """One entry of a check as columns over its rows; ``rhs`` may be a
    constant, and ``present`` marks the rows the entry exists on."""

    name: str
    lhs: np.ndarray
    rhs: np.ndarray | float
    relation: str = ">"
    present: np.ndarray | None = None


class Margins(NamedTuple):
    """One check over m rows: column k of each (m, K) array is entry names[k]."""

    label: str
    names: tuple[str, ...]
    relations: tuple[str, ...]
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    passed: np.ndarray
    boundary: np.ndarray
    present: np.ndarray

    def report(self, i: int = 0) -> InequalityReport:
        """Row i as a report, its absent entries left out."""
        lhs, rhs, margin, passed, boundary, present = (a[i].tolist() for a in self[3:])
        keys = ("lhs", "rhs", "margin", "pass", "relation", "boundary")
        cols = zip(lhs, rhs, margin, passed, self.relations, boundary)
        entries = {n: dict(zip(keys, c)) for n, c, kept in zip(self.names, cols, present) if kept}
        return InequalityReport(self.label, entries)


def compare_rows(label: str, entries) -> Margins:
    """Signed margins of every entry over the rows.

    A relation is ``">"`` (strict), ``">="`` (non-strict, roundoff
    tolerated) or ``"=="`` (equality within the boundary tolerance).
    """
    shape = (len(entries[0].lhs), len(entries))
    lhs, rhs = np.empty(shape, order="F"), np.empty(shape, order="F")
    present = np.ones(shape, dtype=bool, order="F")
    for k, entry in enumerate(entries):
        if entry.relation not in (">", ">=", "=="):
            raise ValueError(f"unknown relation {entry.relation!r}")
        lhs[:, k], rhs[:, k] = entry.lhs, entry.rhs
        if entry.present is not None:
            present[:, k] = entry.present
    margin = lhs - rhs
    tol = BOUNDARY_REL * np.maximum(np.abs(lhs), np.abs(rhs))
    np.minimum(tol, _BAND_CAP, out=tol)  # an infinite side gets a finite band
    boundary = np.abs(margin) <= tol
    names, relations = (tuple(x) for x in zip(*((e.name, e.relation) for e in entries)))
    # relations are validated above, so the masks partition the columns; > and >= run if used
    passed = np.array([r == "==" for r in relations]) & boundary
    if ">" in relations:
        passed |= np.array([r == ">" for r in relations]) & (margin > 0.0)
    if ">=" in relations:
        passed |= np.array([r == ">=" for r in relations]) & (margin >= -tol)
    return Margins(label, names, relations, lhs, rhs, margin, passed, boundary, present)


def compare(name: str, lhs: float, rhs: float, relation: str = ">") -> dict:
    """The entry dict of ``lhs relation rhs``: compare_rows on one row."""
    return compare_rows("", [Margin(name, [lhs], rhs, relation)]).report().entries[name]


def _mid(lam, e):
    return (
        Margin("sigma1", e[:, 1], 0),
        Margin("sigma2", e[:, 2], 0),
        Margin("sigma3", e[:, 3], 0),
        Margin("sigma3_minus_sigma1", e[:, 3], e[:, 1]),
        Margin("sigma2_minus_sigma4_minus_1", e[:, 2], e[:, 4] + 1),
        Margin("sigma2_minus_2", e[:, 2], 2),
        Margin("lambda2_lambda4", lam[:, 1] * lam[:, 3], 1),
        Margin("lambda3_lambda4", lam[:, 2] * lam[:, 3], 1),
    )


def _chern_n4(d):
    sym = d[:, 0] * (d[:, 3] * d[:, 3]) + d[:, 1] * d[:, 1] * d[:, 4]
    return (
        Margin("first", d[:, 3], d[:, 1]),
        Margin("second", 6 * d[:, 1] * d[:, 2] * d[:, 3], sym),
        Margin("kahler2", 2 * d[:, 1] * d[:, 2] * d[:, 3], sym, ">="),
    )


def _kt_chain(d):
    return (
        *(Margin(f"k{k}", d[:, k] * d[:, k], d[:, k - 1] * d[:, k + 1], ">=") for k in (1, 2, 3)),
        Margin("eqn12", d[:, 1] * d[:, 2], d[:, 0] * d[:, 3], ">="),
        Margin("eqn23", d[:, 2] * d[:, 3], d[:, 1] * d[:, 4], ">="),
        Margin(
            "combined",
            2 * d[:, 2],
            d[:, 0] * d[:, 3] / d[:, 1] + d[:, 1] * d[:, 4] / d[:, 3],
            ">=",
            (d[:, 1] != 0) & (d[:, 3] != 0),
        ),
    )


def _integrated_sigma_chain(d):
    dn = d / d[:, :1]  # volume-normalised, dn_0 = 1
    s1, s2, s3, s4 = (np.array([4, 6, 4, 1]) * dn[:, 1:]).T  # C(4, k) d_k
    quad = dn[:, 3] * dn[:, 3] + dn[:, 1] * dn[:, 1] * dn[:, 4] - 6 * dn[:, 1] * dn[:, 2] * dn[:, 3]
    return (
        Margin("chainA", s1 * s2 / 6, s3, ">="),
        Margin("chainB", s1 * s2, s1 + s3),
        Margin("final", s1 * s2 * s3, s3 * s3 + s1 * s1 * s4),
        Margin("final_scaling", s3 * s3 - s1 * s2 * s3 + s1 * s1 * s4, 16 * quad, "=="),
    )


#: check label -> function of its input columns giving its entries in
#: report order.  Branch checks take (lam, e), sorted eigenvalue rows and
#: their sigma rows; the others take profile rows d, shape (m, n+1).  Squares
#: are products and constants ints, so d may hold fractions.Fraction too.
MARGINS = {
    "branch_supercritical": lambda lam, e: (
        Margin("min_eigenvalue", lam[:, 0], 0),
        Margin(
            "min_pair_product",
            np.minimum.reduce([lam[:, i] * lam[:, j] for i, j in combinations(range(4), 2)]),
            1,
        ),
        Margin("sigma3_minus_sigma1", e[:, 3], e[:, 1]),
    ),
    "branch_mid": _mid,
    # the facts valid on all of (pi, 2*pi): the sign of sigma_2 - sigma_4 - 1
    # flips at 3*pi/2
    "branch_full": lambda lam, e: tuple(
        x for x in _mid(lam, e) if x.name != "sigma2_minus_sigma4_minus_1"
    ),
    "branch_n3": lambda lam, e: (
        Margin("sigma1", e[:, 1], 0),
        Margin("sigma2", e[:, 2], 0),
        Margin("sigma2_minus_1", e[:, 2], 1),
    ),
    "chern_n4": _chern_n4,
    "chern_n3": lambda d: (Margin("chern3", 9 * d[:, 1] * d[:, 2], d[:, 0] * d[:, 3]),),
    "kt_chain": _kt_chain,
    "integrated_sigma_chain": _integrated_sigma_chain,
}


def evaluate(label: str, *cols) -> Margins:
    """Every entry of check ``label`` over the rows of ``cols``."""
    # entries are computed on rows where they are absent too, and overflow
    # to inf silently, as Python float arithmetic does
    with np.errstate(all="ignore"):
        return compare_rows(label, MARGINS[label](*cols))


class Tally:
    """Minimum margin per key and the first FAILURE_CAP failures of a suite,
    folded by ``add`` one row block at a time, in ascending row order.

    ``blocks`` lists (rows, margins) in the order one sample reports its
    checks, ``rows`` being the ascending sample indices of the block's
    rows.  Keys, ``label.name`` (the bare name unless ``qualified``) and
    unique across blocks, enter ``mins`` in the order a loop over samples
    first meets them, keeping the first of equal minima.  ``failures`` are
    (sample, key, margin) ordered by sample, block and entry; ``flags`` =
    ((key, rows), ...) adds a margin-less failure after the block failures
    of each listed sample.
    """

    def __init__(self, qualified=True):
        self.qualified, self.mins, self.failures = qualified, {}, ()

    def add(self, blocks, flags=()):
        seen, fails = [], []
        for b, (rows, mg) in enumerate(blocks):
            keys = [f"{mg.label}.{name}" if self.qualified else name for name in mg.names]
            # argmin takes the first of equal minima, as the loop's `<` kept it
            masked = mg.margin if mg.present.all() else np.where(mg.present, mg.margin, np.inf)
            low = masked[masked.argmin(axis=0), np.arange(len(keys))].tolist()
            first = rows[mg.present.argmax(axis=0)].tolist()
            for k, exists in enumerate(mg.present.any(axis=0).tolist()):
                if exists:
                    seen.append((first[k], b, k, keys[k], low[k]))
            failed = mg.present & ~mg.passed
            if failed.any():
                # np.nonzero walks row-major whatever the layout, so each
                # block's first FAILURE_CAP suffice
                r, c = (x[:FAILURE_CAP] for x in np.nonzero(failed))
                hits = zip(rows[r].tolist(), c.tolist(), mg.margin[r, c].tolist())
                fails += [(i, b, k, keys[k], m) for i, k, m in hits]
        for f, (key, rows) in enumerate(flags):
            fails += [(i, len(blocks) + f, 0, key, 0.0) for i in rows[:FAILURE_CAP].tolist()]
        for *_, key, low in sorted(seen):
            # min() keeps its first argument unless the second is smaller
            self.mins[key] = min(self.mins.get(key, low), low)
        fails = sorted(fails)[: FAILURE_CAP - len(self.failures)]
        self.failures += tuple((i, key, m) for i, _, _, key, m in fails)
