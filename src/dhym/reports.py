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
row block at a time and fold the columns into a ``Tally``.  ``compare_rows``
keeps only what a verdict needs: the (m, K) margins, pass flags and
presence, allocated F-ordered so that an entry's write and the fold's reads
of it are contiguous columns, like the row blocks that feed it.  The band
enters a verdict only on ``==`` columns and on ``>=`` columns with a row
below zero; ``Margins.report`` builds a printed row's sides and band from
the entries themselves.
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
    """One check over m rows: column k of each (m, K) table is entries[k].

    The tables hold only what a verdict needs; ``report`` builds a row's
    sides and band from ``entries``, whose columns are views of the caller's
    arrays, so read a Margins before changing its inputs.
    """

    label: str
    entries: tuple[Margin, ...]
    margin: np.ndarray
    passed: np.ndarray
    present: np.ndarray

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    @property
    def relations(self) -> tuple[str, ...]:
        return tuple(e.relation for e in self.entries)

    def report(self, i: int = 0) -> InequalityReport:
        """Row i as a report, its absent entries left out."""
        entries = {}
        cols = (self.margin[i].tolist(), self.passed[i].tolist(), self.present[i].tolist())
        for e, margin, passed, kept in zip(self.entries, *cols):
            if kept:
                lhs, rhs = float(e.lhs[i]), float(e.rhs[i] if np.ndim(e.rhs) else e.rhs)
                entries[e.name] = {
                    "lhs": lhs,
                    "rhs": rhs,
                    "margin": margin,
                    "pass": passed,
                    "relation": e.relation,
                    "boundary": bool(abs(margin) <= _tol(lhs, rhs)),
                }
        return InequalityReport(self.label, entries)


def _tol(lhs, rhs):
    """The boundary band of sides lhs and rhs, capped so that an infinite side
    gets a finite band; np.maximum keeps a NaN side, where max() drops it."""
    return np.minimum(BOUNDARY_REL * np.maximum(np.abs(lhs), np.abs(rhs)), _BAND_CAP)


def compare_rows(label: str, entries) -> Margins:
    """Signed margins and verdicts of every entry over the rows.

    A relation is ``">"`` (strict), ``">="`` (non-strict, roundoff
    tolerated) or ``"=="`` (equality within the boundary tolerance).
    """
    shape = (len(entries[0].lhs), len(entries))
    margin = np.empty(shape, order="F")
    passed = np.empty(shape, dtype=bool, order="F")
    present = np.ones(shape, dtype=bool, order="F")
    for k, entry in enumerate(entries):
        m, ok = margin[:, k], passed[:, k]
        np.subtract(entry.lhs, entry.rhs, out=m)
        if entry.relation == ">":
            np.greater(m, 0.0, out=ok)
        elif entry.relation == ">=":
            # the band is >= 0, or NaN only beside a NaN margin, so it can
            # pass only the rows that are not >= 0
            if not np.greater_equal(m, 0.0, out=ok).all():
                ok |= m >= -_tol(entry.lhs, entry.rhs)
        elif entry.relation == "==":
            np.less_equal(np.abs(m), _tol(entry.lhs, entry.rhs), out=ok)
        else:
            raise ValueError(f"unknown relation {entry.relation!r}")
        if entry.present is not None:
            present[:, k] = entry.present
    return Margins(label, tuple(entries), margin, passed, present)


def compare(name: str, lhs: float, rhs: float, relation: str = ">") -> dict:
    """The entry dict of ``lhs relation rhs``: compare_rows on one row, with
    non-finite sides as silent as in ``evaluate``."""
    with np.errstate(all="ignore"):
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
            if mg.present.all():  # every key first met on the block's first row
                masked, failed = mg.margin, ~mg.passed
                first, exists = [int(rows[0])] * len(keys), [True] * len(keys)
            else:
                masked, failed = np.where(mg.present, mg.margin, np.inf), mg.present & ~mg.passed
                first = rows[mg.present.argmax(axis=0)].tolist()
                exists = mg.present.any(axis=0).tolist()
            # argmin takes the first of equal minima, as the loop's `<` kept it
            low = masked[masked.argmin(axis=0), np.arange(len(keys))].tolist()
            seen += [(first[k], b, k, keys[k], low[k]) for k in range(len(keys)) if exists[k]]
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
