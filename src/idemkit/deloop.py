"""Desk-scale shadow of the sequence-space endomorphism ring.

Column-finite operators on the l1 module of countable sequences
(:class:`EndOperator`: built from columns or as a matrix unit, composed,
and measured by :func:`end_norm`; the corner is one) are stored
column-sparse, because the operator norm here is a column
functional (max over columns of the column sum of entry norms) and is then
exact for sparse data.  The zeroth-entry corner idempotent cuts out an
isometric copy of the inner ring; the finite collapse certificate shows
that at any finite truncation the two-sided span of that corner is
everything, which is exactly why the delooped class is invisible at every
finite level; and the swindle conjugator is the even/odd interleaving
bijection whose conjugation identity forces additive invariants of the full
operator ring to vanish.  The operators of both checks have one entry per
column, so both run on int32 index arrays rather than on operators: the
swindle's shifts walk the columns in blocks of ``SWINDLE_BLOCK``, so that
its working set stays near 1 MB up to the 2**16 support cap, and the
collapse's single-entry pairs form their values in batched inner products,
walking them in blocks of ``COLLAPSE_BLOCK`` inner entries, and bound the
work of those ``2n`` products by ``MAX_ELEMENT_ENTRIES``.

Whether the column norm agrees with the sup-ratio operator norm for every
inner instance is not assumed (it does when the inner norm is attained on
singletons); certificates use the column norm by definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .core import AlgebraInstance, Certificate, NormValue
from .errors import ConfigError
from .instances import COMPLEX, MAX_ELEMENT_ENTRIES, product_work


@dataclass(frozen=True)
class EndOperator:
    """Column-finite operator on countable sequences over an inner instance.

    ``columns`` maps a column index to a tuple of ``(row, entry)`` pairs;
    absent columns are zero.  Entries with zero norm are dropped at
    construction, so equality of operators is equality of columns.
    """

    inner: AlgebraInstance
    columns: dict = field(default_factory=dict)

    @staticmethod
    def from_columns(inner: AlgebraInstance, columns: dict) -> "EndOperator":
        clean = {}
        for j, entries in columns.items():
            merged: dict[int, Any] = {}
            for i, v in entries:
                merged[i] = inner.add(merged[i], v) if i in merged else v
            kept = tuple(
                (i, v) for i, v in sorted(merged.items()) if inner.norm(v) != 0
            )
            if kept:
                clean[int(j)] = kept
        return EndOperator(inner, clean)

    @staticmethod
    def matrix_unit(inner: AlgebraInstance, i: int, j: int) -> "EndOperator":
        """The inner unit at row ``i`` of column ``j``."""
        return EndOperator.from_columns(inner, {j: ((i, inner.one()),)})

    def compose(self, other: "EndOperator") -> "EndOperator":
        """``self`` after ``other``; column-finite composition."""
        if self.inner is not other.inner and self.inner.describe() != other.inner.describe():
            raise ConfigError("operator composition needs a common inner instance")
        mul = self.inner.mul
        # from_columns sums each column's products per row, in this order
        out = {
            j: [(r, mul(a, b)) for i, b in entries for r, a in self.columns.get(i, ())]
            for j, entries in other.columns.items()
        }
        return EndOperator.from_columns(self.inner, out)


def end_norm(op: EndOperator) -> NormValue:
    """Max over nonempty columns of the l1 column sum; exact for sparse data."""
    norm = op.inner.norm
    return max((sum((norm(v) for _, v in e), start=0) for e in op.columns.values()), default=0)


@dataclass(frozen=True)
class CornerIdempotent:
    """The coordinate projection onto one sequence entry (default the zeroth).

    As an operator it is exactly idempotent and its norm equals the norm of
    the inner unit, which is what makes the corner a normed subring with
    the induced norm: compressing by it collapses ``e*b*e`` to the single
    entry ``b[i,i]``, with ``end_norm(e*b*e) == inner.norm(b[i,i])``, an
    isometric copy of the inner instance.
    """

    index: int = 0

    def as_operator(self, inner: AlgebraInstance) -> EndOperator:
        return EndOperator.matrix_unit(inner, self.index, self.index)


# ---------------------------------------------------------------------------
# finite truncation collapse


@dataclass(frozen=True)
class CollapseCertificate:
    """Witness that the two-sided span of the corner is everything at size n.

    The pairs are the matrix units ``a_k = E_{k0}`` and ``b_k = E_{0k}``
    for ``k < n``, with the inner unit as their entry, so that ``sum_k a_k
    * e * b_k`` is the identity on the first ``n`` coordinates, exactly.  So
    the quotient of the truncated operator ring by the two-sided span of the
    corner is the zero ring, its idempotent classes are trivial, and only
    the full column-finite ring sees the delooped class.  ``cert`` checks
    that sum against the identity (:func:`finite_collapse_certificate`);
    the size and the inner instance are the caller's inputs, not kept here.
    """

    cert: Certificate

    @property
    def valid(self) -> bool:
        return self.cert.valid


def _collapse_positions(k):
    """Rows and columns ``((a_rows, a_cols), (b_rows, b_cols))`` of the
    pairs ``a_k = E_{k0}`` and ``b_k = E_{0k}``, for an int array ``k``."""
    zero = np.zeros_like(k)
    return (k, zero), (zero, k)


#: inner entries per block of values in the collapse check
COLLAPSE_BLOCK = 2**16


def _filled(value, size: int, dtype):
    """A batch of ``size`` copies of the element ``value``, in its own shape."""
    out = np.empty((size,) + np.shape(value), dtype)
    out[...] = value
    return out


def _run_sums(add, values, starts):
    """Sum of each run of ``values`` from one of ``starts`` to the next (the
    last to the end), added left to right by ``add``: one batched call per
    place within a run."""
    sizes = np.diff(np.r_[starts, len(values)])
    sums = values[starts]
    for place in range(1, sizes.max()):
        g = np.flatnonzero(sizes > place)
        sums[g] = add(sums[g], values[starts[g] + place])
    return sums


def _collapse_residual_norm(n: int, inner: AlgebraInstance, corner: EndOperator) -> NormValue:
    """``end_norm(sum_k a_k * corner * b_k - 1_n)``, on index arrays.

    The pairs and the corner are batches of single-entry operators.  The
    term ``a_k * corner * b_k`` has its entry at the row of ``a_k`` and the
    column of ``b_k`` where the factors meet: the column of ``a_k`` is the
    corner's row, and the corner's column is the row of ``b_k``.  Its value
    is the product of the three values, two batched ``inner.mul`` calls.
    The terms are merged with the negated identity by (column, row), the
    identity first in each group, and each group is summed through
    ``inner.add``; groups of norm 0 are dropped, and the rest give the
    column sums of norms.  So nothing is assumed of the pairs: a wrong
    position or value leaves a group behind.

    Only the int positions span all ``2n`` entries.  The values are walked
    in blocks of whole groups, one starting at the first group at or after
    each multiple of ``COLLAPSE_BLOCK`` inner entries (counted in the shape
    of ``inner.one()``), so that the values held stay near one block.
    """
    [(corner_col, ((corner_row, corner_val),))] = corner.columns.items()
    k = np.arange(n, dtype=np.int32)
    (a_rows, a_cols), (b_rows, b_cols) = _collapse_positions(k)
    meet = (a_cols == corner_row) & (b_rows == corner_col)
    # the identity's entries first, on the diagonal, then the terms in order
    rows = np.concatenate([k, a_rows[meet]])
    cols = np.concatenate([k, b_cols[meet]])
    order = np.lexsort((rows, cols))  # stable, so the identity entry leads its group
    rows, cols, is_term = rows[order], cols[order], order >= n
    starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])])

    one = inner.one()
    step = max(1, COLLAPSE_BLOCK // np.size(one))
    edges = np.r_[starts, rows.size]
    # a group starting in [m * step, (m + 1) * step) belongs to block m
    cuts = np.r_[np.flatnonzero(np.diff(starts // step, prepend=-1)), starts.size]
    kept_cols, kept_norms = [], []
    for g0, g1 in zip(cuts[:-1], cuts[1:]):
        p, q = edges[g0], edges[g1]
        values = _filled(one, q - p, inner.dtype)
        term = is_term[p:q]
        ones = values[term]
        corners = _filled(corner_val, len(ones), inner.dtype)
        values[term] = inner.mul(inner.mul(ones, corners), ones)
        values[~term] = inner.neg(values[~term])
        groups = starts[g0:g1]
        norms = inner.norms(_run_sums(inner.add, values, groups - p))
        kept = norms != 0
        kept_cols.append(cols[groups[kept]])
        kept_norms.append(norms[kept])
    cols, norms = np.concatenate(kept_cols), np.concatenate(kept_norms)
    if not cols.size:
        return 0  # end_norm of the zero operator
    # each column sum runs down its rows from 0, as end_norm adds them
    column_starts = np.flatnonzero(np.r_[True, cols[1:] != cols[:-1]])
    return max(_run_sums(np.add, norms, column_starts).tolist())


def finite_collapse_certificate(n: int, inner: Optional[AlgebraInstance] = None) -> CollapseCertificate:
    """Check ``sum_k E_{k0} e E_{0k} = 1_n`` exactly, for ``n`` up to the swindle's ``2**16``.

    ``collapse-identity`` is the column norm of ``sum_k E_{k0} e E_{0k} -
    1_n``, formed on int index arrays by :func:`_collapse_residual_norm`:
    two batched inner products per block of ``COLLAPSE_BLOCK`` inner
    entries, and no operator composition.  ``corner-norm`` is the norm of
    ``e`` against that of the inner unit.  The ``2n`` products of inner
    elements are bounded by their work: ``n`` times the work of one
    (:func:`~idemkit.instances.product_work`, the count that
    ``parse_instance`` bounds) must be at most ``MAX_ELEMENT_ENTRIES``.
    That work is at least an element's entry count, so the values held
    stay within the bound too.
    """
    if not 1 <= n <= 2**16:
        raise ConfigError("truncation size must be between 1 and 2**16")
    inner = COMPLEX if inner is None else inner
    if n * product_work(inner) > MAX_ELEMENT_ENTRIES:
        raise ConfigError(f"truncation size {n} would form or walk over {MAX_ELEMENT_ENTRIES} inner entries")
    e = CornerIdempotent(0).as_operator(inner)
    cert = Certificate(slack=0.0)
    cert.add("collapse-identity", _collapse_residual_norm(n, inner, e), 0)
    cert.add("corner-norm", end_norm(e), inner.norm(inner.one()))
    return CollapseCertificate(cert)


# ---------------------------------------------------------------------------
# the swindle conjugator


@dataclass(frozen=True)
class SwindleReport:
    """Counts from an exhaustive swindle check below ``support``.

    ``cert`` holds the four counts as entries ``collisions``,
    ``roundtrip-failures``, ``conjugation-mismatches`` and
    ``pairing-collisions``, each against 0; ``valid`` is its verdict.
    """

    support: int
    cert: Certificate

    @property
    def valid(self) -> bool:
        return self.cert.valid

    def to_json(self) -> dict:
        """The check's inputs; the counts and verdict live in ``cert``.

        Every column below ``support`` is checked, so ``checked_columns``
        repeats ``support``.
        """
        return {"support": self.support, "checked_columns": self.support}


def _dyadic_pair(i, j):
    """Pairing ``(i, j) -> 2**i * (2j + 1) - 1``, a bijection onto the naturals.

    On integer arrays the result has their dtype.
    """
    return (1 << i) * (2 * j + 1) - 1


def _dyadic_unpair(n):
    """Inverse of :func:`_dyadic_pair`, elementwise on an integer array and
    in its dtype (int32 in the swindle check, int64 as well).

    ``i`` is the trailing-zero count of ``m = n + 1``, read from the float
    exponent of its lowest set bit ``m & -m``, exact below ``2**53``.
    """
    m = np.asarray(n) + 1
    i = np.frexp(m & -m)[1].astype(m.dtype) - 1
    return i, ((m >> i) - 1) // 2


def _shift_entries(by: int, cols):
    """Row and value of the one entry in each of ``cols`` of the shift by ``by``."""
    return cols + by, np.ones_like(cols)


def _repeats(values) -> int:
    """Number of values equal to another one before them: size minus distinct.

    Sorts the one-dimensional array ``values`` in place.
    """
    values.sort()
    return int(np.count_nonzero(values[1:] == values[:-1]))


#: columns per block of the swindle check; even, so that every block starts
#: at an even column
SWINDLE_BLOCK = 8192


def swindle_conjugator(support: int) -> SwindleReport:
    """Verify the interleaving bijection and the swindle identity.

    The bijection sends ``k`` in the first copy of the naturals to ``2k``
    and ``k`` in the second copy to ``2k + 1``; ``divmod(n, 2)`` inverts it.
    Exhaustively checks, on all indices below ``support``:

    * the even/odd map has no collisions and inverts correctly;
    * conjugating the block operator ``x (+) T(y)`` by it gives exactly the
      infinite-direct-sum form of the interleaved input, where ``T(y)`` is
      the block-diagonal sum of countably many copies of ``y`` under a
      fixed dyadic pairing of index pairs;
    * that pairing sends the distinct index pairs of the odd columns to
      distinct rows (``pairing-collisions``).  Both sides of the
      conjugation go through the same pairing, so only this count sees a
      pairing that is not injective.

    ``x`` and ``y`` are the shifts by 1 and by 2: each column has one unit
    entry, whose row and value :func:`_shift_entries` gathers for the
    columns at hand.  The columns are walked in blocks of
    ``SWINDLE_BLOCK``, on int32 index arrays; the round trip and the
    conjugation are counted per block.  Collisions are counted over the
    whole support, so that a repeat between two blocks counts: the check
    keeps the ``2 * support`` images and the ``support // 2`` odd columns'
    paired rows, 512 KB and 128 KB at the cap, besides a few block-length
    temporaries.  So its working set stays near 1 MB at any support.

    int32 holds every index: with ``support <= 2**16`` an odd column
    ``2k + 1`` has ``k = 2**i * (2j + 1) - 1 < 2**15``, so its conjugated
    row ``2 * (2**i * (2j + 5) - 1) + 1`` is below ``2 * 5 * 2**15 + 1 <
    2**19``, and the images stay below ``2**17 + 2``.  The check is integer
    index bookkeeping over exact integer entries, so there is no floating
    error; a nonzero mismatch count means the construction is wrong, not
    imprecise.
    """
    if not 1 <= support <= 2**16:
        raise ConfigError("support must be between 1 and 2**16")

    parity = np.arange(2, dtype=np.int32)
    images = np.empty(2 * support, dtype=np.int32)
    paired_rows = np.empty(support // 2, dtype=np.int32)
    roundtrip_failures = conjugation_mismatches = 0
    for start in range(0, support, SWINDLE_BLOCK):
        col = np.arange(start, min(start + SWINDLE_BLOCK, support), dtype=np.int32)

        half = col[:, None]
        block_images = images[2 * start : 2 * (start + col.size)].reshape(-1, 2)
        np.add(2 * half, parity, out=block_images)
        back_half, back_parity = np.divmod(block_images, 2)
        roundtrip_failures += int(np.count_nonzero((back_half != half) | (back_parity != parity)))

        # x (+) T(y) conjugated by the even/odd map: column 2k + copy is column
        # k of block ``copy`` with each row r moved to 2r + copy
        k, copy = np.divmod(col, 2)
        i, j = _dyadic_unpair(k)
        x_rows, x_vals = _shift_entries(1, k)
        y_rows, y_vals = _shift_entries(2, j)
        t_rows = _dyadic_pair(i, y_rows)
        conj_rows = np.where(copy == 0, 2 * x_rows, 2 * t_rows + 1)
        conj_vals = np.where(copy == 0, x_vals, y_vals)
        paired_rows[start // 2 : (start + col.size) // 2] = t_rows[copy == 1]

        # the interleaved block form: block 0 is x on the even columns, blocks
        # >= 1 are y on the odd columns under the shifted pairing
        even, odd = col[0::2] // 2, (col[1::2] - 1) // 2
        i, j = _dyadic_unpair(odd)
        x_rows, x_vals = _shift_entries(1, even)
        y_rows, y_vals = _shift_entries(2, j)
        inter_rows, inter_vals = np.empty_like(col), np.empty_like(col)
        inter_rows[0::2], inter_vals[0::2] = 2 * x_rows, x_vals
        inter_rows[1::2], inter_vals[1::2] = 2 * _dyadic_pair(i, y_rows) + 1, y_vals
        mismatched = (conj_rows != inter_rows) | (conj_vals != inter_vals)
        conjugation_mismatches += int(np.count_nonzero(mismatched))

    cert = Certificate()
    cert.add("collisions", _repeats(images), 0)
    cert.add("roundtrip-failures", roundtrip_failures, 0)
    cert.add("conjugation-mismatches", conjugation_mismatches, 0)
    cert.add("pairing-collisions", _repeats(paired_rows), 0)
    return SwindleReport(support, cert)
