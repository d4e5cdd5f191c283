"""Batched Damerau–Levenshtein kernel over packed code-point matrices.

The scalar batch matcher scores one query against its prefilter survivors by
running :func:`repro.matchers.string_metrics.bounded_damerau_levenshtein` once
per pair — a Python DP whose interpreter overhead dominates for short element
names.  This module vectorizes that loop **across candidates**: all survivors
are packed into one ``(n, max_len)`` int32 matrix of code points, and a single
DP table of shape ``(len(query) + 2, max_len + 2, n)`` is swept row by row, so
the per-cell work becomes a handful of numpy array operations over the whole
candidate axis.

Bit-identity with the scalar path
---------------------------------
:func:`batch_fuzzy_scores` reproduces, candidate by candidate, the exact
result of::

    fuzzy_similarity(query, key, case_sensitive=True, min_similarity=threshold)

including every branch of that function:

* the length precheck (``1 - (longest - shortest)/longest < threshold``)
  excludes a candidate *before* any DP, exactly like the scalar code —
  without it a candidate whose true distance equals both its edit budget and
  its length gap would receive a sub-threshold score the scalar path reports
  as ``0.0``;
* ``bounded_damerau_levenshtein(a, b, limit)`` equals
  ``min(d(a, b), limit + 1)`` for the *exact* unrestricted distance ``d`` (its
  early abandon is a pure optimization), so the kernel computes the full DP
  and applies the clamp as a comparison against the same
  ``edit_budget``-derived limit;
* scores are formed as ``1.0 - distance / longest`` in float64 — IEEE-754
  identical to the CPython expression — and a candidate enters the result
  dict iff its score is ``> 0.0``, preserving dict contents *and* insertion
  order.

The transposition look-back state is vectorized by observing that
``last_row`` is only ever *read* for characters of the candidate and only
*written* for characters of the query: mapping candidate code points onto the
query's unique-character alphabet (with a sentinel for "not in the query")
turns the dict into a small integer vector indexed per column.  Candidate
rows shorter than the matrix width are padded with ``-1`` — a code point no
string contains — whose cells never influence any read column because the
recurrence only looks left and up.

The kernel *declines* (returns ``None``) rather than guessing when the batch
is too small to amortize array overhead, the query is empty or over-long, or
the threshold is outside ``[0, 1]``; callers then fall back to the scalar
loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

#: Same barrier as the scalar kernel's border rows.  int32 is safe: the
#: largest value a table cell can reach is ``_BIG + 2 * MAX_PACKED_LEN``,
#: comfortably below ``2**31``.
_BIG = 1 << 30

#: Keys longer than this are not packed (mirrors ``_MAX_POOLED_LEN`` in the
#: scalar kernel): element names are short, and one adversarially long name
#: must not force a quadratic-width DP matrix on the whole batch.
MAX_PACKED_LEN = 512

#: Batches smaller than this run the scalar loop; below a handful of
#: candidates the fixed cost of packing and array dispatch exceeds the DP.
MIN_BATCH_SIZE = 8

#: Soft cap on the DP table's slab footprint in bytes.  Candidates are
#: processed in contiguous slabs sized so one ``(la+2, W+2, slab)`` int32
#: table stays under this budget.
_SLAB_BUDGET_BYTES = 48 * 1024 * 1024


def _encode(text: str) -> Optional["np.ndarray"]:
    """Code points of ``text`` as an int32 vector, or ``None`` if unencodable."""
    try:
        raw = text.encode("utf-32-le")
    except UnicodeEncodeError:  # lone surrogates — let the scalar path handle them
        return None
    return np.frombuffer(raw, dtype="<i4").astype(np.int32, copy=False)


class PackedNameTable:
    """All keys of a name index packed into one padded code-point matrix.

    ``codes[i, :lengths[i]]`` holds the code points of key ``i``; the
    remainder of the row is ``-1`` (no string contains a negative code
    point, so padding can never match a query character).
    """

    __slots__ = ("codes", "lengths", "width")

    def __init__(self, codes: "np.ndarray", lengths: "np.ndarray", width: int) -> None:
        self.codes = codes
        self.lengths = lengths
        self.width = width

    @classmethod
    def build(cls, keys: Sequence[str]) -> Optional["PackedNameTable"]:
        """Pack ``keys``; ``None`` when a key is too long or unencodable."""
        width = 0
        for key in keys:
            if len(key) > width:
                width = len(key)
        if width > MAX_PACKED_LEN:
            return None
        codes = np.full((len(keys), width), -1, dtype=np.int32)
        lengths = np.zeros(len(keys), dtype=np.int64)
        for i, key in enumerate(keys):
            if key:
                encoded = _encode(key)
                if encoded is None:
                    return None
                codes[i, : len(key)] = encoded
            lengths[i] = len(key)
        return cls(codes, lengths, width)


def _batch_damerau(
    qidx: "np.ndarray",
    alphabet_size: int,
    cand_mapped: "np.ndarray",
    cand_lens: "np.ndarray",
) -> "np.ndarray":
    """Exact unrestricted Damerau–Levenshtein distances, one DP over all rows.

    ``qidx`` maps each query position to an id in ``[0, alphabet_size)``;
    ``cand_mapped`` maps each candidate cell to the same alphabet with
    ``alphabet_size`` as the "not a query character" sentinel.  Cell
    ``table[i + 1, j + 1, n]`` equals the scalar ``table[i + 1][j + 1]`` of
    :func:`repro.matchers.string_metrics.damerau_levenshtein_distance` for
    candidate ``n`` — same borders, same transposition look-back — so the
    gathered results are the exact distances.
    """
    la = len(qidx)
    count, width = cand_mapped.shape

    table = np.empty((la + 2, width + 2, count), dtype=np.int32)
    table[0] = _BIG
    table[:, 0] = _BIG
    table[1, 1:] = np.arange(width + 1, dtype=np.int32)[:, None]
    table[2:, 1] = np.arange(1, la + 1, dtype=np.int32)[:, None]

    # last_row of the scalar DP, keyed by query-character id; the sentinel
    # slot is never written, so sentinel columns always look back at the
    # all-barrier border row 0 — exactly ``last_row.get(char, 0)``.
    last_row = np.zeros(alphabet_size + 1, dtype=np.intp)
    rows = np.arange(count)
    for i in range(1, la + 1):
        query_char = qidx[i - 1]
        last_match_column = np.zeros(count, dtype=np.intp)
        previous = table[i]
        current = table[i + 1]
        for j in range(1, width + 1):
            column_chars = cand_mapped[:, j - 1]
            row_of_last_match = last_row[column_chars]
            match = column_chars == query_char
            value = previous[j] + np.where(match, np.int32(0), np.int32(1))
            np.minimum(value, current[j] + 1, out=value)
            np.minimum(value, previous[j + 1] + 1, out=value)
            transposition = (
                table[row_of_last_match, last_match_column, rows]
                + (i - row_of_last_match)
                + (j - last_match_column - 1)
            )
            np.minimum(value, transposition, out=value, casting="unsafe")
            current[j + 1] = value
            last_match_column = np.where(match, j, last_match_column)
        last_row[query_char] = i
    return table[la + 1, cand_lens + 1, rows].astype(np.int64)


def batch_fuzzy_scores(
    query: str,
    table: Optional[PackedNameTable],
    candidate_ids: Sequence[int],
    threshold: float,
) -> Optional[Dict[int, float]]:
    """Vectorized equivalent of the scalar per-candidate scoring loop.

    Returns the same dict the scalar loop builds::

        {name_id: fuzzy_similarity(query, keys[name_id], case_sensitive=True,
                                    min_similarity=threshold)
         for name_id in candidate_ids if score > 0.0}

    (same keys, same float bits, same insertion order), or ``None`` when the
    kernel declines and the caller should run the scalar loop instead.
    """
    if table is None:
        return None
    count = len(candidate_ids)
    if count < MIN_BATCH_SIZE:
        return None
    la = len(query)
    if la == 0 or la > MAX_PACKED_LEN:
        # Empty queries hit fuzzy_similarity's longest == 0 / shortest == 0
        # special cases; keep that logic in one place (the scalar path).
        return None
    if not 0.0 <= threshold <= 1.0:
        return None
    qcodes = _encode(query)
    if qcodes is None:
        return None

    alphabet = np.unique(qcodes)
    qidx = np.searchsorted(alphabet, qcodes)
    sentinel = len(alphabet)

    ids = np.asarray(candidate_ids, dtype=np.intp)
    lens = table.lengths[ids]
    width_bound = int(lens.max(initial=0))
    cell_bytes = (la + 2) * (width_bound + 2) * 4
    slab = max(1, min(count, _SLAB_BUDGET_BYTES // max(cell_bytes, 1)))

    scores: Dict[int, float] = {}
    for start in range(0, count, slab):
        part_ids = ids[start : start + slab]
        part_lens = lens[start : start + slab]
        longest = np.maximum(part_lens, la)
        shortest = np.minimum(part_lens, la)
        if threshold > 0.0:
            keep = 1.0 - (longest - shortest) / longest >= threshold
            limits = ((1.0 - threshold) * longest).astype(np.int64) + 1
        else:
            keep = np.ones(len(part_ids), dtype=bool)
            limits = la + part_lens
        distances = np.zeros(len(part_ids), dtype=np.int64)
        kept = np.nonzero(keep)[0]
        if kept.size:
            kept_lens = part_lens[kept]
            width = int(kept_lens.max(initial=0))
            sub = table.codes[part_ids[kept], :width]
            position = np.minimum(np.searchsorted(alphabet, sub), sentinel - 1)
            mapped = np.where(alphabet[position] == sub, position, sentinel)
            distances[kept] = _batch_damerau(qidx, sentinel, mapped, kept_lens)
        part_scores = 1.0 - distances / longest
        include = keep & (distances <= limits) & (part_scores > 0.0)
        for k in np.nonzero(include)[0]:
            scores[int(part_ids[k])] = float(part_scores[k])
    return scores


def scalar_fuzzy_scores(
    query: str,
    keys: Sequence[str],
    candidate_ids: Sequence[int],
    threshold: float,
) -> Dict[int, float]:
    """The scalar reference loop the batch kernel must agree with exactly."""
    from repro.matchers.string_metrics import fuzzy_similarity

    scores: Dict[int, float] = {}
    for name_id in candidate_ids:
        score = fuzzy_similarity(
            query, keys[name_id], case_sensitive=True, min_similarity=threshold
        )
        if score > 0.0:
            scores[name_id] = score
    return scores
