"""The pairwise path-similarity kernel over packed file sets (see ``pack``).

One numpy implementation serves the pr_pr edge weights of the hypergraph and
the RevFinder-s baseline. Each entry is the float of the scalar loop

    for j in sets: for a in target files: for b in files of j:
        total_j += lcp(a, b) / max(|a|, |b|)

A pair of files whose first tokens differ has lcp 0, so only the pairs that
share a first token are formed, from the packed files grouped by first token
(``FilePack.grouping``, kept with the pack). Each file is a row of tokens
ending in a fill that matches no token and not the other side's fill
(``pack.padded_rows``), so a pair's lcp is the first column where its two
rows differ, found for all pairs at once; the grouping keeps its files'
rows, files x (longest path + 1) x 4 bytes. The terms are added per
(target set, set) in the loop's (a, b) order by one ``np.bincount``, which
sums its weights in input order; a skipped pair's term is 0.0, and adding
0.0 changes no sum.
"""

import numpy as np

from .pack import TARGET_PAD, FilePack, FirstTokenGrouping, padded_rows

BACKEND = "numpy"

# Pairs formed at once: the target sets are swept in chunks of whole sets
# holding at most this many pairs (one set holding more is a chunk alone),
# which keeps a chunk's temporaries near half a MiB. A pair's rows are
# compared in blocks of at most ``ROW_CELLS * CHUNK_PAIRS`` token cells, so
# deep paths do not widen those temporaries past a few hundred KiB more.
CHUNK_PAIRS = 4096
ROW_CELLS = 16


def _group_pairs(files, lo, counts):
    """Each target file of ``files`` paired with the ``counts`` files of its
    first-token group, the run of the grouping from ``lo``: target files
    outer, each group in file order, which is the scalar loop's order."""
    ends = counts.cumsum()
    a = files.repeat(counts)
    b = np.arange(ends[-1]) + (lo + counts - ends).repeat(counts)
    return a, b


def _terms(t_rows, t_lens, a, rows, lens, b):
    """``lcp(a, b) / max(|a|, |b|)`` of target file ``a`` (row ``a`` of the
    padded ``t_rows``, length ``t_lens[a]``) and grouped file ``b`` (row
    ``b`` of the padded ``rows``, length ``lens[b]``), for pairs whose first
    tokens are equal."""
    # A pair's lcp is the first column where its rows differ. Both sides'
    # rows end in a fill that differs from everything on the other side, so
    # the narrower side's last column differs in every pair, and no wider
    # column need be compared. ``take`` gathers whole rows, several times
    # faster than indexing, so a block holds the wider side's cells.
    width = min(t_rows.shape[1], rows.shape[1])
    step = max(1, ROW_CELLS * CHUNK_PAIRS // max(t_rows.shape[1], rows.shape[1]))
    lcp = np.empty(len(a), dtype=np.intp)
    for lo in range(0, len(a), step):
        t_cells = t_rows.take(a[lo : lo + step], axis=0)[:, :width]
        same = t_cells == rows.take(b[lo : lo + step], axis=0)[:, :width]
        same.argmin(axis=1, out=lcp[lo : lo + step])
    return lcp / np.maximum(t_lens[a], lens[b])


def mean_similarity_entries(
    t_tokens, t_off, t_set_off, tokens, file_off, set_off, *, grouping=None
):
    """The positive mean pairwise prefix similarities of many target file
    sets against many packed sets.

    For target set F_s (files ``t_set_off[s]:t_set_off[s+1]`` of the
    ``t_tokens``/``t_off`` pack) and packed set F_j:

        mean(s, j) = sum_{a in F_s, b in F_j} lcp(a, b) / max(|a|, |b|)
                     / (|F_s| * |F_j|)

    where lcp counts common leading tokens. Returns ``(rows, cols, values)``
    for every (s, j) with a positive mean, ``rows`` ascending and each row's
    ``cols`` ascending, both int32; every other mean is 0.0. Every file and
    set must be non-empty, which ``FilePack`` guarantees. ``grouping`` is the
    packed sets' ``FilePack.grouping()``; without it the sweep makes its own.
    """
    t_tokens = np.asarray(t_tokens)
    t_off = np.asarray(t_off, dtype=np.int64)
    t_set_off = np.asarray(t_set_off, dtype=np.int64)
    tokens = np.asarray(tokens)
    file_off = np.asarray(file_off, dtype=np.int64)
    group = grouping or FirstTokenGrouping.of(tokens, file_off, set_off)
    t_lens = np.diff(t_off)
    t_sizes = np.diff(t_set_off)
    n_sets = len(group.sizes)
    t_set_of = np.repeat(np.arange(len(t_sizes)), t_sizes)

    # The files sharing a target file's first token: a run of the grouping.
    lo, partners = group.runs(t_tokens[t_off[:-1]])
    before = np.zeros(len(partners) + 1, dtype=np.int64)
    np.cumsum(partners, out=before[1:])
    at_set = before[t_set_off]

    found = [(np.zeros(0, dtype=np.int32),) * 2 + (np.zeros(0),)]
    s0 = 0
    while s0 < len(t_sizes):
        s1 = np.searchsorted(at_set, at_set[s0] + CHUNK_PAIRS, side="right") - 1
        s1 = max(int(s1), s0 + 1)
        f0, f1 = t_set_off[s0], t_set_off[s1]
        # The chunk's target files, numbered from 0.
        a, b = _group_pairs(np.arange(f1 - f0), lo[f0:f1], partners[f0:f1])
        t_rows = padded_rows(t_tokens, t_off[f0 : f1 + 1], TARGET_PAD)
        term = _terms(t_rows, t_lens[f0:f1], a, group.rows, group.lens, b)

        key = t_set_of[f0 + a] * n_sets + group.set_of[b]
        order = np.argsort(key, kind="stable")
        key = key[order]
        fresh = np.ones(len(key), dtype=bool)
        fresh[1:] = key[1:] != key[:-1]
        sums = np.bincount(np.cumsum(fresh) - 1, weights=term[order])
        rows, cols = np.divmod(key[fresh], n_sets)
        values = sums / (t_sizes[rows] * group.sizes[cols])
        found.append((rows.astype(np.int32), cols.astype(np.int32), values))
        s0 = s1

    return tuple(np.concatenate(parts) for parts in zip(*found))


def mean_similarity_row(t_tokens, t_off, tokens, file_off, set_off, *, grouping=None):
    """Mean pairwise prefix similarity of one file set against many: the one
    target set of ``mean_similarity_entries``, every entry written.

    Only the target's pairs within its first-token groups are formed, and
    each set's terms are added in (target file, file) order by one
    ``np.bincount``, so every entry equals the sweep's, bit for bit."""
    t_tokens = np.asarray(t_tokens)
    t_off = np.asarray(t_off, dtype=np.int64)
    tokens = np.asarray(tokens)
    file_off = np.asarray(file_off, dtype=np.int64)
    group = grouping or FirstTokenGrouping.of(tokens, file_off, set_off)
    t_lens = t_off[1:] - t_off[:-1]
    lo, counts = group.runs(t_tokens[t_off[:-1]])
    a, b = _group_pairs(np.arange(len(t_lens)), lo, counts)
    t_rows = padded_rows(t_tokens, t_off, TARGET_PAD)
    term = _terms(t_rows, t_lens, a, group.rows, group.lens, b)
    sums = np.bincount(group.set_of[b], weights=term, minlength=len(group.sizes))
    return sums / (group.sizes * len(t_lens))


__all__ = [
    "BACKEND",
    "FilePack",
    "FirstTokenGrouping",
    "mean_similarity_entries",
    "mean_similarity_row",
]
