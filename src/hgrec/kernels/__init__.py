"""The pairwise path-similarity kernel over packed file sets (see ``pack``).

One numpy implementation serves the pr_pr edge weights of the hypergraph and
the RevFinder-s baseline. Each entry is the float of the scalar loop

    for j in sets: for a in target files: for b in files of j:
        total_j += lcp(a, b) / max(|a|, |b|)

A pair of files whose first tokens differ has lcp 0, so only the pairs that
share a first token are formed. Their terms are added per (target set, set)
in the loop's (a, b) order by one ``np.bincount``, which sums its weights in
input order; a skipped pair's term is 0.0, and adding 0.0 changes no sum.
"""

import numpy as np

from .pack import FilePack, tokenize

BACKEND = "numpy"

# Pairs formed at once: the target sets are swept in chunks of whole sets
# holding at most this many pairs (one set holding more is a chunk alone),
# which keeps a chunk's temporaries near half a MiB.
CHUNK_PAIRS = 4096


def mean_similarity_entries(t_tokens, t_off, t_set_off, tokens, file_off, set_off):
    """The positive mean pairwise prefix similarities of many target file
    sets against many packed sets.

    For target set F_s (files ``t_set_off[s]:t_set_off[s+1]`` of the
    ``t_tokens``/``t_off`` pack) and packed set F_j:

        mean(s, j) = sum_{a in F_s, b in F_j} lcp(a, b) / max(|a|, |b|)
                     / (|F_s| * |F_j|)

    where lcp counts common leading tokens. Returns ``(rows, cols, values)``
    for every (s, j) with a positive mean, ``rows`` ascending and each row's
    ``cols`` ascending; every other mean is 0.0. Every file and set must be
    non-empty, which ``FilePack`` guarantees.
    """
    t_tokens = np.asarray(t_tokens)
    t_off = np.asarray(t_off, dtype=np.int64)
    t_set_off = np.asarray(t_set_off, dtype=np.int64)
    tokens = np.asarray(tokens)
    file_off = np.asarray(file_off, dtype=np.int64)
    set_off = np.asarray(set_off, dtype=np.int64)
    t_lens = np.diff(t_off)
    lens = np.diff(file_off)
    t_sizes = np.diff(t_set_off)
    sizes = np.diff(set_off)
    n_sets = len(sizes)
    t_set_of = np.repeat(np.arange(len(t_sizes)), t_sizes)
    set_of = np.repeat(np.arange(n_sets), sizes)

    # The files sharing a target file's first token: a run of ``by_first``,
    # in file order.
    first = tokens[file_off[:-1]]
    by_first = np.argsort(first, kind="stable")
    first = first[by_first]
    t_first = t_tokens[t_off[:-1]]
    lo = np.searchsorted(first, t_first, side="left")
    partners = np.searchsorted(first, t_first, side="right") - lo
    before = np.zeros(len(partners) + 1, dtype=np.int64)
    np.cumsum(partners, out=before[1:])
    at_set = before[t_set_off]

    found = [(np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0),)]
    s0 = 0
    while s0 < len(t_sizes):
        s1 = np.searchsorted(at_set, at_set[s0] + CHUNK_PAIRS, side="right") - 1
        s1 = max(int(s1), s0 + 1)
        f0, f1 = t_set_off[s0], t_set_off[s1]
        counts = partners[f0:f1]
        a = np.repeat(np.arange(f0, f1), counts)
        b = by_first[
            np.arange(at_set[s1] - at_set[s0])
            + np.repeat(lo[f0:f1] - (before[f0:f1] - before[f0]), counts)
        ]
        # Every pair matches at token 0; extend the prefix while it matches.
        lcp = np.ones(len(a), dtype=np.int64)
        shorter = np.minimum(t_lens[a], lens[b])
        live = np.arange(len(a))
        p = 1
        while live.size:
            live = live[shorter[live] > p]
            live = live[
                t_tokens[t_off[a[live]] + p] == tokens[file_off[b[live]] + p]
            ]
            lcp[live] += 1
            p += 1
        term = lcp / np.maximum(t_lens[a], lens[b])

        key = t_set_of[a] * n_sets + set_of[b]
        order = np.argsort(key, kind="stable")
        key = key[order]
        fresh = np.ones(len(key), dtype=bool)
        fresh[1:] = key[1:] != key[:-1]
        sums = np.bincount(np.cumsum(fresh) - 1, weights=term[order])
        rows, cols = np.divmod(key[fresh], n_sets)
        found.append((rows, cols, sums / (t_sizes[rows] * sizes[cols])))
        s0 = s1

    return tuple(np.concatenate(parts) for parts in zip(*found))


def mean_similarity_row(t_tokens, t_off, tokens, file_off, set_off, out=None):
    """Mean pairwise prefix similarity of one file set against many: the one
    target set of ``mean_similarity_entries``, every entry written."""
    _, cols, values = mean_similarity_entries(
        t_tokens, t_off, [0, len(t_off) - 1], tokens, file_off, set_off
    )
    if out is None:
        out = np.empty(len(set_off) - 1, dtype=np.float64)
    out.fill(0.0)
    out[cols] = values
    return out


__all__ = [
    "BACKEND",
    "FilePack",
    "mean_similarity_entries",
    "mean_similarity_row",
    "tokenize",
]
