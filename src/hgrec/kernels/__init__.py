"""The pairwise path-similarity kernel over packed file sets (see ``pack``).

One numpy implementation serves the pr_pr edge weights of the hypergraph and
the RevFinder-s baseline. It adds every term in the order of the scalar loop

    for j in sets: for a in target files: for b in files of j:
        total_j += lcp(a, b) / max(|a|, |b|)

so each entry is the same float that loop gives: the additions are
vectorized over the sets ``j`` only, and no reduction reorders them.
"""

import numpy as np

from .pack import FilePack, tokenize

BACKEND = "numpy"


def mean_similarity_row(t_tokens, t_off, tokens, file_off, set_off, out=None):
    """Mean pairwise prefix similarity of one file set against many.

    For target files F_t and each packed set F_j:

        out[j] = sum_{a in F_t, b in F_j} lcp(a, b) / max(|a|, |b|)
                 / (|F_t| * |F_j|)

    where lcp counts common leading tokens. Every file and set must be
    non-empty, which ``FilePack`` guarantees.
    """
    t_tokens = np.asarray(t_tokens).tolist()
    t_off = np.asarray(t_off).tolist()
    tokens = np.asarray(tokens)
    file_off = np.asarray(file_off)
    set_off = np.asarray(set_off)
    starts = file_off[:-1]
    lens = np.diff(file_off)
    sizes = np.diff(set_off)

    # Partner slot b: the sets with more than b files, and the index of
    # their b-th file.
    slots = []
    live = np.arange(len(sizes))
    while live.size:
        b = len(slots)
        slots.append((live, set_off[live] + b))
        live = live[sizes[live] > b + 1]

    n_t = len(t_off) - 1
    total = np.zeros(len(sizes))
    lcp = np.empty(len(lens), dtype=np.int64)
    for a in range(n_t):
        a_tokens = t_tokens[t_off[a] : t_off[a + 1]]
        lcp.fill(0)
        alive = np.arange(len(lens))
        for p, token in enumerate(a_tokens):
            alive = alive[lens[alive] > p]
            alive = alive[tokens[starts[alive] + p] == token]
            if not alive.size:
                break
            lcp[alive] = p + 1
        term = lcp / np.maximum(lens, len(a_tokens))
        for sets, files in slots:
            total[sets] += term[files]

    if out is None:
        out = np.empty(len(sizes), dtype=np.float64)
    np.divide(total, n_t * sizes, out=out)
    return out


__all__ = ["BACKEND", "FilePack", "mean_similarity_row", "tokenize"]
