"""Flat integer packing of file-path sets for the pairwise similarity kernel.

Paths are split into their ``/``-separated components, components interned
to int32 ids, and a whole corpus of file sets is laid out as three flat arrays:

    tokens    int32[total]    token ids of all files, concatenated
    file_off  int64[nf + 1]   file k  = tokens[file_off[k] : file_off[k+1]]
    set_off   int64[ns + 1]   set  i  = files  [set_off[i] : set_off[i+1]]

Only token equality matters to the kernel, so the id assignment is arbitrary
but deterministic (first-seen order). Two files with different first tokens
have no common prefix, so the kernel reads the files grouped by first token;
a pack keeps that grouping once made, with each file's tokens as a padded
row (``padded_rows``), files x (longest path + 1) x 4 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


# The fill of a packed file's padded row (``PAD``) and of a target file's
# (``TARGET_PAD``). Packed tokens are ids from 0 up to the vocabulary's size
# and a target's unseen tokens are ids from -1 down to minus its number of
# tokens, so neither fill equals a token or the other fill: two rows agree
# in a column only where both files hold the same token.
PAD = np.iinfo(np.int32).max
TARGET_PAD = np.iinfo(np.int32).min


def padded_rows(tokens: np.ndarray, file_off: np.ndarray, fill: int) -> np.ndarray:
    """The files ``tokens[file_off[k]:file_off[k + 1]]`` as the rows of an
    int32 matrix one column wider than the longest, each padded with
    ``fill``: every row ends in at least one ``fill``."""
    lens = file_off[1:] - file_off[:-1]
    rows = np.empty((len(lens), int(lens.max(initial=0)) + 1), dtype=np.int32)
    rows.fill(fill)
    # A boolean mask assigns in row-major order: file by file, token by token.
    rows[np.arange(rows.shape[1]) < lens[:, None]] = tokens[file_off[0] : file_off[-1]]
    return rows


def _check_path(path: str) -> None:
    # An empty path would pack as one empty token; the export parser and
    # ``hypergraph.path_similarity`` reject it too, so the pack does as well.
    if not path:
        raise ValueError("cannot pack an empty file path")


@dataclass(frozen=True)
class FirstTokenGrouping:
    """Packed files grouped by first token: sorted stably by it, so the
    files sharing a first token are one run, in file order. Per file in that
    order: its first token (``first``), its set (``set_of``), its length
    (``lens``) and its tokens as a row padded with ``PAD`` (``rows``).
    ``sizes`` holds each set's number of files."""

    first: np.ndarray
    set_of: np.ndarray
    lens: np.ndarray
    rows: np.ndarray
    sizes: np.ndarray

    @classmethod
    def of(
        cls, tokens: np.ndarray, file_off: np.ndarray, set_off: np.ndarray
    ) -> "FirstTokenGrouping":
        first = tokens[file_off[:-1]]
        by_first = np.argsort(first, kind="stable")
        sizes = np.diff(set_off)
        return cls(
            first=first[by_first],
            set_of=np.repeat(np.arange(len(sizes)), sizes)[by_first],
            lens=np.diff(file_off)[by_first],
            rows=padded_rows(tokens, file_off, PAD)[by_first],
            sizes=sizes,
        )

    def runs(self, first_tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Start and length of each token's run: the files whose first token
        it is."""
        lo = self.first.searchsorted(first_tokens, side="left")
        return lo, self.first.searchsorted(first_tokens, side="right") - lo


@dataclass
class FilePack:
    tokens: np.ndarray
    file_off: np.ndarray
    set_off: np.ndarray
    vocab: dict[str, int]
    _grouping: FirstTokenGrouping | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def n_sets(self) -> int:
        return len(self.set_off) - 1

    def grouping(self) -> FirstTokenGrouping:
        """This pack's files grouped by first token, made on first use: a
        pack's arrays never change once made."""
        if self._grouping is None:
            self._grouping = FirstTokenGrouping.of(
                self.tokens, self.file_off, self.set_off
            )
        return self._grouping

    @classmethod
    def from_file_sets(cls, file_sets: Sequence[Sequence[str]]) -> "FilePack":
        vocab: dict[str, int] = {}
        tokens: list[int] = []
        file_off = [0]
        set_off = [0]
        for files in file_sets:
            if not files:
                raise ValueError("cannot pack an empty file set")
            for path in files:
                _check_path(path)
                for tok in path.split("/"):
                    tid = vocab.setdefault(tok, len(vocab))
                    tokens.append(tid)
                file_off.append(len(tokens))
            set_off.append(len(file_off) - 1)
        return cls(
            tokens=np.asarray(tokens, dtype=np.int32),
            file_off=np.asarray(file_off, dtype=np.int64),
            set_off=np.asarray(set_off, dtype=np.int64),
            vocab=vocab,
        )

    def pack_one(self, files: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Pack a single file set against this vocabulary without mutating it.

        Tokens unseen in the corpus get negative ids: equal unseen tokens
        stay equal to each other and unequal to every corpus token.
        """
        if not files:
            raise ValueError("cannot pack an empty file set")
        fresh: dict[str, int] = {}
        tokens: list[int] = []
        offsets = [0]
        for path in files:
            _check_path(path)
            for tok in path.split("/"):
                tid = self.vocab.get(tok)
                if tid is None:
                    tid = fresh.setdefault(tok, -1 - len(fresh))
                tokens.append(tid)
            offsets.append(len(tokens))
        return (
            np.asarray(tokens, dtype=np.int32),
            np.asarray(offsets, dtype=np.int64),
        )

    def take(self, sets: np.ndarray) -> "FilePack":
        """The sets at ``sets``, in that order, over this pack's vocabulary."""
        sizes = np.diff(self.set_off)[sets]
        set_off = np.zeros(len(sets) + 1, dtype=np.int64)
        np.cumsum(sizes, out=set_off[1:])
        files = np.arange(set_off[-1]) + np.repeat(
            self.set_off[sets] - set_off[:-1], sizes
        )
        lens = np.diff(self.file_off)[files]
        file_off = np.zeros(len(files) + 1, dtype=np.int64)
        np.cumsum(lens, out=file_off[1:])
        tokens = self.tokens[
            np.arange(file_off[-1])
            + np.repeat(self.file_off[files] - file_off[:-1], lens)
        ]
        return FilePack(tokens, file_off, set_off, self.vocab)

    def slice_one(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """View of set ``index`` rebased to local offsets."""
        f_lo = self.set_off[index]
        f_hi = self.set_off[index + 1]
        base = self.file_off[f_lo]
        tokens = self.tokens[base : self.file_off[f_hi]]
        offsets = self.file_off[f_lo : f_hi + 1] - base
        return tokens, np.ascontiguousarray(offsets)
