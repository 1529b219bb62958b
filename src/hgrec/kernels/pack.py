"""Flat integer packing of file-path sets for the pairwise similarity kernel.

Paths are tokenized (into components or characters), tokens interned to int32
ids, and a whole corpus of file sets is laid out as three flat arrays:

    tokens    int32[total]    token ids of all files, concatenated
    file_off  int64[nf + 1]   file k  = tokens[file_off[k] : file_off[k+1]]
    set_off   int64[ns + 1]   set  i  = files  [set_off[i] : set_off[i+1]]

Only token equality matters to the kernel, so the id assignment is arbitrary
but deterministic (first-seen order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def tokenize(path: str, unit: str) -> list[str]:
    return path.split("/") if unit == "components" else list(path)


def _check_path(path: str) -> None:
    # In characters an empty path has no tokens, and its similarity to
    # another empty path would be 0/0.
    if not path:
        raise ValueError("cannot pack an empty file path")


@dataclass
class FilePack:
    unit: str
    tokens: np.ndarray
    file_off: np.ndarray
    set_off: np.ndarray
    vocab: dict[str, int]

    @property
    def n_sets(self) -> int:
        return len(self.set_off) - 1

    @classmethod
    def from_file_sets(
        cls, file_sets: Sequence[Sequence[str]], unit: str
    ) -> "FilePack":
        vocab: dict[str, int] = {}
        tokens: list[int] = []
        file_off = [0]
        set_off = [0]
        for files in file_sets:
            if not files:
                raise ValueError("cannot pack an empty file set")
            for path in files:
                _check_path(path)
                for tok in tokenize(path, unit):
                    tid = vocab.setdefault(tok, len(vocab))
                    tokens.append(tid)
                file_off.append(len(tokens))
            set_off.append(len(file_off) - 1)
        return cls(
            unit=unit,
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
            for tok in tokenize(path, self.unit):
                tid = self.vocab.get(tok)
                if tid is None:
                    tid = fresh.setdefault(tok, -1 - len(fresh))
                tokens.append(tid)
            offsets.append(len(tokens))
        return (
            np.asarray(tokens, dtype=np.int32),
            np.asarray(offsets, dtype=np.int64),
        )

    def slice_one(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """View of set ``index`` rebased to local offsets."""
        f_lo = self.set_off[index]
        f_hi = self.set_off[index + 1]
        base = self.file_off[f_lo]
        tokens = self.tokens[base : self.file_off[f_hi]]
        offsets = self.file_off[f_lo : f_hi + 1] - base
        return tokens, np.ascontiguousarray(offsets)
