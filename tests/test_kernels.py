"""The numpy path-similarity kernel against the scalar loop, bit for bit."""

import random

import numpy as np
import pytest

import hgrec.kernels as kernels
from hgrec.kernels import FilePack
from hgrec.hypergraph import path_similarity


def random_file_sets(rng, n_sets, unit):
    parts = ["src", "lib", "net", "ui", "db", "docs", "a", "b", "x.c", "y.c", "z.md"]
    sets = []
    for _ in range(n_sets):
        files = []
        for _ in range(rng.randint(1, 4)):
            depth = rng.randint(1, 5)
            files.append("/".join(rng.choice(parts) for _ in range(depth)))
        sets.append(sorted(set(files)))
    return sets


def naive_mean_similarity(files_a, files_b, unit):
    total = 0.0
    for fa in files_a:
        for fb in files_b:
            total += path_similarity(fa, fb, unit)
    return total / (len(files_a) * len(files_b))


def kernel_row(pack, t_tokens, t_off):
    return kernels.mean_similarity_row(
        t_tokens, t_off, pack.tokens, pack.file_off, pack.set_off
    )


def assert_rows_exact(sets, targets, unit):
    pack = FilePack.from_file_sets(sets, unit)
    for target in targets:
        row = kernel_row(pack, *pack.pack_one(target)).tolist()
        assert row == [naive_mean_similarity(target, s, unit) for s in sets]


@pytest.mark.parametrize("unit", ["components", "chars"])
def test_python_kernel_matches_naive_similarity(unit):
    rng = random.Random(11)
    sets = random_file_sets(rng, 12, unit)
    pack = FilePack.from_file_sets(sets, unit)
    for i in range(len(sets)):
        row = kernel_row(pack, *pack.slice_one(i)).tolist()
        assert row == [naive_mean_similarity(sets[i], s, unit) for s in sets]


@pytest.mark.parametrize("unit", ["components", "chars"])
def test_one_large_set_matches_naive_similarity(unit):
    # One set far larger than the rest: its partner slots outlive every
    # other set's, and its many-term sum is the easiest to reorder.
    rng = random.Random(17)
    sets = random_file_sets(rng, 30, unit)
    sets.insert(7, sorted({f for files in sets for f in files}))
    assert_rows_exact(sets, sets[5:10], unit)


@pytest.mark.parametrize("unit", ["components", "chars"])
def test_unseen_tokens_match_naive_similarity(unit):
    rng = random.Random(19)
    sets = random_file_sets(rng, 20, unit)
    targets = [
        ["src/new/x.c", "brand/new.md"],
        ["zz", "src/lib/q.h", "src/net"],
        [files[0] + "/deeper" for files in sets[:3]],
    ]
    assert_rows_exact(sets, targets, unit)


def test_out_is_filled_and_returned():
    pack = FilePack.from_file_sets([["src/a/x.c"], ["src/b.c", "docs/c.md"]], "components")
    out = np.full(2, np.nan)
    row = kernels.mean_similarity_row(
        *pack.pack_one(["src/a/y.c"]), pack.tokens, pack.file_off, pack.set_off, out=out
    )
    assert row is out
    assert out.tolist() == [2 / 3, (1 / 3 + 0.0) / 2]


def test_pack_one_unseen_tokens_never_match_corpus():
    pack = FilePack.from_file_sets([["src/a/x.c"]], "components")
    tokens, offsets = pack.pack_one(["brand/new/path.c"])
    assert (tokens < 0).all()
    row = kernels.mean_similarity_row(
        tokens, offsets, pack.tokens, pack.file_off, pack.set_off
    )
    assert row[0] == 0.0


def test_pack_one_known_tokens_match():
    pack = FilePack.from_file_sets([["src/a/x.c", "src/a/y.c"]], "components")
    tokens, offsets = pack.pack_one(["src/a/x.c"])
    row = kernels.mean_similarity_row(
        tokens, offsets, pack.tokens, pack.file_off, pack.set_off
    )
    # vs {x, y}: (1 + 2/3) / 2
    assert row[0] == pytest.approx(5 / 6, abs=1e-12)


def test_pack_one_does_not_mutate_vocab():
    pack = FilePack.from_file_sets([["src/a/x.c"]], "components")
    before = dict(pack.vocab)
    pack.pack_one(["other/thing.c"])
    assert pack.vocab == before


def test_empty_file_set_rejected():
    with pytest.raises(ValueError):
        FilePack.from_file_sets([[]], "components")
    pack = FilePack.from_file_sets([["a"]], "components")
    with pytest.raises(ValueError):
        pack.pack_one([])


@pytest.mark.parametrize("unit", ["components", "chars"])
def test_empty_path_rejected(unit):
    with pytest.raises(ValueError, match="empty file path"):
        FilePack.from_file_sets([["a"], ["b", ""]], unit)
    pack = FilePack.from_file_sets([["a"]], unit)
    with pytest.raises(ValueError, match="empty file path"):
        pack.pack_one(["a", ""])


@pytest.mark.parametrize("unit", ["components", "chars"])
def test_rows_against_a_taken_pack_equal_rows_against_its_own(unit):
    """A slice's pack gathers the root's sets and shares the root's
    vocabulary; the kernel compares tokens only for equality, so every row
    equals the row against the slice's sets packed alone, exactly, even for
    a target token that only the root's other sets hold."""
    rng = random.Random(23)
    sets = random_file_sets(rng, 30, unit)
    sets[0] = ["only/in/the/root.q"]
    root = FilePack.from_file_sets(sets, unit)
    picks = np.asarray(sorted(rng.sample(range(1, len(sets)), 12))[::-1])
    taken = root.take(picks)
    alone = FilePack.from_file_sets([sets[i] for i in picks], unit)
    assert taken.vocab is root.vocab
    assert np.array_equal(np.diff(taken.set_off), np.diff(alone.set_off))
    assert np.array_equal(np.diff(taken.file_off), np.diff(alone.file_off))
    targets = [*(sets[i] for i in range(len(sets))), ["only/in/the/root.q", "src/new"]]
    for target in targets:
        got = kernel_row(taken, *taken.pack_one(target)).tolist()
        assert got == kernel_row(alone, *alone.pack_one(target)).tolist()
    for i in range(len(picks)):
        got = kernel_row(taken, *taken.slice_one(i)).tolist()
        assert got == kernel_row(alone, *alone.slice_one(i)).tolist()
