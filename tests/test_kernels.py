"""The numpy path-similarity kernel against the scalar loop, bit for bit."""

import os
import random
import tracemalloc

import numpy as np
import pytest

import hgrec.kernels as kernels
from hgrec.baselines import revfinder_recommend
from hgrec.config import HyperParams
from hgrec.corpus import TargetPR, clean, parse_export
from hgrec.kernels import FilePack, FirstTokenGrouping
from hgrec.hypergraph import path_similarity
from hgrec.recommender import HypergraphRecommender

from conftest import DAY, DEEP_ROOT, load_synth, make_corpus, make_pr


def random_file_sets(rng, n_sets, shape="shallow"):
    """Sets of 1-4 files, each 1-5 components drawn from a few names. In the
    ``deep`` shape each file lies under ``DEEP_ROOT`` (10-14 components): the
    pack is one first-token group and prefixes extend 9 steps or more."""
    parts = ["src", "lib", "net", "ui", "db", "docs", "a", "b", "x.c", "y.c", "z.md"]
    root = [DEEP_ROOT] if shape == "deep" else []
    sets = []
    for _ in range(n_sets):
        files = []
        for _ in range(rng.randint(1, 4)):
            depth = rng.randint(1, 5)
            files.append("/".join(root + [rng.choice(parts) for _ in range(depth)]))
        sets.append(sorted(set(files)))
    return sets


@pytest.fixture(params=["shallow", "deep"])
def shape(request):
    return request.param


def naive_mean_similarity(files_a, files_b):
    total = 0.0
    for fa in files_a:
        for fb in files_b:
            total += path_similarity(fa, fb)
    return total / (len(files_a) * len(files_b))


def kernel_row(pack, t_tokens, t_off):
    return kernels.mean_similarity_row(
        t_tokens, t_off, pack.tokens, pack.file_off, pack.set_off
    )


def assert_rows_exact(sets, targets):
    pack = FilePack.from_file_sets(sets)
    for target in targets:
        row = kernel_row(pack, *pack.pack_one(target)).tolist()
        assert row == [naive_mean_similarity(target, s) for s in sets]


def test_python_kernel_matches_naive_similarity(shape):
    rng = random.Random(11)
    sets = random_file_sets(rng, 12, shape)
    pack = FilePack.from_file_sets(sets)
    for i in range(len(sets)):
        row = kernel_row(pack, *pack.slice_one(i)).tolist()
        assert row == [naive_mean_similarity(sets[i], s) for s in sets]


def test_one_large_set_matches_naive_similarity(shape):
    # One set far larger than the rest: its partner slots outlive every
    # other set's, and its many-term sum is the easiest to reorder.
    rng = random.Random(17)
    sets = random_file_sets(rng, 30, shape)
    sets.insert(7, sorted({f for files in sets for f in files}))
    assert_rows_exact(sets, sets[5:10])


def test_unseen_tokens_match_naive_similarity(shape):
    rng = random.Random(19)
    sets = random_file_sets(rng, 20, shape)
    targets = [
        ["src/new/x.c", "brand/new.md"],
        ["zz", "src/lib/q.h", "src/net"],
        [files[0] + "/deeper" for files in sets[:3]],
    ]
    assert_rows_exact(sets, targets)


def test_pack_one_unseen_tokens_never_match_corpus():
    pack = FilePack.from_file_sets([["src/a/x.c"]])
    tokens, offsets = pack.pack_one(["brand/new/path.c"])
    assert (tokens < 0).all()
    row = kernels.mean_similarity_row(
        tokens, offsets, pack.tokens, pack.file_off, pack.set_off
    )
    assert row[0] == 0.0


def test_pack_one_known_tokens_match():
    pack = FilePack.from_file_sets([["src/a/x.c", "src/a/y.c"]])
    tokens, offsets = pack.pack_one(["src/a/x.c"])
    row = kernels.mean_similarity_row(
        tokens, offsets, pack.tokens, pack.file_off, pack.set_off
    )
    # vs {x, y}: (1 + 2/3) / 2
    assert row[0] == pytest.approx(5 / 6, abs=1e-12)


def test_pack_one_does_not_mutate_vocab():
    pack = FilePack.from_file_sets([["src/a/x.c"]])
    before = dict(pack.vocab)
    pack.pack_one(["other/thing.c"])
    assert pack.vocab == before


def test_empty_file_set_rejected():
    with pytest.raises(ValueError):
        FilePack.from_file_sets([[]])
    pack = FilePack.from_file_sets([["a"]])
    with pytest.raises(ValueError):
        pack.pack_one([])


def test_empty_path_rejected():
    with pytest.raises(ValueError, match="empty file path"):
        FilePack.from_file_sets([["a"], ["b", ""]])
    pack = FilePack.from_file_sets([["a"]])
    with pytest.raises(ValueError, match="empty file path"):
        pack.pack_one(["a", ""])


def test_rows_against_a_taken_pack_equal_rows_against_its_own(shape):
    """A slice's pack gathers the root's sets and shares the root's
    vocabulary; the kernel compares tokens only for equality, so every row
    equals the row against the slice's sets packed alone, exactly, even for
    a target token that only the root's other sets hold."""
    rng = random.Random(23)
    sets = random_file_sets(rng, 30, shape)
    sets[0] = ["only/in/the/root.q"]
    root = FilePack.from_file_sets(sets)
    picks = np.asarray(sorted(rng.sample(range(1, len(sets)), 12))[::-1])
    taken = root.take(picks)
    alone = FilePack.from_file_sets([sets[i] for i in picks])
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


def concatenated(t_pack_sets):
    """(tokens, file offsets, set offsets) of packed targets laid end to end."""
    tokens = np.concatenate([t for t, _ in t_pack_sets])
    file_off, set_off = [0], [0]
    for t, off in t_pack_sets:
        file_off.extend((file_off[-1] + off[1:]).tolist())
        set_off.append(len(file_off) - 1)
    return tokens, np.asarray(file_off), np.asarray(set_off)


def assert_entries_exact(t_pack_sets, pack, t_sets, sets):
    """Whole-pack entries == stacked rows == the naive oracle, with ``==``."""
    rows, cols, values = kernels.mean_similarity_entries(
        *concatenated(t_pack_sets), pack.tokens, pack.file_off, pack.set_off
    )
    stacked = np.array([kernel_row(pack, *target) for target in t_pack_sets])
    # The entries are the positive ones, rows ascending, cols ascending.
    expect_rows, expect_cols = np.nonzero(stacked)
    assert rows.tolist() == expect_rows.tolist()
    assert cols.tolist() == expect_cols.tolist()
    assert values.tolist() == stacked[expect_rows, expect_cols].tolist()
    assert stacked.tolist() == [
        [naive_mean_similarity(t, s) for s in sets] for t in t_sets
    ]


@pytest.fixture(params=["default", "1"])
def chunk_pairs(request, monkeypatch):
    """The kernel's chunk cap as it is, and at 1: every set a chunk alone."""
    if request.param == "1":
        monkeypatch.setattr(kernels, "CHUNK_PAIRS", 1)


def sweep_sets(rng, shape):
    """Random sets, some of a single file, and one set holding every file."""
    sets = random_file_sets(rng, 24, shape)
    sets[3:6] = [[files[0]] for files in sets[3:6]]
    sets.insert(9, sorted({f for files in sets for f in files}))
    return sets


def test_whole_pack_entries_equal_stacked_rows_and_naive(shape, chunk_pairs):
    sets = sweep_sets(random.Random(29), shape)
    pack = FilePack.from_file_sets(sets)
    t_pack_sets = [pack.slice_one(i) for i in range(pack.n_sets)]
    assert_entries_exact(t_pack_sets, pack, sets, sets)


def test_entries_of_unseen_targets_equal_stacked_rows_and_naive(shape, chunk_pairs):
    sets = sweep_sets(random.Random(31), shape)
    pack = FilePack.from_file_sets(sets)
    targets = [
        ["brand/new.md"],
        ["src/new/x.c", "brand/new.md"],
        ["zz", "src/lib/q.h", "src/net"],
        *([files[0] + "/deeper"] for files in sets[:3]),
        sets[9],
    ]
    t_pack_sets = [pack.pack_one(target) for target in targets]
    assert_entries_exact(t_pack_sets, pack, targets, sets)


def test_entries_of_a_shuffled_root_window_equal_stacked_rows_and_naive(
    shape, chunk_pairs
):
    rng = random.Random(37)
    sets = sweep_sets(rng, shape)
    root = FilePack.from_file_sets(sets)
    picks = np.asarray(rng.sample(range(len(sets)), 15))
    window = root.take(picks)
    picked = [sets[i] for i in picks]
    t_pack_sets = [window.slice_one(i) for i in range(window.n_sets)]
    assert_entries_exact(t_pack_sets, window, picked, picked)


def test_serve_shaped_sweep_peaks_at_one_mib_or_less():
    """One whole-corpus sweep of a serve-shaped corpus keeps its temporaries,
    chunk by chunk, within about 1 MiB (entries included)."""
    synth = load_synth()
    shape = synth.Shape(prs=400, months=36, files_per_area=120, depth=4, held_out=100)
    records, _ = synth.generate(shape, "1/0")
    corpus = clean(parse_export(synth.to_jsonl(records).splitlines()))
    pack = corpus.file_pack()
    args = (pack.tokens, pack.file_off, pack.set_off) * 2
    tracemalloc.start()
    try:
        rows, _, _ = kernels.mean_similarity_entries(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) > pack.n_sets
    assert peak <= 1 << 20


def assert_grouped_row_exact(pack, target, sets):
    """The row read through the pack's grouping == the sweep's entries of the
    one target set, scattered == the naive oracle, with ``==``."""
    t_tokens, t_off = pack.pack_one(target)
    row = kernels.mean_similarity_row(
        t_tokens, t_off, pack.tokens, pack.file_off, pack.set_off,
        grouping=pack.grouping(),
    )
    _, cols, values = kernels.mean_similarity_entries(
        t_tokens, t_off, [0, len(t_off) - 1], pack.tokens, pack.file_off, pack.set_off
    )
    swept = np.zeros(pack.n_sets)
    swept[cols] = values
    assert row.tolist() == swept.tolist()
    assert row.tolist() == [naive_mean_similarity(target, s) for s in sets]
    return row


def test_grouped_rows_of_a_taken_window_equal_sweep_and_naive(shape):
    """A window's grouping holds the window's files only: a target token
    that only the root holds pairs with nothing."""
    rng = random.Random(41)
    sets = random_file_sets(rng, 30, shape)
    sets[0] = ["only/in/the/whole.q"]
    root = FilePack.from_file_sets(sets)
    picks = np.asarray(rng.sample(range(1, len(sets)), 14))
    window = root.take(picks)
    picked = [sets[i] for i in picks]
    targets = [
        ["only/in/the/whole.q"],
        ["only/in/the/whole.q", "src/new"],
        *picked[:5],
    ]
    for target in targets:
        assert_grouped_row_exact(window, target, picked)
    assert not assert_grouped_row_exact(window, targets[0], picked).any()
    assert assert_grouped_row_exact(root, targets[0], sets)[0] == 1.0


def test_grouped_row_of_an_unmatched_target_is_all_zero(shape):
    sets = random_file_sets(random.Random(43), 20, shape)
    pack = FilePack.from_file_sets(sets)
    row = assert_grouped_row_exact(pack, ["wk/src/a", "Q"], sets)
    assert row.tolist() == [0.0] * len(sets)


def test_grouped_row_of_one_file_against_one_very_large_set(shape):
    rng = random.Random(47)
    big = sorted({f for files in random_file_sets(rng, 200, shape) for f in files})
    sets = [["src/a"], big, ["docs/x.c", "src"]]
    pack = FilePack.from_file_sets(sets)
    assert len(big) > 100
    for target in (["src/lib/x.c"], [big[len(big) // 2]], ["docs"]):
        assert_grouped_row_exact(pack, target, sets)


def deep_file_sets(rng, n_sets):
    """Sets of paths up to 22 components deep that share long prefixes: each
    file is a prefix of one of three 20-component stems plus up to two
    components of its own. Every sixth set holds 20 to 60 files."""
    parts = ["src", "lib", "a", "b", "x.c"]
    stems = [[rng.choice(parts) for _ in range(20)] for _ in range(3)]
    sets = []
    for i in range(n_sets):
        files = set()
        for _ in range(rng.randint(20, 60) if i % 6 == 0 else rng.randint(1, 4)):
            tail = [rng.choice(parts) for _ in range(rng.randint(0, 2))]
            files.add("/".join(rng.choice(stems)[: rng.randint(1, 20)] + tail))
        sets.append(sorted(files))
    return sets


def longest_shared_prefix(sets):
    """Most leading components that two different files of ``sets`` share."""
    paths = sorted({tuple(f.split("/")) for files in sets for f in files})
    return max(len(os.path.commonprefix([a, b])) for a, b in zip(paths, paths[1:]))


def test_deep_paths_sweep_and_grouped_rows_equal_naive(chunk_pairs):
    """Files sharing 15 or more leading components keep the prefix extension
    running many steps; the sweep and the grouped rows still equal the
    naive oracle exactly."""
    sets = deep_file_sets(random.Random(59), 24)
    assert longest_shared_prefix(sets) >= 15
    assert max(len(files) for files in sets) >= 20
    pack = FilePack.from_file_sets(sets)
    t_pack_sets = [pack.slice_one(i) for i in range(pack.n_sets)]
    assert_entries_exact(t_pack_sets, pack, sets, sets)
    for target in [*sets[:7], ["src/new"], [sets[0][-1] + "/deeper"]]:
        assert_grouped_row_exact(pack, target, sets)


def test_grouping_is_made_once_per_pack(monkeypatch):
    """Two grafts on one window fit and two revfinder-s queries on one
    window each group the window's pack once; the root's pack, swept for
    the fit, is grouped once too, and a taken window gets its own."""
    made = []
    of = FirstTokenGrouping.of.__func__

    def spy(cls, tokens, file_off, set_off):
        made.append(tokens)
        return of(cls, tokens, file_off, set_off)

    monkeypatch.setattr(FirstTokenGrouping, "of", classmethod(spy))
    t0 = 1_600_000_000
    corpus = make_corpus(
        [
            make_pr(f"p{i}", f"c{i % 3}", t0 + i * DAY,
                    [f"src/d{i % 2}/f{i}.c", f"docs/{i % 4}.md"],
                    comments=[(f"r{i % 4}", t0 + i * DAY + 1)])
            for i in range(12)
        ]
    )
    root = corpus.file_pack()
    targets = [
        TargetPR(f"t{i}", "c0", t0 + 20 * DAY, (f"src/d{i}/new.c",)) for i in (0, 1)
    ]

    fitted = corpus.slice_until(t0 + 8 * DAY)
    recommender = HypergraphRecommender(HyperParams()).fit(fitted)
    for target in targets:
        recommender.recommend(target, 3)
    window = fitted.file_pack()
    assert len(made) == 2 and made[0] is root.tokens and made[1] is window.tokens

    queried = corpus.slice_until(t0 + 10 * DAY)
    for target in targets:
        revfinder_recommend(queried, target, 3)
    assert len(made) == 3 and made[2] is queried.file_pack().tokens
    assert window.grouping() is not root.grouping()
    assert len(made) == 3
