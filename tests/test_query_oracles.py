"""The query path against the forms it had before its array work was cut:
the same kernel rows and sweeps, the same grafted edges, the same update of
the base system and the same scores, compared with ``np.array_equal``.

The kernel then found a pair's lcp by stepping token positions over the
pairs still matching; it now compares padded token rows at once. A graft
picked its partners with ``_top_entries`` over a zero row array; the overlay
branch of ``assemble`` took its touched set from ``np.union1d`` and its
cells from ``np.tile``; the update solve found ``k`` by ``np.searchsorted``
and gave SuperLU C-ordered right-hand sides.
"""

import random
import warnings
from typing import NamedTuple

import numpy as np
import pytest

import hgrec.kernels as kernels
from hgrec import ranker
from hgrec.config import HyperParams
from hgrec.errors import HgrecError, SolverError
from hgrec.hypergraph import (
    _CONTRIBUTOR,
    _PR_PR,
    EdgeKind,
    EdgeTable,
    Hypergraph,
    _span,
    _top_entries,
    build,
    contributor_raw,
    pr_pr_raw_row,
    scale_into_range,
)
from hgrec.kernels import FilePack
from hgrec.recommender import TargetPR, graft, prepare, query_vector

from conftest import DAY, DEEP_ROOT, make_corpus, make_pr

T0 = 1_600_000_000
PARTS = ("src", "lib", "net", "ui", "db", "docs", "a", "b", "x.c", "y.c", "z.md")
DEVS = tuple(f"dev{i}" for i in range(8))
# A path of 300 components under the shared deep root.
LONG_PATH = "/".join([DEEP_ROOT] + [f"level{i}" for i in range(291)])


# ---------------------------------------------------------------------------
# Oracles: the functions as they were, kept verbatim but for their names.


class OracleGrouping(NamedTuple):
    by_first: np.ndarray
    first: np.ndarray
    set_of: np.ndarray
    lens: np.ndarray
    sizes: np.ndarray


def oracle_grouping(tokens, file_off, set_off):
    first = tokens[file_off[:-1]]
    by_first = np.argsort(first, kind="stable")
    sizes = np.diff(set_off)
    return OracleGrouping(
        by_first=by_first,
        first=first[by_first],
        set_of=np.repeat(np.arange(len(sizes)), sizes),
        lens=np.diff(file_off),
        sizes=sizes,
    )


def oracle_runs(group, first_tokens):
    lo = np.searchsorted(group.first, first_tokens, side="left")
    return lo, np.searchsorted(group.first, first_tokens, side="right") - lo


def oracle_group_pairs(files, lo, counts, by_first):
    ends = np.cumsum(counts)
    a = np.repeat(files, counts)
    b = by_first[np.arange(ends[-1]) + np.repeat(lo + counts - ends, counts)]
    return a, b


def oracle_terms(t_tokens, t_off, t_lens, a, tokens, file_off, lens, b):
    # Every pair matches at token 0; extend the prefix while it matches.
    lcp = np.ones(len(a), dtype=np.int64)
    shorter = np.minimum(t_lens[a], lens[b])
    live = np.arange(len(a))
    p = 1
    while live.size:
        live = live[shorter[live] > p]
        live = live[t_tokens[t_off[a[live]] + p] == tokens[file_off[b[live]] + p]]
        lcp[live] += 1
        p += 1
    return lcp / np.maximum(t_lens[a], lens[b])


def oracle_entries(t_tokens, t_off, t_set_off, tokens, file_off, set_off, chunk_pairs):
    t_tokens = np.asarray(t_tokens)
    t_off = np.asarray(t_off, dtype=np.int64)
    t_set_off = np.asarray(t_set_off, dtype=np.int64)
    tokens = np.asarray(tokens)
    file_off = np.asarray(file_off, dtype=np.int64)
    group = oracle_grouping(tokens, file_off, set_off)
    t_lens = np.diff(t_off)
    t_sizes = np.diff(t_set_off)
    n_sets = len(group.sizes)
    t_set_of = np.repeat(np.arange(len(t_sizes)), t_sizes)

    lo, partners = oracle_runs(group, t_tokens[t_off[:-1]])
    before = np.zeros(len(partners) + 1, dtype=np.int64)
    np.cumsum(partners, out=before[1:])
    at_set = before[t_set_off]

    found = [(np.zeros(0, dtype=np.int32),) * 2 + (np.zeros(0),)]
    s0 = 0
    while s0 < len(t_sizes):
        s1 = np.searchsorted(at_set, at_set[s0] + chunk_pairs, side="right") - 1
        s1 = max(int(s1), s0 + 1)
        f0, f1 = t_set_off[s0], t_set_off[s1]
        a, b = oracle_group_pairs(
            np.arange(f0, f1), lo[f0:f1], partners[f0:f1], group.by_first
        )
        term = oracle_terms(t_tokens, t_off, t_lens, a, tokens, file_off, group.lens, b)

        key = t_set_of[a] * n_sets + group.set_of[b]
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


def oracle_row(t_tokens, t_off, tokens, file_off, set_off):
    t_tokens = np.asarray(t_tokens)
    t_off = np.asarray(t_off, dtype=np.int64)
    tokens = np.asarray(tokens)
    file_off = np.asarray(file_off, dtype=np.int64)
    group = oracle_grouping(tokens, file_off, set_off)
    t_lens = np.diff(t_off)
    lo, counts = oracle_runs(group, t_tokens[t_off[:-1]])
    a, b = oracle_group_pairs(np.arange(len(t_lens)), lo, counts, group.by_first)
    term = oracle_terms(t_tokens, t_off, t_lens, a, tokens, file_off, group.lens, b)
    sums = np.bincount(group.set_of[b], weights=term, minlength=len(group.sizes))
    return sums / (group.sizes * len(t_lens))


def oracle_graft(state, target):
    base = state.graph
    if not target.files:
        raise HgrecError(f"target PR {target.id!r} has no files")
    if target.id in base.prs:
        raise HgrecError(f"target id {target.id!r} is already a PR of the corpus")

    t_start = base.bounds[0]
    t_end = max(base.bounds[1], target.created_at)

    pr_v = base.n_vertices
    developers = {}
    contributor_v = base.developers.get(target.contributor)
    if contributor_v is None:
        contributor_v = developers[target.contributor] = pr_v + 1

    index = base.pr_index
    pack = index.pack
    sims = oracle_row(
        *pack.pack_one(target.files), pack.tokens, pack.file_off, pack.set_off
    )
    # Only positive entries can be chosen, so only they are damped and ranked.
    similar = np.flatnonzero(sims)
    raw = pr_pr_raw_row(
        sims[similar], index.times[similar], _span(t_start, t_end), target.created_at
    )
    top = _top_entries(
        np.zeros(len(similar), dtype=np.int64),
        similar,
        raw,
        index.chronology,
        base.params.top_m,
    )
    partners = similar[top]
    # Every appended edge pairs the target with one vertex: first its
    # contributor, then each partner PR, which as a base vertex precedes it.
    n_edges = 1 + len(partners)
    kind = np.full(n_edges, _PR_PR, dtype=np.int8)
    kind[0] = _CONTRIBUTOR
    members = np.empty(2 * n_edges, dtype=np.int64)
    members[:2] = sorted((pr_v, contributor_v))
    members[2::2] = index.vertices[partners]
    members[3::2] = pr_v
    raws = np.empty(n_edges)
    raws[0] = contributor_raw(target.created_at, t_start, t_end)
    raws[1:] = raw[top]
    ranges = base.raw_range
    weights = np.empty(n_edges)
    weights[0] = scale_into_range(raws[0], ranges.get(EdgeKind.PR_CONTRIBUTOR))
    weights[1:] = scale_into_range(raws[1:], ranges.get(EdgeKind.PR_PR))
    return Hypergraph(
        prs={target.id: pr_v},
        developers=developers,
        edges=EdgeTable(
            kind=kind,
            offsets=np.arange(0, 2 * n_edges + 1, 2, dtype=np.int64),
            members=members,
            raw=raws,
            weight=weights,
        ),
        bounds=(t_start, t_end),
        raw_range=base.raw_range,
        params=base.params,
        base=base,
    )


def oracle_assemble_overlay(graph, alpha, base):
    n_v = graph.n_vertices
    # A pair's four kernel terms (u, u), (u, v), (v, u), (v, v) are each
    # weight / 2, in ``_edge_terms``' order.
    edges = graph.edges
    if len(edges.members) != 2 * len(edges):
        raise ValueError("an overlay's edges must each hold two vertices")
    n_base = base.n_vertices
    touched = np.union1d(edges.members, np.arange(n_base, n_v))
    n_touched = len(touched)
    k = n_touched - (n_v - n_base)  # touched base vertices
    ends = np.searchsorted(touched, edges.members)
    cells = np.repeat(ends, 2) * n_touched + np.tile(ends.reshape(-1, 2), 2).ravel()
    update = np.bincount(
        cells,
        weights=np.repeat(-alpha * (edges.weight / 2), 4),
        minlength=n_touched * n_touched,
    ).reshape(n_touched, n_touched)
    added = np.bincount(ends, weights=np.repeat(edges.weight, 2), minlength=n_touched)
    degree = np.zeros(n_v)
    degree[:n_base] = base.vertex_degree
    before = np.ones(n_touched)
    before[:k] = degree[touched[:k]] <= 0.0
    degree[touched] += added
    update.reshape(-1)[:: n_touched + 1] += (
        added + (degree[touched] <= 0.0) - before
    )
    return ranker.RankingSystem(
        degree, alpha, base=base, touched=touched, update=update
    )


def oracle_solve_update(system, rhs):
    base, touched, update = system.base, system.touched, system.update
    n_base = base.n_vertices
    n_touched = len(touched)
    k = int(np.searchsorted(touched, n_base))  # touched base vertices
    columns = np.zeros((n_base, k + 1))
    columns[:, 0] = rhs[:n_base]
    columns[touched[:k], np.arange(1, k + 1)] = 1.0
    solved = base.factor.solve(columns)
    g = np.concatenate((solved[:, 0], rhs[n_base:]))
    # I + Z_J W with Z_J = blockdiag(the solve's touched rows, I): its base
    # rows are one product, its appended rows are W's own.
    lhs = np.empty((n_touched, n_touched))
    np.matmul(solved[touched[:k], 1:], update[:k], out=lhs[:k])
    lhs[k:] = update[k:]
    lhs.reshape(-1)[:: n_touched + 1] += 1.0
    try:
        f_touched = np.linalg.solve(lhs, g[touched])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"direct solve failed: {exc}") from exc
    correction = update @ f_touched
    g[:n_base] -= solved[:, 1:] @ correction[:k]
    g[n_base:] -= correction[k:]
    return g


# ---------------------------------------------------------------------------
# Random inputs.


def random_files(rng, deep=False):
    """1-4 paths of 1-5 components; with ``deep``, some lie under the deep
    root and one in four is the 300-component path or a sibling of it."""
    files = set()
    for _ in range(rng.randint(1, 4)):
        path = "/".join(rng.choice(PARTS) for _ in range(rng.randint(1, 5)))
        if deep and rng.random() < 0.5:
            path = f"{DEEP_ROOT}/{path}"
            if rng.random() < 0.25:
                path = LONG_PATH if rng.random() < 0.5 else f"{LONG_PATH}/{path}"
        files.add(path)
    return sorted(files)


def random_corpus(rng, n_prs, deep=False, single_instant=False):
    prs = []
    for i in range(n_prs):
        created = T0 if single_instant else T0 + rng.randint(0, 300) * DAY
        comments = [
            (rng.choice(DEVS), created if single_instant else created + rng.randint(1, 72) * 3600)
            for _ in range(rng.randint(0, 4))
        ]
        prs.append(
            make_pr(f"p{i:03d}", rng.choice(DEVS), created, random_files(rng, deep), comments)
        )
    return make_corpus(prs)


@pytest.fixture(params=["shallow", "deep"])
def deep(request):
    return request.param == "deep"


@pytest.fixture(params=["default", "1"])
def chunk_pairs(request, monkeypatch):
    """The kernel's chunk cap as it is, and at 1: every set a chunk alone,
    and the deep rows compared one pair per block."""
    if request.param == "1":
        monkeypatch.setattr(kernels, "CHUNK_PAIRS", 1)
    return kernels.CHUNK_PAIRS


# ---------------------------------------------------------------------------
# The kernel.


@pytest.mark.parametrize("seed", range(6))
def test_rows_equal_the_per_depth_oracle(seed, deep, chunk_pairs):
    """Rows of corpus sets, of sets with unseen tokens (also extending a
    corpus path past its end) and of the 300-component path."""
    rng = random.Random(seed)
    sets = [random_files(rng, deep) for _ in range(rng.randint(1, 30))]
    pack = FilePack.from_file_sets(sets)
    targets = [*sets[:5], random_files(rng, deep), ["brand/new.c", "src/new"]]
    targets += [[sets[0][-1] + "/deeper"], [LONG_PATH], [LONG_PATH + "/x", DEEP_ROOT]]
    for target in targets:
        t_tokens, t_off = pack.pack_one(target)
        args = (t_tokens, t_off, pack.tokens, pack.file_off, pack.set_off)
        row = kernels.mean_similarity_row(*args, grouping=pack.grouping())
        assert np.array_equal(row, oracle_row(*args))
        assert np.array_equal(kernels.mean_similarity_row(*args), row)


@pytest.mark.parametrize("seed", range(6))
def test_sweeps_equal_the_per_depth_oracle(seed, deep, chunk_pairs):
    """A pack swept against itself, and other sets swept against it."""
    rng = random.Random(100 + seed)
    sets = [random_files(rng, deep) for _ in range(rng.randint(1, 40))]
    pack = FilePack.from_file_sets(sets)
    others = FilePack.from_file_sets([random_files(rng, deep) for _ in range(7)])
    for t in (pack, others):
        args = (t.tokens, t.file_off, t.set_off, pack.tokens, pack.file_off, pack.set_off)
        swept = kernels.mean_similarity_entries(*args, grouping=pack.grouping())
        expected = oracle_entries(*args, chunk_pairs)
        for got, want in zip(swept, expected):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def test_padded_rows_of_a_pack_end_in_their_fill():
    pack = FilePack.from_file_sets([["a/b/c", "a"], [LONG_PATH]])
    rows = pack.grouping().rows
    assert rows.shape == (3, 301)
    assert rows.dtype == np.int32
    assert (rows[:, -1] == kernels.pack.PAD).all()
    assert (rows >= 0).all()


# ---------------------------------------------------------------------------
# The query: graft, update, solve.


def old_query(state, target):
    """The old graft, overlay and update solve of one query."""
    graph = oracle_graft(state, target)
    system = oracle_assemble_overlay(graph, state.graph.params.alpha, state.system)
    query = query_vector(graph, target)
    rhs = (system.vertex_degree + (system.vertex_degree <= 0.0)) * query
    return graph, system, oracle_solve_update(system, rhs)


def assert_query_equals_oracle(state, target):
    graph = graft(state, target)
    system = ranker.assemble(graph, state.graph.params.alpha, base=state.system)
    scores = ranker.solve(system, query_vector(graph, target))
    old_graph, old_system, old_scores = old_query(state, target)
    assert graph.prs == old_graph.prs
    assert graph.developers == old_graph.developers
    assert graph.bounds == old_graph.bounds
    for part in ("kind", "offsets", "members", "raw", "weight"):
        assert np.array_equal(getattr(graph.edges, part), getattr(old_graph.edges, part))
    assert np.array_equal(system.touched, old_system.touched)
    assert np.array_equal(system.update, old_system.update)
    assert np.array_equal(system.vertex_degree, old_system.vertex_degree)
    assert np.array_equal(scores, old_scores)
    return graph


def fitted(corpus, top_m=10):
    params = HyperParams(top_m=top_m)
    return prepare(build(corpus, params), corpus, params)


@pytest.mark.parametrize("top_m", [1, 10, 100])
@pytest.mark.parametrize("seed", range(6))
def test_queries_equal_the_oracle_on_random_corpora(seed, top_m, deep):
    """New and returning contributors; targets inside, at the start of and
    after the window; some with unseen tokens only, and so no partner."""
    rng = random.Random(200 + seed)
    corpus = random_corpus(rng, rng.randint(3, 60), deep)
    state = fitted(corpus, top_m)
    for i in range(6):
        contributor = rng.choice(("newcomer", *DEVS))
        when = rng.choice((corpus.t_start, T0 + rng.randint(0, 300) * DAY, corpus.t_end + 30 * DAY))
        files = random_files(rng, deep) if i % 3 else ["unseen/" + rng.choice(PARTS)]
        assert_query_equals_oracle(state, TargetPR(f"t{i}", contributor, when, tuple(files)))


def test_returning_and_new_contributors_equal_the_oracle():
    corpus = random_corpus(random.Random(7), 40)
    state = fitted(corpus)
    files = tuple(corpus.prs[3].files)
    returning = assert_query_equals_oracle(state, TargetPR("t", DEVS[1], T0 + 90 * DAY, files))
    new = assert_query_equals_oracle(state, TargetPR("t", "newcomer", T0 + 90 * DAY, files))
    assert returning.developers == {}
    assert list(new.developers) == ["newcomer"]


def test_a_target_with_no_similar_pr_equals_the_oracle():
    corpus = random_corpus(random.Random(8), 30)
    state = fitted(corpus)
    graph = assert_query_equals_oracle(
        state, TargetPR("t", DEVS[2], T0 + 10 * DAY, ("nowhere/else.c",))
    )
    assert len(graph.edges) == 1  # the contributor edge alone


def test_a_target_after_the_corpus_equals_the_oracle():
    corpus = random_corpus(random.Random(9), 30)
    state = fitted(corpus)
    target = TargetPR("t", DEVS[3], corpus.t_end + 90 * DAY, tuple(corpus.prs[0].files))
    graph = assert_query_equals_oracle(state, target)
    assert graph.bounds[1] == target.created_at


@pytest.mark.parametrize("top_m", [1, 100])
def test_a_single_instant_corpus_equals_the_oracle(top_m):
    corpus = random_corpus(random.Random(10), 30, single_instant=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        state = fitted(corpus, top_m)
        for contributor in (DEVS[0], "newcomer"):
            target = TargetPR("t", contributor, T0, tuple(corpus.prs[1].files))
            assert_query_equals_oracle(state, target)


@pytest.mark.parametrize("top_m", [1, 100])
def test_the_300_component_path_equals_the_oracle(top_m):
    rng = random.Random(11)
    corpus = random_corpus(rng, 30, deep=True)
    corpus.prs[4] = make_pr("long", DEVS[4], corpus.prs[4].created_at, [LONG_PATH])
    state = fitted(make_corpus(corpus.prs), top_m)
    for files in ([LONG_PATH], [LONG_PATH + "/deeper", "src/a"], [DEEP_ROOT + "/x"]):
        assert_query_equals_oracle(state, TargetPR("t", DEVS[5], T0 + 100 * DAY, tuple(files)))
