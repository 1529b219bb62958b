"""Edge-weight formulas, normalization, and graph construction."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import numpy as np

from hgrec import corpus as corpus_module
from hgrec.baselines import create_recommender
from hgrec.config import HyperParams
from hgrec.corpus import (
    PullRequest,
    ReviewComment,
    ReviewCorpus,
    TargetPR,
    clean,
    parse_export,
)
from hgrec.evaluation import make_rounds
from hgrec.fixtures import BOT_PATTERN
from hgrec.hypergraph import (
    EDGE_KINDS,
    EdgeKind,
    EdgeTable,
    Hypergraph,
    PRIndex,
    VertexKind,
    _span,
    _top_entries,
    build,
    graph_to_dict,
    normalize_weights,
    path_similarity,
    pr_pr_raw_row,
    weight_pr_contributor,
    weight_pr_pr,
    weight_pr_reviewer,
)

from conftest import DAY, DEEP_ROOT, load_synth, make_corpus, make_pr

T0 = 1_600_000_000
T1 = T0 + 100 * DAY  # corpus window used throughout
REPO = Path(__file__).parents[1]
FIXTURE = REPO / "tests" / "data" / "review_history_50pr.jsonl"


class TestWeightPrReviewer:
    def test_one_comment_at_window_end(self):
        pr = make_pr("p", "a", T0, ["f"], comments=[("r", T1)])
        w = weight_pr_reviewer(pr, frozenset({"r"}), 0.8, T0, T1)
        assert w == pytest.approx(1.0, abs=1e-12)

    def test_two_comments_at_window_end(self):
        # First comment counts fully, second is damped once: 1 + 0.8.
        pr = make_pr("p", "a", T0, ["f"], comments=[("r", T1), ("r", T1)])
        w = weight_pr_reviewer(pr, frozenset({"r"}), 0.8, T0, T1)
        assert w == pytest.approx(1.8, abs=1e-12)

    def test_one_comment_at_window_start(self):
        pr = make_pr("p", "a", T0, ["f"], comments=[("r", T0)])
        w = weight_pr_reviewer(pr, frozenset({"r"}), 0.8, T0, T1)
        assert w == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_monotone_in_comment_count(self):
        lam = 0.7
        previous = 0.0
        for n in range(1, 8):
            pr = make_pr(
                "p", "a", T0, ["f"], comments=[("r", T0 + i * DAY) for i in range(n)]
            )
            w = weight_pr_reviewer(pr, frozenset({"r"}), lam, T0, T1)
            assert w > previous
            previous = w

    def test_sums_over_reviewers(self):
        pr = make_pr("p", "a", T0, ["f"], comments=[("r1", T1), ("r2", T1)])
        w = weight_pr_reviewer(pr, frozenset({"r1", "r2"}), 0.8, T0, T1)
        assert w == pytest.approx(2.0, abs=1e-12)

    def test_ignores_non_reviewer_comments(self):
        pr = make_pr("p", "a", T0, ["f"], comments=[("a", T1), ("r", T1)])
        w = weight_pr_reviewer(pr, frozenset({"r"}), 0.8, T0, T1)
        assert w == pytest.approx(1.0, abs=1e-12)


class TestWeightPrContributor:
    def test_endpoints_and_midpoint(self):
        for created, expected in ((T1, 1.0), (T0, 0.0), ((T0 + T1) // 2, 0.5)):
            pr = make_pr("p", "a", created, ["f"])
            assert weight_pr_contributor(pr, T0, T1) == pytest.approx(
                expected, abs=1e-12
            )

    def test_single_instant_corpus_warns_and_returns_one(self):
        pr = make_pr("p", "a", T0, ["f"])
        with pytest.warns(RuntimeWarning):
            assert weight_pr_contributor(pr, T0, T0) == 1.0


class TestPathSimilarity:
    def test_identical(self):
        assert path_similarity("src/a/x.c", "src/a/x.c") == 1.0

    def test_sibling_files(self):
        assert path_similarity("src/a/x.c", "src/a/y.c") == pytest.approx(2 / 3)

    def test_disjoint_trees(self):
        assert path_similarity("src/x.c", "docs/y.md") == 0.0

    def test_deep_paths(self):
        # 20 components against 22, the first 15 shared.
        stem = [f"d{i}" for i in range(15)]
        f1, f2 = "/".join(stem + ["a"] * 5), "/".join(stem + ["b"] * 7)
        assert path_similarity(f1, f2) == 15 / 22

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            path_similarity("", "a")

    @given(
        st.lists(st.sampled_from(["src", "a", "b", "x.c"]), min_size=1, max_size=5),
        st.lists(st.sampled_from(["src", "a", "b", "x.c"]), min_size=1, max_size=5),
    )
    def test_symmetric_and_identity(self, parts1, parts2):
        f1, f2 = "/".join(parts1), "/".join(parts2)
        s12 = path_similarity(f1, f2)
        assert s12 == path_similarity(f2, f1)
        assert 0.0 <= s12 <= 1.0
        if s12 == 1.0:
            assert parts1 == parts2


class TestWeightPrPr:
    def test_identical_simultaneous(self):
        p1 = make_pr("p1", "a", T0, ["src/a/x.c"])
        p2 = make_pr("p2", "b", T0, ["src/a/x.c"])
        assert weight_pr_pr(p1, p2, T0, T1) == pytest.approx(1.0, abs=1e-12)

    def test_identical_full_window_apart(self):
        p1 = make_pr("p1", "a", T0, ["src/a/x.c"])
        p2 = make_pr("p2", "b", T1, ["src/a/x.c"])
        assert weight_pr_pr(p1, p2, T0, T1) == pytest.approx(
            math.exp(-1.0), abs=1e-12
        )

    def test_disjoint_trees(self):
        p1 = make_pr("p1", "a", T0, ["src/x.c"])
        p2 = make_pr("p2", "b", T0, ["docs/y.md"])
        assert weight_pr_pr(p1, p2, T0, T1) == 0.0

    def test_exactly_symmetric(self):
        p1 = make_pr("p1", "a", T0 + 3 * DAY, ["src/a/x.c", "src/b/y.c", "lib/z.c"])
        p2 = make_pr("p2", "b", T0 + 55 * DAY, ["src/a/q.c", "docs/m.md"])
        assert weight_pr_pr(p1, p2, T0, T1) == weight_pr_pr(p2, p1, T0, T1)


class TestNormalizeWeights:
    def _graph_with_raws(self, raws):
        corpus = make_corpus(
            [
                make_pr(
                    f"p{i}",
                    "a",
                    T0 + i * DAY,
                    ["f"],
                    comments=[("r", T0 + i * DAY + DAY // 2)],
                )
                for i in range(len(raws))
            ]
        )
        graph = build(corpus, HyperParams(top_m=1))
        kind = EdgeKind.PR_CONTRIBUTOR
        graph.edges.raw[graph.by_kind[kind]] = raws
        return normalize_weights(graph), kind

    def test_affine_map(self):
        graph, kind = self._graph_with_raws([2.0, 4.0, 6.0])
        weights = [graph.edges[i].weight for i in graph.by_kind[kind]]
        assert weights == [0.0, 0.5, 1.0]

    def test_degenerate_kind_maps_to_one(self):
        graph, kind = self._graph_with_raws([3.0])
        assert [graph.edges[i].weight for i in graph.by_kind[kind]] == [1.0]

    def test_all_weights_in_unit_interval_with_extremes(self):
        graph, kind = self._graph_with_raws([5.0, 1.0, 3.0, 2.0])
        weights = [graph.edges[i].weight for i in graph.by_kind[kind]]
        assert min(weights) == 0.0 and max(weights) == 1.0
        assert all(0.0 <= w <= 1.0 for w in weights)


    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    def test_minmax_bounds_property(self, raws):
        from hgrec.hypergraph import EdgeKind as EK

        from conftest import make_graph

        graph = make_graph(
            len(raws) + 1,
            [(EK.PR_PR, (i, i + 1), raw) for i, raw in enumerate(raws)],
        )
        normalize_weights(graph)
        weights = [graph.edges[i].weight for i in graph.by_kind[EK.PR_PR]]
        assert all(0.0 <= w <= 1.0 for w in weights)
        assert max(weights) == 1.0
        if len(set(raws)) > 1:
            assert min(weights) == 0.0


class TestBuild:
    def test_smallest_instance(self):
        corpus = make_corpus(
            [make_pr("p", "a", T0, ["f"], comments=[("b", T0 + 1), ("c", T0 + 2)])]
        )
        graph = build(corpus, HyperParams())
        assert graph.n_vertices == 4
        assert len(graph.by_kind[EdgeKind.PR_CONTRIBUTOR]) == 1
        assert len(graph.by_kind[EdgeKind.PR_REVIEWER]) == 1
        assert len(graph.by_kind[EdgeKind.PR_PR]) == 0
        reviewer_edge = graph.edges[graph.by_kind[EdgeKind.PR_REVIEWER][0]]
        assert len(reviewer_edge.members) == 3

    def test_identical_file_sets_one_deduplicated_edge(self):
        corpus = make_corpus(
            [
                make_pr("p1", "a", T0, ["f"], comments=[("r", T0 + 1)]),
                make_pr("p2", "b", T0 + DAY, ["f"], comments=[("r", T0 + DAY + 1)]),
            ]
        )
        graph = build(corpus, HyperParams())
        assert len(graph.by_kind[EdgeKind.PR_PR]) == 1

    def test_top_m_caps_originated_edges(self):
        prs = [
            make_pr(f"p{i:02d}", "a", T0 + i * DAY, ["src/f.c"],
                    comments=[("r", T0 + i * DAY + 1)])
            for i in range(12)
        ]
        graph = build(make_corpus(prs), HyperParams(top_m=10))
        # every pair is a candidate; the union-of-top-m rule caps incidences
        pr_edges = [graph.edges[i] for i in graph.by_kind[EdgeKind.PR_PR]]
        per_vertex = {}
        for edge in pr_edges:
            for v in edge.members:
                per_vertex[v] = per_vertex.get(v, 0) + 1
        # an endpoint keeps at most m chosen partners plus partners that
        # chose it; with 12 PRs the hard ceiling is 11 incidences
        assert all(count <= 11 for count in per_vertex.values())
        assert len(pr_edges) <= 12 * 10

    def test_zero_weight_pairs_not_materialized(self):
        corpus = make_corpus(
            [
                make_pr("p1", "a", T0, ["src/x.c"], comments=[("r", T0 + 1)]),
                make_pr("p2", "b", T0 + DAY, ["docs/y.md"],
                        comments=[("r", T0 + DAY + 1)]),
            ]
        )
        graph = build(corpus, HyperParams())
        assert len(graph.by_kind[EdgeKind.PR_PR]) == 0

    def test_single_developer_single_vertex(self):
        # same account contributes one PR and reviews another: one vertex
        corpus = make_corpus(
            [
                make_pr("p1", "dev", T0, ["f"]),
                make_pr("p2", "other", T0 + DAY, ["f"], comments=[("dev", T0 + DAY + 1)]),
            ]
        )
        graph = build(corpus, HyperParams())
        dev_vertices = [
            v for v in graph.vertices
            if v.kind is VertexKind.DEVELOPER and v.ref == "dev"
        ]
        assert len(dev_vertices) == 1

    def test_deterministic(self, specialist_corpus):
        params = HyperParams()
        g1 = build(specialist_corpus, params)
        g2 = build(specialist_corpus, params)
        assert g1.vertices == g2.vertices
        assert g1.edges == g2.edges

    def test_normalized_weights_in_unit_interval(self, specialist_corpus):
        graph = build(specialist_corpus, HyperParams())
        for kind, edge_ids in graph.by_kind.items():
            if not edge_ids:
                continue
            weights = [graph.edges[i].weight for i in edge_ids]
            assert all(0.0 <= w <= 1.0 for w in weights)
            assert max(weights) == 1.0

    def test_top_m_matches_brute_force(self, specialist_corpus):
        """Selection oracle: full sort per PR on an instance <= 20 PRs."""
        params = HyperParams(top_m=3)
        sub = make_corpus(specialist_corpus.prs[:20])
        graph = build(sub, params)

        raw = {}
        for i, p1 in enumerate(sub.prs):
            for j, p2 in enumerate(sub.prs):
                if i < j:
                    raw[(i, j)] = weight_pr_pr(p1, p2, sub.t_start, sub.t_end)

        expected_pairs = set()
        for i in range(len(sub.prs)):
            weights = []
            for j in range(len(sub.prs)):
                if j == i:
                    continue
                w = raw[(min(i, j), max(i, j))]
                if w > 0.0:
                    weights.append(
                        (-w, sub.prs[j].created_at, sub.prs[j].id, j)
                    )
            weights.sort()
            for _, _, _, j in weights[: params.top_m]:
                expected_pairs.add((min(i, j), max(i, j)))

        got_pairs = set()
        index_of = {pr.id: i for i, pr in enumerate(sub.prs)}
        for edge_id in graph.by_kind[EdgeKind.PR_PR]:
            members = graph.edges[edge_id].members
            ids = sorted(index_of[graph.vertices[v].ref] for v in members)
            got_pairs.add(tuple(ids))
        assert got_pairs == expected_pairs

    @pytest.mark.parametrize("root", ["", f"{DEEP_ROOT}/"], ids=["shallow", "deep"])
    def test_build_edge_weights_match_scalar_formula(self, specialist_corpus, root):
        """Dual route: kernel-computed raw weights vs the naive scalar op."""
        corpus = make_corpus(
            [
                make_pr(pr.id, pr.contributor, pr.created_at,
                        [root + f for f in pr.files],
                        comments=[(c.author, c.created_at) for c in pr.comments])
                for pr in specialist_corpus.prs
            ],
            specialist_corpus.t_start, specialist_corpus.t_end,
        )
        graph = build(corpus, HyperParams())
        by_id = {pr.id: pr for pr in corpus.prs}
        assert graph.by_kind[EdgeKind.PR_PR]
        for edge_id in graph.by_kind[EdgeKind.PR_PR]:
            edge = graph.edges[edge_id]
            p1, p2 = (by_id[graph.vertices[v].ref] for v in edge.members)
            expected = weight_pr_pr(p1, p2, corpus.t_start, corpus.t_end)
            assert edge.raw_weight == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# The similarity store a corpus shares with its slices.


def _synth_corpus(root=""):
    """A small corpus of the shape the benchmark generates, every file path
    prefixed with ``root``."""
    synth = load_synth()
    records, _ = synth.generate(synth.Shape(prs=100, months=16), seed=7)
    for record in records:
        record["files"] = [root + f for f in record["files"]]
    return clean(parse_export(synth.to_jsonl(records).splitlines()))


@pytest.fixture(scope="module", params=["synth", "deep", "fixture"])
def history(request):
    if request.param == "synth":
        return _synth_corpus()
    if request.param == "deep":
        # Every file under one root: every pair of PRs is similar.
        return _synth_corpus(f"{DEEP_ROOT}/")
    with open(FIXTURE, encoding="utf-8") as handle:
        return clean(parse_export(handle), bot_patterns=[BOT_PATTERN])


def _fresh(corpus):
    """The same PRs and window in a corpus with a store of its own."""
    return ReviewCorpus(prs=list(corpus.prs), t_start=corpus.t_start, t_end=corpus.t_end)


def _shuffled(corpus):
    """A root whose PRs are out of time order: its slices are no prefix."""
    prs = list(corpus.prs)
    random.Random(7).shuffle(prs)
    return ReviewCorpus(prs=prs, t_start=corpus.t_start, t_end=corpus.t_end)


def _assert_builds_fresh(corpus, params):
    assert graph_to_dict(build(corpus, params)) == graph_to_dict(
        build(_fresh(corpus), params)
    )


class TestSharedSimilarityStore:
    """A slice reads its kernel rows from its root's store, and its graph
    equals the one a corpus of the same PRs builds alone, bit for bit."""

    @pytest.mark.parametrize("order", [_fresh, _shuffled], ids=["by-time", "shuffled"])
    def test_round_slices_and_their_slices(self, history, order):
        root = order(history)
        params = HyperParams()
        for round_ in make_rounds(history):
            train = root.slice_until(round_.train_cut)
            _assert_builds_fresh(train, params)
            stamps = sorted(pr.created_at for pr in train.prs)
            _assert_builds_fresh(train.slice_until(stamps[len(stamps) // 2]), params)

    def test_root_built_after_its_child(self, history):
        root = _shuffled(history)
        params = HyperParams()
        _assert_builds_fresh(root.slice_until(make_rounds(history)[0].train_cut), params)
        _assert_builds_fresh(root, params)

    def test_concurrent_builds_match_fresh_ones(self, history):
        """Slices built in threads race on one store: a concurrent miss
        recomputes a row and never changes one."""
        root = _fresh(history)
        params = HyperParams()
        slices = [root.slice_until(r.train_cut) for r in make_rounds(history)] * 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(build, corpus, params) for corpus in slices]
                graphs = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for corpus, graph in zip(slices, graphs):
            assert graph_to_dict(graph) == graph_to_dict(build(_fresh(corpus), params))


# ---------------------------------------------------------------------------
# The array build against the per-PR loop it replaced.


def loop_build(corpus, params):
    """The graph and comment counts of one Python pass over the PRs and their
    comments, calling the scalar weight formulas per edge, with the pr_pr
    edges chosen as ``build`` chooses them."""
    prs, developers, counts = {}, {}, {}

    def developer(ref):
        if ref not in developers:
            developers[ref] = len(prs) + len(developers)
        return developers[ref]

    kinds, sizes, members, raws, pr_vertices = [], [], [], [], []
    t_start, t_end = corpus.t_start, corpus.t_end
    for pr in corpus.prs:
        pr_v = prs.setdefault(pr.id, len(prs) + len(developers))
        pr_vertices.append(pr_v)
        contributor_v = developer(pr.contributor)
        kinds.append(EDGE_KINDS.index(EdgeKind.PR_CONTRIBUTOR))
        sizes.append(2)
        members.extend(sorted((pr_v, contributor_v)))
        raws.append(weight_pr_contributor(pr, t_start, t_end))
        reviewers = set()
        for comment in pr.comments:
            counts[comment.author] = counts.get(comment.author, 0) + 1
            if comment.author != pr.contributor:
                reviewers.add(comment.author)
        if reviewers:
            member_ids = [developer(r) for r in sorted(reviewers)]
            kinds.append(EDGE_KINDS.index(EdgeKind.PR_REVIEWER))
            sizes.append(len(member_ids) + 1)
            members.extend(sorted((pr_v, *member_ids)))
            raws.append(
                weight_pr_reviewer(pr, reviewers, params.comment_decay, t_start, t_end)
            )

    times = np.asarray([pr.created_at for pr in corpus.prs], dtype=np.float64)
    order = sorted(
        range(len(corpus.prs)),
        key=lambda i: (corpus.prs[i].created_at, corpus.prs[i].id),
    )
    chronology = np.empty(len(order), dtype=np.int64)
    chronology[order] = np.arange(len(order))
    rows, cols, sims = corpus.similarity_entries()
    off_diagonal = rows != cols
    rows, cols = rows[off_diagonal], cols[off_diagonal]
    raw = pr_pr_raw_row(
        sims[off_diagonal], times[cols], _span(t_start, t_end), times[rows]
    )
    top = _top_entries(rows, cols, raw, chronology, params.top_m)
    rows, cols, raw = rows[top], cols[top], raw[top]
    low = np.minimum(rows, cols).astype(np.int64)
    pair = low * len(corpus.prs) + np.maximum(rows, cols)
    pair_order = np.argsort(pair, kind="stable")
    fresh = np.ones(len(pair_order), dtype=bool)
    fresh[1:] = pair[pair_order][1:] != pair[pair_order][:-1]
    first = pair_order[fresh]
    vertex_of = np.asarray(pr_vertices, dtype=np.int64)
    ends = vertex_of[rows[first]], vertex_of[cols[first]]
    pairs = np.stack((np.minimum(*ends), np.maximum(*ends)), axis=1)
    graph = Hypergraph(
        prs=prs,
        developers=developers,
        edges=EdgeTable.of(
            np.concatenate(
                (kinds, np.full(len(first), EDGE_KINDS.index(EdgeKind.PR_PR)))
            ),
            np.concatenate((sizes, np.full(len(first), 2))),
            np.concatenate((members, pairs.ravel())),
            np.concatenate((raws, raw[first])),
        ),
        bounds=(t_start, t_end),
        raw_range={},
        params=params,
        pr_index=PRIndex(corpus.file_pack(), times, chronology, vertex_of),
    )
    return normalize_weights(graph), counts


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_builds_like_the_loop(corpus, params=HyperParams()):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        graph = build(corpus, params)
        oracle, counts = loop_build(corpus, params)
    assert graph_to_dict(graph) == graph_to_dict(oracle)
    assert list(graph.prs.items()) == list(oracle.prs.items())
    assert list(graph.developers.items()) == list(oracle.developers.items())
    for name in ("kind", "offsets", "members", "raw", "weight"):
        assert _same_bits(getattr(graph.edges, name), getattr(oracle.edges, name)), name
    for name in ("times", "chronology", "vertices"):
        assert _same_bits(getattr(graph.pr_index, name), getattr(oracle.pr_index, name))
    assert graph.raw_range == oracle.raw_range
    assert corpus.comment_counts() == counts


DEVELOPERS = tuple(f"dev{i}" for i in range(7))


def _review_history(rng, n_prs):
    """PRs with comments in no particular time order: a reviewer with 40
    comments on one PR (its 38th and later terms are where ``np.power``
    departs from Python's ``**``), contributors commenting on their own PRs,
    and PRs that no one else reviews."""
    prs = []
    for i in range(n_prs):
        created = T0 + int(rng.integers(0, 90)) * DAY
        contributor = DEVELOPERS[int(rng.integers(len(DEVELOPERS)))]
        areas = rng.choice(["src/net", "src/db", "docs"], size=int(rng.integers(1, 3)))
        files = {f"{area}/f{int(rng.integers(5))}.c" for area in areas}
        authors = [contributor] * int(rng.integers(0, 2))
        if rng.random() < 0.8:
            authors += [
                DEVELOPERS[int(rng.integers(len(DEVELOPERS)))]
                for _ in range(int(rng.integers(0, 7)))
            ]
        comments = [
            ReviewComment(author, created + int(rng.integers(0, 40)) * 3600 * 24)
            for author in authors
        ]
        prs.append(
            PullRequest(
                f"p{i:03d}", contributor, created, tuple(files), tuple(comments)
            )
        )
    # PR 0: the long review, its comments interleaved with another's.
    chatty = [
        ReviewComment(
            "dev9" if j % 5 else "dev8", prs[0].created_at + (j * 7919) % 97 * 3600
        )
        for j in range(48)
    ]
    prs[0].comments = (*prs[0].comments, *chatty)
    return prs


def _corpus_of(prs):
    stamps = [pr.created_at for pr in prs]
    stamps += [c.created_at for pr in prs for c in pr.comments]
    return ReviewCorpus(prs=prs, t_start=min(stamps), t_end=max(stamps))


class TestArrayBuild:
    """``build``'s array pass equals the per-PR loop bit for bit: vertex
    maps, every edge-table array, the PR index and the comment counts."""

    @pytest.mark.parametrize("seed", range(6))
    def test_root_and_its_windows(self, seed):
        rng = np.random.default_rng(900 + seed)
        prs = _review_history(rng, int(rng.integers(8, 40)))
        assert sum(c.author == "dev9" for c in prs[0].comments) >= 38
        assert any(
            c.author == pr.contributor for pr in prs for c in pr.comments
        )
        assert any(not pr.reviewers() for pr in prs)
        assert any(
            a.created_at > b.created_at
            for pr in prs for a, b in zip(pr.comments, pr.comments[1:])
        )
        by_time = sorted(prs, key=lambda pr: pr.created_at)
        for root in (_corpus_of(by_time), _corpus_of(prs)):  # prs: shuffled
            assert_builds_like_the_loop(root)
            cuts = sorted({pr.created_at for pr in prs})
            for cut in cuts[1:: max(1, len(cuts) // 4)]:
                window = root.slice_until(cut)
                assert_builds_like_the_loop(window)
                inner = window.slice_until(cut - 5 * DAY)
                if inner.prs:
                    assert_builds_like_the_loop(inner)

    def test_slice_of_a_slice_keeps_the_first_cut(self):
        rng = np.random.default_rng(77)
        root = _corpus_of(
            sorted(_review_history(rng, 30), key=lambda pr: pr.created_at)
        )
        first_cut = T0 + 40 * DAY
        later_cut = T0 + 70 * DAY
        window = root.slice_until(first_cut).slice_until(later_cut)
        assert window.t_end == later_cut
        assert all(c.created_at < first_cut for pr in window.prs for c in pr.comments)
        assert any(
            first_cut <= c.created_at < later_cut
            for pr in root.prs if pr.created_at < first_cut for c in pr.comments
        )
        assert_builds_like_the_loop(window)

    def test_single_instant_corpus_warns(self):
        prs = [
            make_pr(f"p{i}", f"c{i % 2}", T0, ["src/a.c"],
                    comments=[(f"r{j}", T0) for j in range(i % 3)]
                    + [(f"c{i % 2}", T0)])
            for i in range(6)
        ]
        corpus = make_corpus(prs)
        with pytest.warns(RuntimeWarning, match="single-instant"):
            build(corpus, HyperParams())
        assert_builds_like_the_loop(corpus)

    def test_review_table_built_once_per_root(self, monkeypatch):
        built = []
        make = corpus_module._build_review_table
        monkeypatch.setattr(
            corpus_module, "_build_review_table",
            lambda prs: built.append(len(prs)) or make(prs),
        )
        rng = np.random.default_rng(5)
        root = _corpus_of(
            sorted(_review_history(rng, 30), key=lambda pr: pr.created_at)
        )
        cuts = [T0 + d * DAY for d in (30, 50, 70)]
        windows = [root.slice_until(cut) for cut in cuts]
        windows.append(windows[-1].slice_until(cuts[0]))
        target = TargetPR("t", "newcomer", T0 + 95 * DAY, ("src/db/f1.c",))
        for name in ("ac", "revfinder", "chrev", "cn"):
            for window in windows:
                create_recommender(name).fit(window).recommend(target, 3)
        for window in windows:
            build(window, HyperParams())
        build(root, HyperParams())
        assert built == [30]
        other = _corpus_of(list(root.prs))
        build(other.slice_until(cuts[1]), HyperParams())
        assert built == [30, 30]


class TestReviewTable:
    """A corpus's review table, read at the root, its windows and windows of
    those, gives what a loop over the corpus's (truncated) PRs gives."""

    @staticmethod
    def assert_matches_the_prs(corpus):
        table = corpus.review_table()
        counts = {}
        for pr in corpus.prs:
            for c in pr.comments:
                counts[c.author] = counts.get(c.author, 0) + 1
        assert corpus.comment_counts() == counts
        pairs = table.reviews
        expected = [(pr, r) for pr in corpus.prs for r in sorted(pr.reviewers())]
        ids, names = table.ids.tolist(), table.names.tolist()
        assert [
            (ids[i], names[r]) for i, r in zip(pairs.pr.tolist(), pairs.reviewer.tolist())
        ] == [(pr.id, r) for pr, r in expected]
        # Each pair's comments, in the PR's comment order.
        comments = [
            (p, (pr.id, r, c.created_at))
            for p, (pr, r) in enumerate(expected)
            for c in pr.comments
            if c.author == r
        ]
        assert [
            (p, (ids[table.comment_pr[i]], names[table.author[i]], table.comment_time[i]))
            for p, i in zip(pairs.pair.tolist(), pairs.comments.tolist())
        ] == comments

    @pytest.mark.parametrize("seed", range(4))
    def test_counts_and_pairs_equal_a_loop_over_the_prs(self, seed):
        rng = np.random.default_rng(300 + seed)
        prs = _review_history(rng, int(rng.integers(8, 40)))
        by_time = sorted(prs, key=lambda pr: pr.created_at)
        for root in (_corpus_of(by_time), _corpus_of(prs)):  # prs: shuffled
            self.assert_matches_the_prs(root)
            cuts = sorted({pr.created_at for pr in prs})
            for cut in cuts[1:: max(1, len(cuts) // 4)]:
                window = root.slice_until(cut)
                self.assert_matches_the_prs(window)
                self.assert_matches_the_prs(window.slice_until(cut - 5 * DAY))


# ---------------------------------------------------------------------------
# Graph identity, pinned: sha256 of the sorted-key JSON dump of each graph of
# the bundled fixture, since pr_pr damping took math.exp's bits on every host.

PINNED_GRAPHS = {
    "full": "e76b9564407cf75d728be776a7bd295b1961868cef20cd1460c750b09631c2ab",
    1: "d3f71c194eaff03b6421253f7c15e400c9a119c09403a582b5b9b4d0e5a5b7e5",
    2: "dcb37fce65bb717980018edb1269500d6045d10a6ee9c216d238639e8414188c",
    3: "91319562b07be38e5585096dba79fe0e68076858656cb49937a27d0cc8724ffc",
    4: "747fed2cf3357382c3dbecdf7346a87d950ef73b291ad208f4cded31e2f35216",
    5: "9b2f9d8541e9bb0434fee37b61324fbaa68f5f1528986a1fe9802c8d3489b1ff",
    6: "63e5fcb080b94501043620341d9763042e5e031d78e68da2bd9f66c8bb2509b5",
    7: "24610e3e2342e046e92e314335b568dea5810615945bded517a0a18d89544c79",
}


def _graph_sha256(corpus):
    graph = build(corpus, HyperParams())
    text = json.dumps(graph_to_dict(graph), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_fixture_graphs_are_pinned():
    """The whole fixture and every training window of its backtest build
    byte-identical graphs."""
    with open(FIXTURE, encoding="utf-8") as handle:
        corpus = clean(parse_export(handle), bot_patterns=[BOT_PATTERN])
    got = {"full": _graph_sha256(corpus)}
    for round_ in make_rounds(corpus):
        got[round_.index] = _graph_sha256(corpus.slice_until(round_.train_cut))
    assert got == PINNED_GRAPHS


def test_fixture_graphs_are_pinned_without_avx512():
    """The pins hold on numpy's AVX2 path too, checked in a child process
    whose numpy dispatches no AVX-512 kernel."""
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
        "PYTHONPATH": os.pathsep.join(
            [str(REPO / "src"), str(REPO / "tests"), os.environ.get("PYTHONPATH", "")]
        ),
    }
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy"], env=env, capture_output=True,
        text=True, timeout=60,
    )
    if probe.returncode:
        pytest.skip(f"numpy does not start with AVX-512 disabled: {probe.stderr[-200:]}")
    child = subprocess.run(
        [sys.executable, "-c",
         "import test_hypergraph; test_hypergraph.test_fixture_graphs_are_pinned()"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr[-2000:]
