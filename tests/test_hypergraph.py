"""Edge-weight formulas, normalization, and graph construction."""

import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from hgrec.config import SIMILARITY_UNITS, HyperParams
from hgrec.corpus import ReviewCorpus, clean, parse_export
from hgrec.evaluation import make_rounds
from hgrec.fixtures import BOT_PATTERN
from hgrec.hypergraph import (
    EdgeKind,
    VertexKind,
    build,
    graph_to_dict,
    normalize_weights,
    path_similarity,
    weight_pr_contributor,
    weight_pr_pr,
    weight_pr_reviewer,
)

from conftest import DAY, load_synth, make_corpus, make_pr

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

    def test_char_unit(self):
        # 4 shared leading chars of "abcd" (4) vs "abcz" (4).
        assert path_similarity("abcd", "abcz", unit="chars") == pytest.approx(0.75)

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
        for j, edge_id in enumerate(graph.by_kind[kind]):
            edge = graph.edges[edge_id]
            graph.edges[edge_id] = type(edge)(
                kind=edge.kind, members=edge.members, raw_weight=raws[j]
            )
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
        from hgrec.hypergraph import EdgeKind as EK, Hyperedge

        from conftest import make_graph

        graph = make_graph(
            len(raws) + 1,
            [(EK.PR_PR, (i, i + 1), 0.0) for i in range(len(raws))],
        )
        for edge_id, raw in zip(graph.by_kind[EK.PR_PR], raws):
            edge = graph.edges[edge_id]
            graph.edges[edge_id] = Hyperedge(
                kind=edge.kind, members=edge.members, raw_weight=raw
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

    def test_char_unit_build(self, specialist_corpus):
        graph = build(specialist_corpus, HyperParams(similarity_unit="chars"))
        by_id = {pr.id: pr for pr in specialist_corpus.prs}
        edge_ids = graph.by_kind[EdgeKind.PR_PR]
        assert edge_ids
        for edge_id in edge_ids:
            edge = graph.edges[edge_id]
            p1, p2 = (by_id[graph.vertices[v].ref] for v in edge.members)
            expected = weight_pr_pr(
                p1, p2, specialist_corpus.t_start, specialist_corpus.t_end,
                unit="chars",
            )
            assert edge.raw_weight == pytest.approx(expected, abs=1e-12)

    def test_build_edge_weights_match_scalar_formula(self, specialist_corpus):
        """Dual route: kernel-computed raw weights vs the naive scalar op."""
        graph = build(specialist_corpus, HyperParams())
        by_id = {pr.id: pr for pr in specialist_corpus.prs}
        for edge_id in graph.by_kind[EdgeKind.PR_PR]:
            edge = graph.edges[edge_id]
            p1, p2 = (by_id[graph.vertices[v].ref] for v in edge.members)
            expected = weight_pr_pr(
                p1, p2, specialist_corpus.t_start, specialist_corpus.t_end
            )
            assert edge.raw_weight == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# The similarity store a corpus shares with its slices.


def _synth_corpus():
    """A small corpus of the shape the benchmark generates."""
    synth = load_synth()
    records, _ = synth.generate(synth.Shape(prs=100, months=16), seed=7)
    return clean(parse_export(synth.to_jsonl(records).splitlines()))


@pytest.fixture(scope="module", params=["synth", "fixture"])
def history(request):
    if request.param == "synth":
        return _synth_corpus()
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

    @pytest.mark.parametrize("unit", SIMILARITY_UNITS)
    @pytest.mark.parametrize("order", [_fresh, _shuffled], ids=["by-time", "shuffled"])
    def test_round_slices_and_their_slices(self, history, unit, order):
        root = order(history)
        params = HyperParams(similarity_unit=unit)
        for round_ in make_rounds(history):
            train = root.slice_until(round_.train_cut)
            _assert_builds_fresh(train, params)
            stamps = sorted(pr.created_at for pr in train.prs)
            _assert_builds_fresh(train.slice_until(stamps[len(stamps) // 2]), params)

    @pytest.mark.parametrize("unit", SIMILARITY_UNITS)
    def test_root_built_after_its_child(self, history, unit):
        root = _shuffled(history)
        params = HyperParams(similarity_unit=unit)
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
