"""Grafting, query construction, and the end-to-end recommendation pipeline."""

import copy

import numpy as np
import pytest

from hgrec import kernels, ranker
from hgrec.config import HyperParams
from hgrec.errors import HgrecError
from hgrec.hypergraph import (
    EDGE_KINDS,
    EdgeKind,
    EdgeTable,
    VertexKind,
    _span,
    _top_entries,
    build,
    pr_pr_raw_row,
    scale_into_range,
    weight_pr_contributor,
)
from hgrec.recommender import (
    HypergraphRecommender,
    TargetPR,
    graft,
    prepare,
    query_vector,
    rank,
    rank_developers,
    recommend,
)

from conftest import DAY, make_corpus, make_pr, oracle_scores

T0 = 1_600_000_000


def small_corpus():
    return make_corpus(
        [
            make_pr("p1", "ann", T0, ["src/net/a.c"], comments=[("rex", T0 + DAY)]),
            make_pr("p2", "ben", T0 + 5 * DAY, ["src/net/b.c"],
                    comments=[("rex", T0 + 6 * DAY)]),
            make_pr("p3", "ann", T0 + 10 * DAY, ["docs/x.md"],
                    comments=[("sue", T0 + 11 * DAY), ("rex", T0 + 12 * DAY)]),
        ]
    )


class TestGraft:
    def test_strongest_edge_hits_identical_pr(self):
        corpus = small_corpus()
        params = HyperParams()
        base = build(corpus, params)
        target = TargetPR("t", "ann", corpus.prs[0].created_at,
                          files=corpus.prs[0].files)
        grafted = graft(prepare(base, corpus, params), target)
        new_edges = grafted.edges
        pr_pr = [e for e in new_edges if e.kind is EdgeKind.PR_PR]
        strongest = max(pr_pr, key=lambda e: e.raw_weight)
        target_v = grafted.vertex_index(VertexKind.PR, "t")
        partner_v = next(v for v in strongest.members if v != target_v)
        assert grafted.vertices[partner_v].ref == "p1"

    def test_pr_pr_edges_bounded_by_candidates(self):
        corpus = small_corpus()
        params = HyperParams(top_m=10)
        base = build(corpus, params)
        target = TargetPR("t", "zoe", T0 + 20 * DAY, files=("src/net/a.c",))
        grafted = graft(prepare(base, corpus, params), target)
        new_pr_pr = [
            e for e in grafted.edges if e.kind is EdgeKind.PR_PR
        ]
        assert len(new_pr_pr) <= 3

    def test_returning_contributor_reuses_vertex(self):
        corpus = small_corpus()
        params = HyperParams()
        base = build(corpus, params)
        target = TargetPR("t", "ann", T0 + 15 * DAY, files=("src/net/a.c",))
        grafted = graft(prepare(base, corpus, params), target)
        assert grafted.n_vertices == base.n_vertices + 1

    def test_new_contributor_adds_two_vertices(self):
        corpus = small_corpus()
        params = HyperParams()
        base = build(corpus, params)
        target = TargetPR("t", "zoe", T0 + 15 * DAY, files=("src/net/a.c",))
        grafted = graft(prepare(base, corpus, params), target)
        assert grafted.n_vertices == base.n_vertices + 2

    def test_base_not_mutated(self):
        corpus = small_corpus()
        params = HyperParams()
        base = build(corpus, params)
        snapshot = copy.deepcopy((base.vertices, base.edges, base.by_kind))
        target = TargetPR("t", "zoe", T0 + 15 * DAY, files=("src/net/a.c",))
        graft(prepare(base, corpus, params), target)
        assert (base.vertices, base.edges, base.by_kind) == snapshot

    def test_overlay_assembles_only_against_its_base_system(self):
        corpus = small_corpus()
        params = HyperParams()
        base = build(corpus, params)
        state = prepare(base, corpus, params)
        grafted = graft(state, TargetPR("t", "zoe", T0 + 15 * DAY, ("src/net/a.c",)))
        assert grafted.base is base
        assert len(grafted.edges) == 1 + sum(
            e.kind is EdgeKind.PR_PR for e in grafted.edges
        )
        with pytest.raises(ValueError, match="overlay"):
            ranker.assemble(grafted, params.alpha)
        with pytest.raises(ValueError, match="overlay"):
            ranker.assemble(base, params.alpha, base=state.system)

    def test_future_target_extends_bounds(self):
        corpus = small_corpus()
        params = HyperParams()
        base = build(corpus, params)
        future = corpus.t_end + 30 * DAY
        grafted = graft(prepare(base, corpus, params),
                        TargetPR("t", "ann", future, ("docs/x.md",)))
        assert grafted.bounds == (corpus.t_start, future)

    def test_empty_files_rejected(self):
        corpus = small_corpus()
        params = HyperParams()
        base = build(corpus, params)
        with pytest.raises(HgrecError):
            graft(prepare(base, corpus, params), TargetPR("t", "ann", T0, ()))

    def test_existing_pr_id_rejected(self):
        # the target would merge into p1's vertex instead of becoming a new one
        corpus = small_corpus()
        params = HyperParams()
        base = build(corpus, params)
        with pytest.raises(HgrecError, match="p1"):
            graft(prepare(base, corpus, params),
                  TargetPR("p1", "zoe", T0 + 15 * DAY, ("src/net/a.c",)))
        with pytest.raises(HgrecError, match="p1"):
            recommend(base, corpus,
                      TargetPR("p1", "zoe", T0 + 15 * DAY, ("src/net/a.c",)),
                      params, k=1)

    def test_equal_weight_partners_tie_break_older_then_id(self):
        # two partner PRs with identical files sit at the same time distance
        # from the target: raw weights tie exactly, the older PR wins
        corpus = make_corpus(
            [
                make_pr("older", "ann", T0, ["src/n/a.c"],
                        comments=[("rex", T0 + DAY)]),
                make_pr("newer", "ben", T0 + 20 * DAY, ["src/n/a.c"],
                        comments=[("rex", T0 + 21 * DAY)]),
            ]
        )
        params = HyperParams(top_m=1)
        base = build(corpus, params)
        target = TargetPR("t", "zoe", T0 + 10 * DAY, files=("src/n/a.c",))
        grafted = graft(prepare(base, corpus, params), target)
        new_pr_pr = [
            e for e in grafted.edges if e.kind is EdgeKind.PR_PR
        ]
        assert len(new_pr_pr) == 1
        target_v = grafted.vertex_index(VertexKind.PR, "t")
        partner_v = next(v for v in new_pr_pr[0].members if v != target_v)
        assert grafted.vertices[partner_v].ref == "older"

    def test_grafted_weights_in_unit_interval(self):
        corpus = small_corpus()
        params = HyperParams()
        base = build(corpus, params)
        target = TargetPR("t", "zoe", corpus.t_end + DAY, files=("src/net/a.c",))
        grafted = graft(prepare(base, corpus, params), target)
        for edge in grafted.edges:
            assert 0.0 <= edge.weight <= 1.0


def dense_overlay_edges(state, target):
    """Oracle of a graft's edges: damp the target's whole kernel row and rank
    every PR, not only those with a positive entry."""
    base = state.graph
    index = base.pr_index
    pack = index.pack
    t_start, t_end = base.bounds[0], max(base.bounds[1], target.created_at)
    sims = kernels.mean_similarity_row(
        *pack.pack_one(target.files), pack.tokens, pack.file_off, pack.set_off
    )
    raw = pr_pr_raw_row(sims, index.times, _span(t_start, t_end), target.created_at)
    partners = _top_entries(
        np.zeros(len(raw), dtype=np.int64),
        np.arange(len(raw)),
        raw,
        index.chronology,
        base.params.top_m,
    )
    pr_v = base.n_vertices
    contributor_v = base.developers.get(target.contributor, pr_v + 1)
    kinds = [EdgeKind.PR_CONTRIBUTOR] + [EdgeKind.PR_PR] * len(partners)
    raws = [weight_pr_contributor(target, t_start, t_end), *raw[partners].tolist()]
    members = sorted((pr_v, contributor_v))
    for partner_v in index.vertices[partners].tolist():
        members += (partner_v, pr_v)
    weights = [scale_into_range(r, base.raw_range.get(k)) for k, r in zip(kinds, raws)]
    return EdgeTable.of(
        [EDGE_KINDS.index(kind) for kind in kinds], [2] * len(kinds), members, raws, weights
    )


def area_corpus():
    """Nine src/net PRs, two docs PRs and one lib PR, spread over time."""
    areas = ["src/net"] * 9 + ["docs"] * 2 + ["lib"]
    return make_corpus(
        [
            make_pr(f"p{i:02d}", f"c{i % 3}", T0 + i * 3 * DAY,
                    [f"{area}/f{i}.c", f"{area}/g{i % 2}.c"],
                    comments=[(f"r{i % 4}", T0 + i * 3 * DAY + DAY)])
            for i, area in enumerate(areas)
        ]
    )


class TestGraftOracle:
    @pytest.mark.parametrize("files, positive", [
        (("brand/new.c",), 0),
        (("docs/f9.c",), 2),
        (("src/net/g1.c", "lib/x.c"), 10),
    ])
    @pytest.mark.parametrize("created", [T0 + 14 * DAY, T0 + 60 * DAY])
    @pytest.mark.parametrize("contributor", ["c1", "zoe"])
    def test_overlay_equals_dense_row_oracle(self, files, positive, created,
                                             contributor):
        corpus = area_corpus()
        params = HyperParams(top_m=4)
        state = prepare(build(corpus, params), corpus, params)
        target = TargetPR("t", contributor, created, files)
        expected = dense_overlay_edges(state, target)
        assert len(expected) == 1 + min(positive, params.top_m)
        assert graft(state, target).edges == expected


class TestRankPruning:
    @staticmethod
    def fitted():
        corpus = area_corpus()
        params = HyperParams()
        return prepare(build(corpus, params), corpus, params)

    def test_equals_full_ranking_on_real_scores(self):
        state = self.fitted()
        target = TargetPR("t", "c1", T0 + 40 * DAY, ("src/net/g0.c",))
        graph = graft(state, target)
        system = ranker.assemble(graph, state.graph.params.alpha, base=state.system)
        scores = ranker.solve(system, query_vector(graph, target))
        scored = list(zip(state.developer_ids, scores[state.developer_vertices]))
        for k in range(1, len(scored) + 2):
            full = rank_developers(scored, state.comment_counts, target, k)
            assert rank(state, target, k) == full

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("contributor", ["c0", "c1", "r2", "zoe"])
    def test_equals_full_ranking_with_ties_and_the_contributor_near_the_top(
        self, monkeypatch, k, contributor
    ):
        """Several developers tie at the k-th score, and the contributor
        (when a developer) scores among the top k + 1."""
        state = self.fitted()
        by_dev = {"c0": 0.9, "r0": 0.5, "r1": 0.5, "r2": 0.7, "c1": 0.5,
                  "r3": 0.5, "c2": 0.1}
        assert set(by_dev) == set(state.developer_ids)

        def solve(system, query):
            scores = np.zeros(system.n_vertices)
            for dev, v in zip(state.developer_ids, state.developer_vertices):
                scores[v] = by_dev[dev]
            return scores

        monkeypatch.setattr(ranker, "solve", solve)
        target = TargetPR("t", contributor, T0 + 40 * DAY, ("src/net/g0.c",))
        full = rank_developers(by_dev.items(), state.comment_counts, target, k)
        assert rank(state, target, k) == full


class TestQueryVector:
    def test_exactly_two_indicator_entries(self):
        corpus = small_corpus()
        params = HyperParams()
        base = build(corpus, params)
        target = TargetPR("t", "ann", T0 + 15 * DAY, files=("src/net/a.c",))
        grafted = graft(prepare(base, corpus, params), target)
        query = query_vector(grafted, target)
        assert query.sum() == 2.0
        assert set(np.unique(query)) == {0.0, 1.0}
        assert query[grafted.vertex_index(VertexKind.PR, "t")] == 1.0
        assert query[grafted.vertex_index(VertexKind.DEVELOPER, "ann")] == 1.0

    def test_ungrafted_target_rejected(self):
        corpus = small_corpus()
        params = HyperParams()
        base = build(corpus, params)
        with pytest.raises(HgrecError):
            query_vector(base, TargetPR("t", "ann", T0, ("f",)))


class TestRecommend:
    def test_only_candidate(self):
        corpus = make_corpus(
            [make_pr("p1", "ann", T0, ["f"], comments=[("ben", T0 + DAY)])]
        )
        params = HyperParams()
        base = build(corpus, params)
        target = TargetPR("t", "ann", T0 + 2 * DAY, files=("f",))
        result = recommend(base, corpus, target, params, k=5)
        assert result.ids() == ["ben"]
        assert result.short

    def test_contributor_excluded(self, specialist_corpus):
        params = HyperParams()
        base = build(specialist_corpus, params)
        target = TargetPR("t", "carla", specialist_corpus.t_end + DAY,
                          files=("src/net/x.c",))
        result = recommend(base, specialist_corpus, target, params, k=50)
        assert "carla" not in result.ids()

    def test_no_pr_ids_in_candidates(self, specialist_corpus):
        params = HyperParams()
        base = build(specialist_corpus, params)
        target = TargetPR("t", "carla", specialist_corpus.t_end + DAY,
                          files=("src/net/x.c",))
        ids = set(recommend(base, specialist_corpus, target, params, k=50).ids())
        assert not (ids & {pr.id for pr in specialist_corpus.prs})

    def test_symmetric_tie_broken_by_comment_count_then_id(self):
        # two reviewers in perfectly symmetric positions; sue has commented
        # more historically
        corpus = make_corpus(
            [
                make_pr("p1", "ann", T0, ["f"],
                        comments=[("rex", T0 + DAY), ("sue", T0 + DAY)]),
                make_pr("p2", "ann", T0 + 2 * DAY, ["g"],
                        comments=[("sue", T0 + 3 * DAY)]),
            ]
        )
        params = HyperParams()
        base = build(corpus, params)
        target = TargetPR("t", "ann", T0 + 4 * DAY, files=("f",))
        result = recommend(base, corpus, target, params, k=2)
        scores = dict(result.candidates)
        if scores["rex"] == scores["sue"]:
            assert result.ids()[0] == "sue"

    def test_scores_non_increasing(self, specialist_corpus):
        params = HyperParams()
        base = build(specialist_corpus, params)
        target = TargetPR("t", "carla", specialist_corpus.t_end + DAY,
                          files=("src/net/x.c",))
        result = recommend(base, specialist_corpus, target, params, k=20)
        scores = [s for _, s in result.candidates]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_purity_repeated_calls_identical(self, specialist_corpus):
        params = HyperParams()
        base = build(specialist_corpus, params)
        target = TargetPR("t", "carla", specialist_corpus.t_end + DAY,
                          files=("src/net/x.c",))
        first = recommend(base, specialist_corpus, target, params, k=5)
        second = recommend(base, specialist_corpus, target, params, k=5)
        assert first.candidates == second.candidates

    def test_k_prefix_property(self, specialist_corpus):
        params = HyperParams()
        base = build(specialist_corpus, params)
        target = TargetPR("t", "carla", specialist_corpus.t_end + DAY,
                          files=("src/net/x.c",))
        top5 = recommend(base, specialist_corpus, target, params, k=5)
        for k in (1, 2, 3, 4):
            assert recommend(base, specialist_corpus, target, params, k=k).ids() \
                == top5.ids()[:k]

    def test_specialist_ranked_first_and_matches_argmax_oracle(
        self, specialist_corpus
    ):
        """Brute-force oracle: a from-scratch solve of the grafted graph's
        edge list, then argmax over candidates."""
        params = HyperParams()
        base = build(specialist_corpus, params)
        target = TargetPR("t", "carla", specialist_corpus.t_end + DAY,
                          files=("src/net/x.c",))
        result = recommend(base, specialist_corpus, target, params, k=1)
        assert result.ids() == ["nina"]

        grafted = graft(prepare(base, specialist_corpus, params), target)
        scores = oracle_scores(grafted, target, params.alpha)
        best, best_score = None, -1.0
        for v in grafted.vertices:
            if v.kind is not VertexKind.DEVELOPER or v.ref == "carla":
                continue
            if scores[v.index] > best_score:
                best, best_score = v.ref, float(scores[v.index])
        assert result.candidates[0][0] == best
        assert result.candidates[0][1] == pytest.approx(best_score, abs=1e-12)

    def test_disconnected_developer_scores_zero_and_ranks_last(self):
        # {p2, zed, yma} share no files with the src cluster, so no pr_pr
        # edge bridges the components and no mass can reach them
        corpus = make_corpus(
            [
                make_pr("p2", "zed", T0, ["other/z.c"], comments=[("yma", T0 + DAY)]),
                make_pr("p1a", "ann", T0 + 2 * DAY, ["src/a.c"],
                        comments=[("rex", T0 + 3 * DAY)]),
                make_pr("p1b", "ben", T0 + 4 * DAY, ["src/b.c"],
                        comments=[("rex", T0 + 5 * DAY)]),
            ]
        )
        params = HyperParams()
        base = build(corpus, params)
        target = TargetPR("t", "ann", T0 + 6 * DAY, files=("src/a.c",))
        result = recommend(base, corpus, target, params, k=10)
        scores = dict(result.candidates)
        assert scores["rex"] > 0.0
        assert scores["zed"] == 0.0 and scores["yma"] == 0.0
        assert result.ids()[0] == "rex"

    def test_invalid_k_rejected(self, specialist_corpus):
        params = HyperParams()
        base = build(specialist_corpus, params)
        target = TargetPR("t", "carla", T0, files=("src/net/x.c",))
        with pytest.raises(HgrecError):
            recommend(base, specialist_corpus, target, params, k=0)

    def test_params_mismatch_rejected(self, specialist_corpus):
        base = build(specialist_corpus, HyperParams(alpha=0.9))
        target = TargetPR("t", "carla", T0, files=("src/net/x.c",))
        with pytest.raises(HgrecError):
            prepare(base, specialist_corpus, HyperParams(alpha=0.5))


class TestWrapper:
    def test_fit_recommend(self, specialist_corpus):
        rec = HypergraphRecommender(HyperParams())
        rec.fit(specialist_corpus)
        target = TargetPR("t", "carla", specialist_corpus.t_end + DAY,
                          files=("src/net/x.c",))
        assert rec.recommend(target, 1).ids() == ["nina"]

    def test_unfitted_rejected(self):
        with pytest.raises(HgrecError):
            HypergraphRecommender().recommend(
                TargetPR("t", "a", T0, ("f",)), 1
            )
