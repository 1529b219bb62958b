"""Grafting, query construction, and the end-to-end recommendation pipeline."""

import copy

import numpy as np
import pytest

from hgrec import ranker
from hgrec.config import HyperParams
from hgrec.errors import HgrecError
from hgrec.hypergraph import EdgeKind, VertexKind, build
from hgrec.recommender import (
    HypergraphRecommender,
    TargetPR,
    graft,
    prepare,
    query_vector,
    recommend,
)

from conftest import DAY, make_corpus, make_pr

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
        new_edges = grafted.edges[len(base.edges):]
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
            e for e in grafted.edges[len(base.edges):] if e.kind is EdgeKind.PR_PR
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
            e for e in grafted.edges[len(base.edges):] if e.kind is EdgeKind.PR_PR
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
        for edge in grafted.edges[len(base.edges):]:
            assert 0.0 <= edge.weight <= 1.0


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
        """Brute-force oracle: direct solve, then argmax over candidates."""
        params = HyperParams()
        base = build(specialist_corpus, params)
        target = TargetPR("t", "carla", specialist_corpus.t_end + DAY,
                          files=("src/net/x.c",))
        result = recommend(base, specialist_corpus, target, params, k=1)
        assert result.ids() == ["nina"]

        grafted = graft(prepare(base, specialist_corpus, params), target)
        system = ranker.assemble(grafted, params.alpha)
        scores = ranker.solve_direct(system, query_vector(grafted, target))
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
