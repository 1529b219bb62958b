"""Simplified baseline recommenders."""

import random

import pytest

from hgrec.baselines import (
    ac_recommend,
    chrev_recommend,
    cn_recommend,
    create_recommender,
    revfinder_recommend,
)
from hgrec.errors import HgrecError
from hgrec.hypergraph import path_similarity
from hgrec.recommender import TargetPR

from conftest import DAY, make_corpus, make_pr

T0 = 1_600_000_000


def target(contributor="ann", files=("src/a.c",), at=None):
    return TargetPR("t", contributor, at if at is not None else T0 + 50 * DAY,
                    files=tuple(files))


class TestAc:
    def test_more_recent_comments_rank_first(self):
        prs = [
            make_pr("p1", "ann", T0, ["f"],
                    comments=[("busy", T0 + i * DAY) for i in range(5)]),
            make_pr("p2", "ann", T0 + DAY, ["f"],
                    comments=[("slow", T0 + DAY), ("slow", T0 + 2 * DAY)]),
        ]
        corpus = make_corpus(prs)
        result = ac_recommend(corpus, target(), k=2, window_days=90)
        assert result.ids() == ["busy", "slow"]
        assert dict(result.candidates) == {"busy": 5.0, "slow": 2.0}

    def test_activity_outside_window_gives_empty_short_list(self):
        prs = [
            make_pr("p1", "ann", T0, ["f"], comments=[("r", T0 + DAY)]),
            make_pr("p2", "ann", T0 + 400 * DAY, ["f"]),
        ]
        corpus = make_corpus(prs)
        result = ac_recommend(corpus, target(), k=3, window_days=30)
        assert result.candidates == []
        assert result.short

    def test_equal_counts_tie_break_by_id(self):
        prs = [
            make_pr("p1", "ann", T0, ["f"],
                    comments=[("zeta", T0 + DAY), ("beta", T0 + DAY)]),
        ]
        corpus = make_corpus(prs)
        result = ac_recommend(corpus, target(), k=2)
        assert result.ids() == ["beta", "zeta"]

    def test_self_comments_not_counted(self):
        prs = [make_pr("p1", "ann", T0, ["f"], comments=[("ann", T0 + DAY)])]
        corpus = make_corpus(prs)
        assert ac_recommend(corpus, target("ben"), k=1).candidates == []

    def test_bad_window_rejected(self):
        corpus = make_corpus([make_pr("p1", "ann", T0, ["f"])])
        with pytest.raises(HgrecError):
            ac_recommend(corpus, target(), k=1, window_days=0)


class TestRevfinder:
    def test_identical_file_set_scores_max(self):
        prs = [
            make_pr("p1", "ann", T0, ["src/a.c"], comments=[("rex", T0 + DAY)]),
            make_pr("p2", "ann", T0 + DAY, ["docs/x.md"],
                    comments=[("sue", T0 + 2 * DAY)]),
        ]
        corpus = make_corpus(prs)
        result = revfinder_recommend(corpus, target(files=("src/a.c",)), k=2)
        assert result.ids()[0] == "rex"
        assert dict(result.candidates)["rex"] == pytest.approx(1.0)

    def test_no_overlap_all_scores_zero(self):
        prs = [make_pr("p1", "ann", T0, ["src/a.c"], comments=[("rex", T0 + DAY)])]
        corpus = make_corpus(prs)
        result = revfinder_recommend(corpus, target(files=("elsewhere.md",)), k=1)
        assert dict(result.candidates) == {"rex": 0.0}

    def test_equal_similarity_tie_break(self):
        prs = [
            make_pr("p1", "ann", T0, ["src/a.c"], comments=[("zed", T0 + DAY)]),
            make_pr("p2", "ann", T0 + DAY, ["src/a.c"],
                    comments=[("abe", T0 + 2 * DAY)]),
        ]
        corpus = make_corpus(prs)
        result = revfinder_recommend(corpus, target(files=("src/a.c",)), k=2)
        assert result.ids() == ["abe", "zed"]  # equal scores, lexicographic

    def test_accrual_over_multiple_prs(self):
        prs = [
            make_pr("p1", "ann", T0, ["src/a.c"], comments=[("rex", T0 + DAY)]),
            make_pr("p2", "ann", T0 + DAY, ["src/b.c"],
                    comments=[("rex", T0 + 2 * DAY)]),
        ]
        corpus = make_corpus(prs)
        # sim(src/a.c, src/a.c) = 1; sim(src/a.c, src/b.c) = 1/2 (one of two
        # components shared)
        result = revfinder_recommend(corpus, target(files=("src/a.c",)), k=1)
        assert dict(result.candidates)["rex"] == pytest.approx(1.0 + 1 / 2)

    @pytest.mark.parametrize("unit", ["components", "chars"])
    def test_scores_equal_scalar_double_loop(self, unit):
        rng = random.Random(5)
        parts = ["src", "lib", "net", "a", "b", "x.c", "y.h", "z.md"]

        def paths(n):
            return sorted({"/".join(rng.choices(parts, k=rng.randint(1, 4)))
                           for _ in range(n)})

        people = ["ann", "bo", "cy", "di", "ed"]
        prs = [
            make_pr(f"p{i}", rng.choice(people), T0 + i * DAY, paths(rng.randint(1, 5)),
                    comments=[(rng.choice(people), T0 + i * DAY + 1)
                              for _ in range(rng.randint(0, 3))])
            for i in range(40)
        ]
        corpus = make_corpus(prs)
        for files in (paths(3), paths(1), ["new/dir/q.c", "src/net/x.c"]):
            expected = {}
            for pr in corpus.prs:
                if not pr.reviewers():
                    continue
                total = 0.0
                for tf in files:
                    for pf in pr.files:
                        total += path_similarity(tf, pf, unit)
                mean = total / (len(files) * len(pr.files))
                for reviewer in pr.reviewers():
                    expected[reviewer] = expected.get(reviewer, 0.0) + mean
            result = revfinder_recommend(corpus, target("ann", files), k=10, unit=unit)
            expected.pop("ann", None)
            assert dict(result.candidates) == expected


class TestChrev:
    def test_sole_reviewer_scores_at_least_one(self):
        prs = [make_pr("p1", "ann", T0, ["src/a.c"], comments=[("rex", T0 + DAY)])]
        corpus = make_corpus(prs)
        result = chrev_recommend(corpus, target(files=("src/a.c",)), k=1)
        assert result.ids() == ["rex"]
        assert result.candidates[0][1] >= 1.0

    def test_unseen_file_gives_empty_short_list(self):
        prs = [make_pr("p1", "ann", T0, ["src/a.c"], comments=[("rex", T0 + DAY)])]
        corpus = make_corpus(prs)
        result = chrev_recommend(corpus, target(files=("never/seen.c",)), k=3)
        assert result.candidates == []
        assert result.short

    def test_recency_breaks_equal_share(self):
        prs = [
            make_pr("p1", "ann", T0, ["src/a.c"],
                    comments=[("old", T0 + DAY), ("new", T0 + 40 * DAY)]),
        ]
        corpus = make_corpus(prs)
        result = chrev_recommend(corpus, target(files=("src/a.c",)), k=2)
        assert result.ids() == ["new", "old"]
        scores = dict(result.candidates)
        assert scores["new"] > scores["old"]


class TestCn:
    def test_repeat_interactions_beat_single(self):
        prs = [
            make_pr(f"p{i}", "ann", T0 + i * DAY, ["f"],
                    comments=[("rex", T0 + i * DAY + 1)])
            for i in range(3)
        ] + [
            make_pr("q", "ann", T0 + 10 * DAY, ["f"],
                    comments=[("sue", T0 + 10 * DAY + 1)])
        ]
        corpus = make_corpus(prs)
        result = cn_recommend(corpus, target("ann"), k=2, decay=0.8)
        scores = dict(result.candidates)
        assert result.ids()[0] == "rex"
        assert scores["rex"] == pytest.approx(1 + 0.8 + 0.64)
        assert scores["sue"] == pytest.approx(1.0)

    def test_unknown_contributor_gives_empty_short_list(self):
        prs = [make_pr("p1", "ann", T0, ["f"], comments=[("rex", T0 + DAY)])]
        corpus = make_corpus(prs)
        result = cn_recommend(corpus, target("stranger"), k=3)
        assert result.candidates == []
        assert result.short

    def test_both_directions_count(self):
        prs = [
            make_pr("p1", "ann", T0, ["f"], comments=[("rex", T0 + DAY)]),
            make_pr("p2", "rex", T0 + 2 * DAY, ["f"],
                    comments=[("ann", T0 + 3 * DAY)]),
        ]
        corpus = make_corpus(prs)
        result = cn_recommend(corpus, target("ann"), k=1)
        assert dict(result.candidates)["rex"] == pytest.approx(2.0)

    def test_symmetric_pattern_tie_break(self):
        prs = [
            make_pr("p1", "ann", T0, ["f"],
                    comments=[("zed", T0 + DAY), ("abe", T0 + DAY)]),
        ]
        corpus = make_corpus(prs)
        result = cn_recommend(corpus, target("ann"), k=2)
        assert result.ids() == ["abe", "zed"]

    def test_bad_decay_rejected(self):
        corpus = make_corpus([make_pr("p1", "ann", T0, ["f"])])
        with pytest.raises(HgrecError):
            cn_recommend(corpus, target("ann"), k=1, decay=0.0)


class TestSharedContracts:
    @pytest.fixture
    def corpus(self, specialist_corpus):
        return specialist_corpus

    @pytest.mark.parametrize("name", ["ac", "revfinder", "chrev", "cn", "hgrec"])
    def test_contributor_never_recommended(self, corpus, name):
        rec = create_recommender(name).fit(corpus)
        t = TargetPR("t", "carla", corpus.t_end + DAY, files=("src/net/x.c",))
        assert "carla" not in rec.recommend(t, 50).ids()

    @pytest.mark.parametrize("name", ["ac", "revfinder", "chrev", "cn", "hgrec"])
    def test_deterministic(self, corpus, name):
        t = TargetPR("t", "carla", corpus.t_end + DAY, files=("src/net/x.c",))
        first = create_recommender(name).fit(corpus).recommend(t, 5)
        second = create_recommender(name).fit(corpus).recommend(t, 5)
        assert first.candidates == second.candidates

    @pytest.mark.parametrize("name", ["ac", "revfinder", "chrev", "cn", "hgrec"])
    def test_k_prefix_property(self, corpus, name):
        rec = create_recommender(name).fit(corpus)
        t = TargetPR("t", "carla", corpus.t_end + DAY, files=("src/net/x.c",))
        top5 = rec.recommend(t, 5).ids()
        for k in (1, 2, 3, 4):
            assert rec.recommend(t, k).ids() == top5[:k]

    def test_unknown_name_rejected(self):
        with pytest.raises(HgrecError):
            create_recommender("nope")
