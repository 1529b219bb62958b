"""``cn_recommend`` and ``ReviewCorpus``'s id sets against the loops they
were before they read the corpus's review table: the same
``Recommendation``s, scores to the bit, and the same sets, on seeded random
corpora and on ``slice_until`` windows of them, slices of slices included.
``stats``, which still counts over the PRs, is held to the same loops."""

import random

import pytest

from hgrec.baselines import cn_recommend
from hgrec.recommender import TargetPR, rank_developers

from conftest import DAY, make_corpus, make_pr

T0 = 1_600_000_000


# ---------------------------------------------------------------------------
# Oracles: the loops as they were, kept verbatim.


def oracle_cn_recommend(corpus, target, k, decay=0.8):
    contributor = target.contributor
    received: dict[str, int] = {}  # a developer's comments on the contributor's PRs
    given: dict[str, int] = {}  # the contributor's comments on a developer's PRs
    for pr in corpus.prs:
        for comment in pr.comments:
            if comment.author == pr.contributor:
                continue
            if pr.contributor == contributor:
                received[comment.author] = received.get(comment.author, 0) + 1
            elif comment.author == contributor:
                given[pr.contributor] = given.get(pr.contributor, 0) + 1

    def strength(n: int) -> float:
        return sum(decay**i for i in range(n))

    scores = {
        dev: strength(received.get(dev, 0)) + strength(given.get(dev, 0))
        for dev in received.keys() | given.keys()
    }
    return rank_developers(scores.items(), corpus.comment_counts(), target, k)


def oracle_reviewer_ids(corpus):
    return frozenset(
        {
            c.author
            for pr in corpus.prs
            for c in pr.comments
            if c.author != pr.contributor
        }
    )


def oracle_contributor_ids(corpus):
    return frozenset({pr.contributor for pr in corpus.prs})


def oracle_stats(corpus):
    return {
        "prs": len(corpus.prs),
        "comments": sum([len(pr.comments) for pr in corpus.prs]),
        "reviewers": len(oracle_reviewer_ids(corpus)),
        "contributors": len(oracle_contributor_ids(corpus)),
    }


# ---------------------------------------------------------------------------
# Corpora and windows.

PEOPLE = ["ann", "bo", "cy", "di", "ed", "fay", "gus"]


def random_corpus(seed, n_prs=60):
    """PRs by ``PEOPLE`` plus "solo", who comments only on their own PRs,
    and "late", whose one PR comes last. Comment times repeat PR times, so
    a cut at a PR's time also falls on comments."""
    rng = random.Random(seed)
    prs = []
    for i in range(n_prs):
        at = T0 + i * DAY
        contributor = rng.choice([*PEOPLE, "solo"])
        authors = [*PEOPLE, contributor]
        comments = [
            (rng.choice(authors), at + rng.choice([0, DAY, 2 * DAY, 5 * DAY]))
            for _ in range(rng.randint(0, 5))
        ]
        if contributor == "solo":
            comments.append(("solo", at + DAY))
        prs.append(make_pr(f"p{i}", contributor, at, ["src/a.c"], comments=comments))
    end = T0 + n_prs * DAY
    prs.append(make_pr("late", "late", end, ["src/a.c"], comments=[("ann", end + 1)]))
    return make_corpus(prs)


def windows(corpus, seed):
    """The corpus, windows at PR times, and windows of those windows."""
    rng = random.Random(seed)
    times = sorted({pr.created_at for pr in corpus.prs})
    out = [corpus]
    for _ in range(4):
        cut = rng.choice(times[1:])
        window = corpus.slice_until(cut)
        out.append(window)
        inner = [t for t in times[1:] if t <= cut]
        out.append(window.slice_until(rng.choice(inner)))
        out.append(window.slice_until(cut + 3 * DAY))
    return out


def target(contributor):
    return TargetPR("t", contributor, T0 + 10_000 * DAY, files=("src/a.c",))


CONTRIBUTORS = [*PEOPLE, "solo", "late", "stranger"]


def bits(recommendation):
    return [(dev, float(score).hex()) for dev, score in recommendation.candidates]


# ---------------------------------------------------------------------------
# cn-s


class TestCnOracle:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("decay", [1.0, 0.8, 0.5])
    def test_equals_loop_on_random_windows(self, seed, decay):
        corpus = random_corpus(seed)
        for window in windows(corpus, seed):
            for contributor in CONTRIBUTORS:
                for k in (1, 3, 50):
                    expected = oracle_cn_recommend(window, target(contributor), k, decay)
                    got = cn_recommend(window, target(contributor), k, decay)
                    assert got == expected
                    assert bits(got) == bits(expected)

    def test_k_above_candidates_gives_every_candidate(self):
        corpus = random_corpus(4)
        expected = oracle_cn_recommend(corpus, target("ann"), 50, 0.5)
        got = cn_recommend(corpus, target("ann"), 50, 0.5)
        assert got.short and 0 < len(got.candidates) < 50
        assert bits(got) == bits(expected)

    def test_contributor_absent_from_window(self):
        corpus = random_corpus(5)
        window = corpus.slice_until(corpus.prs[-1].created_at)
        assert "late" in corpus.review_table().names.tolist()
        assert "late" not in window.contributor_ids() | window.reviewer_ids()
        for where, contributor in ((window, "late"), (corpus, "stranger")):
            got = cn_recommend(where, target(contributor), 5)
            assert got == oracle_cn_recommend(where, target(contributor), 5)
            assert got.candidates == []

    def test_contributor_who_only_commented_on_own_prs(self):
        corpus = make_corpus([
            make_pr("p1", "solo", T0, ["f"], comments=[("solo", T0 + 1)]),
            make_pr("p2", "ann", T0 + DAY, ["f"], comments=[("bo", T0 + DAY + 1)]),
            make_pr("p3", "solo", T0 + 2 * DAY, ["f"], comments=[("solo", T0 + 2 * DAY)]),
        ])
        got = cn_recommend(corpus, target("solo"), 5)
        assert got == oracle_cn_recommend(corpus, target("solo"), 5)
        assert got.candidates == []

    def test_comments_at_or_after_the_cut_are_not_counted(self):
        cut = T0 + 5 * DAY
        corpus = make_corpus([
            make_pr("p1", "ann", T0, ["f"],
                    comments=[("rex", T0 + DAY), ("sue", cut), ("ted", cut + DAY)]),
            make_pr("p2", "sue", T0 + DAY, ["f"],
                    comments=[("ann", cut - 1), ("ann", cut)]),
            make_pr("p3", "ann", cut, ["f"], comments=[("ted", cut + 1)]),
        ])
        window = corpus.slice_until(cut)
        for decay in (1.0, 0.5):
            got = cn_recommend(window, target("ann"), 5, decay)
            assert got == oracle_cn_recommend(window, target("ann"), 5, decay)
            assert got.candidates == [("rex", 1.0), ("sue", 1.0)]
        inner = window.slice_until(T0 + DAY + 1)
        got = cn_recommend(inner, target("ann"), 5)
        assert got == oracle_cn_recommend(inner, target("ann"), 5)
        assert got.candidates == [("rex", 1.0)]


# ---------------------------------------------------------------------------
# id sets and stats


class TestCorpusCountsOracle:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equal_loops_on_random_windows(self, seed):
        corpus = random_corpus(seed)
        for window in windows(corpus, seed):
            assert window.reviewer_ids() == oracle_reviewer_ids(window)
            assert window.contributor_ids() == oracle_contributor_ids(window)
            assert window.stats() == oracle_stats(window)

    def test_window_before_any_review(self):
        corpus = make_corpus([
            make_pr("p1", "ann", T0, ["f"], comments=[("ann", T0), ("bo", T0 + DAY)]),
            make_pr("p2", "bo", T0 + DAY, ["f"]),
        ])
        window = corpus.slice_until(T0 + 1)
        assert window.reviewer_ids() == frozenset()
        assert window.contributor_ids() == frozenset({"ann"})
        assert window.stats() == oracle_stats(window) == {
            "prs": 1, "comments": 1, "reviewers": 0, "contributors": 1
        }
