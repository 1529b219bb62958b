"""Simplified comparison recommenders sharing the corpus and output types.

These are deliberately lightweight variants of four classic strategies, built
only from the fields this corpus carries; the evaluation labels them with an
"-s" suffix to make the simplification explicit:

  AC-s         recent review activity: comment count inside the trailing
               window of the training period.
  RevFinder-s  file-path similarity: reviewers of past PRs accrue the mean
               path similarity between that PR's files and the target's,
               read through the corpus's memoized file pack and review
               table, so a query pays for one kernel row and one sum.
  cHRev-s      per-file review expertise: comment share plus recency over
               the target's files.
  CN-s         comment network: decayed interaction strength between each
               reviewer and the target's contributor, both directions,
               counted over the review table's review comments.

All four are pure functions of (training corpus, target, k) and rank their
scores with ``recommender.rank_developers``, hgrec's own rule: the target's
contributor is excluded and score ties are broken by historical comment count
(more first) then lexicographic id. The counts, RevFinder-s's reviewer pairs
and CN-s's review comments come from the corpus's review table; AC-s and
cHRev-s loop over its PRs.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .config import HyperParams
from .corpus import ReviewCorpus
from .errors import HgrecError
from .hypergraph import _span
from .recommender import (
    HypergraphRecommender,
    Recommendation,
    TargetPR,
    rank_developers,
)

DAY_SECONDS = 86400


def ac_recommend(
    corpus: ReviewCorpus, target: TargetPR, k: int, window_days: int = 90
) -> Recommendation:
    """Score reviewers by review-comment count in the trailing window."""
    if window_days < 1:
        raise HgrecError(f"window_days must be >= 1, got {window_days}")
    horizon = corpus.t_end - window_days * DAY_SECONDS
    scores: dict[str, float] = {}
    for pr in corpus.prs:
        for comment in pr.comments:
            if comment.author == pr.contributor:
                continue
            if comment.created_at >= horizon:
                scores[comment.author] = scores.get(comment.author, 0.0) + 1.0
    return rank_developers(scores.items(), corpus.comment_counts(), target, k)


def revfinder_recommend(
    corpus: ReviewCorpus, target: TargetPR, k: int
) -> Recommendation:
    """Accrue each past PR's mean path similarity to its reviewers.

    The means are one kernel row against ``corpus.file_pack()``. The
    accrual is one ``np.bincount`` over the review table's (PR, reviewer)
    pairs; a reviewer whose PRs all score 0 is listed with 0.0, and one who
    reviewed no PR of the corpus is not listed."""
    if not target.files:
        raise HgrecError(f"target PR {target.id!r} has no files")
    table = corpus.review_table()
    pr_at, reviewer_at = table.reviews.pr, table.reviews.reviewer
    reviewed, ids = table.reviewed
    scores: list[float] = []
    if reviewer_at.size:
        pack = corpus.file_pack()
        t_tokens, t_off = pack.pack_one(target.files)
        means = kernels.mean_similarity_row(
            t_tokens, t_off, pack.tokens, pack.file_off, pack.set_off,
            grouping=pack.grouping(),
        )
        # bincount adds in input order from 0.0 and pairs ascend by PR, so
        # each reviewer's sum runs over their PRs in corpus order.
        sums = np.bincount(reviewer_at, means[pr_at], minlength=len(table.names))
        scores = sums[reviewed].tolist()
    return rank_developers(zip(ids, scores), corpus.comment_counts(), target, k)


def chrev_recommend(corpus: ReviewCorpus, target: TargetPR, k: int) -> Recommendation:
    """Per target file: reviewer's comment share plus a recency bonus.

    score(r) = sum over target files f of c(r, f) / C(f) + recency(r, f),
    where c counts r's review comments on past PRs touching f, C counts all
    review comments on those PRs, and recency positions r's latest comment
    on f inside the dataset window. Files never seen contribute nothing.
    """
    if not target.files:
        raise HgrecError(f"target PR {target.id!r} has no files")
    span = _span(corpus.t_start, corpus.t_end)
    scores: dict[str, float] = {}
    for path in target.files:
        total = 0
        per_reviewer: dict[str, int] = {}
        last_at: dict[str, int] = {}
        for pr in corpus.prs:
            if path not in pr.files:
                continue
            for comment in pr.comments:
                if comment.author == pr.contributor:
                    continue
                total += 1
                per_reviewer[comment.author] = per_reviewer.get(comment.author, 0) + 1
                if comment.created_at > last_at.get(comment.author, -1):
                    last_at[comment.author] = comment.created_at
        for reviewer, count in per_reviewer.items():
            recency = (
                (last_at[reviewer] - corpus.t_start) / span if span else 1.0
            )
            scores[reviewer] = scores.get(reviewer, 0.0) + count / total + recency
    return rank_developers(scores.items(), corpus.comment_counts(), target, k)


def cn_recommend(
    corpus: ReviewCorpus, target: TargetPR, k: int, decay: float = 0.8
) -> Recommendation:
    """Decayed comment-network strength with the target's contributor.

    The i-th of n directed interactions reviewer -> author contributes
    decay**i. A candidate's score adds both directions between them and the
    target's contributor. Both directions are counted over the review table's
    review comments; a contributor absent from the table has no candidates.
    """
    if not 0.0 < decay <= 1.0:
        raise HgrecError(f"decay must be in (0, 1], got {decay}")
    table = corpus.review_table()
    names = table.names
    c = int(np.searchsorted(names, target.contributor))
    if c == len(names) or names[c] != target.contributor:
        return rank_developers((), corpus.comment_counts(), target, k)
    review = table.reviews.comments
    owner = table.contributor[table.comment_pr[review]]
    author = table.author[review]
    # A developer's comments on the contributor's PRs, and the contributor's
    # comments on a developer's PRs.
    received = np.bincount(author[owner == c], minlength=len(names))
    given = np.bincount(owner[author == c], minlength=len(names))
    devs = np.flatnonzero(received + given)
    received, given = received[devs].tolist(), given[devs].tolist()
    # Python's sum of decay**i, once per distinct count: a numpy power or
    # cumsum could round a strength differently.
    strength = {n: sum(decay**i for i in range(n)) for n in {*received, *given}}
    scores = [strength[r] + strength[g] for r, g in zip(received, given)]
    return rank_developers(
        zip(names[devs].tolist(), scores), corpus.comment_counts(), target, k
    )


# ---------------------------------------------------------------------------
# fit/recommend wrappers and the name registry used by the CLI and the bench.


class _BaselineWrapper:
    def __init__(self, fn, **kwargs):
        self._fn = fn
        self._kwargs = kwargs
        self._corpus = None

    def fit(self, corpus: ReviewCorpus):
        self._corpus = corpus
        return self

    def recommend(self, target: TargetPR, k: int) -> Recommendation:
        if self._corpus is None:
            raise HgrecError("recommender is not fitted")
        return self._fn(self._corpus, target, k, **self._kwargs)


RECOMMENDER_LABELS = {
    "hgrec": "hgrec",
    "ac": "ac-s",
    "revfinder": "revfinder-s",
    "chrev": "chrev-s",
    "cn": "cn-s",
}


def create_recommender(
    name: str,
    params: HyperParams | None = None,
    ac_window_days: int = 90,
    cn_decay: float = 0.8,
):
    """Instantiate a fit/recommend recommender by registry name."""
    if name == "hgrec":
        return HypergraphRecommender(params)
    if name == "ac":
        return _BaselineWrapper(ac_recommend, window_days=ac_window_days)
    if name == "revfinder":
        return _BaselineWrapper(revfinder_recommend)
    if name == "chrev":
        return _BaselineWrapper(chrev_recommend)
    if name == "cn":
        return _BaselineWrapper(cn_recommend, decay=cn_decay)
    raise HgrecError(
        f"unknown recommender {name!r}; expected one of "
        f"{sorted(RECOMMENDER_LABELS)}"
    )
