"""Evaluation protocol: rounds, metrics, and the comparison bench."""

import math

import pytest

from hgrec.corpus import ReviewCorpus, parse_timestamp
from hgrec.errors import CorpusSpanError, UndefinedMetricError
from hgrec.evaluation import (
    PRRecord,
    RecommenderSpec,
    acc,
    add_months,
    make_rounds,
    month_start,
    mrr,
    rd,
    run_comparison,
    span_in_months,
)
from hgrec.recommender import Recommendation

from conftest import DAY, make_corpus, make_pr


def monthly_corpus(n_months, prs_per_month=2, start="2019-01-01T00:00:00Z"):
    origin = parse_timestamp(start)
    prs = []
    serial = 0
    for month in range(n_months):
        base = add_months(month_start(origin), month)
        for i in range(prs_per_month):
            serial += 1
            created = base + 2 * DAY + i * 5 * DAY
            prs.append(
                make_pr(
                    f"p{serial:03d}",
                    ["ann", "ben"][i % 2],
                    created,
                    ["src/a.c", "src/b.c"][i % 2 : i % 2 + 1],
                    comments=[("rex", created + DAY), ("sue", created + 2 * DAY)],
                )
            )
    return make_corpus(prs)


class _ConstantRecommender:
    """Always returns the same candidate list."""

    def __init__(self, ids):
        self._ids = list(ids)

    def fit(self, corpus):
        return self

    def recommend(self, target, k):
        return Recommendation(
            target=target.id,
            k=k,
            candidates=[(dev, 1.0 - 0.1 * i) for i, dev in enumerate(self._ids[:k])],
        )


class _OracleRecommender:
    """Answers with the target's true reviewers (for dominance fixtures)."""

    def fit(self, corpus):
        self._corpus = corpus
        return self

    def recommend(self, target, k):
        # ground truth is reconstructible from the full corpus in tests only
        return Recommendation(target=target.id, k=k, candidates=[("rex", 1.0)][:k])


class TestMonthArithmetic:
    def test_month_start(self):
        assert month_start(parse_timestamp("2019-03-17T12:34:56Z")) == \
            parse_timestamp("2019-03-01T00:00:00Z")

    def test_add_months_wraps_year(self):
        nov = month_start(parse_timestamp("2019-11-05T00:00:00Z"))
        assert add_months(nov, 3) == parse_timestamp("2020-02-01T00:00:00Z")

    def test_span_in_months(self):
        a = parse_timestamp("2019-01-20T00:00:00Z")
        b = parse_timestamp("2020-01-02T00:00:00Z")
        assert span_in_months(a, b) == 13


class TestMakeRounds:
    def test_42_month_corpus_yields_30_rounds(self):
        rounds = make_rounds(monthly_corpus(42, prs_per_month=1))
        assert len(rounds) == 30

    def test_14_month_corpus_yields_2_rounds(self):
        rounds = make_rounds(monthly_corpus(14, prs_per_month=1))
        assert len(rounds) == 2

    def test_12_month_corpus_rejected(self):
        with pytest.raises(CorpusSpanError):
            make_rounds(monthly_corpus(12, prs_per_month=1))

    def test_max_rounds_caps(self):
        rounds = make_rounds(monthly_corpus(42, prs_per_month=1), max_rounds=5)
        assert len(rounds) == 5

    def test_test_prs_strictly_after_cut(self):
        rounds = make_rounds(monthly_corpus(15))
        for round_ in rounds:
            for target, _ in round_.tests:
                assert round_.train_cut <= target.created_at < round_.test_end

    def test_empty_ground_truth_excluded(self):
        corpus = monthly_corpus(14, prs_per_month=1)
        # strip the comments of the PR in the first test month
        prs = [
            pr.truncated(0) if pr.created_at >= make_rounds(corpus)[0].train_cut
            and pr.created_at < make_rounds(corpus)[0].test_end else pr
            for pr in corpus.prs
        ]
        stripped = make_corpus(prs, t_start=corpus.t_start, t_end=corpus.t_end)
        rounds = make_rounds(stripped)
        assert rounds[0].tests == []
        assert len(rounds[1].tests) == 1

    def test_training_slice_has_no_test_comments(self):
        corpus = monthly_corpus(20)
        for round_ in make_rounds(corpus):
            train = corpus.slice_until(round_.train_cut)
            latest = max(
                (c.created_at for pr in train.prs for c in pr.comments),
                default=0,
            )
            assert latest < round_.train_cut


class TestMetrics:
    def test_acc_all_top1_correct(self):
        records = [PRRecord("p", frozenset({"a"}), ["a", "b"]) for _ in range(4)]
        assert acc(records, 1) == 1.0

    def test_acc_none_correct(self):
        records = [PRRecord("p", frozenset({"z"}), ["a", "b"]) for _ in range(4)]
        assert acc(records, 2) == 0.0

    def test_acc_half(self):
        records = [
            PRRecord("p1", frozenset({"a"}), ["a"]),
            PRRecord("p2", frozenset({"a"}), ["b"]),
            PRRecord("p3", frozenset({"c"}), ["c"]),
            PRRecord("p4", frozenset({"c"}), ["d"]),
        ]
        assert acc(records, 1) == 0.5

    def test_mrr_rank_one(self):
        records = [PRRecord("p", frozenset({"a"}), ["a", "b"])]
        assert mrr(records, 2) == 1.0

    def test_mrr_rank_two(self):
        records = [PRRecord("p", frozenset({"b"}), ["a", "b"])]
        assert mrr(records, 2) == 0.5

    def test_mrr_absent_is_zero(self):
        records = [PRRecord("p", frozenset({"z"}), ["a", "b"])]
        assert mrr(records, 2) == 0.0

    def test_mrr_uses_first_hit(self):
        records = [PRRecord("p", frozenset({"b", "c"}), ["a", "b", "c"])]
        assert mrr(records, 3) == 0.5

    def test_rd_degenerate_zero(self):
        records = [PRRecord(f"p{i}", frozenset(), ["a"]) for i in range(5)]
        assert rd(records, 1, n_reviewers=4) == 0.0

    def test_rd_uniform_one(self):
        records = [PRRecord(f"p{i}", frozenset(), [f"r{i}"]) for i in range(4)]
        assert rd(records, 1, n_reviewers=4) == pytest.approx(1.0, abs=1e-12)

    def test_rd_half_uniform(self):
        # slots uniform over n/2 of n reviewers: log2(n/2) / log2(n)
        n = 8
        records = [PRRecord(f"p{i}", frozenset(), [f"r{i % 4}"]) for i in range(8)]
        expected = math.log2(n / 2) / math.log2(n)
        assert rd(records, 1, n_reviewers=n) == pytest.approx(expected, abs=1e-12)

    def test_rd_relabeling_invariant(self):
        records_a = [PRRecord(f"p{i}", frozenset(), ["x", "y"][i % 2 :][:1])
                     for i in range(6)]
        records_b = [PRRecord(f"p{i}", frozenset(), ["q", "w"][i % 2 :][:1])
                     for i in range(6)]
        assert rd(records_a, 1, 5) == rd(records_b, 1, 5)

    def test_rd_needs_two_reviewers(self):
        with pytest.raises(UndefinedMetricError):
            rd([PRRecord("p", frozenset(), ["a"])], 1, n_reviewers=1)

    def test_empty_records_rejected(self):
        for fn in (lambda: acc([], 1), lambda: mrr([], 1), lambda: rd([], 1, 2)):
            with pytest.raises(UndefinedMetricError):
                fn()

    def test_mrr_bounded_by_acc(self):
        records = [
            PRRecord("p1", frozenset({"a"}), ["b", "a"]),
            PRRecord("p2", frozenset({"z"}), ["b", "a"]),
            PRRecord("p3", frozenset({"b"}), ["b", "a"]),
        ]
        for k in (1, 2):
            assert mrr(records, k) <= acc(records, k)

    def test_acc_nondecreasing_in_k(self):
        records = [
            PRRecord("p1", frozenset({"a"}), ["b", "a", "c"]),
            PRRecord("p2", frozenset({"c"}), ["b", "a", "c"]),
        ]
        values = [acc(records, k) for k in (1, 2, 3)]
        assert values == sorted(values)


class TestRunComparison:
    def test_single_recommender_no_pairwise_tests(self):
        corpus = monthly_corpus(14)
        report = run_comparison(
            corpus,
            [RecommenderSpec("const", lambda: _ConstantRecommender(["rex", "sue"]))],
            ks=(1, 3),
        )
        assert report.wilcoxon == {}
        assert report.reference == "const"
        assert len(report.rounds) == 2

    def test_identical_recommenders_all_h0(self):
        corpus = monthly_corpus(16)
        factory = lambda: _ConstantRecommender(["rex", "sue"])
        report = run_comparison(
            corpus,
            [RecommenderSpec("one", factory), RecommenderSpec("two", factory)],
            ks=(1,),
        )
        for metric_block in report.wilcoxon["two"].values():
            for result in metric_block.values():
                assert result.verdict == "H0"

    def test_dominant_recommender_wins_h1a(self):
        corpus = monthly_corpus(20)  # 8 rounds
        report = run_comparison(
            corpus,
            [
                RecommenderSpec("oracle", _OracleRecommender),
                RecommenderSpec("dud", lambda: _ConstantRecommender(["nobody"])),
            ],
            ks=(1,),
        )
        assert report.wilcoxon["dud"]["acc"][1].verdict == "H1a"
        assert report.averages["oracle"][1]["acc"] == 1.0
        assert report.averages["dud"][1]["acc"] == 0.0

    def test_rows_cover_every_round_and_k(self):
        corpus = monthly_corpus(15)
        report = run_comparison(
            corpus,
            [RecommenderSpec("const", lambda: _ConstantRecommender(["rex"]))],
            ks=(1, 3, 5),
        )
        assert len(report.rows) == 3 * 3  # 3 rounds x 3 ks
        assert all(0.0 <= row.acc <= 1.0 for row in report.rows)
        assert all(row.mrr <= row.acc for row in report.rows)
        assert all(0.0 <= row.rd <= 1.0 for row in report.rows)

    def test_parallel_rounds_match_serial(self):
        corpus = monthly_corpus(18)
        specs = [RecommenderSpec("const", lambda: _ConstantRecommender(["rex", "sue"]))]
        serial = run_comparison(corpus, specs, ks=(1, 3), jobs=1)
        parallel = run_comparison(corpus, specs, ks=(1, 3), jobs=4)
        assert serial.to_csv_text() == parallel.to_csv_text()
        assert serial.to_json_text() == parallel.to_json_text()

    def test_one_training_slice_per_round(self, monkeypatch):
        cuts = []
        slice_until = ReviewCorpus.slice_until
        monkeypatch.setattr(
            ReviewCorpus, "slice_until",
            lambda corpus, cut: cuts.append(cut) or slice_until(corpus, cut),
        )
        report = run_comparison(
            monthly_corpus(16),
            [RecommenderSpec("const", lambda: _ConstantRecommender(["rex", "sue"]))],
            ks=(1, 3),
        )
        assert cuts == [r.train_cut for r in report.rounds]

    def test_csv_shape_and_formatting(self):
        corpus = monthly_corpus(14)
        report = run_comparison(
            corpus,
            [RecommenderSpec("const", lambda: _ConstantRecommender(["rex"]))],
            ks=(1,),
        )
        lines = report.to_csv_text().strip().split("\n")
        assert lines[0] == "recommender,round,k,acc,mrr,rd"
        assert lines[1].startswith("const,1,1,")

    def test_duplicate_labels_rejected(self):
        corpus = monthly_corpus(14)
        factory = lambda: _ConstantRecommender(["rex"])
        with pytest.raises(UndefinedMetricError):
            run_comparison(
                corpus,
                [RecommenderSpec("x", factory), RecommenderSpec("x", factory)],
            )
