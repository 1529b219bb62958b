"""Expanding-window, month-by-month evaluation of recommenders.

Round r trains on everything before a monthly cut boundary and tests on the
single month after it; the first cut sits ``initial_months`` calendar months
after the month containing the corpus start. Training corpora are comment-
truncated at the cut so nothing from a test month can leak into a training
graph. Ground-truth reviewer sets come from the full corpus; test PRs whose
ground truth is empty are excluded from metric denominators.

Metrics per recommender, round and list length k:

  acc  fraction of test PRs whose top-k list hits at least one true reviewer
  mrr  mean reciprocal rank of the first true reviewer in the top-k, 0 if absent
  rd   normalized entropy of how top-k slots spread over reviewers
       (1 = uniform, 0 = a single reviewer takes every slot)

Recommenders are compared pairwise against the reference (hgrec when
present) with the Wilcoxon signed-rank test over per-round metric values.
"""

from __future__ import annotations

import bisect
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, Sequence

from .corpus import ReviewCorpus, format_timestamp
from .errors import CorpusSpanError, UndefinedMetricError
from .recommender import TargetPR
from .stats import WilcoxonResult, wilcoxon_signed_rank

# ---------------------------------------------------------------------------
# Calendar-month arithmetic (UTC).


def month_start(epoch: int) -> int:
    moment = datetime.fromtimestamp(epoch, tz=timezone.utc)
    return int(
        datetime(moment.year, moment.month, 1, tzinfo=timezone.utc).timestamp()
    )


def add_months(month_epoch: int, count: int) -> int:
    moment = datetime.fromtimestamp(month_epoch, tz=timezone.utc)
    index = (moment.year * 12 + moment.month - 1) + count
    return int(
        datetime(index // 12, index % 12 + 1, 1, tzinfo=timezone.utc).timestamp()
    )


def span_in_months(t_start: int, t_end: int) -> int:
    a = datetime.fromtimestamp(month_start(t_start), tz=timezone.utc)
    b = datetime.fromtimestamp(month_start(t_end), tz=timezone.utc)
    return (b.year * 12 + b.month) - (a.year * 12 + a.month) + 1


# ---------------------------------------------------------------------------
# Rounds and records.


@dataclass
class EvaluationRound:
    index: int  # 1-based
    train_cut: int  # training uses [t_start, train_cut)
    test_start: int
    test_end: int
    tests: list[tuple[TargetPR, frozenset[str]]]
    train_reviewers: int  # distinct reviewers in the training window


@dataclass
class PRRecord:
    target: str
    ground_truth: frozenset[str]
    ranked: list[str]


@dataclass
class MetricRow:
    recommender: str
    round: int
    k: int
    acc: float
    mrr: float
    rd: float


def make_rounds(
    corpus: ReviewCorpus, initial_months: int = 12, max_rounds: int = 30
) -> list[EvaluationRound]:
    """Cut the corpus into expanding-window evaluation rounds."""
    total = span_in_months(corpus.t_start, corpus.t_end)
    if total < initial_months + 1:
        raise CorpusSpanError(
            f"corpus spans {total} months; the protocol needs at least "
            f"{initial_months + 1} (initial_months + 1 test month)"
        )
    # A reviewer is in a training window once one of their comments and its
    # PR both predate the cut.
    entered: dict[str, int] = {}
    for pr in corpus.prs:
        for c in pr.comments:
            if c.author != pr.contributor:
                at = max(pr.created_at, c.created_at)
                entered[c.author] = min(at, entered.get(c.author, at))
    entries = sorted(entered.values())
    origin = month_start(corpus.t_start)
    rounds = []
    for r in range(1, min(max_rounds, total - initial_months) + 1):
        cut = add_months(origin, initial_months + r - 1)
        test_end = add_months(origin, initial_months + r)
        tests = [
            (
                TargetPR(
                    id=pr.id,
                    contributor=pr.contributor,
                    created_at=pr.created_at,
                    files=pr.files,
                ),
                pr.reviewers(),
            )
            for pr in corpus.prs
            if cut <= pr.created_at < test_end and pr.reviewers()
        ]
        rounds.append(
            EvaluationRound(
                index=r,
                train_cut=cut,
                test_start=cut,
                test_end=test_end,
                tests=tests,
                train_reviewers=bisect.bisect_left(entries, cut),
            )
        )
    return rounds


# ---------------------------------------------------------------------------
# Metrics.


def acc(records: Sequence[PRRecord], k: int) -> float:
    if not records:
        raise UndefinedMetricError("acc over zero records")
    hits = sum(1 for r in records if set(r.ranked[:k]) & r.ground_truth)
    return hits / len(records)


def mrr(records: Sequence[PRRecord], k: int) -> float:
    if not records:
        raise UndefinedMetricError("mrr over zero records")
    total = 0.0
    for r in records:
        for position, dev in enumerate(r.ranked[:k], start=1):
            if dev in r.ground_truth:
                total += 1.0 / position
                break
    return total / len(records)


def rd(records: Sequence[PRRecord], k: int, n_reviewers: int) -> float:
    """Normalized entropy of top-k slot assignment over reviewers.

    The normalization base is max(n_reviewers, distinct assignees), which
    keeps the value in [0, 1] even when a recommender surfaces developers
    outside the counted reviewer pool.
    """
    if n_reviewers < 2:
        raise UndefinedMetricError(f"rd needs n_reviewers >= 2, got {n_reviewers}")
    if not records:
        raise UndefinedMetricError("rd over zero records")
    slots: dict[str, int] = {}
    for r in records:
        for dev in r.ranked[:k]:
            slots[dev] = slots.get(dev, 0) + 1
    total = sum(slots.values())
    if total == 0:
        return 0.0
    entropy = -sum(
        (c / total) * math.log2(c / total) for c in slots.values() if c > 0
    )
    return entropy / math.log2(max(n_reviewers, len(slots)))


# ---------------------------------------------------------------------------
# Comparison bench.


@dataclass(frozen=True)
class RecommenderSpec:
    label: str
    factory: Callable[[], object]  # fresh fit/recommend instance per round


@dataclass
class EvaluationReport:
    ks: list[int]
    labels: list[str]
    reference: str
    initial_months: int
    rounds: list[EvaluationRound]
    rows: list[MetricRow]
    averages: dict[str, dict[int, dict[str, float]]]
    wilcoxon: dict[str, dict[str, dict[int, WilcoxonResult]]]
    records: dict[tuple[str, int], list[PRRecord]] = field(repr=False)

    def to_csv_text(self) -> str:
        lines = ["recommender,round,k,acc,mrr,rd"]
        for row in self.rows:
            lines.append(
                f"{row.recommender},{row.round},{row.k},"
                f"{format(row.acc, '.9g')},{format(row.mrr, '.9g')},"
                f"{format(row.rd, '.9g')}"
            )
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        payload = {
            "reference": self.reference,
            "ks": self.ks,
            "initial_months": self.initial_months,
            "rounds": [
                {
                    "index": r.index,
                    "train_until": format_timestamp(r.train_cut),
                    "test_until": format_timestamp(r.test_end),
                    "test_prs": len(r.tests),
                }
                for r in self.rounds
            ],
            "averages": {
                label: {
                    str(k): {m: format(v, ".9g") for m, v in per_k.items()}
                    for k, per_k in per_label.items()
                }
                for label, per_label in self.averages.items()
            },
            "wilcoxon": {
                label: {
                    metric: {
                        str(k): {
                            "statistic": res.statistic,
                            "n": res.n,
                            "p_two_sided": format(res.p_two_sided, ".9g"),
                            "p_greater": format(res.p_greater, ".9g"),
                            "p_less": format(res.p_less, ".9g"),
                            "method": res.method,
                            "verdict": res.verdict,
                        }
                        for k, res in per_metric.items()
                    }
                    for metric, per_metric in per_label.items()
                }
                for label, per_label in self.wilcoxon.items()
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def average_table(self) -> str:
        header = f"{'recommender':<14}" + "".join(
            f"  acc@{k:<3} mrr@{k:<3} rd@{k:<4}" for k in self.ks
        )
        lines = [header]
        for label in self.labels:
            cells = []
            for k in self.ks:
                avg = self.averages[label][k]
                cells.append(
                    f"  {avg['acc']:.4f}  {avg['mrr']:.4f}  {avg['rd']:.4f}"
                )
            lines.append(f"{label:<14}" + "".join(cells))
        return "\n".join(lines)


def _evaluate_round(
    corpus: ReviewCorpus,
    round_: EvaluationRound,
    specs: Sequence[RecommenderSpec],
    max_k: int,
) -> dict[str, list[PRRecord]]:
    """Each recommender's records for one round."""
    train = corpus.slice_until(round_.train_cut)
    out: dict[str, list[PRRecord]] = {}
    for spec in specs:
        recommender = spec.factory()
        recommender.fit(train)
        out[spec.label] = [
            PRRecord(
                target=target.id,
                ground_truth=truth,
                ranked=recommender.recommend(target, max_k).ids(),
            )
            for target, truth in round_.tests
        ]
    return out


def run_comparison(
    corpus: ReviewCorpus,
    specs: Sequence[RecommenderSpec],
    ks: Sequence[int] = (1, 3, 5),
    initial_months: int = 12,
    max_rounds: int = 30,
    jobs: int = 1,
    rd_scope: str = "round",
) -> EvaluationReport:
    """Run every recommender over every round and assemble the report.

    Rounds are independent; jobs > 1 runs them in a thread pool. A single
    top-max(k) list per (recommender, test PR) serves every k: smaller lists
    are prefixes of larger ones by the recommenders' contract.
    """
    if not specs:
        raise UndefinedMetricError("at least one recommender is required")
    labels = [s.label for s in specs]
    if len(set(labels)) != len(labels):
        raise UndefinedMetricError(f"duplicate recommender labels: {labels}")
    ks = sorted(set(int(k) for k in ks))
    max_k = max(ks)
    rounds = make_rounds(corpus, initial_months=initial_months, max_rounds=max_rounds)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_evaluate_round, corpus, r, specs, max_k) for r in rounds
            ]
            per_round = [f.result() for f in futures]
    else:
        per_round = [_evaluate_round(corpus, r, specs, max_k) for r in rounds]

    global_n = len(corpus.reviewer_ids())
    rows: list[MetricRow] = []
    records: dict[tuple[str, int], list[PRRecord]] = {
        (label, r.index): per_round[i][label]
        for i, r in enumerate(rounds)
        for label in labels
    }
    per_round_values: dict[tuple[str, str, int], list[float]] = {
        (label, metric, k): []
        for label in labels
        for metric in ("acc", "mrr", "rd")
        for k in ks
    }
    for i, round_ in enumerate(rounds):
        if not round_.tests:
            continue
        n_reviewers = max(
            2, global_n if rd_scope == "global" else round_.train_reviewers
        )
        for label in labels:
            recs = per_round[i][label]
            for k in ks:
                row = MetricRow(
                    recommender=label,
                    round=round_.index,
                    k=k,
                    acc=acc(recs, k),
                    mrr=mrr(recs, k),
                    rd=rd(recs, k, n_reviewers),
                )
                rows.append(row)
                per_round_values[(label, "acc", k)].append(row.acc)
                per_round_values[(label, "mrr", k)].append(row.mrr)
                per_round_values[(label, "rd", k)].append(row.rd)

    rows.sort(key=lambda r: (labels.index(r.recommender), r.round, r.k))
    averages = {
        label: {
            k: {
                metric: (
                    sum(vals) / len(vals)
                    if (vals := per_round_values[(label, metric, k)])
                    else float("nan")
                )
                for metric in ("acc", "mrr", "rd")
            }
            for k in ks
        }
        for label in labels
    }

    reference = "hgrec" if "hgrec" in labels else labels[0]
    tests: dict[str, dict[str, dict[int, WilcoxonResult]]] = {}
    for label in labels:
        if label == reference:
            continue
        tests[label] = {}
        for metric in ("acc", "mrr", "rd"):
            tests[label][metric] = {}
            for k in ks:
                tests[label][metric][k] = wilcoxon_signed_rank(
                    per_round_values[(reference, metric, k)],
                    per_round_values[(label, metric, k)],
                )

    return EvaluationReport(
        ks=list(ks),
        labels=labels,
        reference=reference,
        initial_months=initial_months,
        rounds=rounds,
        rows=rows,
        averages=averages,
        wilcoxon=tests,
        records=records,
    )
