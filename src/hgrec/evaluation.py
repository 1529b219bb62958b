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
from dataclasses import dataclass
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
    if index >= 10000 * 12:
        raise CorpusSpanError(
            f"an evaluation round ends at {index // 12}-{index % 12 + 1:02d}-01, "
            "after 9999-12-31T23:59:59Z"
        )
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
    train_cut: int  # training uses [t_start, train_cut); tests [train_cut, test_end)
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
                test_end=test_end,
                tests=tests,
                train_reviewers=bisect.bisect_left(entries, cut),
            )
        )
    return rounds


# ---------------------------------------------------------------------------
# Metrics.


def _first_hits(records: Sequence[PRRecord]) -> list[int]:
    """Each record's 1-based position of its first true reviewer in its
    ranked list, 0 when none is listed. acc and mrr at every k read it."""
    hits = []
    for r in records:
        hit = 0
        for position, dev in enumerate(r.ranked, start=1):
            if dev in r.ground_truth:
                hit = position
                break
        hits.append(hit)
    return hits


def _acc_at(hits: Sequence[int], k: int) -> float:
    """acc at k of the records whose ``_first_hits`` are ``hits``."""
    if not hits:
        raise UndefinedMetricError("acc over zero records")
    return sum(1 for hit in hits if 0 < hit <= k) / len(hits)


def _mrr_at(hits: Sequence[int], k: int) -> float:
    """mrr at k of the records whose ``_first_hits`` are ``hits``: the
    reciprocal ranks are added in record order."""
    if not hits:
        raise UndefinedMetricError("mrr over zero records")
    total = 0.0
    for hit in hits:
        if 0 < hit <= k:
            total += 1.0 / hit
    return total / len(hits)


def acc(records: Sequence[PRRecord], k: int) -> float:
    return _acc_at(_first_hits(records), k)


def mrr(records: Sequence[PRRecord], k: int) -> float:
    return _mrr_at(_first_hits(records), k)


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
    counts = slots.values()
    total = sum(counts)
    if total == 0:
        return 0.0
    # Slots share few distinct counts: each count's term is computed once,
    # and the terms are added in slot order.
    term = {c: (c / total) * math.log2(c / total) for c in set(counts)}
    return -sum(map(term.__getitem__, counts)) / math.log2(
        max(n_reviewers, len(slots))
    )


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
    rd_scope: str = "round",
) -> EvaluationReport:
    """Run every recommender over every round and assemble the report.

    Rounds run in order on one thread, and each is scored as it finishes. A
    single top-max(k) list per (recommender, test PR) serves every k:
    smaller lists are prefixes of larger ones by the recommenders' contract.
    """
    if not specs:
        raise UndefinedMetricError("at least one recommender is required")
    labels = [s.label for s in specs]
    if len(set(labels)) != len(labels):
        raise UndefinedMetricError(f"duplicate recommender labels: {labels}")
    ks = sorted(set(int(k) for k in ks))
    max_k = max(ks)
    rounds = make_rounds(corpus, initial_months=initial_months, max_rounds=max_rounds)

    # Only the global scope counts the reviewers of the whole corpus.
    global_n = len(corpus.reviewer_ids()) if rd_scope == "global" else None
    rows: list[MetricRow] = []
    per_round_values: dict[tuple[str, str, int], list[float]] = {
        (label, metric, k): []
        for label in labels
        for metric in ("acc", "mrr", "rd")
        for k in ks
    }
    for round_ in rounds:
        # A round with no tests still fits, so that its errors surface.
        records = _evaluate_round(corpus, round_, specs, max_k)
        if not round_.tests:
            continue
        n_reviewers = max(
            2, round_.train_reviewers if global_n is None else global_n
        )
        for label in labels:
            recs = records[label]
            hits = _first_hits(recs)
            for k in ks:
                row = MetricRow(
                    recommender=label,
                    round=round_.index,
                    k=k,
                    acc=_acc_at(hits, k),
                    mrr=_mrr_at(hits, k),
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
    )
