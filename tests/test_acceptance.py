"""Acceptance gate: one test per release criterion, `pytest -v` prints a
pass/fail line for each.

The oracles here are deliberately independent re-implementations (naive
loops, explicit enumeration) so they can disagree with the library if it
drifts.
"""

import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from hgrec.baselines import create_recommender
from hgrec.cli import main as cli_main
from hgrec.config import HyperParams
from hgrec.corpus import clean, parse_export
from hgrec.evaluation import (
    PRRecord,
    RecommenderSpec,
    acc,
    make_rounds,
    mrr,
    rd,
    run_comparison,
)
from hgrec.fixtures import BOT_PATTERN
from hgrec.hypergraph import (
    EdgeKind,
    path_similarity,
    weight_pr_contributor,
    weight_pr_pr,
    weight_pr_reviewer,
)
from hgrec.ranker import assemble, solve_direct, solve_iterative, transition_matrix
from hgrec.recommender import HypergraphRecommender
from hgrec.stats import wilcoxon_signed_rank

from conftest import make_graph, make_pr, random_hypergraph

FIXTURE = Path(__file__).parent / "data" / "review_history_50pr.jsonl"


@pytest.fixture(scope="module")
def graph_population():
    rng = np.random.default_rng(20240815)
    return [random_hypergraph(rng, max_vertices=200) for _ in range(100)]


@pytest.fixture(scope="module")
def fixture_corpus():
    with open(FIXTURE, "r", encoding="utf-8") as handle:
        prs = parse_export(handle)
    return clean(prs, bot_patterns=[BOT_PATTERN])


def test_criterion_1_transition_rows_stochastic(graph_population):
    started = time.monotonic()
    for graph in graph_population:
        system = assemble(graph, alpha=0.9)
        sums = np.asarray(transition_matrix(system).sum(axis=1)).ravel()
        live = ~system.isolated
        assert np.all(np.abs(sums[live] - 1.0) <= 1e-12)
        assert np.all(sums[~live] == 0.0)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"\n[criterion 1] PASS - 100 graphs row-stochastic ({elapsed:.2f}s)")


def test_criterion_2_solver_equivalence(graph_population):
    started = time.monotonic()
    rng = np.random.default_rng(7)
    for alpha in (0.5, 0.9, 0.99):
        for graph in graph_population:
            system = assemble(graph, alpha=alpha)
            query = np.zeros(system.n_vertices)
            query[int(rng.integers(system.n_vertices))] = 1.0
            direct = solve_direct(system, query)
            iterative = solve_iterative(system, query, tol=1e-10, max_iter=10000)
            assert np.max(np.abs(direct - iterative)) <= 1e-8
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(f"\n[criterion 2] PASS - direct/iterative agree ({elapsed:.2f}s)")


def test_criterion_3_closed_form_micro_oracle():
    """Checklist value for the 2-vertex instance: f* = (1.2, 0.4).

    This constant is inconsistent with criterion 1: for one edge over two
    vertices, H = [[1], [1]], both vertex degrees equal the edge weight and
    the edge degree is 2, so A = [[0.5, 0.5], [0.5, 0.5]] (row sums 1, as
    criterion 1 demands and the transition-matrix tests verify). Solving
    (I - 0.5 A) f = (1, 0) by hand: the second row gives f1 = f0 / 3, the
    first gives f0 - 0.25 (f0 + f0/3) = 1, i.e. (2/3) f0 = 1, f0 = 1.5.
    No transition matrix with 0.5 off-diagonals solves to (1.2, 0.4).
    Kept as stated and expected red; the companion test pins the value
    consistent with criterion 1.
    """
    graph = make_graph(2, [(EdgeKind.PR_CONTRIBUTOR, (0, 1), 0.5)])
    system = assemble(graph, alpha=0.5)
    scores = solve_direct(system, np.array([1.0, 0.0]))
    assert np.max(np.abs(scores - np.array([1.2, 0.4]))) <= 1e-12
    print("\n[criterion 3] PASS - micro oracle (1.2, 0.4)")


def test_criterion_3_companion_row_stochastic_value():
    graph = make_graph(2, [(EdgeKind.PR_CONTRIBUTOR, (0, 1), 0.5)])
    system = assemble(graph, alpha=0.5)
    scores = solve_direct(system, np.array([1.0, 0.0]))
    assert np.max(np.abs(scores - np.array([1.5, 0.5]))) <= 1e-12
    print("\n[criterion 3*] PASS - micro oracle consistent with criterion 1")


# ---------------------------------------------------------------------------
# Criterion 4: naive re-implementations of the weight formulas.


def naive_reviewer_weight(comments, reviewers, decay, t_start, t_end):
    span = t_end - t_start
    result = 0.0
    for person in sorted(reviewers):
        own = [t for a, t in comments if a == person]
        own.sort()
        for j, stamp in enumerate(own):
            factor = 1.0
            for _ in range(j):
                factor *= decay
            result += factor * math.exp((stamp - t_end) / span)
    return result


def naive_contributor_weight(created, t_start, t_end):
    return (created - t_start) / (t_end - t_start)


def naive_similarity(a, b):
    pa, pb = a.split("/"), b.split("/")
    shared = 0
    for x, y in zip(pa, pb):
        if x != y:
            break
        shared += 1
    return shared / max(len(pa), len(pb))


def naive_pr_pr_weight(files1, t1, files2, t2, t_start, t_end):
    total = 0.0
    for a in files1:
        for b in files2:
            total += naive_similarity(a, b)
    total /= len(files1) * len(files2)
    return total * math.exp(-abs(t1 - t2) / (t_end - t_start))


def random_paths(rng, count):
    parts = ["src", "lib", "net", "core", "a", "bb", "x.c", "y.h", "z.md"]
    return sorted(
        {
            "/".join(rng.choice(parts) for _ in range(rng.randint(1, 5)))
            for _ in range(count)
        }
    )


def test_criterion_4_weight_formula_oracles():
    rng = random.Random(404)
    t_start, t_end = 1_000_000, 2_000_000
    started = time.monotonic()

    for _ in range(1000):
        people = [f"r{i}" for i in range(rng.randint(1, 4))]
        comments = [
            (rng.choice(people), rng.randint(t_start, t_end))
            for _ in range(rng.randint(1, 8))
        ]
        decay = rng.uniform(0.1, 1.0)
        pr = make_pr("p", "author", t_start, ["f"], comments=comments)
        got = weight_pr_reviewer(pr, frozenset(people), decay, t_start, t_end)
        want = naive_reviewer_weight(comments, people, decay, t_start, t_end)
        assert abs(got - want) <= 1e-12

    for _ in range(1000):
        created = rng.randint(t_start, t_end)
        pr = make_pr("p", "author", created, ["f"])
        got = weight_pr_contributor(pr, t_start, t_end)
        assert abs(got - naive_contributor_weight(created, t_start, t_end)) <= 1e-12

    for _ in range(1000):
        a = random_paths(rng, 1)[0]
        b = random_paths(rng, 1)[0]
        assert abs(path_similarity(a, b) - naive_similarity(a, b)) <= 1e-12

    for _ in range(1000):
        files1 = random_paths(rng, rng.randint(1, 4))
        files2 = random_paths(rng, rng.randint(1, 4))
        t1 = rng.randint(t_start, t_end)
        t2 = rng.randint(t_start, t_end)
        p1 = make_pr("p1", "a", t1, files1)
        p2 = make_pr("p2", "b", t2, files2)
        got = weight_pr_pr(p1, p2, t_start, t_end)
        want = naive_pr_pr_weight(
            sorted(set(files1)), t1, sorted(set(files2)), t2, t_start, t_end
        )
        assert abs(got - want) <= 1e-12

    print(
        "\n[criterion 4] PASS - 4x1000 random inputs vs naive oracles "
        f"({time.monotonic() - started:.2f}s)"
    )


def test_criterion_5_metric_identities():
    rng = random.Random(55)
    pool = [f"dev{i}" for i in range(12)]
    for _ in range(500):
        records = []
        for i in range(rng.randint(1, 12)):
            truth = frozenset(rng.sample(pool, rng.randint(0, 3)))
            ranked = rng.sample(pool, rng.randint(0, 8))
            records.append(PRRecord(f"p{i}", truth, ranked))
        accs = [acc(records, k) for k in (1, 3, 5)]
        assert accs == sorted(accs)
        for k in (1, 3, 5):
            assert mrr(records, k) <= acc(records, k) + 1e-15
            value = rd(records, k, n_reviewers=len(pool))
            assert -1e-15 <= value <= 1.0 + 1e-15

    n = 10
    uniform = [PRRecord(f"p{i}", frozenset(), [f"dev{i % n}"]) for i in range(n)]
    assert abs(rd(uniform, 1, n_reviewers=n) - 1.0) <= 1e-12
    degenerate = [PRRecord(f"p{i}", frozenset(), ["dev0"]) for i in range(n)]
    assert abs(rd(degenerate, 1, n_reviewers=n) - 0.0) <= 1e-12
    print("\n[criterion 5] PASS - metric identities on 500 record sets")


def test_criterion_6_wilcoxon_exactness():
    started = time.monotonic()
    rng = np.random.default_rng(66)
    samples = 0
    for n in range(1, 13):
        for _ in range(17):
            samples += 1
            x = rng.normal(size=n)
            y = x - rng.normal(size=n)  # differences = x - y
            result = wilcoxon_signed_rank(x, y)
            diffs = (x - y)[(x - y) != 0.0]
            if len(diffs) == 0:
                assert result.p_two_sided == 1.0
                continue
            magnitudes = np.abs(diffs)
            order = np.argsort(magnitudes, kind="stable")
            ranks = np.empty(len(diffs))
            i = 0
            while i < len(diffs):
                j = i
                while (
                    j + 1 < len(diffs)
                    and magnitudes[order[j + 1]] == magnitudes[order[i]]
                ):
                    j += 1
                ranks[order[i: j + 1]] = (i + j) / 2.0 + 1.0
                i = j + 1
            observed = ranks[diffs > 0].sum()
            m = len(diffs)
            patterns = ((np.arange(2**m)[:, None] >> np.arange(m)) & 1).astype(
                float
            )
            w_plus = patterns @ ranks
            assert result.p_greater == pytest.approx(
                float(np.mean(w_plus >= observed)), abs=1e-12
            )
            assert result.p_less == pytest.approx(
                float(np.mean(w_plus <= observed)), abs=1e-12
            )
    assert samples >= 200
    print(
        f"\n[criterion 6] PASS - exact p matches {samples} enumerations "
        f"({time.monotonic() - started:.2f}s)"
    )


def test_criterion_7_end_to_end_fixture(fixture_corpus):
    started = time.monotonic()
    corpus = fixture_corpus
    report = run_comparison(
        corpus,
        [RecommenderSpec("hgrec", lambda: HypergraphRecommender(HyperParams()))],
        ks=(1,),
    )
    per_round_acc = {
        row.round: row.acc for row in report.rows if row.k == 1
    }
    final_round = max(per_round_acc)
    assert per_round_acc[final_round] >= 0.8

    # analytic expectation of a uniform-random recommender at k = 1:
    # P(hit) = |truth ∩ pool| / |pool| with the same candidate pool the
    # engine ranks (developers seen in training minus the contributor)
    rounds = make_rounds(corpus)
    expected_random = []
    for round_ in rounds:
        train = corpus.slice_until(round_.train_cut)
        devs = train.contributor_ids() | train.reviewer_ids()
        per_pr = []
        for target, truth in round_.tests:
            pool = devs - {target.contributor}
            per_pr.append(len(truth & pool) / len(pool))
        expected_random.append(sum(per_pr) / len(per_pr))

    hgrec_acc = [per_round_acc[r.index] for r in rounds]
    result = wilcoxon_signed_rank(hgrec_acc, expected_random)
    assert result.verdict == "H1a"
    assert result.p_greater < 0.05

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(
        f"\n[criterion 7] PASS - final-month acc@1={per_round_acc[final_round]:.2f},"
        f" beats random (p={result.p_greater:.4f}, {elapsed:.1f}s)"
    )


def test_criterion_8_evaluate_determinism(tmp_path, capsys):
    bots = tmp_path / "bots.txt"
    bots.write_text(BOT_PATTERN + "\n")
    artifact = tmp_path / "corpus.json"
    assert cli_main(
        ["ingest", "--input", str(FIXTURE), "--output", str(artifact),
         "--bots", str(bots)]
    ) == 0
    reports = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert cli_main(
            ["evaluate", "--corpus", str(artifact), "--recommenders", "hgrec,ac",
             "--output-dir", str(out)]
        ) == 0
        reports.append((out / "report.csv").read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]
    print("\n[criterion 8] PASS - byte-identical evaluate reruns")


REAL_EXPORT = Path("real_export.jsonl")


@pytest.mark.skipif(
    not REAL_EXPORT.exists(),
    reason="optional integration: drop a real export at ./real_export.jsonl "
    "(>= 24 months, >= 2000 PRs) to enable",
)
def test_criterion_9_real_export_integration():
    with open(REAL_EXPORT, "r", encoding="utf-8") as handle:
        prs = parse_export(handle, skip_invalid=True)
    corpus = clean(prs, bot_patterns=[r"\[bot\]$", r"-bot$"])
    assert len(corpus.prs) >= 2000
    report = run_comparison(
        corpus,
        [
            RecommenderSpec("hgrec", lambda: HypergraphRecommender(HyperParams())),
            RecommenderSpec("ac-s", lambda: create_recommender("ac")),
        ],
        ks=(5,),
    )
    assert report.averages["hgrec"][5]["acc"] > report.averages["ac-s"][5]["acc"]
    print("\n[criterion 9] PASS - real export ordering holds")
