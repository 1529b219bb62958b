"""The per-query update solve against a from-scratch oracle.

A query updates the per-fit ranking system with the grafted vertices and
edges and solves against the base factor. The oracle (``oracle_scores`` in
conftest) builds the transition matrix of the grafted graph from its edge
list alone and solves (I - alpha * A) f = y with spsolve.
"""

import copy
import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hgrec import ranker
from hgrec.config import HyperParams
from hgrec.corpus import clean, parse_export
from hgrec.errors import SolverError
from hgrec.fixtures import BOT_PATTERN
from hgrec.hypergraph import EdgeKind, EdgeTable, VertexKind, build
from hgrec.recommender import TargetPR, graft, prepare, query_vector, rank

from conftest import DAY, make_corpus, make_graph, make_pr, oracle_scores

T0 = 1_600_000_000
AREAS = ("src/net", "src/db", "src/ui", "docs")
DEVS = tuple(f"dev{i}" for i in range(8))
BOT = "ci[bot]"
FIXTURE = Path(__file__).parent / "data" / "review_history_50pr.jsonl"


def random_corpus(rng, n_prs=40, single_instant=False):
    """Seeded corpus with a bot account that the cleaning step would have
    dropped, ranked like anyone else here, and one isolated PR: ``solo`` opens
    the window (contributor weight 0), has no reviewers and shares no path
    prefix with any other PR."""
    prs = [make_pr("solo", "loner", T0, ["solo/only.c"])]
    for i in range(n_prs):
        created = T0 if single_instant else T0 + int(rng.integers(1, 300)) * DAY
        area = AREAS[int(rng.integers(len(AREAS)))]
        files = [f"{area}/f{int(rng.integers(6))}.c" for _ in range(int(rng.integers(1, 4)))]
        contributor = DEVS[int(rng.integers(len(DEVS)))]
        comments = []
        for _ in range(int(rng.integers(0, 5))):
            author = BOT if rng.random() < 0.15 else DEVS[int(rng.integers(len(DEVS)))]
            at = created if single_instant else created + int(rng.integers(1, 72)) * 3600
            comments.append((author, at))
        prs.append(make_pr(f"p{i:03d}", contributor, created, files, comments))
    return make_corpus(prs)


def oracle_ranking(scores, graph, corpus, contributor):
    counts = corpus.comment_counts()
    rows = [
        (v.ref, scores[v.index])
        for v in graph.vertices
        if v.kind is VertexKind.DEVELOPER
        and v.ref != contributor
    ]
    rows.sort(key=lambda row: (-row[1], -counts.get(row[0], 0), row[0]))
    return [dev for dev, _ in rows]


def check_query(corpus, target, params=HyperParams(), k=5):
    base = build(corpus, params)
    state = prepare(base, corpus, params)
    graph = graft(state, target)
    system = ranker.assemble(graph, params.alpha, base=state.system)
    # the query updates the base factor on the grafted vertices and on the
    # base vertices their edges reach
    assert system.base is state.system
    reached = {v for edge in graph.edges for v in edge.members}
    grafted = set(range(base.n_vertices, graph.n_vertices))
    assert system.touched.tolist() == sorted(reached | grafted)

    scores = ranker.solve_direct(system, query_vector(graph, target))
    expected = oracle_scores(graph, target, params.alpha)
    np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-12)

    ranked = rank(state, target, k).ids()
    assert ranked == oracle_ranking(expected, graph, corpus, target.contributor)[:k]
    return system


@pytest.mark.parametrize("seed", range(8))
def test_new_contributor_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    corpus = random_corpus(rng)
    target = TargetPR("t", "newcomer", T0 + 150 * DAY, ("src/net/f1.c", "docs/f2.c"))
    system = check_query(corpus, target)
    assert system.n_vertices == build(corpus, HyperParams()).n_vertices + 2


@pytest.mark.parametrize("seed", range(8))
def test_returning_contributor_matches_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    corpus = random_corpus(rng)
    target = TargetPR("t", DEVS[seed % len(DEVS)], T0 + 150 * DAY, ("src/db/f3.c",))
    system = check_query(corpus, target)
    assert system.n_vertices == build(corpus, HyperParams()).n_vertices + 1


def test_isolated_vertices_keep_identity_rows_and_can_be_revived():
    corpus = random_corpus(np.random.default_rng(7))
    base = build(corpus, HyperParams())
    state = prepare(base, corpus, HyperParams())
    solo = base.vertex_index(VertexKind.PR, "solo")
    loner = base.vertex_index(VertexKind.DEVELOPER, "loner")
    assert state.system.isolated[[solo, loner]].all()
    # a target far from every other path leaves them isolated ...
    check_query(corpus, TargetPR("t", "dev1", T0 + 10 * DAY, ("src/ui/f0.c",)))
    # ... one sharing solo's directory gives solo its first positive edge,
    # and one by loner at the window start adds a zero-weight edge
    system = check_query(corpus, TargetPR("t", "dev1", T0 + 10 * DAY, ("solo/next.c",)))
    assert not system.isolated[solo]
    system = check_query(corpus, TargetPR("t", "loner", T0, ("src/ui/f0.c",)))
    assert system.isolated[loner]


def test_single_instant_corpus_matches_oracle():
    corpus = random_corpus(np.random.default_rng(11), single_instant=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        check_query(corpus, TargetPR("t", "dev2", T0, ("src/net/f0.c",)))
        check_query(corpus, TargetPR("t", "newcomer", T0, ("docs/f4.c",)))


@pytest.mark.parametrize("seed", range(4))
def test_target_after_corpus_matches_oracle(seed):
    corpus = random_corpus(np.random.default_rng(200 + seed))
    target = TargetPR("t", "dev3", corpus.t_end + 60 * DAY, ("src/ui/f2.c", "src/net/f5.c"))
    check_query(corpus, target)


@pytest.mark.parametrize("top_m", [1, 10, 100])
@pytest.mark.parametrize("seed", range(8))
def test_update_solve_matches_oracle_on_random_corpora(seed, top_m):
    """Random small corpora, some of them single-instant, and targets by new
    and returning contributors (loner among them), inside, at the start of
    and after the window, some sharing solo's directory to revive it."""
    rng = np.random.default_rng(300 + seed)
    single_instant = seed % 4 == 0
    corpus = random_corpus(rng, n_prs=int(rng.integers(3, 50)), single_instant=single_instant)
    params = HyperParams(top_m=top_m)
    for _ in range(4):
        contributor = ("newcomer", "loner", *DEVS)[int(rng.integers(len(DEVS) + 2))]
        when = (corpus.t_start, T0 + int(rng.integers(300)) * DAY, corpus.t_end + 30 * DAY)
        areas = (*AREAS, "solo")
        files = {
            f"{areas[int(rng.integers(len(areas)))]}/f{int(rng.integers(8))}.c"
            for _ in range(int(rng.integers(1, 4)))
        }
        target = TargetPR("t", contributor, when[int(rng.integers(3))], tuple(files))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            check_query(corpus, target, params)


def test_base_system_is_ordered_at_assembly_and_rank_factors_once(monkeypatch):
    corpus = random_corpus(np.random.default_rng(4))
    params = HyperParams()
    graph = build(corpus, params)
    assert ranker.assemble(graph, params.alpha).factor is not None
    factored = []
    splu = spla.splu
    monkeypatch.setattr(
        spla, "splu",
        lambda *args, **kwargs: factored.append(kwargs["permc_spec"]) or splu(*args, **kwargs),
    )
    state = prepare(graph, corpus, params)
    # prepare factors S once, in a fill-reducing order; a query factors nothing.
    assert factored == ["MMD_AT_PLUS_A"]
    assert state.system.factor is not None
    factored.clear()
    rank(state, TargetPR("t", "dev1", T0 + 90 * DAY, ("src/ui/f3.c",)), 5)
    assert factored == []


def test_repeated_queries_identical_and_leave_fit_state_unchanged():
    corpus = random_corpus(np.random.default_rng(5))
    params = HyperParams()
    state = prepare(build(corpus, params), corpus, params)

    def snapshot():
        system = state.system
        return (
            system.matrix.indptr.copy(),
            system.matrix.indices.copy(),
            system.matrix.data.copy(),
            system.vertex_degree.copy(),
            system.factor.perm_c.copy(),
            system.factor.solve(np.ones(system.n_vertices)),
            copy.deepcopy((state.graph.vertices, state.graph.edges, state.graph.by_kind)),
            state.developer_ids,
        )

    before = snapshot()
    target = TargetPR("t", "newcomer", T0 + 120 * DAY, ("src/db/f1.c",))
    first = rank(state, target, 5)
    second = rank(state, target, 5)
    assert first == second
    after = snapshot()
    for old, new in zip(before[:6], after[:6]):
        np.testing.assert_array_equal(old, new)
    assert before[6] == after[6]
    assert before[7] is after[7]


def assert_fit_matrix_is_the_sparse_chain(graph, alpha):
    """The S a factored fit keeps holds exactly the arrays of the scipy chain
    diags(Dv + isolated) - alpha * K, then to CSC, K the kernel terms in a
    summed ``coo_matrix``. Returns K and the fitted system."""
    n = graph.n_vertices
    degree, rows, cols, values = ranker._edge_terms(graph.edges, n)
    kernel = sp.coo_matrix((values, (rows, cols)), shape=(n, n))
    kernel.sum_duplicates()
    chain = (sp.diags(degree + (degree <= 0.0)) - alpha * kernel).tocsc()
    fitted = ranker.assemble(graph, alpha)
    np.testing.assert_array_equal(fitted.vertex_degree, degree)
    for ours, theirs in (
        (fitted.matrix.indptr, chain.indptr),
        (fitted.matrix.indices, chain.indices),
        (fitted.matrix.data, chain.data),
    ):
        assert np.array_equal(ours, theirs)
    return kernel, fitted


@pytest.mark.parametrize("alpha", [0.3, 0.8, 0.9])
def test_fit_matrix_is_the_sparse_chain_on_the_fixture(alpha):
    with open(FIXTURE, "r", encoding="utf-8") as handle:
        corpus = clean(parse_export(handle), bot_patterns=[BOT_PATTERN])
    assert_fit_matrix_is_the_sparse_chain(build(corpus, HyperParams()), alpha)


@pytest.mark.parametrize("seed", range(12))
def test_fit_matrix_is_the_sparse_chain_on_random_corpora(seed):
    rng = np.random.default_rng(400 + seed)
    corpus = random_corpus(
        rng, n_prs=int(rng.integers(3, 60)), single_instant=seed % 4 == 0
    )
    params = HyperParams(top_m=int(rng.integers(1, 12)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        graph = build(corpus, params)
    assert_fit_matrix_is_the_sparse_chain(graph, params.alpha)


def test_fit_matrix_drops_zero_kernel_entries_and_keeps_isolated_rows():
    # vertex 2 meets only a zero-weight edge, vertex 3 no edge at all
    graph = make_graph(
        4,
        [
            (EdgeKind.PR_CONTRIBUTOR, (0, 1), 0.5),
            (EdgeKind.PR_PR, (1, 2), 0.0),
        ],
    )
    kernel, fitted = assert_fit_matrix_is_the_sparse_chain(graph, 0.9)
    assert (kernel.data == 0.0).any()
    assert fitted.isolated.tolist() == [False, False, True, True]
    assert (fitted.matrix.data != 0.0).all()
    np.testing.assert_array_equal(fitted.matrix.diagonal()[2:], 1.0)


def test_fit_matrix_sums_a_long_run_of_terms_like_the_sparse_chain():
    """Vertex 0 lies in 11 edges, so its diagonal sums a run of 11 terms,
    which ``np.add.reduceat`` adds in unrolled blocks, not in sequence (the
    weights are drawn so that the two sums differ); vertex 13 lies in
    none."""
    rng = np.random.default_rng(4)
    edges = [
        (EdgeKind.PR_PR, (0, i), float(rng.uniform(0.05, 1.0))) for i in range(1, 11)
    ]
    edges.append((EdgeKind.PR_REVIEWER, (0, 11, 12), float(rng.uniform(0.05, 1.0))))
    graph = make_graph(14, edges)
    _, rows, cols, values = ranker._edge_terms(graph.edges, 14)
    run = values[(rows == 0) & (cols == 0)]
    in_sequence = 0.0
    for term in run:
        in_sequence += term
    assert len(run) >= 9 and in_sequence != np.add.reduceat(run, [0])[0]
    _, fitted = assert_fit_matrix_is_the_sparse_chain(graph, 0.9)
    assert fitted.isolated.tolist() == [False] * 13 + [True]
    assert fitted.matrix[13, 13] == 1.0


def test_overlay_edges_must_be_pairs():
    corpus = random_corpus(np.random.default_rng(3))
    params = HyperParams()
    state = prepare(build(corpus, params), corpus, params)
    graph = graft(state, TargetPR("t", "dev1", T0 + 90 * DAY, ("src/db/f2.c",)))
    n = graph.n_vertices
    tripled = dataclasses.replace(
        graph,
        edges=EdgeTable.of([0], [3], [0, n - 2, n - 1], [0.5], [0.5]),
    )
    with pytest.raises(ValueError, match="two vertices"):
        ranker.assemble(tripled, params.alpha, base=state.system)


def test_update_residual_check_does_not_trust_the_base_factor():
    corpus = random_corpus(np.random.default_rng(8))
    params = HyperParams()
    state = prepare(build(corpus, params), corpus, params)
    target = TargetPR("t", "dev1", T0 + 90 * DAY, ("src/db/f2.c",))
    rank(state, target, 5)  # the true factor passes the check

    # the factor of S with the contributor's diagonal entry doubled
    contributor = state.graph.vertex_index(VertexKind.DEVELOPER, "dev1")
    perturbed = state.system.matrix.copy()
    perturbed[contributor, contributor] *= 2.0
    factor = spla.splu(perturbed, permc_spec="MMD_AT_PLUS_A", **ranker._SPD_FACTOR)
    corrupted = dataclasses.replace(
        state, system=dataclasses.replace(state.system, factor=factor)
    )
    with pytest.raises(SolverError, match="residual"):
        rank(corrupted, target, 5)


@pytest.mark.parametrize("seed", range(6))
def test_update_block_sums_like_add_at(seed):
    """W of random overlays against an ``np.add.at`` oracle, bit for bit;
    every appended edge adds to its target's own (t, t) entry, so positions
    repeat."""
    rng = np.random.default_rng(500 + seed)
    corpus = random_corpus(rng, n_prs=int(rng.integers(3, 60)))
    params = HyperParams(top_m=int(rng.integers(1, 12)))
    state = prepare(build(corpus, params), corpus, params)
    base = state.system
    areas = (*AREAS, "solo")
    for _ in range(8):
        contributor = ("newcomer", "loner", *DEVS)[int(rng.integers(len(DEVS) + 2))]
        files = {
            f"{areas[int(rng.integers(len(areas)))]}/f{int(rng.integers(8))}.c"
            for _ in range(int(rng.integers(1, 4)))
        }
        when = T0 + int(rng.integers(400)) * DAY
        graph = graft(state, TargetPR("t", contributor, when, tuple(files)))
        system = ranker.assemble(graph, params.alpha, base=base)

        n_base, n = base.n_vertices, graph.n_vertices
        degree, rows, cols, values = ranker._edge_terms(graph.edges, n)
        touched = system.touched
        at = np.searchsorted(touched, rows), np.searchsorted(touched, cols)
        assert len(set(zip(*at))) < len(rows)
        oracle = np.zeros((len(touched), len(touched)))
        np.add.at(oracle, at, -params.alpha * values)
        before = np.ones(n)
        before[:n_base] = base.isolated
        total = degree.copy()
        total[:n_base] += base.vertex_degree
        oracle[np.diag_indices_from(oracle)] += (
            degree[touched] + (total[touched] <= 0.0) - before[touched]
        )
        assert np.array_equal(system.update, oracle)
