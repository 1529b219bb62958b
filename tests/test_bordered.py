"""The bordered per-query solve against a from-scratch oracle.

A query updates the per-fit ranking system with the grafted vertices and
edges and solves against the base factor. The oracle builds the transition
matrix of the grafted graph from its edge list alone and solves
(I - alpha * A) f = y with spsolve.
"""

import copy
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hgrec import ranker
from hgrec.config import HyperParams
from hgrec.hypergraph import VertexKind, build
from hgrec.recommender import TargetPR, graft, prepare, query_vector, rank

from conftest import DAY, make_corpus, make_pr

T0 = 1_600_000_000
AREAS = ("src/net", "src/db", "src/ui", "docs")
DEVS = tuple(f"dev{i}" for i in range(8))
BOT = "ci[bot]"


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


def oracle_scores(graph, target, alpha):
    """Solve (I - alpha * A) f = y with A assembled from the edge list."""
    n = graph.n_vertices
    incidence = np.zeros((n, len(graph.edges)))
    for e, edge in enumerate(graph.edges):
        incidence[list(edge.members), e] = 1.0
    weights = np.array([edge.weight for edge in graph.edges])
    sizes = incidence.sum(axis=0)
    degree = incidence @ weights
    inv = np.divide(1.0, degree, out=np.zeros(n), where=degree > 0)
    transition = inv[:, None] * (incidence * (weights / sizes)) @ incidence.T
    matrix = sp.csc_matrix(np.eye(n) - alpha * transition)
    return spla.spsolve(matrix, query_vector(graph, target))


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
    reached = {v for edge in graph.edges[len(base.edges):] for v in edge.members}
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
    params = HyperParams(top_m=top_m, solver="direct")
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


def test_auto_solves_every_query_of_a_factored_fit_against_its_factor(monkeypatch):
    # the base sits at the size cutoff, so the fit is factored; its queries
    # exceed the cutoff and still read that factor
    corpus = random_corpus(np.random.default_rng(6))
    params = HyperParams(solver="auto")
    monkeypatch.setattr(
        ranker, "DIRECT_SOLVER_MAX_VERTICES", build(corpus, params).n_vertices
    )
    check_query(corpus, TargetPR("t", "newcomer", T0 + 40 * DAY, ("src/db/f2.c",)), params)


def test_iterative_solver_agrees_on_bordered_systems():
    corpus = random_corpus(np.random.default_rng(3))
    target = TargetPR("t", "newcomer", T0 + 200 * DAY, ("src/net/f2.c", "src/ui/f1.c"))
    direct = rank(prepare(build(corpus, HyperParams()), corpus, HyperParams()), target, 5)
    params = HyperParams(solver="iterative", tol=1e-13)
    state = prepare(build(corpus, params), corpus, params)
    assert state.system.factor is None  # no factorization is prepared
    iterative = rank(state, target, 5)
    assert iterative.ids() == direct.ids()
    np.testing.assert_allclose(
        [s for _, s in iterative.candidates], [s for _, s in direct.candidates],
        rtol=0, atol=1e-10,
    )


def test_base_system_is_ordered_at_assembly_and_rank_factors_once(monkeypatch):
    corpus = random_corpus(np.random.default_rng(4))
    params = HyperParams(solver="direct")
    graph = build(corpus, params)
    assert ranker.assemble(graph, params.alpha).factor is None
    assert ranker.assemble(graph, params.alpha, ordered=True).factor is not None
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
            system.kernel.toarray(),
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
    for old, new in zip(before[:4], after[:4]):
        np.testing.assert_array_equal(old, new)
    assert before[4] == after[4]
    assert before[5] is after[5]
