"""Incidence assembly, transition matrix, and solver behavior."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from hgrec.errors import ConfigError, ConvergenceError, NoEdgesError, SolverError
from hgrec.hypergraph import EdgeKind
from hgrec.ranker import (
    RankingSystem,
    _factor,
    _system_matrix,
    assemble,
    solve,
    solve_direct,
    solve_iterative,
    transition_matrix,
)

from conftest import make_graph, random_hypergraph


def two_vertex_graph(weight=0.5):
    return make_graph(2, [(EdgeKind.PR_CONTRIBUTOR, (0, 1), weight)])


class TestAssemble:
    def test_single_edge_degrees(self):
        # K = H W De^-1 H^T: the edge degree 2 halves the weight everywhere;
        # S = Dv - alpha * K
        system = assemble(two_vertex_graph(0.5), alpha=0.5)
        np.testing.assert_allclose(system.vertex_degree, [0.5, 0.5])
        np.testing.assert_allclose(
            system.matrix.toarray(), np.diag([0.5, 0.5]) - 0.5 * np.full((2, 2), 0.25)
        )

    def test_vertex_degree_sums_edge_weights(self):
        graph = make_graph(
            3,
            [
                (EdgeKind.PR_CONTRIBUTOR, (0, 1), 0.2),
                (EdgeKind.PR_PR, (0, 2), 0.3),
            ],
        )
        system = assemble(graph, alpha=0.9)
        assert system.vertex_degree[0] == pytest.approx(0.5)

    def test_reviewer_edge_degree_is_member_count(self):
        graph = make_graph(4, [(EdgeKind.PR_REVIEWER, (0, 1, 2, 3), 1.0)])
        system = assemble(graph, alpha=0.9)
        np.testing.assert_allclose(
            system.matrix.toarray(), np.eye(4) - 0.9 * np.full((4, 4), 0.25)
        )

    def test_no_edges_rejected(self):
        with pytest.raises(NoEdgesError):
            assemble(make_graph(2, []), alpha=0.5)

    def test_alpha_bounds_validated(self):
        for alpha in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                assemble(two_vertex_graph(), alpha=alpha)


class TestTransitionMatrix:
    def test_two_vertex_single_edge(self):
        # Hand expansion: H = [[1], [1]], w arbitrary, edge degree 2,
        # both vertex degrees w, so every entry is 1/2.
        system = assemble(two_vertex_graph(0.7), alpha=0.5)
        matrix = transition_matrix(system).toarray()
        assert matrix[0][1] == pytest.approx(0.5, abs=1e-15)
        assert matrix[1][0] == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(matrix.sum(axis=1), [1.0, 1.0], atol=1e-15)

    def test_isolated_vertex_zero_row(self):
        graph = make_graph(
            3, [(EdgeKind.PR_CONTRIBUTOR, (0, 1), 0.5)]
        )
        system = assemble(graph, alpha=0.5)
        assert system.isolated.tolist() == [False, False, True]
        matrix = transition_matrix(system).toarray()
        np.testing.assert_array_equal(matrix[2], 0.0)

    def test_zero_weight_edge_isolates(self):
        graph = make_graph(
            3,
            [
                (EdgeKind.PR_CONTRIBUTOR, (0, 1), 0.5),
                (EdgeKind.PR_PR, (1, 2), 0.0),
            ],
        )
        system = assemble(graph, alpha=0.5)
        assert system.isolated.tolist() == [False, False, True]

    def test_random_rows_stochastic(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            system = assemble(random_hypergraph(rng, max_vertices=60), alpha=0.9)
            sums = np.asarray(transition_matrix(system).sum(axis=1)).ravel()
            live = ~system.isolated
            np.testing.assert_allclose(sums[live], 1.0, atol=1e-12)
            np.testing.assert_allclose(sums[~live], 0.0, atol=0)

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        system = assemble(random_hypergraph(rng, max_vertices=50), alpha=0.9)
        assert transition_matrix(system).min() >= 0.0


class TestSolveDirect:
    def test_disconnected_query_is_identity(self):
        # the queried vertex is isolated: its row of the transition is zero
        graph = make_graph(
            3, [(EdgeKind.PR_CONTRIBUTOR, (0, 1), 0.5)]
        )
        system = assemble(graph, alpha=0.9)
        query = np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(solve_direct(system, query), query, atol=1e-14)

    def test_two_vertex_closed_form(self):
        # (I - 0.5 A) f = (1, 0) with A = [[.5, .5], [.5, .5]]:
        # f0 - .25 (f0 + f1) = 1 and f1 = f0 / 3, hence f = (1.5, 0.5).
        system = assemble(two_vertex_graph(), alpha=0.5)
        scores = solve_direct(system, np.array([1.0, 0.0]))
        np.testing.assert_allclose(scores, [1.5, 0.5], atol=1e-12)

    def test_residual_reproduces_query(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            system = assemble(random_hypergraph(rng, max_vertices=80), alpha=0.9)
            n = system.n_vertices
            query = (rng.random(n) < 0.2).astype(float)
            scores = solve_direct(system, query)
            matrix = transition_matrix(system)
            residual = scores - 0.9 * (matrix @ scores) - query
            assert np.max(np.abs(residual)) < 1e-9

    def test_nonnegative_scores(self):
        rng = np.random.default_rng(5)
        system = assemble(random_hypergraph(rng, max_vertices=80), alpha=0.9)
        query = np.zeros(system.n_vertices)
        query[0] = 1.0
        assert solve_direct(system, query).min() >= 0.0

    def test_scale_covariance(self):
        system = assemble(two_vertex_graph(), alpha=0.9)
        base = solve_direct(system, np.array([1.0, 0.0]))
        scaled = solve_direct(system, np.array([7.0, 0.0]))
        np.testing.assert_allclose(scaled, 7.0 * base, rtol=1e-12)
        assert np.argsort(scaled).tolist() == np.argsort(base).tolist()

    def test_symmetric_query_symmetry(self):
        # vertices 1 and 2 are swappable by an automorphism fixing the query
        graph = make_graph(
            3,
            [
                (EdgeKind.PR_CONTRIBUTOR, (0, 1), 0.4),
                (EdgeKind.PR_CONTRIBUTOR, (0, 2), 0.4),
            ],
        )
        system = assemble(graph, alpha=0.9)
        scores = solve_direct(system, np.array([1.0, 0.0, 0.0]))
        assert scores[1] == pytest.approx(scores[2], abs=1e-14)

    def test_residual_postcondition_rejects_corrupted_system(self):
        # A negative kernel makes S indefinite with near-zero pivots; the
        # unpivoted factorization then loses every digit of the solution.
        n = 3
        kernel = sp.coo_matrix(-(np.ones((n, n)) - np.eye(n)) / 0.9)
        matrix = _system_matrix(
            kernel.row, kernel.col, kernel.data, np.full(n, 1e-16), 0.9
        )
        system = RankingSystem(
            np.full(n, 1e-16), alpha=0.9, matrix=matrix, factor=_factor(matrix)
        )
        with pytest.raises(SolverError, match="residual"):
            solve_direct(system, np.array([1e16, 2e16, 3e16]))

    def test_singular_update_rejected(self):
        # S0 = I (one isolated vertex); W = -1 makes the updated S zero
        none = np.zeros(0, dtype=np.int64)
        matrix = _system_matrix(none, none, np.zeros(0), np.ones(1), 0.9)
        base = RankingSystem(
            np.zeros(1), alpha=0.9, matrix=matrix, factor=_factor(matrix)
        )
        update = RankingSystem(
            np.zeros(1), alpha=0.9, base=base,
            touched=np.array([0]), update=np.array([[-1.0]]),
        )
        with pytest.raises(SolverError, match="failed"):
            solve_direct(update, np.ones(1))

    def test_non_finite_scores_rejected(self):
        system = assemble(two_vertex_graph(), alpha=0.5)
        system.vertex_degree[0] = np.inf
        with pytest.raises(SolverError):
            solve_direct(system, np.array([1.0, 0.0]))


class TestSolveIterative:
    def test_isolated_query_converges_first_iteration(self):
        graph = make_graph(3, [(EdgeKind.PR_CONTRIBUTOR, (0, 1), 0.5)])
        system = assemble(graph, alpha=0.9)
        query = np.array([0.0, 0.0, 1.0])
        scores, info = solve_iterative(system, query, return_info=True)
        np.testing.assert_allclose(scores, query)
        assert info["iterations"] == 1

    def test_matches_direct(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            system = assemble(random_hypergraph(rng, max_vertices=80), alpha=0.9)
            query = np.zeros(system.n_vertices)
            query[int(rng.integers(system.n_vertices))] = 1.0
            direct = solve_direct(system, query)
            iterative = solve_iterative(system, query, tol=1e-10)
            assert np.max(np.abs(direct - iterative)) < 1e-8

    def test_iteration_count_bound(self):
        # geometric contraction: steps shrink by alpha per iteration
        alpha, tol = 0.9, 1e-12
        system = assemble(two_vertex_graph(), alpha=alpha)
        _, info = solve_iterative(
            system, np.array([1.0, 0.0]), tol=tol, return_info=True
        )
        bound = math.ceil(math.log(tol * (1 - alpha)) / math.log(alpha)) + 1
        assert info["iterations"] <= bound

    def test_nonconvergence_reports_residual(self):
        system = assemble(two_vertex_graph(), alpha=0.9)
        with pytest.raises(ConvergenceError) as err:
            solve_iterative(system, np.array([1.0, 0.0]), tol=1e-12, max_iter=3)
        assert err.value.iterations == 3
        assert err.value.residual > 0


class TestSolve:
    """``solve``, the one production entry point, on systems factored in a
    fill-reducing order at assembly, as a fit's are."""

    def test_ordered_two_vertex_closed_form(self):
        system = assemble(two_vertex_graph(), alpha=0.5)
        assert system.factor is not None
        np.testing.assert_allclose(
            solve(system, np.array([1.0, 0.0])), [1.5, 0.5], atol=1e-12
        )

    def test_matches_iterative_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            graph = random_hypergraph(rng, max_vertices=80)
            query = np.zeros(graph.n_vertices)
            query[int(rng.integers(graph.n_vertices))] = 1.0
            system = assemble(graph, alpha=0.9)
            scores = solve(system, query)
            oracle = solve_iterative(system, query, tol=1e-12)
            assert np.max(np.abs(scores - oracle)) < 1e-9
