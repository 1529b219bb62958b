"""Query-seeded ranking on the hypergraph.

Edges enter the ranking only through the vertex-vertex kernel and the vertex
degrees. With H the 0/1 vertex-edge incidence, W the edge weights and De the
edge sizes (member counts),

    K  = H @ W @ De^-1 @ H.T        symmetric, nonnegative
    Dv = H @ w                      weighted vertex degree (= row sums of K)
    A  = Dv^-1 @ K                  the row-stochastic transition matrix

A zero-degree (isolated) vertex gets an all-zero row of A, which pins its
score to the query value. Scores solve (I - alpha * A) f = y. The direct
solver multiplies the rows of live vertices by Dv and solves the equivalent
symmetric system

    S f = b,    S = Dv - alpha * K,    b = Dv * y

with identity rows for isolated vertices. S is positive definite (Dv - K is a
hypergraph Laplacian and alpha < 1), so it is factored without pivoting in a
fill-reducing elimination order. That order is chosen once per base graph; a
system bordered with appended vertices eliminates them last. The iterative
solver runs the fixed-point iteration f <- alpha * A @ f + y, which converges
because alpha < 1 bounds the spectral radius of alpha * A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .config import DIRECT_SOLVER_MAX_VERTICES, HyperParams
from .errors import ConfigError, ConvergenceError, NoEdgesError, SolverError
from .hypergraph import Hypergraph

# A direct solve must reproduce its right-hand side to this relative bound.
RESIDUAL_BOUND = 1e-10

# S is symmetric positive definite: pivot on the diagonal, keep the order.
_SPD_FACTOR = dict(diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))


@dataclass
class RankingSystem:
    # K in vertex order; duplicate entries add up.
    kernel: sp.coo_matrix
    vertex_degree: np.ndarray
    alpha: float
    n_edges: int
    # Elimination order of S for the direct solve: chosen when a base system
    # is assembled ``ordered``, else on its first direct solve.
    order: np.ndarray | None = None
    _matrix: sp.csc_matrix | None = field(default=None, repr=False)
    _transition: sp.csr_matrix | None = field(default=None, repr=False)

    @property
    def n_vertices(self) -> int:
        return self.kernel.shape[0]

    @property
    def isolated(self) -> np.ndarray:
        return self.vertex_degree <= 0.0


def _edge_terms(edges, n_vertices: int):
    """Degree and (row, col, value) kernel triplets of ``edges``.

    Every ordered member pair (u, v) of an edge, u == v included, carries
    weight / size: the terms of K = H W De^-1 H^T.
    """
    sizes = np.array([len(e.members) for e in edges], dtype=np.int64)
    weights = np.array([e.weight for e in edges], dtype=np.float64)
    members = np.array([v for e in edges for v in e.members], dtype=np.int64)
    degree = np.bincount(
        members, weights=np.repeat(weights, sizes), minlength=n_vertices
    )
    # Member slot i lies in edge edge_of[i] and pairs with each of its slots.
    edge_of = np.repeat(np.arange(len(edges)), sizes)
    pairs = sizes[edge_of]
    first_slot = np.repeat(np.cumsum(sizes) - sizes, sizes)
    pair_rank = np.arange(pairs.sum()) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    rows = np.repeat(members, pairs)
    cols = members[np.repeat(first_slot, pairs) + pair_rank]
    values = np.repeat((weights / sizes)[edge_of], pairs)
    return degree, rows, cols, values


def assemble(
    graph: Hypergraph,
    alpha: float,
    base: RankingSystem | None = None,
    ordered: bool = False,
) -> RankingSystem:
    """Kernel and degrees of a built hypergraph; with ``ordered``, also its
    elimination order and ordered S (``ordered_matrix``), which every direct
    solve of the system and of its bordered extensions reads.

    With ``base``, the system of a graph that ``graph`` extends by appended
    vertices and edges. Only the appended edges are assembled; they border
    the base kernel and degrees and, when the base has one, its ordered S,
    with the appended vertices eliminated last.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    if not graph.edges:
        raise NoEdgesError("hypergraph has no edges")

    n_v = graph.n_vertices
    edges = graph.edges if base is None else graph.edges[base.n_edges:]
    degree, rows, cols, values = _edge_terms(edges, n_v)
    if base is None:
        kernel = sp.coo_matrix((values, (rows, cols)), shape=(n_v, n_v))
        kernel.sum_duplicates()
        system = RankingSystem(kernel, degree, alpha, n_edges=len(graph.edges))
        if ordered:
            ordered_matrix(system)
        return system

    n_base = base.n_vertices
    border_degree = degree.copy()
    degree[:n_base] += base.vertex_degree
    old = base.kernel
    kernel = sp.coo_matrix(
        (
            np.concatenate((old.data, values)),
            (np.concatenate((old.row, rows)), np.concatenate((old.col, cols))),
        ),
        shape=(n_v, n_v),
    )
    system = RankingSystem(kernel, degree, alpha, n_edges=len(graph.edges))
    if base._matrix is not None:
        system.order = np.concatenate((base.order, np.arange(n_base, n_v)))
        system._matrix = _border(base, system, border_degree, rows, cols, values)
    return system


def _border(
    base: RankingSystem,
    system: RankingSystem,
    border_degree: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
) -> sp.csc_matrix:
    """Ordered S of ``system`` as the ordered S of ``base`` plus the terms
    of the appended edges and vertices."""
    n_base, n_v = base.n_vertices, system.n_vertices
    position = np.empty(n_v, dtype=np.int64)
    position[system.order] = np.arange(n_v)
    # Diagonal changes: added degree, plus the identity rows that appear
    # (isolated new vertices) or vanish (base vertices the border reaches).
    touched = np.union1d(rows, np.arange(n_base, n_v))
    was_isolated = np.zeros(n_v)
    was_isolated[:n_base] = base.isolated
    diagonal = (
        border_degree[touched] + system.isolated[touched] - was_isolated[touched]
    )
    border = sp.coo_matrix(
        (
            np.concatenate((-system.alpha * values, diagonal)),
            (
                position[np.concatenate((rows, touched))],
                position[np.concatenate((cols, touched))],
            ),
        ),
        shape=(n_v, n_v),
    )
    matrix = base._matrix
    indptr = matrix.indptr
    padded = sp.csc_matrix(
        (
            matrix.data,
            matrix.indices,
            np.concatenate((indptr, np.full(n_v - n_base, indptr[-1]))),
        ),
        shape=(n_v, n_v),
    )
    return (padded + border).tocsc()


def transition_matrix(system: RankingSystem) -> sp.csr_matrix:
    """Vertex-to-vertex diffusion operator; memoized on the system."""
    if system._transition is None:
        inv_dv = np.zeros(system.n_vertices)
        np.divide(1.0, system.vertex_degree, out=inv_dv, where=~system.isolated)
        system._transition = (sp.diags(inv_dv) @ system.kernel).tocsr()
    return system._transition


def ordered_matrix(system: RankingSystem) -> sp.csc_matrix:
    """S = Dv - alpha * K, plus identity rows at isolated vertices, permuted
    into the system's elimination order; memoized on the system. Without an
    order, one is chosen by minimum degree on S + S.T."""
    if system._matrix is None:
        matrix = (
            sp.diags(system.vertex_degree + system.isolated)
            - system.alpha * system.kernel
        ).tocsc()
        if system.order is None:
            factor = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A", **_SPD_FACTOR)
            system.order = np.argsort(factor.perm_c)
        system._matrix = matrix[system.order][:, system.order].tocsc()
    return system._matrix


def solve_direct(system: RankingSystem, query: np.ndarray) -> np.ndarray:
    """Score vector via a sparse factorization of S f = b, b = Dv * query
    (query itself at isolated vertices).

    Raises SolverError unless the scores are finite and reproduce b to
    RESIDUAL_BOUND * max(1, |b|_inf) in the max norm.
    """
    query = np.asarray(query, dtype=np.float64)
    matrix = ordered_matrix(system)
    rhs = ((system.vertex_degree + system.isolated) * query)[system.order]
    try:
        factor = spla.splu(matrix, permc_spec="NATURAL", **_SPD_FACTOR)
    except RuntimeError as exc:  # SuperLU reports a zero pivot this way
        raise SolverError(f"direct solve failed: {exc}") from exc
    solution = factor.solve(rhs)
    if not np.all(np.isfinite(solution)):
        raise SolverError("direct solve produced non-finite scores")
    residual = float(np.max(np.abs(matrix @ solution - rhs), initial=0.0))
    bound = RESIDUAL_BOUND * max(1.0, float(np.max(np.abs(rhs), initial=0.0)))
    if residual > bound:
        raise SolverError(
            f"direct solve residual {residual:.3e} exceeds {bound:.3e}"
        )
    scores = np.empty_like(solution)
    scores[system.order] = solution
    return scores


def solve_iterative(
    system: RankingSystem,
    query: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 10000,
    return_info: bool = False,
):
    """Score vector via fixed-point iteration from f = query.

    Stops when the max-norm step falls below tol; the result then lies
    within tol / (1 - alpha) of the direct solution. Raises
    ConvergenceError with the last step size if max_iter is exhausted.
    """
    query = np.asarray(query, dtype=np.float64)
    transition = transition_matrix(system)
    alpha = system.alpha
    scores = query.copy()
    step = np.inf
    for iteration in range(1, max_iter + 1):
        updated = alpha * (transition @ scores) + query
        step = float(np.max(np.abs(updated - scores))) if len(scores) else 0.0
        scores = updated
        if step < tol:
            if return_info:
                return scores, {"iterations": iteration, "last_step": step}
            return scores
    raise ConvergenceError(iterations=max_iter, residual=step, tol=tol)


def uses_direct(params: HyperParams, n_vertices: int) -> bool:
    """Whether ``solve`` factors a system of this size: auto picks direct
    below the size cutoff."""
    if params.solver == "auto":
        return n_vertices <= DIRECT_SOLVER_MAX_VERTICES
    return params.solver == "direct"


def solve(system: RankingSystem, query: np.ndarray, params: HyperParams) -> np.ndarray:
    """Dispatch per params.solver."""
    if uses_direct(params, system.n_vertices):
        return solve_direct(system, query)
    return solve_iterative(system, query, tol=params.tol, max_iter=params.max_iter)
