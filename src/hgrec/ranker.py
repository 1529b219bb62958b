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
fill-reducing elimination order, once per base graph. A query appends
vertices, and edges that each hold an appended vertex; its S differs from
blockdiag(S0, I), S0 the base's S, only on the appended vertices and the base
vertices their edges reach. That difference W is kept dense, and the query
is solved by Woodbury: one solve with the base factor, then one dense solve
of the size of W. The iterative solver runs the fixed-point iteration
f <- alpha * A @ f + y, which converges because alpha < 1 bounds the
spectral radius of alpha * A.
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
    # K in vertex order, duplicate entries adding up; None on an update.
    kernel: sp.coo_matrix | None
    vertex_degree: np.ndarray
    alpha: float
    n_edges: int
    # SuperLU factor of S in a fill-reducing order: made when a base system
    # is assembled ``ordered``, else at its first direct solve.
    factor: spla.SuperLU | None = field(default=None, repr=False)
    # An update of a factored base: S = blockdiag(S0, I) + U W U^T, with S0
    # the base's S, U the identity's columns ``touched`` (base vertices the
    # appended edges reach, then the appended vertices) and W ``update``.
    base: RankingSystem | None = field(default=None, repr=False)
    touched: np.ndarray | None = None
    update: np.ndarray | None = field(default=None, repr=False)
    _transition: sp.csr_matrix | None = field(default=None, repr=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_degree)

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
    """Kernel and degrees of a built hypergraph; with ``ordered``, also the
    factor of its S in a fill-reducing order, which every direct solve of
    the system and of its updates reads.

    With ``base``, the system of a graph that ``graph`` extends by appended
    vertices and edges. Every appended edge holds an appended vertex, so the
    appended edges change S only on the vertices they reach. On a factored
    base only that change is kept, as an update; otherwise the appended
    edges border the base kernel and degrees.
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
            _factor(system)
        return system

    n_base = base.n_vertices
    added = degree.copy()
    degree[:n_base] += base.vertex_degree
    if base.factor is None:
        old = base.kernel
        kernel = sp.coo_matrix(
            (
                np.concatenate((old.data, values)),
                (np.concatenate((old.row, rows)), np.concatenate((old.col, cols))),
            ),
            shape=(n_v, n_v),
        )
        return RankingSystem(kernel, degree, alpha, n_edges=len(graph.edges))

    touched = np.union1d(rows, np.arange(n_base, n_v))
    # W = S - blockdiag(S0, I) on touched: the appended kernel terms, the
    # added degree, and the identity rows that vanish (base vertices the
    # appended edges reach) or stay (isolated appended vertices).
    before = np.ones(n_v)
    before[:n_base] = base.isolated
    update = np.zeros((len(touched), len(touched)))
    np.add.at(
        update,
        (np.searchsorted(touched, rows), np.searchsorted(touched, cols)),
        -alpha * values,
    )
    update[np.diag_indices_from(update)] += (
        added[touched] + (degree[touched] <= 0.0) - before[touched]
    )
    return RankingSystem(
        None, degree, alpha, n_edges=len(graph.edges),
        base=base, touched=touched, update=update,
    )


def transition_matrix(system: RankingSystem) -> sp.csr_matrix:
    """Vertex-to-vertex diffusion operator; memoized on the system."""
    if system._transition is None:
        inv_dv = np.zeros(system.n_vertices)
        np.divide(1.0, system.vertex_degree, out=inv_dv, where=~system.isolated)
        system._transition = (sp.diags(inv_dv) @ system.kernel).tocsr()
    return system._transition


def _factor(system: RankingSystem) -> spla.SuperLU:
    """Factor of S = Dv - alpha * K, plus identity rows at isolated
    vertices, in a minimum-degree order on S + S.T; memoized on the
    system."""
    if system.factor is None:
        matrix = (
            sp.diags(system.vertex_degree + system.isolated)
            - system.alpha * system.kernel
        ).tocsc()
        try:
            system.factor = spla.splu(
                matrix, permc_spec="MMD_AT_PLUS_A", **_SPD_FACTOR
            )
        except RuntimeError as exc:  # SuperLU reports a zero pivot this way
            raise SolverError(f"direct solve failed: {exc}") from exc
    return system.factor


def _product(system: RankingSystem, x: np.ndarray) -> np.ndarray:
    """S @ x, for an update as blockdiag(S0, I) @ x + U W U^T x."""
    if system.base is None:
        return (system.vertex_degree + system.isolated) * x - system.alpha * (
            system.kernel @ x
        )
    n_base = system.base.n_vertices
    out = np.concatenate((_product(system.base, x[:n_base]), x[n_base:]))
    out[system.touched] += system.update @ x[system.touched]
    return out


def _solve_update(system: RankingSystem, rhs: np.ndarray) -> np.ndarray:
    """Solve an update by Woodbury: with S~ = blockdiag(S0, I) and
    Z = S~^-1 U, f = g - Z W f_J where g = S~^-1 b and (I + Z_J W) f_J = g_J.

    One solve with the base factor takes b and the touched base columns
    of U as right-hand sides; the rest is dense and of size |touched|.
    """
    base, touched, update = system.base, system.touched, system.update
    n_base = base.n_vertices
    n_touched = len(touched)
    k = int(np.searchsorted(touched, n_base))  # touched base vertices
    columns = np.zeros((n_base, k + 1))
    columns[:, 0] = rhs[:n_base]
    columns[touched[:k], np.arange(1, k + 1)] = 1.0
    solved = base.factor.solve(columns)
    g = np.concatenate((solved[:, 0], rhs[n_base:]))
    z = np.eye(n_touched)
    z[:k, :k] = solved[touched[:k], 1:]
    try:
        f_touched = np.linalg.solve(np.eye(n_touched) + z @ update, g[touched])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"direct solve failed: {exc}") from exc
    correction = update @ f_touched
    g[:n_base] -= solved[:, 1:] @ correction[:k]
    g[n_base:] -= correction[k:]
    return g


def solve_direct(system: RankingSystem, query: np.ndarray) -> np.ndarray:
    """Score vector of S f = b, b = Dv * query (query itself at isolated
    vertices): with the system's sparse factor, or, for an update, with
    its base's factor.

    Raises SolverError unless the scores are finite and reproduce b to
    RESIDUAL_BOUND * max(1, |b|_inf) in the max norm.
    """
    query = np.asarray(query, dtype=np.float64)
    rhs = (system.vertex_degree + system.isolated) * query
    if system.base is None:
        scores = _factor(system).solve(rhs)
    else:
        scores = _solve_update(system, rhs)
    if not np.all(np.isfinite(scores)):
        raise SolverError("direct solve produced non-finite scores")
    residual = float(np.max(np.abs(_product(system, scores) - rhs), initial=0.0))
    bound = RESIDUAL_BOUND * max(1.0, float(np.max(np.abs(rhs), initial=0.0)))
    if residual > bound:
        raise SolverError(
            f"direct solve residual {residual:.3e} exceeds {bound:.3e}"
        )
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
    """Dispatch per params.solver; an update is solved against its base's
    factor whatever its own size."""
    if system.base is not None or uses_direct(params, system.n_vertices):
        return solve_direct(system, query)
    return solve_iterative(system, query, tol=params.tol, max_iter=params.max_iter)
