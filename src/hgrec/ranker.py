"""Query-seeded ranking on the hypergraph.

Edges enter the ranking only through the vertex-vertex kernel and the vertex
degrees. With H the 0/1 vertex-edge incidence, W the edge weights and De the
edge sizes (member counts),

    K  = H @ W @ De^-1 @ H.T        symmetric, nonnegative
    Dv = H @ w                      weighted vertex degree (= row sums of K)
    A  = Dv^-1 @ K                  the row-stochastic transition matrix

A zero-degree (isolated) vertex gets an all-zero row of A, which pins its
score to the query value. Scores solve (I - alpha * A) f = y. The solver
multiplies the rows of live vertices by Dv and solves the equivalent
symmetric system

    S f = b,    S = Dv - alpha * K,    b = Dv * y

with identity rows for isolated vertices. S is positive definite (Dv - K is a
hypergraph Laplacian and alpha < 1), so it is factored without pivoting in a
fill-reducing elimination order, once per base graph. A factored base keeps
S (in CSC) and its factor, not K, and every direct solve checks its residual
with one product by S, not by the factor. A query appends vertices, and
edges that each hold an appended vertex; its S differs from blockdiag(S0, I),
S0 the base's S, only on the appended vertices and the base vertices their
edges reach. That difference W is kept dense, and the query is solved by
Woodbury: one solve with the base factor, then one dense solve of the size
of W. Every fit factors, so that is the one production solve.

The fixed-point iteration f <- alpha * A @ f + y, which converges because
alpha < 1 bounds the spectral radius of alpha * A, is kept as the tests'
oracle: it reads the transition matrix of a system assembled unfactored.

scipy is imported where a system is first factored or assembled unfactored,
not with this module: only a hypergraph fit needs it, and a process that
never fits one (ingest, stats, the baselines) never loads it. No import runs
on the per-query path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, ConvergenceError, NoEdgesError, SolverError
from .hypergraph import EdgeTable, Hypergraph

if TYPE_CHECKING:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

# A direct solve must reproduce its right-hand side to this relative bound.
RESIDUAL_BOUND = 1e-10

# S is symmetric positive definite: pivot on the diagonal, keep the order.
_SPD_FACTOR = dict(diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))


@dataclass
class RankingSystem:
    # K in vertex order, duplicate entries adding up: kept by a base system
    # assembled unfactored (the iterative oracle and the lazy factor read
    # it); None on a base assembled ``ordered`` and on an update.
    kernel: sp.coo_matrix | None
    vertex_degree: np.ndarray
    alpha: float
    # S = Dv - alpha * K, identity rows at isolated vertices, in CSC, and its
    # SuperLU factor in a fill-reducing order: made when a base system is
    # assembled ``ordered``, else at its first direct solve. The residual
    # check of every direct solve multiplies by S.
    matrix: sp.csc_matrix | None = field(default=None, repr=False)
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


def _edge_terms(edges: EdgeTable, n_vertices: int):
    """Degree and (row, col, value) kernel triplets of ``edges``.

    Every ordered member pair (u, v) of an edge, u == v included, carries
    weight / size: the terms of K = H W De^-1 H^T.
    """
    sizes = np.diff(edges.offsets)
    weights = edges.weight
    members = edges.members
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

    With ``base``, a factored system, the system of an overlay ``graph`` on
    the base's graph: its appended vertices and edges. Every appended edge
    is a pair holding an appended vertex, so the appended edges change S
    only on the vertices they reach, and only that change is kept, as an
    update.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    if not len(graph.edges):
        raise NoEdgesError("hypergraph has no edges")
    if (base is None) != (graph.base is None):
        raise ValueError("an overlay needs its base's system, and only an overlay")
    if base is not None and base.factor is None:
        raise ValueError("an overlay needs a factored base system")

    n_v = graph.n_vertices
    if base is None:
        degree, rows, cols, values = _edge_terms(graph.edges, n_v)
        system = RankingSystem(None, degree, alpha)
        if ordered:
            # S and its factor are all a factored fit reads.
            system.matrix = _system_matrix(
                rows, cols, values, degree + system.isolated, alpha
            )
            _factor(system)
        else:
            import scipy.sparse as sp

            system.kernel = sp.coo_matrix((values, (rows, cols)), shape=(n_v, n_v))
            system.kernel.sum_duplicates()
        return system

    # A pair's four kernel terms (u, u), (u, v), (v, u), (v, v) are each
    # weight / 2, in ``_edge_terms``' order.
    edges = graph.edges
    if len(edges.members) != 2 * len(edges):
        raise ValueError("an overlay's edges must each hold two vertices")
    n_base = base.n_vertices
    touched = np.union1d(edges.members, np.arange(n_base, n_v))
    n_touched = len(touched)
    k = n_touched - (n_v - n_base)  # touched base vertices
    ends = np.searchsorted(touched, edges.members)
    cells = np.repeat(ends, 2) * n_touched + np.tile(ends.reshape(-1, 2), 2).ravel()
    # W = S - blockdiag(S0, I) on touched: the appended kernel terms, each
    # entry's summed in edge order, the added degree, and the identity rows
    # that vanish (base vertices the appended edges reach) or stay (isolated
    # appended vertices).
    update = np.bincount(
        cells,
        weights=np.repeat(-alpha * (edges.weight / 2), 4),
        minlength=n_touched * n_touched,
    ).reshape(n_touched, n_touched)
    added = np.bincount(ends, weights=np.repeat(edges.weight, 2), minlength=n_touched)
    degree = np.zeros(n_v)
    degree[:n_base] = base.vertex_degree
    before = np.ones(n_touched)
    before[:k] = degree[touched[:k]] <= 0.0
    degree[touched] += added
    update.reshape(-1)[:: n_touched + 1] += (
        added + (degree[touched] <= 0.0) - before
    )
    return RankingSystem(
        None, degree, alpha, base=base, touched=touched, update=update
    )


def transition_matrix(system: RankingSystem) -> sp.csr_matrix:
    """Vertex-to-vertex diffusion operator; memoized on the system."""
    if system._transition is None:
        import scipy.sparse as sp

        inv_dv = np.zeros(system.n_vertices)
        np.divide(1.0, system.vertex_degree, out=inv_dv, where=~system.isolated)
        system._transition = (sp.diags(inv_dv) @ system.kernel).tocsr()
    return system._transition


def _system_matrix(
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    diagonal: np.ndarray,
    alpha: float,
) -> sp.csc_matrix:
    """diag(diagonal) - alpha * K in CSC, K the sum of the kernel triplets,
    array for array the matrix of ``(sp.diags(diagonal) - alpha * K).tocsc()``
    with K a summed ``coo_matrix``: one stable column-major sort groups each
    entry's terms in input order, and ``np.add.reduceat`` adds them as
    ``sum_duplicates`` does. Each stored value is the diagonal term minus
    the scaled kernel entry, and entries that come to zero are not stored.
    """
    import scipy.sparse as sp

    n = len(diagonal)
    # Diagonal terms that meet no kernel entry stand alone: each joins the
    # sort as a zero kernel term, which keeps its value the diagonal's.
    alone = np.ones(n, dtype=bool)
    alone[rows[rows == cols]] = False
    alone = np.flatnonzero(alone)
    key = np.concatenate((cols.astype(np.int64) * n + rows, alone * (n + 1)))
    # Column-major, rows ascending within a column, each entry's terms in
    # input order: the key with each term's position appended is unique,
    # so the default sort orders it as a stable sort would order the key
    # (n * n * len(key) stays far below 2**63).
    order = np.argsort(key * len(key) + np.arange(len(key)))
    key = key[order]
    fresh = np.ones(len(key), dtype=bool)
    fresh[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(fresh)
    terms = np.concatenate((values, np.zeros(len(alone))))[order]
    scaled = alpha * np.add.reduceat(terms, starts)
    cols, rows = np.divmod(key[starts], n)
    values = -scaled
    on_diagonal = np.flatnonzero(rows == cols)
    values[on_diagonal] = diagonal[rows[on_diagonal]] - scaled[on_diagonal]
    kept = np.flatnonzero(values)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols[kept], minlength=n), out=indptr[1:])
    return sp.csc_matrix((values[kept], rows[kept], indptr), shape=(n, n))


def _factor(system: RankingSystem) -> spla.SuperLU:
    """Factor of S in a minimum-degree order on S + S.T, made with S from
    the system's kernel unless the system holds S; both memoized on the
    system."""
    if system.factor is None:
        import scipy.sparse.linalg as spla

        if system.matrix is None:
            kernel = system.kernel
            system.matrix = _system_matrix(
                kernel.row,
                kernel.col,
                kernel.data,
                system.vertex_degree + system.isolated,
                system.alpha,
            )
        try:
            system.factor = spla.splu(
                system.matrix, permc_spec="MMD_AT_PLUS_A", **_SPD_FACTOR
            )
        except RuntimeError as exc:  # SuperLU reports a zero pivot this way
            raise SolverError(f"direct solve failed: {exc}") from exc
    return system.factor


def _product(system: RankingSystem, x: np.ndarray) -> np.ndarray:
    """S @ x of a factored system, for an update as
    blockdiag(S0, I) @ x + U W U^T x."""
    if system.base is None:
        return system.matrix @ x
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
    # I + Z_J W with Z_J = blockdiag(the solve's touched rows, I): its base
    # rows are one product, its appended rows are W's own.
    lhs = np.empty((n_touched, n_touched))
    np.matmul(solved[touched[:k], 1:], update[:k], out=lhs[:k])
    lhs[k:] = update[k:]
    lhs.reshape(-1)[:: n_touched + 1] += 1.0
    try:
        f_touched = np.linalg.solve(lhs, g[touched])
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


def solve(system: RankingSystem, query: np.ndarray) -> np.ndarray:
    """Score vector of a query: the one production solve, ``solve_direct``."""
    return solve_direct(system, query)
