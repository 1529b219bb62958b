"""End-to-end recommendation: graft a target PR, seed a query, rank, filter.

A fit builds the base graph and everything every query reads: its ranking
system (kernel, degrees and, for the direct solver, the factor of S) and the
candidate developers. A recommendation never mutates that state: the target
PR (and its contributor, when new) is added to a shallow overlay copy,
connected by one contributor edge plus its top-m strongest similar-PR edges;
those appended vertices and edges update the base system, which is solved
against the base factor. The developer vertices are ranked by
``rank_developers``, the one ranking rule every recommender shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import kernels, ranker
from .config import HyperParams
from .corpus import ReviewCorpus, TargetPR
from .errors import HgrecError
from .hypergraph import (
    EdgeKind,
    Hyperedge,
    Hypergraph,
    Vertex,
    VertexKind,
    pr_pr_raw_row,
    scale_into_range,
    weight_pr_contributor,
    _span,
    _top_partners,
)


@dataclass
class Recommendation:
    target: str
    k: int
    candidates: list[tuple[str, float]]

    @property
    def short(self) -> bool:
        """True when fewer than the requested k candidates were available."""
        return len(self.candidates) < self.k

    def ids(self) -> list[str]:
        return [dev for dev, _ in self.candidates]


@dataclass(frozen=True)
class FitState:
    """Everything a query reads and none changes: the base graph, its ranking
    system with the factor of S, the developer vertices
    (ids and indices) and the corpus's historical comment counts."""

    graph: Hypergraph
    system: ranker.RankingSystem
    developer_ids: tuple[str, ...]
    developer_vertices: np.ndarray
    comment_counts: dict[str, int]


def prepare(base: Hypergraph, corpus: ReviewCorpus, params: HyperParams) -> FitState:
    """Per-fit state of a base graph built from ``corpus`` with ``params``."""
    if base.params != params:
        raise HgrecError("params differ from the ones the base graph was built with")
    if base.pr_index is None:
        raise HgrecError("base graph carries no PR index; rebuild it from a corpus")
    system = ranker.assemble(
        base, params.alpha, ordered=ranker.uses_direct(params, base.n_vertices)
    )
    developers = [v for v in base.vertices if v.kind is VertexKind.DEVELOPER]
    return FitState(
        graph=base,
        system=system,
        developer_ids=tuple(v.ref for v in developers),
        developer_vertices=np.asarray([v.index for v in developers], dtype=np.int64),
        comment_counts=corpus.comment_counts(),
    )


def graft(state: FitState, target: TargetPR) -> Hypergraph:
    """Overlay the target PR onto the base graph.

    The target always becomes a new PR vertex, appended after the base
    vertices (as does its contributor, when new), and every new edge is
    appended after the base edges. The dataset end bound is extended to the
    target's creation time when it postdates the corpus, keeping every time
    ratio in range. New edge weights are projected onto the base graph's
    per-family normalization scale so they are comparable with existing
    weights.
    """
    base = state.graph
    if not target.files:
        raise HgrecError(f"target PR {target.id!r} has no files")
    if base.vertex_index(VertexKind.PR, target.id) is not None:
        raise HgrecError(f"target id {target.id!r} is already a PR of the corpus")

    t_start = base.bounds[0]
    t_end = max(base.bounds[1], target.created_at)

    vertices = list(base.vertices)
    vertex_ids = dict(base.vertex_ids)
    edges = list(base.edges)
    by_kind = {kind: list(ids) for kind, ids in base.by_kind.items()}

    def intern(kind: VertexKind, ref: str) -> int:
        key = (kind, ref)
        index = vertex_ids.get(key)
        if index is None:
            index = len(vertices)
            vertex_ids[key] = index
            vertices.append(Vertex(kind=kind, ref=ref, index=index))
        return index

    def add_edge(kind: EdgeKind, members: tuple[int, ...], raw: float) -> None:
        weight = scale_into_range(raw, base.raw_range.get(kind))
        by_kind[kind].append(len(edges))
        edges.append(
            Hyperedge(kind=kind, members=members, raw_weight=raw, weight=weight)
        )

    pr_v = intern(VertexKind.PR, target.id)
    contributor_v = intern(VertexKind.DEVELOPER, target.contributor)
    add_edge(
        EdgeKind.PR_CONTRIBUTOR,
        tuple(sorted((pr_v, contributor_v))),
        weight_pr_contributor(target, t_start, t_end),
    )

    index = base.pr_index
    pack = index.pack
    sims = kernels.mean_similarity_row(
        *pack.pack_one(target.files), pack.tokens, pack.file_off, pack.set_off
    )
    raw = pr_pr_raw_row(sims, index.times, _span(t_start, t_end), target.created_at)
    for j in _top_partners(raw, index.chronology, base.params.top_m):
        partner_v = int(index.vertices[j])
        add_edge(
            EdgeKind.PR_PR, tuple(sorted((pr_v, partner_v))), float(raw[j])
        )

    return Hypergraph(
        vertices=vertices,
        edges=edges,
        by_kind=by_kind,
        bounds=(t_start, t_end),
        raw_range=dict(base.raw_range),
        params=base.params,
        vertex_ids=vertex_ids,
        pr_index=index,
    )


def query_vector(graph: Hypergraph, target: TargetPR) -> np.ndarray:
    """Indicator vector: 1 at the target PR and its contributor, 0 elsewhere."""
    query = np.zeros(graph.n_vertices, dtype=np.float64)
    pr_v = graph.vertex_index(VertexKind.PR, target.id)
    contributor_v = graph.vertex_index(VertexKind.DEVELOPER, target.contributor)
    if pr_v is None or contributor_v is None:
        raise HgrecError(f"target PR {target.id!r} is not grafted onto this graph")
    query[pr_v] = 1.0
    query[contributor_v] = 1.0
    return query


def rank_developers(
    scores: Iterable[tuple[str, float]],
    counts: Mapping[str, int],
    target: TargetPR,
    k: int,
) -> Recommendation:
    """The ranking rule of every recommender, over (developer, score) pairs
    with distinct developers: the target's contributor is dropped, the rest
    sorted by score, ties broken by historical comment count (more first)
    then id, and the first ``k`` kept."""
    rows = [(dev, float(score)) for dev, score in scores if dev != target.contributor]
    rows.sort(key=lambda row: (-row[1], -counts.get(row[0], 0), row[0]))
    return Recommendation(target=target.id, k=k, candidates=rows[:k])


def rank(state: FitState, target: TargetPR, k: int) -> Recommendation:
    """Algorithmic pipeline: graft, seed, update the base system and solve,
    filter and sort, truncate."""
    if k < 1:
        raise HgrecError(f"k must be >= 1, got {k}")
    params = state.graph.params
    graph = graft(state, target)
    system = ranker.assemble(graph, params.alpha, base=state.system)
    scores = ranker.solve(system, query_vector(graph, target), params)
    scored = zip(state.developer_ids, scores[state.developer_vertices])
    return rank_developers(scored, state.comment_counts, target, k)


def recommend(
    base: Hypergraph,
    corpus: ReviewCorpus,
    target: TargetPR,
    params: HyperParams,
    k: int,
) -> Recommendation:
    """One query against a base graph; fit-and-recommend in one call."""
    return rank(prepare(base, corpus, params), target, k)


class HypergraphRecommender:
    """fit/recommend wrapper caching the per-fit state of a training corpus."""

    name = "hgrec"

    def __init__(self, params: HyperParams | None = None):
        self.params = params or HyperParams()
        self._state: FitState | None = None

    def fit(self, corpus: ReviewCorpus) -> "HypergraphRecommender":
        from .hypergraph import build

        self._state = prepare(build(corpus, self.params), corpus, self.params)
        return self

    @property
    def state(self) -> FitState:
        if self._state is None:
            raise HgrecError("recommender is not fitted")
        return self._state

    @property
    def base_graph(self) -> Hypergraph:
        return self.state.graph

    def recommend(self, target: TargetPR, k: int) -> Recommendation:
        return rank(self.state, target, k)
