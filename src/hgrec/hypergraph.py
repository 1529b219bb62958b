"""Weighted hypergraph model of review history.

Vertices are pull requests and developers (one vertex per developer, whatever
mix of roles they played). Three hyperedge families connect them:

  pr_reviewer     one edge per PR with reviewers: the PR plus everyone who
                  commented on it, weighted by recency- and repetition-damped
                  comment activity;
  pr_contributor  one edge per PR: the PR and its author, weighted by how
                  late in the dataset window the PR was opened;
  pr_pr           pairwise edges between PRs, weighted by mean file-path
                  similarity damped by the time gap, kept only for each PR's
                  top-m strongest partners.

Raw weights are min-max normalized per edge family.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import kernels
from .config import HyperParams
from .corpus import PullRequest, ReviewCorpus
from .errors import EmptyCorpusError


class VertexKind(Enum):
    PR = "pr"
    DEVELOPER = "developer"


class EdgeKind(Enum):
    PR_REVIEWER = "pr_reviewer"
    PR_CONTRIBUTOR = "pr_contributor"
    PR_PR = "pr_pr"


@dataclass(frozen=True)
class Vertex:
    kind: VertexKind
    ref: str
    index: int


@dataclass(frozen=True)
class Hyperedge:
    kind: EdgeKind
    members: tuple[int, ...]
    raw_weight: float
    weight: float = float("nan")


@dataclass(frozen=True)
class PRIndex:
    """Per-PR arrays of the corpus a graph was built from, in corpus order:
    the packed file sets, creation times, chronology rank (the top-m tie-break
    of ``_top_partners``) and vertex index. A graft reads them instead of
    re-deriving them from the corpus on every query."""

    pack: kernels.FilePack
    times: np.ndarray
    chronology: np.ndarray
    vertices: np.ndarray


@dataclass
class Hypergraph:
    vertices: list[Vertex]
    edges: list[Hyperedge]
    by_kind: dict[EdgeKind, list[int]]
    bounds: tuple[int, int]
    raw_range: dict[EdgeKind, tuple[float, float]]
    params: HyperParams
    vertex_ids: dict[tuple[VertexKind, str], int] = field(repr=False)
    pr_index: PRIndex | None = field(default=None, repr=False, compare=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def vertex_index(self, kind: VertexKind, ref: str) -> int | None:
        return self.vertex_ids.get((kind, ref))


# ---------------------------------------------------------------------------
# Edge-weight formulas.


def _span(t_start: int, t_end: int) -> float:
    # A single-instant corpus has zero span; every time ratio collapses to 0.
    return float(t_end - t_start) if t_end > t_start else 0.0


def weight_pr_reviewer(
    pr: PullRequest,
    reviewers: frozenset[str],
    comment_decay: float,
    t_start: int,
    t_end: int,
) -> float:
    """Aggregate reviewer activity on one PR.

    Each reviewer's comments on the PR are ordered by time; the j-th one
    (0-based) contributes comment_decay**j * exp((t_j - t_end) / span), so a
    reviewer's first comment counts fully, repeats are damped geometrically,
    and older activity decays exponentially over the dataset window.
    """
    span = _span(t_start, t_end)
    total = 0.0
    for reviewer in sorted(reviewers):
        rank = 0
        for comment in pr.comments:
            if comment.author != reviewer:
                continue
            exponent = (comment.created_at - t_end) / span if span else 0.0
            total += comment_decay**rank * math.exp(exponent)
            rank += 1
    return total


def weight_pr_contributor(pr: PullRequest, t_start: int, t_end: int) -> float:
    """Position of the PR's creation inside the dataset window, in [0, 1]."""
    span = _span(t_start, t_end)
    if not span:
        warnings.warn(
            "single-instant corpus: contributor edge weight defaults to 1.0",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1.0
    return (pr.created_at - t_start) / span


def path_similarity(f1: str, f2: str, unit: str = "components") -> float:
    """Shared-prefix fraction of two paths, in [0, 1].

    Both length and prefix are measured in path components by default
    (unit="chars" switches to characters). Equals 1 iff the token
    sequences are identical.
    """
    if not f1 or not f2:
        raise ValueError("paths must be non-empty")
    a = kernels.tokenize(f1, unit)
    b = kernels.tokenize(f2, unit)
    lcp = 0
    for x, y in zip(a, b):
        if x != y:
            break
        lcp += 1
    return lcp / max(len(a), len(b))


def weight_pr_pr(
    p1: PullRequest,
    p2: PullRequest,
    t_start: int,
    t_end: int,
    unit: str = "components",
) -> float:
    """Mean pairwise file similarity of two PRs, damped by their time gap."""
    if not p1.files or not p2.files:
        raise ValueError("both PRs need a non-empty file set")
    # fsum makes the result independent of file iteration order, so the
    # weight is exactly symmetric in its two arguments.
    total = math.fsum(
        path_similarity(f1, f2, unit) for f1 in p1.files for f2 in p2.files
    )
    span = _span(t_start, t_end)
    gap = abs(p1.created_at - p2.created_at) / span if span else 0.0
    return total / (len(p1.files) * len(p2.files)) * math.exp(-gap)


def normalize_weights(graph: Hypergraph) -> Hypergraph:
    """Min-max normalize raw weights within each edge family, in place.

    A family whose raw weights are all equal maps to 1.0 everywhere,
    preserving its connectivity instead of erasing it.
    """
    for kind, edge_ids in graph.by_kind.items():
        if not edge_ids:
            continue
        raws = [graph.edges[i].raw_weight for i in edge_ids]
        lo, hi = min(raws), max(raws)
        graph.raw_range[kind] = (lo, hi)
        for i in edge_ids:
            edge = graph.edges[i]
            scaled = (edge.raw_weight - lo) / (hi - lo) if hi > lo else 1.0
            graph.edges[i] = replace(edge, weight=scaled)
    return graph


def scale_into_range(raw: float, raw_range: tuple[float, float] | None) -> float:
    """Project a raw weight onto a family's normalization scale, clamped to
    [0, 1]. Degenerate or missing ranges map to 1.0 (same rule as above)."""
    if raw_range is None:
        return 1.0
    lo, hi = raw_range
    if hi <= lo:
        return 1.0
    return min(1.0, max(0.0, (raw - lo) / (hi - lo)))


# ---------------------------------------------------------------------------
# Construction.


def pr_pr_raw_row(
    sims: np.ndarray, times: np.ndarray, span: float, t_created: int
) -> np.ndarray:
    """Raw pr_pr weights of one (possibly external) PR created at
    ``t_created`` against the PRs created at ``times``: its kernel row
    ``sims``, damped in place by the time gaps."""
    if span:
        sims *= np.exp(-np.abs(times - t_created) / span)
    return sims


def _top_partners(
    raw: np.ndarray, order_rank: np.ndarray, top_m: int, skip: int | None = None
) -> list[int]:
    """Indices of the up-to-top_m largest positive entries of ``raw``.

    Ties are broken toward older PRs first, then lexicographic id; both are
    encoded in order_rank (smaller = older/earlier id).
    """
    candidates = np.flatnonzero(raw > 0.0)
    if skip is not None:
        candidates = candidates[candidates != skip]
    if candidates.size == 0:
        return []
    order = np.lexsort((order_rank[candidates], -raw[candidates]))
    return candidates[order[:top_m]].tolist()


def _chronology_rank(prs: list[PullRequest]) -> np.ndarray:
    order = sorted(range(len(prs)), key=lambda i: (prs[i].created_at, prs[i].id))
    rank = np.empty(len(prs), dtype=np.int64)
    for position, i in enumerate(order):
        rank[i] = position
    return rank


def build(corpus: ReviewCorpus, params: HyperParams) -> Hypergraph:
    """Construct the base hypergraph from a cleaned corpus.

    Vertices are added in corpus order (PR, then its contributor, then its
    reviewers sorted by id), so two builds from equal inputs are identical.
    """
    if not corpus.prs:
        raise EmptyCorpusError("cannot build a hypergraph from an empty corpus")

    vertices: list[Vertex] = []
    vertex_ids: dict[tuple[VertexKind, str], int] = {}

    def intern(kind: VertexKind, ref: str) -> int:
        key = (kind, ref)
        index = vertex_ids.get(key)
        if index is None:
            index = len(vertices)
            vertex_ids[key] = index
            vertices.append(Vertex(kind=kind, ref=ref, index=index))
        return index

    edges: list[Hyperedge] = []
    by_kind: dict[EdgeKind, list[int]] = {kind: [] for kind in EdgeKind}

    def add_edge(kind: EdgeKind, members: tuple[int, ...], raw: float) -> None:
        by_kind[kind].append(len(edges))
        edges.append(Hyperedge(kind=kind, members=members, raw_weight=raw))

    t_start, t_end = corpus.t_start, corpus.t_end
    for pr in corpus.prs:
        pr_v = intern(VertexKind.PR, pr.id)
        contributor_v = intern(VertexKind.DEVELOPER, pr.contributor)
        add_edge(
            EdgeKind.PR_CONTRIBUTOR,
            tuple(sorted((pr_v, contributor_v))),
            weight_pr_contributor(pr, t_start, t_end),
        )
        reviewers = pr.reviewers()
        if reviewers:
            member_ids = [intern(VertexKind.DEVELOPER, r) for r in sorted(reviewers)]
            add_edge(
                EdgeKind.PR_REVIEWER,
                tuple(sorted((pr_v, *member_ids))),
                weight_pr_reviewer(
                    pr, reviewers, params.comment_decay, t_start, t_end
                ),
            )

    # Pairwise PR links: evaluate every pair once per endpoint, keep an edge
    # when either endpoint ranks it within its own top-m, dedup to one edge
    # per unordered pair. Zero-weight pairs are never materialized. Kernel
    # rows come from the corpus's shared store; damping follows this window.
    unit = params.similarity_unit
    times = np.asarray([pr.created_at for pr in corpus.prs], dtype=np.float64)
    span = _span(t_start, t_end)
    order_rank = _chronology_rank(corpus.prs)
    pr_vertices = [vertex_ids[(VertexKind.PR, pr.id)] for pr in corpus.prs]

    pair_weights: dict[tuple[int, int], float] = {}
    for i, pr in enumerate(corpus.prs):
        raw = pr_pr_raw_row(corpus.similarity_row(i, unit), times, span, pr.created_at)
        for j in _top_partners(raw, order_rank, params.top_m, skip=i):
            pair = (i, j) if i < j else (j, i)
            pair_weights.setdefault(pair, float(raw[j]))

    for (i, j), raw_weight in sorted(pair_weights.items()):
        add_edge(
            EdgeKind.PR_PR, tuple(sorted((pr_vertices[i], pr_vertices[j]))), raw_weight
        )

    graph = Hypergraph(
        vertices=vertices,
        edges=edges,
        by_kind=by_kind,
        bounds=(t_start, t_end),
        raw_range={},
        params=params,
        vertex_ids=vertex_ids,
        pr_index=PRIndex(
            corpus.file_pack(unit), times, order_rank, np.asarray(pr_vertices)
        ),
    )
    return normalize_weights(graph)


def graph_to_dict(graph: Hypergraph) -> dict:
    """JSON-ready dump of the vertex and edge tables (bit-exact per build)."""
    return {
        "bounds": list(graph.bounds),
        "vertices": [
            {"index": v.index, "kind": v.kind.value, "ref": v.ref}
            for v in graph.vertices
        ],
        "edges": [
            {
                "kind": e.kind.value,
                "members": list(e.members),
                "raw_weight": e.raw_weight,
                "weight": e.weight,
            }
            for e in graph.edges
        ],
    }
