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

Raw weights are min-max normalized per edge family. A graph keeps its edges
as a few flat arrays (``EdgeTable``) and its vertices as one ref -> index map
per kind; ``Vertex`` and ``Hyperedge`` rows are made only when read.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
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


# An edge's kind is stored as its position in this tuple.
EDGE_KINDS = tuple(EdgeKind)
_CONTRIBUTOR = EDGE_KINDS.index(EdgeKind.PR_CONTRIBUTOR)
_REVIEWER = EDGE_KINDS.index(EdgeKind.PR_REVIEWER)
_PR_PR = EDGE_KINDS.index(EdgeKind.PR_PR)


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


@dataclass(frozen=True, eq=False)
class EdgeTable:
    """Every edge of a graph as flat arrays, in edge order: edge ``e`` has
    kind ``EDGE_KINDS[kind[e]]``, the ascending vertex ids
    ``members[offsets[e]:offsets[e + 1]]``, a raw weight and a normalized
    weight (NaN until ``normalize_weights``). Two tables are equal when
    their arrays are."""

    kind: np.ndarray
    offsets: np.ndarray
    members: np.ndarray
    raw: np.ndarray
    weight: np.ndarray

    @classmethod
    def of(cls, kind, sizes, members, raw, weight=None) -> "EdgeTable":
        """Table of edges given by kind codes, member counts, every edge's
        members concatenated, and raw (and, if known, normalized) weights."""
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        raw = np.asarray(raw, dtype=np.float64)
        return cls(
            kind=np.asarray(kind, dtype=np.int8),
            offsets=offsets,
            members=np.asarray(members, dtype=np.int64),
            raw=raw,
            weight=(
                np.full(len(raw), np.nan)
                if weight is None
                else np.asarray(weight, dtype=np.float64)
            ),
        )

    def __len__(self) -> int:
        return len(self.kind)

    def __getitem__(self, e: int) -> Hyperedge:
        return Hyperedge(
            kind=EDGE_KINDS[self.kind[e]],
            members=tuple(self.members[self.offsets[e] : self.offsets[e + 1]].tolist()),
            raw_weight=float(self.raw[e]),
            weight=float(self.weight[e]),
        )

    def __iter__(self):
        return (self[e] for e in range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeTable):
            return NotImplemented
        return all(
            np.array_equal(a, b, equal_nan=True)
            for a, b in (
                (self.kind, other.kind),
                (self.offsets, other.offsets),
                (self.members, other.members),
                (self.raw, other.raw),
                (self.weight, other.weight),
            )
        )


    def ids(self, kind: EdgeKind) -> np.ndarray:
        """Positions of the edges of one family, ascending."""
        return np.flatnonzero(self.kind == EDGE_KINDS.index(kind))


@dataclass(frozen=True)
class PRIndex:
    """Per-PR arrays of the corpus a graph was built from, in corpus order:
    the packed file sets, creation times, chronology rank (the top-m
    tie-break of ``_top_entries``) and vertex index. A graft reads them
    instead of re-deriving them from the corpus on every query."""

    pack: kernels.FilePack
    times: np.ndarray
    chronology: np.ndarray
    vertices: np.ndarray


@dataclass
class Hypergraph:
    """Vertices are interned per kind: ``prs`` and ``developers`` map a ref
    to its vertex index, in index order.

    An overlay (``base`` set) holds only what it appends to its base graph:
    its vertices are numbered after the base's, and its edges, which
    ``edges`` and ``by_kind`` index from 0, follow the base's."""

    prs: dict[str, int]
    developers: dict[str, int]
    edges: EdgeTable
    bounds: tuple[int, int]
    raw_range: dict[EdgeKind, tuple[float, float]]
    params: HyperParams
    pr_index: PRIndex | None = field(default=None, repr=False, compare=False)
    base: "Hypergraph | None" = field(default=None, repr=False, compare=False)

    @property
    def n_vertices(self) -> int:
        own = len(self.prs) + len(self.developers)
        return own if self.base is None else self.base.n_vertices + own

    def vertex_index(self, kind: VertexKind, ref: str) -> int | None:
        index = (self.prs if kind is VertexKind.PR else self.developers).get(ref)
        if index is None and self.base is not None:
            return self.base.vertex_index(kind, ref)
        return index

    @property
    def vertices(self) -> list[Vertex]:
        """The vertex table in index order, the base's first."""
        own = [Vertex(VertexKind.PR, ref, i) for ref, i in self.prs.items()]
        own += [
            Vertex(VertexKind.DEVELOPER, ref, i) for ref, i in self.developers.items()
        ]
        own.sort(key=lambda v: v.index)
        return own if self.base is None else self.base.vertices + own

    @property
    def by_kind(self) -> dict[EdgeKind, list[int]]:
        """Edge ids of each family, ascending."""
        return {kind: self.edges.ids(kind).tolist() for kind in EdgeKind}


# ---------------------------------------------------------------------------
# Edge-weight formulas.


def _span(t_start: int, t_end: int) -> float:
    # A single-instant corpus has zero span; every time ratio collapses to 0.
    return float(t_end - t_start) if t_end > t_start else 0.0


def weight_pr_reviewer(
    pr: PullRequest,
    reviewers: AbstractSet[str],
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
    # One walk over the comments; the terms are then added reviewer by
    # reviewer (sorted), each reviewer's in comment order.
    terms: dict[str, list[float]] = {}
    for comment in pr.comments:
        if comment.author in reviewers:
            seen = terms.setdefault(comment.author, [])
            exponent = (comment.created_at - t_end) / span if span else 0.0
            seen.append(comment_decay ** len(seen) * math.exp(exponent))
    total = 0.0
    for reviewer in sorted(terms):
        for term in terms[reviewer]:
            total += term
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


def path_similarity(f1: str, f2: str) -> float:
    """Shared-prefix fraction of two paths, in [0, 1].

    Both length and prefix are measured in ``/``-separated path components.
    Equals 1 iff the component sequences are identical.
    """
    if not f1 or not f2:
        raise ValueError("paths must be non-empty")
    a, b = f1.split("/"), f2.split("/")
    lcp = 0
    for x, y in zip(a, b):
        if x != y:
            break
        lcp += 1
    return lcp / max(len(a), len(b))


def weight_pr_pr(p1: PullRequest, p2: PullRequest, t_start: int, t_end: int) -> float:
    """Mean pairwise file similarity of two PRs, damped by their time gap."""
    if not p1.files or not p2.files:
        raise ValueError("both PRs need a non-empty file set")
    # fsum makes the result independent of file iteration order, so the
    # weight is exactly symmetric in its two arguments.
    total = math.fsum(path_similarity(f1, f2) for f1 in p1.files for f2 in p2.files)
    span = _span(t_start, t_end)
    gap = abs(p1.created_at - p2.created_at) / span if span else 0.0
    return total / (len(p1.files) * len(p2.files)) * math.exp(-gap)


def normalize_weights(graph: Hypergraph) -> Hypergraph:
    """Min-max normalize raw weights within each edge family, in place.

    A family whose raw weights are all equal maps to 1.0 everywhere,
    preserving its connectivity instead of erasing it.
    """
    edges = graph.edges
    for kind in EdgeKind:
        ids = edges.ids(kind)
        if not ids.size:
            continue
        raws = edges.raw[ids]
        lo, hi = float(raws.min()), float(raws.max())
        graph.raw_range[kind] = (lo, hi)
        edges.weight[ids] = (raws - lo) / (hi - lo) if hi > lo else 1.0
    return graph


def scale_into_range(raw, raw_range: tuple[float, float] | None):
    """Project raw weights (a number or an array) onto a family's
    normalization scale, clamped to [0, 1]. Degenerate or missing ranges map
    to 1.0 (same rule as above)."""
    if raw_range is None:
        return 1.0
    lo, hi = raw_range
    if hi <= lo:
        return 1.0
    return np.minimum(np.maximum((raw - lo) / (hi - lo), 0.0), 1.0)


# ---------------------------------------------------------------------------
# Construction.


def pr_pr_raw_row(sims: np.ndarray, times, span: float, t_created) -> np.ndarray:
    """Raw pr_pr weights: kernel entries ``sims`` between PRs created at
    ``times`` and PRs created at ``t_created`` (one time, or one per entry),
    damped in place by the time gaps. Each factor is ``math.exp``'s, as in
    ``weight_pr_reviewer``: ``np.exp`` rounds differently on different SIMD
    paths, which would make a graph's weights depend on the host."""
    if span:
        exponents = (-np.abs(times - t_created) / span).tolist()
        sims *= np.fromiter(map(math.exp, exponents), np.float64, len(exponents))
    return sims


def _top_entries(
    rows: np.ndarray,
    cols: np.ndarray,
    raw: np.ndarray,
    chronology: np.ndarray,
    top_m: int,
) -> np.ndarray:
    """Positions of the up-to-top_m largest positive entries of each row,
    rows ascending, each row's strongest first.

    Ties are broken toward older partners first, then lexicographic id;
    both are encoded in ``chronology`` (smaller = older/earlier id).
    """
    live = np.flatnonzero(raw > 0.0)
    live = live[np.lexsort((chronology[cols[live]], -raw[live], rows[live]))]
    ranked = rows[live]
    # An entry's place in its row: its position minus its row's first.
    place = np.arange(len(live)) - np.searchsorted(ranked, ranked)
    return live[place < top_m]


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
    Edges follow the same order (each PR's contributor edge, then its
    reviewer edge), then the pr_pr edges sorted by PR pair. The one pass
    over the comments also counts each author's comments, which it leaves
    as the corpus's ``comment_counts``.
    """
    if not corpus.prs:
        raise EmptyCorpusError("cannot build a hypergraph from an empty corpus")

    prs: dict[str, int] = {}
    developers: dict[str, int] = {}

    def developer(ref: str) -> int:
        index = developers.get(ref)
        if index is None:
            index = developers[ref] = len(prs) + len(developers)
        return index

    counts: dict[str, int] = {}
    kinds: list[int] = []
    sizes: list[int] = []
    members: list[int] = []
    raws: list[float] = []
    pr_vertices: list[int] = []
    t_start, t_end = corpus.t_start, corpus.t_end
    for pr in corpus.prs:
        pr_v = prs.setdefault(pr.id, len(prs) + len(developers))
        pr_vertices.append(pr_v)
        contributor_v = developer(pr.contributor)
        kinds.append(_CONTRIBUTOR)
        sizes.append(2)
        members.extend(sorted((pr_v, contributor_v)))
        raws.append(weight_pr_contributor(pr, t_start, t_end))
        reviewers = set()
        for comment in pr.comments:
            counts[comment.author] = counts.get(comment.author, 0) + 1
            if comment.author != pr.contributor:
                reviewers.add(comment.author)
        if reviewers:
            member_ids = [developer(r) for r in sorted(reviewers)]
            kinds.append(_REVIEWER)
            sizes.append(len(member_ids) + 1)
            members.extend(sorted((pr_v, *member_ids)))
            raws.append(
                weight_pr_reviewer(
                    pr, reviewers, params.comment_decay, t_start, t_end
                )
            )
    corpus._comment_counts = counts

    # Pairwise PR links: every positive entry of the corpus's sweep, damped by
    # this window's time gaps; a pair becomes an edge when either endpoint
    # ranks it within its own top-m. Zero-weight pairs never qualify.
    times = np.asarray([pr.created_at for pr in corpus.prs], dtype=np.float64)
    order_rank = _chronology_rank(corpus.prs)
    rows, cols, sims = corpus.similarity_entries()
    off_diagonal = rows != cols
    rows, cols = rows[off_diagonal], cols[off_diagonal]
    raw = pr_pr_raw_row(
        sims[off_diagonal], times[cols], _span(t_start, t_end), times[rows]
    )
    top = _top_entries(rows, cols, raw, order_rank, params.top_m)
    rows, cols, raw = rows[top], cols[top], raw[top]
    # One edge per pair, sorted by pair. Rows come ascending, so the stable
    # sort puts the entry of the pair's first PR ahead when both chose it.
    # The int32 indices are widened so that the key cannot overflow.
    low = np.minimum(rows, cols).astype(np.int64)
    pair = low * len(corpus.prs) + np.maximum(rows, cols)
    order = np.argsort(pair, kind="stable")
    fresh = np.ones(len(order), dtype=bool)
    fresh[1:] = pair[order][1:] != pair[order][:-1]
    first = order[fresh]
    vertex_of = np.asarray(pr_vertices, dtype=np.int64)
    ends = vertex_of[rows[first]], vertex_of[cols[first]]
    pairs = np.stack((np.minimum(*ends), np.maximum(*ends)), axis=1)

    graph = Hypergraph(
        prs=prs,
        developers=developers,
        edges=EdgeTable.of(
            np.concatenate((kinds, np.full(len(first), _PR_PR))),
            np.concatenate((sizes, np.full(len(first), 2))),
            np.concatenate((members, pairs.ravel())),
            np.concatenate((raws, raw[first])),
        ),
        bounds=(t_start, t_end),
        raw_range={},
        params=params,
        pr_index=PRIndex(corpus.file_pack(), times, order_rank, vertex_of),
    )
    return normalize_weights(graph)


def graph_to_dict(graph: Hypergraph) -> dict:
    """JSON-ready dump of the vertex and edge tables (bit-exact per build)."""
    edges = graph.edges
    members = edges.members.tolist()
    offsets = edges.offsets.tolist()
    return {
        "bounds": list(graph.bounds),
        "vertices": [
            {"index": v.index, "kind": v.kind.value, "ref": v.ref}
            for v in graph.vertices
        ],
        "edges": [
            {
                "kind": EDGE_KINDS[kind].value,
                "members": members[offsets[e] : offsets[e + 1]],
                "raw_weight": raw,
                "weight": weight,
            }
            for e, (kind, raw, weight) in enumerate(
                zip(edges.kind.tolist(), edges.raw.tolist(), edges.weight.tolist())
            )
        ],
    }
