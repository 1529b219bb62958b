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
``build`` makes them by array operations over the corpus's review table
(``ReviewCorpus.review_table``). The scalar formulas ``weight_pr_reviewer``,
``weight_pr_contributor`` and ``weight_pr_pr`` state each weight for one
edge, as the tests' oracles; ``build`` reproduces the bits of the first
two.
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


def _exp(exponents: np.ndarray) -> np.ndarray:
    """``math.exp`` of each entry. ``np.exp`` rounds differently on different
    SIMD paths, which would make a graph's weights depend on the host."""
    values = exponents.tolist()
    return np.fromiter(map(math.exp, values), np.float64, len(values))


def pr_pr_raw_row(sims: np.ndarray, times, span: float, t_created) -> np.ndarray:
    """Raw pr_pr weights: kernel entries ``sims`` between PRs created at
    ``times`` and PRs created at ``t_created`` (one time, or one per entry),
    damped in place by the time gaps, each factor ``math.exp``'s."""
    if span:
        sims *= _exp(-np.abs(times - t_created) / span)
    return sims


def contributor_raw(created, t_start: int, t_end: int):
    """Raw pr_contributor weights of PRs created at ``created`` (one time,
    or an array of them): the bits of ``weight_pr_contributor`` of each,
    with its warning in a single-instant window."""
    span = _span(t_start, t_end)
    if not span:
        warnings.warn(
            "single-instant corpus: contributor edge weight defaults to 1.0",
            RuntimeWarning,
            stacklevel=2,
        )
        return np.ones(np.shape(created))
    return (created - t_start) / span


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


def build(corpus: ReviewCorpus, params: HyperParams) -> Hypergraph:
    """Construct the base hypergraph from a cleaned corpus.

    Vertices are numbered in corpus order (PR, then its contributor, then its
    reviewers sorted by id, a developer where first met), so two builds from
    equal inputs are identical; PR ids are distinct, as ``clean`` and
    ``corpus_from_json`` ensure. Edges follow the same order (each PR's
    contributor edge, then its reviewer edge), then the pr_pr edges sorted by
    PR pair. Every step is an array operation over the corpus's
    ``review_table``, whose ``reviews`` give the reviewer edges.
    """
    if not corpus.prs:
        raise EmptyCorpusError("cannot build a hypergraph from an empty corpus")

    table = corpus.review_table()
    n = len(table.ids)
    n_names = len(table.names)
    t_start, t_end = corpus.t_start, corpus.t_end
    span = _span(t_start, t_end)
    pair_pr, pair_dev, review, run = table.reviews

    # Vertex numbering: a stream of each PR, its contributor, then its
    # reviewers, where a PR and each developer's first appearance take the
    # next index. PR i stands in the stream as code n_names + i.
    slots = n_names + 2
    stream = np.concatenate(
        (np.arange(n) * slots, np.arange(n) * slots + 1, pair_pr * slots + 2 + pair_dev)
    )
    code = np.concatenate((n_names + np.arange(n), table.contributor, pair_dev))
    code = code[np.argsort(stream)]
    new = code[np.sort(np.unique(code, return_index=True)[1])]
    vertex_of = np.empty(n_names + n, dtype=np.int64)
    vertex_of[new] = np.arange(len(new))
    pr_v = vertex_of[n_names:]
    new_developers = new[new < n_names]

    # Contributor edges: one per PR, its vertex and its contributor's.
    contributor_v = vertex_of[table.contributor]
    contributor_members = np.stack(
        (np.minimum(pr_v, contributor_v), np.maximum(pr_v, contributor_v)), axis=1
    ).ravel()
    contributor_raws = contributor_raw(table.created, t_start, t_end)

    # Reviewer edges: one per reviewed PR, its vertex and its reviewers',
    # ascending. The j-th comment of a reviewer on the PR adds the term
    # comment_decay**j * exp((t - t_end) / span), Python's own ``**`` and
    # ``math.exp`` as in ``weight_pr_reviewer``, and one bincount adds each
    # PR's terms in its order: reviewer by reviewer (sorted), each
    # reviewer's in comment order.
    reviewed, pair_edge, n_reviewers = np.unique(
        pair_pr, return_inverse=True, return_counts=True
    )
    entry_edge = np.concatenate((np.arange(len(reviewed)), pair_edge))
    entry_v = np.concatenate((pr_v[reviewed], vertex_of[pair_dev]))
    reviewer_members = entry_v[np.argsort(entry_edge * (n_names + n) + entry_v)]
    # A comment's place among its reviewer's on the PR: runs ascend.
    depth = np.arange(len(run)) - np.searchsorted(run, run)
    decay = params.comment_decay
    terms = np.array(
        [decay**j for j in range(int(depth.max(initial=-1)) + 1)], dtype=np.float64
    )[depth]
    if span:
        terms *= _exp((table.comment_time[review] - t_end) / span)
    reviewer_raws = np.bincount(
        pair_edge[run], weights=terms, minlength=len(reviewed)
    )

    # Each PR's contributor edge, then its reviewer edge: edge keys 2i and
    # 2i + 1, by which a stable sort of the members interleaves them.
    keys = np.concatenate((2 * np.arange(n), 2 * reviewed + 1))
    sizes = np.concatenate((np.full(n, 2), n_reviewers + 1))
    by_key = np.argsort(keys)
    kinds = np.concatenate(
        (np.full(n, _CONTRIBUTOR), np.full(len(reviewed), _REVIEWER))
    )[by_key]
    members = np.concatenate((contributor_members, reviewer_members))[
        np.argsort(np.repeat(keys, sizes), kind="stable")
    ]
    raws = np.concatenate((contributor_raws, reviewer_raws))[by_key]
    sizes = sizes[by_key]

    # Pairwise PR links: every positive entry of the corpus's sweep, damped by
    # this window's time gaps; a pair becomes an edge when either endpoint
    # ranks it within its own top-m. Zero-weight pairs never qualify.
    times = table.created.astype(np.float64)
    rows, cols, sims = corpus.similarity_entries()
    off_diagonal = rows != cols
    rows, cols = rows[off_diagonal], cols[off_diagonal]
    raw = pr_pr_raw_row(sims[off_diagonal], times[cols], span, times[rows])
    top = _top_entries(rows, cols, raw, table.chronology, params.top_m)
    rows, cols, raw = rows[top], cols[top], raw[top]
    # One edge per pair, sorted by pair. Rows come ascending, so the stable
    # sort puts the entry of the pair's first PR ahead when both chose it.
    # The int32 indices are widened so that the key cannot overflow.
    low = np.minimum(rows, cols).astype(np.int64)
    pair = low * n + np.maximum(rows, cols)
    order = np.argsort(pair, kind="stable")
    fresh = np.ones(len(order), dtype=bool)
    fresh[1:] = pair[order][1:] != pair[order][:-1]
    first = order[fresh]
    ends = pr_v[rows[first]], pr_v[cols[first]]
    pairs = np.stack((np.minimum(*ends), np.maximum(*ends)), axis=1)

    graph = Hypergraph(
        prs=dict(zip(table.ids.tolist(), pr_v.tolist())),
        developers=dict(
            zip(
                table.names[new_developers].tolist(),
                vertex_of[new_developers].tolist(),
            )
        ),
        edges=EdgeTable.of(
            np.concatenate((kinds, np.full(len(first), _PR_PR))),
            np.concatenate((sizes, np.full(len(first), 2))),
            np.concatenate((members, pairs.ravel())),
            np.concatenate((raws, raw[first])),
        ),
        bounds=(t_start, t_end),
        raw_range={},
        params=params,
        pr_index=PRIndex(corpus.file_pack(), times, table.chronology, pr_v),
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
