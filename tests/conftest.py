"""Shared builders for synthetic corpora and hypergraphs."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from hgrec.config import HyperParams
from hgrec.corpus import PullRequest, ReviewComment, ReviewCorpus
from hgrec.hypergraph import EdgeKind, Hyperedge, Hypergraph, Vertex, VertexKind

DAY = 86400
REPO = Path(__file__).resolve().parent.parent


def load_synth():
    """The benchmark's corpus generator, ``perfbench/synth.py``, read only."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_synth", REPO / "perfbench" / "synth.py"
    )
    synth = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = synth  # dataclass creation looks its module up
    try:
        spec.loader.exec_module(synth)
    finally:
        del sys.modules[spec.name]
    return synth


def make_pr(
    pr_id,
    contributor,
    created_at,
    files,
    comments=(),
    state="merged",
):
    """comments: iterable of (author, created_at) pairs."""
    built = tuple(
        ReviewComment(author=a, created_at=t)
        for a, t in sorted(comments, key=lambda c: c[1])
    )
    return PullRequest(
        id=pr_id,
        contributor=contributor,
        created_at=created_at,
        files=tuple(sorted(set(files))),
        comments=built,
        state=state,
    )


def make_corpus(prs, t_start=None, t_end=None):
    """Corpus straight from already-clean PRs (no cleaning pass)."""
    stamps = [pr.created_at for pr in prs]
    stamps += [c.created_at for pr in prs for c in pr.comments]
    return ReviewCorpus(
        prs=sorted(prs, key=lambda pr: pr.created_at),
        t_start=min(stamps) if t_start is None else t_start,
        t_end=max(stamps) if t_end is None else t_end,
    )


def make_graph(n_vertices, edges, params=None):
    """Hypergraph from explicit (kind, members, weight) triples.

    Weights are taken as already normalized; raw weights are set equal.
    """
    vertices = [
        Vertex(kind=VertexKind.DEVELOPER, ref=f"v{i}", index=i)
        for i in range(n_vertices)
    ]
    edge_objs = []
    by_kind = {kind: [] for kind in EdgeKind}
    for kind, members, weight in edges:
        by_kind[kind].append(len(edge_objs))
        edge_objs.append(
            Hyperedge(
                kind=kind,
                members=tuple(sorted(members)),
                raw_weight=weight,
                weight=weight,
            )
        )
    return Hypergraph(
        vertices=vertices,
        edges=edge_objs,
        by_kind=by_kind,
        bounds=(0, 1),
        raw_range={},
        params=params or HyperParams(),
        vertex_ids={(v.kind, v.ref): v.index for v in vertices},
    )


def random_hypergraph(rng: np.random.Generator, max_vertices=200):
    """Structurally valid random hypergraph with mixed edge kinds."""
    n = int(rng.integers(2, max_vertices + 1))
    edges = []
    n_edges = int(rng.integers(1, max(2, n)))
    for _ in range(n_edges):
        kind = EdgeKind(
            rng.choice([k.value for k in EdgeKind])
        )
        if kind is EdgeKind.PR_REVIEWER:
            size = int(rng.integers(2, min(8, n) + 1))
        else:
            size = 2
        members = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        # A sprinkle of exact zeros exercises the isolated-vertex path.
        weight = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.01, 1.0))
        edges.append((kind, members, weight))
    return make_graph(n, edges)


@pytest.fixture
def specialist_corpus():
    """30 PRs where reviewer nina reviews everything under src/net."""
    base = 1_600_000_000
    prs = []
    areas = [
        ("src/net", "nina"),
        ("src/app", "oscar"),
        ("docs", "pam"),
    ]
    files = {
        "src/net": ["src/net/a.c", "src/net/b.c", "src/net/x.c"],
        "src/app": ["src/app/main.c", "src/app/util.c"],
        "docs": ["docs/readme.md", "docs/guide.md"],
    }
    for i in range(30):
        area, reviewer = areas[i % 3]
        contributor = ["carla", "dan"][i % 2]
        created = base + i * 3 * DAY
        prs.append(
            make_pr(
                f"p{i:02d}",
                contributor,
                created,
                files[area][: (i % 2) + 1],
                comments=[(reviewer, created + DAY)],
            )
        )
    return make_corpus(prs)
