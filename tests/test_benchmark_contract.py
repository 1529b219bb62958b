"""The benchmark still measures what it names.

perfbench's tracer skips, silently, a function it can no longer find, and
its shape metrics read the built graph. These checks load
``perfbench/run.py`` as it is and fail where it would quietly read nothing.
"""

import importlib.util
import json
import sys

import pytest

from hgrec.config import HyperParams
from hgrec.corpus import clean, parse_export
from hgrec.fixtures import BOT_PATTERN
from hgrec.hypergraph import EdgeKind

from conftest import REPO

FIXTURE = REPO / "tests" / "data" / "review_history_50pr.jsonl"
# Suffixes of the per-layer metrics that perfbench derives from one
# function's spans; the rest of the name is the function's span name.
SPAN_SUFFIXES = (".calls", ".s", ".self_s", ".untraced_share")


def load_run():
    """``perfbench/run.py`` as a module, leaving ``sys.path`` and
    ``sys.modules`` as they were."""
    spec = importlib.util.spec_from_file_location("perfbench_run", REPO / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    helpers = {name: sys.modules.get(name) for name in ("clock", "spans", "synth")}
    sys.modules[spec.name] = run  # dataclass creation looks its module up
    try:
        spec.loader.exec_module(run)
    finally:
        sys.path[:] = path
        del sys.modules[spec.name]
        for name, module in helpers.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
    return run


@pytest.fixture
def tracing():
    """perfbench's tracer, installed on hgrec, and the names it wrapped."""
    run = load_run()
    tracer = run.Tracer()
    wrapped = run.install_tracer(tracer)
    try:
        yield run, tracer, wrapped
    finally:
        tracer.uninstall()


def test_every_per_layer_function_is_wrapped(tracing):
    _, _, wrapped = tracing
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    roots = {
        name[: -len(suffix)]
        for name in (metric["name"] for metric in spec["per_layer"])
        for suffix in SPAN_SUFFIXES
        if name.endswith(suffix)
    }
    assert {
        "hypergraph.build",
        "hypergraph.normalize_weights",
        "recommender.graft",
        "ranker.assemble",
    } <= roots
    assert sorted(roots - set(wrapped)) == []


def test_graph_shape_metrics_read_a_built_graph(tracing):
    run, tracer, wrapped = tracing
    import hgrec.hypergraph as hypergraph

    with open(FIXTURE, encoding="utf-8") as handle:
        corpus = clean(parse_export(handle), bot_patterns=[BOT_PATTERN])
    graph = hypergraph.build(corpus, HyperParams())  # the traced build

    families = {kind.value: len(ids) for kind, ids in graph.by_kind.items()}
    assert set(families) == {kind.value for kind in EdgeKind}
    assert sum(families.values()) == len(graph.edges) > 0
    metrics = run.layer_metrics(tracer, wrapped)
    assert metrics["hypergraph.build.calls"] == 1
    assert metrics["hypergraph.vertices"] == graph.n_vertices > 0
    for kind, count in families.items():
        assert metrics[f"hypergraph.edges.{kind}"] == count
    assert families["pr_pr"] > 0


def test_a_fit_makes_no_kernel_row_and_a_query_one(tracing):
    """A fit sweeps its corpus once, outside ``kernels.mean_similarity_row``;
    each query makes exactly one row, which is what the benchmark's serve
    check of one kernel row per query counts."""
    run, tracer, wrapped = tracing
    from hgrec.recommender import HypergraphRecommender, TargetPR

    with open(FIXTURE, encoding="utf-8") as handle:
        corpus = clean(parse_export(handle), bot_patterns=[BOT_PATTERN])
    recommender = HypergraphRecommender().fit(corpus)
    assert "kernels.mean_similarity_row" in wrapped
    assert run.layer_metrics(tracer, wrapped)["kernels.mean_similarity_row.calls"] == 0

    last = corpus.prs[-1]
    target = TargetPR("query", last.contributor, last.created_at + 1, last.files)
    recommender.recommend(target, 5)
    assert run.layer_metrics(tracer, wrapped)["kernels.mean_similarity_row.calls"] == 1


# The steps of one query, each of which the serve workload times once per
# ``recommend`` under these span names.
QUERY_SPANS = (
    "recommender.graft",
    "kernels.mean_similarity_row",
    "hypergraph.pr_pr_raw_row",
    "ranker.assemble",
    "recommender.query_vector",
    "ranker.solve",
    "ranker.solve_direct",
    "recommender.rank_developers",
)


def test_a_query_makes_one_call_to_each_step(tracing):
    """One ``recommend`` on a fitted recommender calls each step of the
    query path exactly once, through the names perfbench wraps: a step
    inlined or called under another name would read 0, and one split in
    two would read 2."""
    run, tracer, wrapped = tracing
    from hgrec.recommender import HypergraphRecommender, TargetPR

    with open(FIXTURE, encoding="utf-8") as handle:
        corpus = clean(parse_export(handle), bot_patterns=[BOT_PATTERN])
    recommender = HypergraphRecommender().fit(corpus)
    assert set(QUERY_SPANS) <= set(wrapped)
    before = run.layer_metrics(tracer, wrapped)

    last = corpus.prs[-1]
    target = TargetPR("query", last.contributor, last.created_at + 1, last.files)
    recommender.recommend(target, 5)
    after = run.layer_metrics(tracer, wrapped)
    calls = {name: after[f"{name}.calls"] - before[f"{name}.calls"] for name in QUERY_SPANS}
    assert calls == dict.fromkeys(QUERY_SPANS, 1)
    assert after["recommender.recommend.calls"] == before["recommender.recommend.calls"] + 1


def test_the_solver_argument_perfbench_passes_builds_the_defaults():
    """perfbench checks its default runs against
    ``HyperParams(solver="direct")``: that call must keep constructing the
    defaults while perfbench makes it."""
    assert HyperParams(solver="direct") == HyperParams()
