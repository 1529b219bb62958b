#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of hgrec.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each one exists):

  serve               fit three wide-path repositories once each, then a
                      closed loop of one client asking recommend(target, 5)
                      for held-out PRs of each in turn
  backtest-hgrec      in-process `hgrec evaluate --recommenders hgrec`
  backtest-baselines  in-process `hgrec evaluate --recommenders ac,revfinder,chrev,cn`
  all                 each of the above in a fresh child process

The program sees only a generated JSONL export; the seed fixes it. With
``--trace 0`` the last stdout line carries the end-to-end metrics, measured
untraced. With ``--trace 1`` the same run is followed by one traced set-up
and one traced pass, and the last line carries the per-layer metrics. The
line before it holds the environment, the corpus shape and the output
fingerprints. Times come from ``clock.SpeedClock`` and are in seconds at a
reference host speed. Run from the repository root; the program is imported
from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from clock import REFERENCE_PROBE_S, SpeedClock  # noqa: E402
from spans import Tracer, aggregate  # noqa: E402
from synth import Shape, generate, to_jsonl  # noqa: E402

K = 5
# Serve queries whose top-k is recomputed with the direct solver.
SOLVER_CHECK_SAMPLE = 20
# A traced span tree must cover at least this share of its root's time.
MIN_TRACED_SHARE = 0.9


@dataclass(frozen=True)
class Workload:
    shape: Shape
    recommenders: tuple[str, ...]
    # Serve sets up this many times before its loop; a backtest ingests this
    # many times before each pass.
    setup_reps: int
    # Each repository is generated and fitted on its own; several of them
    # average out how much one random graph's structure costs the solver.
    repos: int = 1


WORKLOADS = {
    "serve": Workload(
        Shape(prs=400, months=36, files_per_area=120, depth=4, held_out=100),
        ("hgrec",),
        setup_reps=4,
        repos=3,
    ),
    "backtest-hgrec": Workload(Shape(prs=300, months=36), ("hgrec",), setup_reps=8),
    "backtest-baselines": Workload(
        Shape(prs=800, months=36), ("ac", "revfinder", "chrev", "cn"), setup_reps=8
    ),
}


def import_hgrec():
    """Import hgrec from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import hgrec
        import hgrec.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import hgrec from {src}: {exc}")
    if not os.path.abspath(hgrec.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: hgrec was imported from {hgrec.__file__}, not {src}")
    return hgrec


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def list_ok(result, contributor: str, k: int) -> bool:
    """At most k distinct developers, no contributor, finite non-increasing scores."""
    ids = [dev for dev, _ in result.candidates]
    scores = [score for _, score in result.candidates]
    return (
        len(ids) <= k
        and len(set(ids)) == len(ids)
        and contributor not in ids
        and all(math.isfinite(s) for s in scores)
        and all(a >= b for a, b in zip(scores, scores[1:]))
    )


class Counter:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok


class TimedRecommender:
    """Stands in for a recommender inside `evaluate`: times every recommend
    call and keeps its result for the output checks."""

    def __init__(self, name: str, inner, clock: SpeedClock, log: list, graphs: list):
        self._name = name
        self._inner = inner
        self._clock = clock
        self._log = log
        self._graphs = graphs

    def fit(self, corpus):
        # Reading the clock on both sides of a fit lets it probe the host there.
        self._clock.now()
        self._inner.fit(corpus)
        self._clock.now()
        graph = getattr(self._inner, "base_graph", None)
        if graph is not None:
            self._graphs.append((graph.n_vertices, len(graph.edges)))
        return self

    def recommend(self, target, k):
        start = self._clock.now()
        result = self._inner.recommend(target, k)
        took = self._clock.now() - start
        self._log.append((self._name, took, target.contributor, k, result))
        return result


# ---------------------------------------------------------------------------
# Tracing: which names are wrapped, and what each wrapper counts.


def install_tracer(tracer: Tracer) -> list[str]:
    import hgrec.baselines as baselines
    import hgrec.cli as cli
    import hgrec.corpus as corpus
    import hgrec.evaluation as evaluation
    import hgrec.hypergraph as hypergraph
    import hgrec.kernels as kernels
    import hgrec.ranker as ranker
    import hgrec.recommender as recommender
    from hgrec.errors import ConvergenceError

    note = tracer.note

    def file_pairs(fn):
        def call(t_tokens, t_off, tokens, file_off, *rest, **kwargs):
            note(file_pairs=(len(t_off) - 1) * (len(file_off) - 1))
            return fn(t_tokens, t_off, tokens, file_off, *rest, **kwargs)

        return call

    def graph_counts(fn):
        def call(corpus_, *rest, **kwargs):
            graph = fn(corpus_, *rest, **kwargs)
            n = len(corpus_.prs)
            note(vertices=graph.n_vertices, pr_pairs=n * (n - 1) // 2)
            note(**{f"edges.{kind.value}": len(ids) for kind, ids in graph.by_kind.items()})
            return graph

        return call

    def system_size(fn):
        def call(*args, **kwargs):
            system = fn(*args, **kwargs)
            note(vertices=system.n_vertices)
            return system

        return call

    def transition_nnz(fn):
        def call(*args, **kwargs):
            matrix = fn(*args, **kwargs)
            note(nnz=matrix.nnz)
            return matrix

        return call

    def iterations(fn):
        def call(*args, return_info=False, **kwargs):
            try:
                scores, info = fn(*args, return_info=True, **kwargs)
            except ConvergenceError:
                note(convergence_errors=1)
                raise
            note(iterations=info["iterations"])
            return (scores, info) if return_info else scores

        return call

    targets = [
        (corpus, "parse_export", "corpus.parse_export", None),
        (cli, "parse_export", "corpus.parse_export", None),
        (corpus, "clean", "corpus.clean", None),
        (cli, "clean", "corpus.clean", None),
        (cli, "corpus_from_json", "corpus.corpus_from_json", None),
        (corpus.ReviewCorpus, "slice_until", "corpus.slice_until", None),
        (kernels.FilePack, "from_file_sets", "kernels.FilePack.from_file_sets", None),
        (kernels, "mean_similarity_row", "kernels.mean_similarity_row", file_pairs),
        (hypergraph, "build", "hypergraph.build", graph_counts),
        (hypergraph, "pr_pr_raw_row", "hypergraph.pr_pr_raw_row", None),
        (recommender, "pr_pr_raw_row", "hypergraph.pr_pr_raw_row", None),
        (hypergraph, "normalize_weights", "hypergraph.normalize_weights", None),
        (recommender.HypergraphRecommender, "recommend", "recommender.recommend", None),
        (recommender, "graft", "recommender.graft", None),
        (recommender, "query_vector", "recommender.query_vector", None),
        (recommender, "rank_developers", "recommender.rank_developers", None),
        (ranker, "assemble", "ranker.assemble", system_size),
        (ranker, "transition_matrix", "ranker.transition_matrix", transition_nnz),
        (ranker, "solve", "ranker.solve", None),
        (ranker, "solve_direct", "ranker.solve_direct", None),
        (ranker, "solve_iterative", "ranker.solve_iterative", iterations),
        *(
            (baselines, f"{b}_recommend", f"baselines.{b}_recommend", None)
            for b in ("ac", "revfinder", "chrev", "cn")
        ),
        (cli, "run_comparison", "evaluation.run_comparison", None),
        (evaluation, "make_rounds", "evaluation.make_rounds", None),
        (evaluation, "wilcoxon_signed_rank", "stats.wilcoxon_signed_rank", None),
        (cli, "cmd_ingest", "cli.ingest", None),
        (cli, "cmd_evaluate", "cli.evaluate", None),
    ]
    return sorted(
        {name for owner, attr, name, adapt in targets if tracer.patch(owner, attr, name, adapt)}
    )


def layer_metrics(tracer: Tracer, wrapped: list[str]) -> dict[str, float]:
    totals = aggregate(tracer.spans)
    out: dict[str, float] = {}
    counts: dict[str, dict] = {}
    for name in wrapped:
        t = totals.get(name)
        out[f"{name}.calls"] = t.calls if t else 0
        out[f"{name}.s"] = t.s if t else 0.0
        out[f"{name}.self_s"] = t.self_s if t else 0.0
        counts[name] = t.counts if t else {}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    if "kernels.mean_similarity_row" in counts:
        out["kernels.file_pairs"] = counts["kernels.mean_similarity_row"].get("file_pairs", 0)
    if "hypergraph.build" in counts:
        built = counts["hypergraph.build"]
        out["hypergraph.vertices"] = built.get("vertices", 0)
        for kind in ("pr_pr", "pr_reviewer", "pr_contributor"):
            out[f"hypergraph.edges.{kind}"] = built.get(f"edges.{kind}", 0)
        out["hypergraph.pr_pr.kept_per_pair"] = ratio(built.get("edges.pr_pr", 0), built.get("pr_pairs", 0))
    if "ranker.assemble" in counts:
        out["ranker.system.vertices"] = ratio(
            counts["ranker.assemble"].get("vertices", 0), out["ranker.assemble.calls"]
        )
    if "ranker.transition_matrix" in counts:
        out["ranker.transition.nnz"] = ratio(
            counts["ranker.transition_matrix"].get("nnz", 0), out["ranker.transition_matrix.calls"]
        )
    if "ranker.solve_iterative" in counts:
        iterative = counts["ranker.solve_iterative"]
        out["ranker.solve_iterative.iterations"] = iterative.get("iterations", 0)
        out["ranker.convergence_errors"] = iterative.get("convergence_errors", 0)
    for root in ("recommender.recommend", "evaluation.run_comparison"):
        if root in counts:
            out[f"{root}.untraced_share"] = ratio(out[f"{root}.self_s"], out[f"{root}.s"])
    return out


# ---------------------------------------------------------------------------
# Workloads.


def quiet_cli(hgrec, argv: list[str]) -> int:
    """Run an hgrec command in this process, dropping what it prints."""
    with contextlib.redirect_stdout(io.StringIO()):
        return hgrec.cli.main(argv)


def targets_of(hgrec, held_out: list[dict]):
    from hgrec.corpus import parse_timestamp

    out = []
    for rec in held_out:
        target = hgrec.TargetPR(
            id=rec["id"],
            contributor=rec["contributor"],
            created_at=parse_timestamp(rec["created_at"]),
            files=tuple(rec["files"]),
        )
        truth = frozenset(c["author"] for c in rec["comments"]) - {rec["contributor"]}
        out.append((target, truth))
    return out


def run_serve(hgrec, work: Workload, exports: list[str], held_out: list[list[dict]], args, counter, clock):
    import hgrec.corpus as corpus_mod
    from hgrec.evaluation import PRRecord, acc, mrr

    def set_up():
        start, start_wall = clock.now(), clock.wall
        repos = []
        for export in exports:
            with open(export, "r", encoding="utf-8") as handle:
                raw = corpus_mod.parse_export(handle)
            corpus = corpus_mod.clean(raw)
            # Reading the clock between the steps lets it probe the host there.
            clock.now()
            repos.append((corpus, hgrec.HypergraphRecommender().fit(corpus)))
            clock.now()
        return clock.now() - start, clock.wall - start_wall, repos

    setup_times, setup_walls = [], []
    for _ in range(work.setup_reps):
        gc.collect()
        elapsed, wall, repos = set_up()
        setup_times.append(elapsed)
        setup_walls.append(wall)
        counter.record(True, "setup")
    # One client, queries taken round-robin from the repositories.
    per_repo = [targets_of(hgrec, records) for records in held_out]
    queries = [
        (r, *per_repo[r][i])
        for i in range(max(map(len, per_repo)))
        for r in range(len(per_repo))
        if i < len(per_repo[r])
    ]

    def one_pass(recs, latencies: dict, keep: list | None):
        for r, target, _ in queries:
            start = clock.now()
            try:
                result = recs[r].recommend(target, K)
            except Exception as exc:  # a failed query counts, the loop goes on
                counter.record(False, f"recommend {r}/{target.id}: {exc!r}")
                continue
            latencies[r][-1].append(clock.now() - start)
            counter.record(list_ok(result, target.contributor, K), f"list {r}/{target.id}")
            if keep is not None:
                keep[(r, target.id)] = result

    recommenders = [rec for _, rec in repos]
    first: dict = {}
    # Per repository, one list of latencies per pass, in query order.
    latencies: dict[int, list[list[float]]] = {r: [] for r in range(len(repos))}
    passes: list[float] = []
    pass_walls: list[float] = []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < args.seconds:
        for per_pass in latencies.values():
            per_pass.append([])
        start, start_wall = clock.now(), clock.wall
        one_pass(recommenders, latencies, first if not passes else None)
        passes.append(clock.now() - start)
        pass_walls.append(clock.wall - start_wall)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    scored = [
        PRRecord(t.id, truth, first[(r, t.id)].ids())
        for r, t, truth in queries
        if truth and (r, t.id) in first
    ]
    direct = hgrec.HypergraphRecommender(hgrec.HyperParams(solver="direct")).fit(repos[0][0])
    for _, target, _ in [q for q in queries if q[0] == 0][:SOLVER_CHECK_SAMPLE]:
        default = first.get((0, target.id))
        same = default is not None and direct.recommend(target, K).ids() == default.ids()
        counter.record(same, f"direct solver disagrees on {target.id}")

    fingerprint = hashlib.sha256(
        json.dumps([[r, t.id, first[(r, t.id)].ids()] for r, t, _ in queries if (r, t.id) in first]).encode()
    ).hexdigest()
    corpora = [corpus for corpus, _ in repos]
    result = {
        "setup_times": setup_times,
        "setup_walls": setup_walls,
        "latencies": latencies,
        "passes": passes,
        "pass_walls": pass_walls,
        "peak_rss_mb": peak_rss,
        "quality": {"hgrec": {"acc": acc(scored, K), "mrr": mrr(scored, K)}},
        "fingerprints": {"serve_lists_sha256": fingerprint},
        "shape": {
            "repositories": len(repos),
            "prs_after_cleaning": [len(c.prs) for c in corpora],
            "unique_paths": [len({f for pr in c.prs for f in pr.files}) for c in corpora],
            "comments": [sum(len(pr.comments) for pr in c.prs) for c in corpora],
            "queries": len(queries),
            "graph_vertices": [rec.base_graph.n_vertices for rec in recommenders],
            "graph_edges": [len(rec.base_graph.edges) for rec in recommenders],
        },
    }

    if args.trace:
        tracer = Tracer(frozenset({"recommender.recommend"}))
        wrapped = install_tracer(tracer)
        try:
            traced_setup, _, traced_repos = set_up()
            mark = len(tracer.spans)
            start = clock.now()
            one_pass([rec for _, rec in traced_repos], {r: [[]] for r in latencies}, None)
            traced_pass = clock.now() - start
        finally:
            tracer.uninstall()
        loop = tracer.spans[mark:]
        kernel_rows = sum(1 for s in loop if s.name == "kernels.mean_similarity_row" and s.query)
        if "kernels.mean_similarity_row" in wrapped:
            counter.record(
                kernel_rows == len(queries),
                f"{kernel_rows} kernel rows for {len(queries)} queries",
            )
        result["trace"] = (tracer, wrapped, traced_setup, traced_pass)
    return result


def run_backtest(hgrec, work: Workload, export: str, workdir: str, args, counter, clock):
    artifact = os.path.join(workdir, "corpus.json")
    names = ",".join(work.recommenders)

    setup_times: list[float] = []
    setup_walls: list[float] = []

    def ingest() -> float:
        gc.collect()
        start, start_wall = clock.now(), clock.wall
        code = quiet_cli(hgrec, ["ingest", "--input", export, "--output", artifact])
        elapsed = clock.now() - start
        if not counter.record(code == 0, f"ingest exit {code}"):
            raise SystemExit("error: ingest failed; nothing to evaluate")
        setup_times.append(elapsed)
        setup_walls.append(clock.wall - start_wall)
        return elapsed

    log: list = []
    graphs: list = []
    create = hgrec.cli.create_recommender
    hgrec.cli.create_recommender = lambda name, *a, **kw: TimedRecommender(
        name, create(name, *a, **kw), clock, log, graphs
    )

    pass_walls: list[float] = []

    def evaluate(run: int) -> tuple[float, str | None]:
        out_dir = os.path.join(workdir, f"eval-{run}")
        argv = ["evaluate", "--corpus", artifact, "--recommenders", names,
                "--jobs", "1", "--output-dir", out_dir]
        start, start_wall = clock.now(), clock.wall
        code = quiet_cli(hgrec, argv)
        elapsed = clock.now() - start
        pass_walls.append(clock.wall - start_wall)
        if not counter.record(code == 0, f"evaluate exit {code}"):
            return elapsed, None
        return elapsed, out_dir

    try:
        # Per recommender, one list of latencies per pass, in call order.
        latencies: dict[str, list[list[float]]] = {name: [] for name in work.recommenders}
        walls: list[float] = []
        reports: list[bytes] = []
        summary = None
        begin = time.perf_counter()
        while not walls or time.perf_counter() - begin < args.seconds:
            # Set-ups are spread over the run, before each pass, so that their
            # median samples the host over the whole run.
            for _ in range(work.setup_reps):
                ingest()
            elapsed, out_dir = evaluate(len(walls))
            walls.append(elapsed)
            for per_pass in latencies.values():
                per_pass.append([])
            for name, took, contributor, k, rec in log:
                latencies[name][-1].append(took)
                counter.record(list_ok(rec, contributor, k), f"list {rec.target}")
            log.clear()
            if out_dir is None:
                continue
            with open(os.path.join(out_dir, "report.csv"), "rb") as handle:
                reports.append(handle.read())
            if summary is None:
                with open(os.path.join(out_dir, "summary.json"), "r", encoding="utf-8") as handle:
                    summary = json.load(handle)
            shutil.rmtree(out_dir)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        counter.record(bool(reports) and len(set(reports)) == 1, "report.csv differs between reruns")
        quality_by_label = {}
        for name in work.recommenders:
            label = hgrec.baselines.RECOMMENDER_LABELS[name]
            avg = (summary or {}).get("averages", {}).get(label, {}).get(str(K), {})
            values = {m: float(avg[m]) for m in ("acc", "mrr") if m in avg}
            ok = len(values) == 2 and all(0.0 <= v <= 1.0 for v in values.values())
            counter.record(ok, f"no finite acc/mrr@{K} for {label}")
            quality_by_label[label] = values
        with open(artifact, "r", encoding="utf-8") as handle:
            prs = json.load(handle)["prs"]
        result = {
            "setup_times": list(setup_times),
            "setup_walls": list(setup_walls),
            "latencies": latencies,
            "passes": walls,
            "pass_walls": list(pass_walls),
            "peak_rss_mb": peak_rss,
            "quality": quality_by_label,
            "fingerprints": {
                "report_csv_sha256": hashlib.sha256(reports[0]).hexdigest() if reports else None
            },
            "shape": {
                "prs_after_cleaning": len(prs),
                "unique_paths": len({f for pr in prs for f in pr["files"]}),
                "comments": sum(len(pr["comments"]) for pr in prs),
                "rounds": len((summary or {}).get("rounds", [])),
                "test_prs": sum(r["test_prs"] for r in (summary or {}).get("rounds", [])),
                "last_round_graph_vertices": graphs[-1][0] if graphs else None,
                "last_round_graph_edges": graphs[-1][1] if graphs else None,
            },
        }

        if args.trace:
            tracer = Tracer(frozenset({"recommender.recommend", *(
                f"baselines.{b}_recommend" for b in ("ac", "revfinder", "chrev", "cn"))}))
            wrapped = install_tracer(tracer)
            try:
                traced_setup = ingest()
                traced_pass, out_dir = evaluate(len(walls))
            finally:
                tracer.uninstall()
            if out_dir is not None:
                shutil.rmtree(out_dir)
            log.clear()
            result["trace"] = (tracer, wrapped, traced_setup, traced_pass)
        return result
    finally:
        hgrec.cli.create_recommender = create


def environment(seed: int) -> dict:
    import numpy
    import scipy

    import hgrec.kernels

    return {
        "kernel_backend": hgrec.kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_workload(args, spec: dict) -> dict:
    hgrec = import_hgrec()
    work = WORKLOADS[args.workload]
    counter = Counter()
    clock = SpeedClock()
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "_work"))
    try:
        exports, held_out = [], []
        for r in range(work.repos):
            records, held = generate(work.shape, f"{args.seed}/{r}")
            exports.append(os.path.join(workdir, f"export-{r}.jsonl"))
            held_out.append(held)
            with open(exports[-1], "w", encoding="utf-8") as handle:
                handle.write(to_jsonl(records))
        if args.workload == "serve":
            res = run_serve(hgrec, work, exports, held_out, args, counter, clock)
        else:
            res = run_backtest(hgrec, work, exports[0], workdir, args, counter, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Every pass makes the same calls in the same order, so a call's latency
    # is its median over the passes: a host hiccup during one pass then does
    # not reach the tail. Several recommenders or repositories: each metric
    # is the mean of their own percentiles, so a fast and a slow one do not
    # put a percentile between two clusters.
    lat = [
        [statistics.median(times) for times in zip(*per_pass)]
        for per_pass in res["latencies"].values()
    ]
    accs = [q["acc"] for q in res["quality"].values()]
    mrrs = [q["mrr"] for q in res["quality"].values()]
    setup_s = statistics.median(res["setup_times"])
    backtest_s = statistics.median(res["passes"])
    end_to_end = {
        "setup_s": setup_s,
        "query_p50_ms": statistics.fmean(percentile(v, 0.50) for v in lat) * 1000.0,
        "query_p95_ms": statistics.fmean(percentile(v, 0.95) for v in lat) * 1000.0,
        "backtest_s": backtest_s,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    detail = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "generator": asdict(work.shape),
        "shape": res["shape"],
        "fingerprints": res["fingerprints"],
        "quality_at_5": res["quality"],
        "samples": {
            "setup": len(res["setup_times"]),
            "queries": sum(len(p) for per_pass in res["latencies"].values() for p in per_pass),
            "passes": len(res["passes"]),
            "pass_s": res["passes"],
            "setup_s": res["setup_times"],
        },
        # The same medians in raw wall seconds, probes excluded.
        "wall": {
            "setup_s": statistics.median(res["setup_walls"]),
            "backtest_s": statistics.median(res["pass_walls"]),
            "setup_s_samples": res["setup_walls"],
            "pass_s_samples": res["pass_walls"],
        },
        "end_to_end": end_to_end,
        "host_probe_ms": {
            "reference": REFERENCE_PROBE_S * 1000.0,
            "median": statistics.median(clock.probes) * 1000.0,
            "min": min(clock.probes) * 1000.0,
            "max": max(clock.probes) * 1000.0,
            "count": len(clock.probes),
        },
        "errors": counter.errors,
    }
    if args.trace:
        tracer, wrapped, traced_setup, traced_pass = res.pop("trace")
        metrics = layer_metrics(tracer, wrapped)
        metrics["evaluation.acc5"] = statistics.fmean(accs)
        metrics["evaluation.mrr5"] = statistics.fmean(mrrs)
        metrics["trace.overhead.setup_s"] = traced_setup - setup_s
        metrics["trace.overhead.backtest_s"] = traced_pass - backtest_s
        for root in ("recommender.recommend", "evaluation.run_comparison"):
            key = f"{root}.untraced_share"
            if metrics.get(f"{root}.s"):
                counter.record(
                    metrics[key] <= 1.0 - MIN_TRACED_SHARE,
                    f"{root}: untraced share {metrics[key]:.3f}",
                )
        results_dir = os.path.join(HERE, "results")
        os.makedirs(results_dir, exist_ok=True)
        trace_file = os.path.join(results_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_file)
        detail["trace_file"] = os.path.relpath(trace_file, ROOT)
        detail["errors"] = counter.errors
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end
        wanted = spec["end_to_end"]
    print(json.dumps({"detail": detail}, sort_keys=True))
    return {
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in metrics
        },
    }


def run_all(args) -> dict:
    """Each workload in a fresh child process, so peak RSS is its own."""
    combined: dict = {}
    attempted = failed = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            combined[f"{name}/{metric}"] = value
            print(f"{name:<20} {metric:<45} {value['value']:>14.6g} {value['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread keeps timings steady on a small shared machine.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    result = run_all(args) if args.workload == "all" else run_workload(args, spec)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
