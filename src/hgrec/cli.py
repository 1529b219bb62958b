"""Command-line front end.

Subcommands: ingest, recommend, evaluate, compare (evaluate requiring at
least two recommenders), stats. Every command is deterministic given its
input bytes and configuration. Exit codes: 0 success, 1 internal error,
2 user or data error.

evaluate runs its rounds in order on one thread. Its ``--jobs`` flag
accepts only 1 and does nothing; it stays while perfbench passes it. Every
fit factors its system, so there is no solver flag; ``HyperParams`` keeps a
``solver`` argument that accepts only "direct", for the same reason as
``--jobs``. A config file holding ``jobs``, or ``max_iter``, ``solver`` or
``tol`` under ``params``, exits 2 as an unknown key.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import traceback

from . import __version__
from .baselines import RECOMMENDER_LABELS, create_recommender
from .config import HyperParams, RunConfig
from .corpus import (
    TargetPR,
    clean,
    corpus_from_json,
    corpus_to_json,
    parse_export,
    parse_target,
    sha256_of,
)
from .errors import ConfigError, HgrecError
from .evaluation import RecommenderSpec, run_comparison
from .hypergraph import graph_to_dict


def _read_lines(path: str) -> list[tuple[int, str]]:
    """The non-blank lines of a UTF-8 text file, stripped, with their numbers."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            numbered = list(enumerate(handle, start=1))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    return [(n, line.strip()) for n, line in numbered if line.strip()]


def _read_bot_patterns(path: str) -> list[re.Pattern]:
    """One regular expression per non-blank line, compiled; a bad one is a
    ConfigError naming its line."""
    patterns = []
    for number, text in _read_lines(path):
        try:
            patterns.append(re.compile(text))
        except re.error as exc:
            raise ConfigError(
                f"bots file {path} line {number}: bad pattern {text!r}: {exc}"
            ) from exc
    return patterns


def _load_corpus(path: str):
    with open(path, "rb") as handle:
        return corpus_from_json(handle.read())


def _read_export(path: str, config: RunConfig, skip_invalid: bool = False):
    """Parse and clean a JSONL export split at LF, CR and CRLF only (not at a
    U+2028 in a string); return the corpus, its bytes and the skipped lines."""
    with open(path, "rb") as handle:
        raw_bytes = handle.read()
    errors: list = []
    lines: list = []
    prs = parse_export(
        raw_bytes.splitlines(), skip_invalid=skip_invalid, errors=errors, lines=lines
    )
    bot_patterns = _read_bot_patterns(config.bots) if config.bots is not None else ()
    excluded = _read_lines(config.exclude) if config.exclude is not None else ()
    corpus = clean(
        prs,
        bot_patterns=bot_patterns,
        min_reviews=config.min_reviews,
        exclude_ids=[account for _, account in excluded],
        lines=lines,
    )
    return corpus, raw_bytes, errors


def _parse_ks(text: str) -> list[int]:
    try:
        return [int(k) for k in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"ks must be comma-separated integers, got {text!r}") from exc


def _merge_config(args) -> RunConfig:
    """File config (when given) overridden by explicitly passed flags. An
    empty value is passed, not ignored: it fails as its malformed values do."""
    config = RunConfig()
    if getattr(args, "config", None) is not None:
        with open(args.config, "rb") as handle:
            config = RunConfig.from_json(handle.read())

    params = config.params
    param_overrides = {
        name: getattr(args, name, None) for name in ("alpha", "top_m", "comment_decay")
    }
    effective = {k: v for k, v in param_overrides.items() if v is not None}
    if effective:
        params = HyperParams(**{**vars(params), **effective})

    recommenders = getattr(args, "recommenders", None)
    ks = getattr(args, "ks", None)
    return config.override(
        params=params,
        input=getattr(args, "input", None),
        bots=getattr(args, "bots", None),
        exclude=getattr(args, "exclude", None),
        min_reviews=getattr(args, "min_reviews", None),
        recommenders=recommenders.split(",") if recommenders is not None else None,
        ks=_parse_ks(ks) if ks is not None else None,
        initial_months=getattr(args, "initial_months", None),
        max_rounds=getattr(args, "max_rounds", None),
        output_dir=getattr(args, "output_dir", None),
        ac_window_days=getattr(args, "ac_window_days", None),
        cn_decay=getattr(args, "cn_decay", None),
        rd_scope=getattr(args, "rd_scope", None),
    )


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    model = parser.add_argument_group("model parameters")
    model.add_argument(
        "--alpha", type=float, help="diffusion weight in (0, 1) [default 0.9]"
    )
    model.add_argument(
        "--top-m",
        dest="top_m",
        type=int,
        help="similar-PR links kept per PR, 1..100 [default 10]",
    )
    model.add_argument(
        "--comment-decay",
        dest="comment_decay",
        type=float,
        help="damping of repeated comments in (0, 1] [default 0.8]",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgrec",
        description="Hypergraph-based code reviewer recommendation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="parse, clean and cache a JSONL export")
    ingest.add_argument("--input", required=True, help="JSONL export path")
    ingest.add_argument("--output", required=True, help="corpus artifact path")
    ingest.add_argument("--bots", help="file with one bot-account regex per line")
    ingest.add_argument("--exclude", help="file with one account id per line")
    ingest.add_argument(
        "--min-reviews",
        dest="min_reviews",
        type=int,
        help="reviewer participation threshold in distinct PRs [default 2]",
    )
    ingest.add_argument(
        "--skip-invalid",
        action="store_true",
        help="skip and count malformed lines instead of failing fast",
    )
    ingest.set_defaults(handler=cmd_ingest)

    stats = sub.add_parser("stats", help="print corpus statistics")
    stats.add_argument("--corpus", help="corpus artifact path")
    stats.add_argument("--input", help="raw JSONL export path")
    stats.add_argument("--bots", help="bot regex file (with --input)")
    stats.add_argument("--exclude", help="exclusion list file (with --input)")
    stats.add_argument(
        "--min-reviews",
        dest="min_reviews",
        type=int,
        help="reviewer participation threshold (with --input)",
    )
    stats.add_argument(
        "--skip-invalid",
        action="store_true",
        help="skip and count malformed lines (with --input)",
    )
    stats.set_defaults(handler=cmd_stats)

    rec = sub.add_parser("recommend", help="rank reviewers for one target PR")
    rec.add_argument("--corpus", required=True, help="corpus artifact path")
    rec.add_argument("--target", help="target PR as a JSON file")
    rec.add_argument("--files", help="comma-separated changed file paths")
    rec.add_argument("--contributor", help="target PR author id")
    rec.add_argument("--time", help="target PR creation time (RFC 3339)")
    rec.add_argument("--id", default="target", help="target PR id [default target]")
    rec.add_argument(
        "--top-k", dest="top_k", type=int, default=5, help="list length [default 5]"
    )
    rec.add_argument(
        "--recommender",
        default="hgrec",
        choices=sorted(RECOMMENDER_LABELS),
        help="recommender to use [default hgrec]",
    )
    rec.add_argument(
        "--dump-graph",
        dest="dump_graph",
        help="write the base hypergraph as JSON to this path (hgrec only)",
    )
    rec.add_argument("--config", help="RunConfig JSON file")
    _add_param_flags(rec)
    rec.set_defaults(handler=cmd_recommend)

    for name, minimum in (("evaluate", 1), ("compare", 2)):
        ev = sub.add_parser(
            name,
            help=(
                "run the expanding-window evaluation"
                if minimum == 1
                else "evaluate with at least two recommenders"
            ),
        )
        ev.add_argument("--corpus", required=True, help="corpus artifact path")
        ev.add_argument(
            "--recommenders",
            help=f"comma-separated subset of {sorted(RECOMMENDER_LABELS)}",
        )
        ev.add_argument("--ks", help="comma-separated list lengths [default 1,3,5]")
        ev.add_argument("--initial-months", dest="initial_months", type=int)
        ev.add_argument("--max-rounds", dest="max_rounds", type=int)
        ev.add_argument("--output-dir", dest="output_dir")
        ev.add_argument("--jobs", type=int, choices=[1], help=argparse.SUPPRESS)
        ev.add_argument("--ac-window-days", dest="ac_window_days", type=int)
        ev.add_argument("--cn-decay", dest="cn_decay", type=float)
        ev.add_argument("--rd-scope", dest="rd_scope", choices=("round", "global"))
        ev.add_argument("--config", help="RunConfig JSON file")
        _add_param_flags(ev)
        ev.set_defaults(handler=cmd_evaluate, min_recommenders=minimum)

    return parser


def cmd_ingest(args) -> int:
    corpus, raw_bytes, errors = _read_export(
        args.input, _merge_config(args), args.skip_invalid
    )
    stats = corpus.stats()
    artifact = corpus_to_json(corpus, source_sha256=sha256_of(raw_bytes), stats=stats)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(artifact)
    print(
        json.dumps(
            {"written": args.output, "skipped_lines": len(errors), **stats},
            sort_keys=True,
        )
    )
    return 0


def cmd_stats(args) -> int:
    if (args.corpus is None) == (args.input is None):
        raise HgrecError("pass exactly one of --corpus or --input")
    if args.input is not None:
        corpus, _, errors = _read_export(
            args.input, _merge_config(args), args.skip_invalid
        )
        print(
            json.dumps(
                {"skipped_lines": len(errors), **corpus.stats()}, sort_keys=True
            )
        )
        return 0
    # An artifact is already parsed and cleaned: these flags would do nothing.
    given = [
        flag
        for flag, value in (
            ("--bots", args.bots),
            ("--exclude", args.exclude),
            ("--min-reviews", args.min_reviews),
            ("--skip-invalid", args.skip_invalid or None),
        )
        if value is not None
    ]
    if given:
        raise HgrecError(f"{', '.join(given)}: only with --input, not --corpus")
    print(json.dumps(_load_corpus(args.corpus).stats(), sort_keys=True))
    return 0


def _target_from_args(args) -> TargetPR:
    if args.target is not None:
        with open(args.target, "rb") as handle:
            return parse_target(handle.read())
    if None in (args.files, args.contributor, args.time):
        raise HgrecError("pass --target FILE or all of --files/--contributor/--time")
    return parse_target(
        {
            "id": args.id,
            "contributor": args.contributor,
            "created_at": args.time,
            "files": [f for f in args.files.split(",") if f],
        }
    )


def cmd_recommend(args) -> int:
    config = _merge_config(args)
    corpus = _load_corpus(args.corpus)
    target = _target_from_args(args)
    if args.top_k < 1:
        raise HgrecError(f"--top-k must be >= 1, got {args.top_k}")

    if args.dump_graph and args.recommender != "hgrec":
        raise HgrecError("--dump-graph applies to the hgrec recommender only")

    recommender = create_recommender(
        args.recommender,
        config.params,
        ac_window_days=config.ac_window_days,
        cn_decay=config.cn_decay,
    )
    recommender.fit(corpus)
    result = recommender.recommend(target, args.top_k)
    if args.dump_graph:
        with open(args.dump_graph, "w", encoding="utf-8") as handle:
            json.dump(graph_to_dict(recommender.base_graph), handle, sort_keys=True)
            handle.write("\n")
    print(
        json.dumps(
            {
                "target": result.target,
                "recommender": args.recommender,
                "k": result.k,
                "short": result.short,
                "candidates": [
                    {"id": dev, "score": score} for dev, score in result.candidates
                ],
            },
            sort_keys=True,
            indent=2,
        )
    )
    return 0


def cmd_evaluate(args) -> int:
    config = _merge_config(args)
    names = config.recommenders
    unknown = [n for n in names if n not in RECOMMENDER_LABELS]
    if unknown:
        raise HgrecError(f"unknown recommenders: {unknown}")
    if len(names) < args.min_recommenders:
        raise HgrecError(
            f"{args.min_recommenders} or more recommenders required, got {names}"
        )
    if len(set(names)) != len(names):
        raise HgrecError(f"duplicate recommenders: {names}")

    corpus = _load_corpus(args.corpus)
    specs = [
        RecommenderSpec(
            label=RECOMMENDER_LABELS[name],
            factory=(
                lambda name=name: create_recommender(
                    name,
                    config.params,
                    ac_window_days=config.ac_window_days,
                    cn_decay=config.cn_decay,
                )
            ),
        )
        for name in names
    ]
    # An output directory that cannot be made fails before the backtest runs.
    os.makedirs(config.output_dir, exist_ok=True)
    report = run_comparison(
        corpus,
        specs,
        ks=config.ks,
        initial_months=config.initial_months,
        max_rounds=config.max_rounds,
        rd_scope=config.rd_scope,
    )
    csv_path = os.path.join(config.output_dir, "report.csv")
    json_path = os.path.join(config.output_dir, "summary.json")
    with open(csv_path, "w", encoding="utf-8") as handle:
        handle.write(report.to_csv_text())
    with open(json_path, "w", encoding="utf-8") as handle:
        handle.write(report.to_json_text())
    print(report.average_table())
    print(f"rounds: {len(report.rounds)}")
    print(f"report: {csv_path}")
    print(f"summary: {json_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except HgrecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
