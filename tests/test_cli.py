"""CLI commands end to end over the bundled fixture."""

import json
import re
from pathlib import Path

import pytest

from hgrec.cli import main
from hgrec.fixtures import BOT_PATTERN, fixture_jsonl

FIXTURE = Path(__file__).parent / "data" / "review_history_50pr.jsonl"


@pytest.fixture
def bots_file(tmp_path):
    path = tmp_path / "bots.txt"
    path.write_text(BOT_PATTERN + "\n")
    return str(path)


@pytest.fixture
def corpus_artifact(tmp_path, bots_file):
    out = tmp_path / "corpus.json"
    code = main(
        [
            "ingest",
            "--input",
            str(FIXTURE),
            "--output",
            str(out),
            "--bots",
            bots_file,
        ]
    )
    assert code == 0
    return str(out)


def test_bundled_fixture_matches_generator():
    assert FIXTURE.read_text() == fixture_jsonl()


class TestIngest:
    def test_stats_block_shape(self, capsys, tmp_path, bots_file):
        out = tmp_path / "corpus.json"
        code = main(
            ["ingest", "--input", str(FIXTURE), "--output", str(out), "--bots", bots_file]
        )
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert set(stats) >= {"prs", "comments", "reviewers", "contributors"}
        assert out.exists()

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = main(
            ["ingest", "--input", str(tmp_path / "absent.jsonl"),
             "--output", str(tmp_path / "o.json")]
        )
        assert code == 2
        assert "absent.jsonl" in capsys.readouterr().err

    def test_skip_invalid_budget_flag(self, tmp_path, capsys):
        src = tmp_path / "dirty.jsonl"
        src.write_text(FIXTURE.read_text() + "this line is not json\n")
        out = tmp_path / "corpus.json"
        assert main(["ingest", "--input", str(src), "--output", str(out)]) == 2
        assert "line 51" in capsys.readouterr().err

    def test_skip_invalid_counts_and_continues(self, tmp_path, capsys):
        src = tmp_path / "dirty.jsonl"
        src.write_text(FIXTURE.read_text() + "this line is not json\n")
        out = tmp_path / "corpus.json"
        assert main(["ingest", "--input", str(src), "--output", str(out),
                     "--skip-invalid"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["skipped_lines"] == 1
        assert out.exists()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda obj: obj.update(created_at=1577836800),
            lambda obj: obj["comments"][0].update(created_at=1577836800),
            lambda obj: obj["comments"][0].update(author=42),
            lambda obj: obj.update(comments={}),
        ],
        ids=["pr-created-at", "comment-created-at", "comment-author", "comments-dict"],
    )
    def test_mistyped_field_exits_2_with_line(self, tmp_path, capsys, corrupt):
        rows = FIXTURE.read_text().splitlines()
        obj = json.loads(rows[2])
        corrupt(obj)
        rows[2] = json.dumps(obj)
        src = tmp_path / "typed.jsonl"
        src.write_text("\n".join(rows) + "\n")
        code = main(["ingest", "--input", str(src), "--output", str(tmp_path / "o.json")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_empty_path_exits_2_with_line(self, tmp_path, capsys):
        rows = FIXTURE.read_text().splitlines()
        obj = json.loads(rows[4])
        obj["files"] = obj["files"] + [""]
        rows[4] = json.dumps(obj)
        src = tmp_path / "empty-path.jsonl"
        src.write_text("\n".join(rows) + "\n")
        code = main(["ingest", "--input", str(src), "--output", str(tmp_path / "o.json")])
        assert code == 2
        assert "line 5" in capsys.readouterr().err

    def test_non_utf8_line_exits_2_with_line(self, tmp_path, capsys):
        rows = FIXTURE.read_bytes().splitlines()
        rows[3] = rows[3][:20] + b"\xff" + rows[3][20:]
        src = tmp_path / "latin.jsonl"
        src.write_bytes(b"\n".join(rows) + b"\n")
        code = main(["ingest", "--input", str(src), "--output", str(tmp_path / "o.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: line 4:")

    def test_u2028_inside_a_path_is_one_line(self, tmp_path, capsys):
        rows = FIXTURE.read_text().splitlines()
        obj = json.loads(rows[3])
        obj["files"].append("src/odd\u2028name.c")
        rows[3] = json.dumps(obj, ensure_ascii=False)
        src = tmp_path / "u2028.jsonl"
        src.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "o.json"
        assert main(["ingest", "--input", str(src), "--output", str(out)]) == 0
        ingested = json.loads(capsys.readouterr().out)
        assert main(["stats", "--input", str(src)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats == {k: ingested[k] for k in stats}
        artifact = json.loads(out.read_text())
        assert any("src/odd\u2028name.c" in pr["files"] for pr in artifact["prs"])

    def test_stats_match_independent_recount(self, capsys, tmp_path, bots_file):
        """Recount the cleaned corpus with naive, separate bookkeeping."""
        out = tmp_path / "corpus.json"
        main(["ingest", "--input", str(FIXTURE), "--output", str(out),
              "--bots", bots_file])
        stats = json.loads(capsys.readouterr().out)

        bot = re.compile(BOT_PATTERN)
        rows = [json.loads(l) for l in FIXTURE.read_text().splitlines() if l.strip()]
        rows = [r for r in rows if r["state"] != "open" and not bot.search(r["contributor"])]
        for r in rows:
            r["comments"] = [c for c in r["comments"] if not bot.search(c["author"])]
        prs_per_reviewer = {}
        for r in rows:
            for author in {c["author"] for c in r["comments"]} - {r["contributor"]}:
                prs_per_reviewer.setdefault(author, set()).add(r["id"])
        casual = {a for a, ids in prs_per_reviewer.items() if len(ids) < 2}
        for r in rows:
            r["comments"] = [
                c for c in r["comments"]
                if not (c["author"] in casual and c["author"] != r["contributor"])
            ]
        rows = [r for r in rows if r["files"]]

        assert stats["prs"] == len(rows)
        assert stats["comments"] == sum(len(r["comments"]) for r in rows)
        reviewers = set()
        for r in rows:
            reviewers |= {c["author"] for c in r["comments"]} - {r["contributor"]}
        assert stats["reviewers"] == len(reviewers)
        assert stats["contributors"] == len({r["contributor"] for r in rows})


def artifact(**pr_fields):
    """A one-PR corpus artifact, its PR fields overridden by ``pr_fields``."""
    pr = {"id": "p1", "contributor": "ann", "created_at": 1_600_000_000,
          "state": "merged", "files": ["src/a.c"], "comments": [], **pr_fields}
    return {"format": "hgrec-corpus-v1", "t_start": 1_600_000_000,
            "t_end": 1_600_000_000, "prs": [pr]}


class TestStats:
    def test_from_artifact(self, corpus_artifact, capsys):
        assert main(["stats", "--corpus", corpus_artifact]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["prs"] == 48  # two open PRs dropped

    def test_requires_exactly_one_source(self, corpus_artifact, capsys):
        assert main(["stats"]) == 2
        assert main(["stats", "--corpus", corpus_artifact,
                     "--input", str(FIXTURE)]) == 2

    @pytest.mark.parametrize(
        "text, field",
        [
            ("not json", ""),
            (json.dumps({"format": "hgrec-corpus-v1"}), ""),
            (json.dumps(artifact(created_at="x")), "pr 0: bad created_at"),
            (json.dumps({**artifact(), "t_end": "2020"}), "bad t_end"),
            (json.dumps(artifact(files="src/a.c")), "pr 0: files"),
            (json.dumps({**artifact(), "prs": artifact()["prs"] * 2}), "pr 1: duplicate id"),
        ],
        ids=["not-json", "no-prs", "created-at-string", "t-end-string", "files-string",
             "id-repeated"],
    )
    def test_malformed_artifact_exits_2(self, tmp_path, capsys, text, field):
        path = tmp_path / "corpus.json"
        path.write_text(text)
        assert main(["stats", "--corpus", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: corpus artifact: {field}")


GOOD_TARGET = {
    "id": "incoming",
    "contributor": "eve",
    "created_at": "2020-08-01T00:00:00Z",
    "files": ["src/net/udp.c", "src/net/tcp.c"],
}


class TestRecommend:
    def test_inline_target(self, corpus_artifact, capsys):
        code = main(
            [
                "recommend",
                "--corpus", corpus_artifact,
                "--files", "src/net/tcp.c,src/net/dns.c",
                "--contributor", "eve",
                "--time", "2020-08-01T00:00:00Z",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["recommender"] == "hgrec"
        assert payload["candidates"][0]["id"] == "alice"
        assert len(payload["candidates"]) == 5

    def test_top_k_one(self, corpus_artifact, capsys):
        code = main(
            [
                "recommend", "--corpus", corpus_artifact,
                "--files", "docs/guide.md", "--contributor", "heidi",
                "--time", "2020-08-01T00:00:00Z", "--top-k", "1",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["candidates"]) == 1

    def test_byte_identical_reruns(self, corpus_artifact, capsys):
        argv = [
            "recommend", "--corpus", corpus_artifact,
            "--files", "src/db/query.c", "--contributor", "grace",
            "--time", "2020-08-01T00:00:00Z",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_target_file(self, corpus_artifact, capsys, tmp_path):
        target = tmp_path / "target.json"
        target.write_text(json.dumps({
            "id": "incoming",
            "contributor": "eve",
            "created_at": "2020-08-01T00:00:00Z",
            "files": ["src/net/udp.c"],
        }))
        assert main(["recommend", "--corpus", corpus_artifact,
                     "--target", str(target)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target"] == "incoming"

    def test_target_file_and_flags_print_same_bytes(self, corpus_artifact, capsys, tmp_path):
        target = tmp_path / "target.json"
        target.write_text(json.dumps(GOOD_TARGET))
        assert main(["recommend", "--corpus", corpus_artifact, "--target", str(target)]) == 0
        from_file = capsys.readouterr().out
        assert main(
            ["recommend", "--corpus", corpus_artifact, "--id", "incoming",
             "--files", "src/net/udp.c,src/net/tcp.c", "--contributor", "eve",
             "--time", "2020-08-01T00:00:00Z"]
        ) == 0
        assert capsys.readouterr().out == from_file

    @pytest.mark.parametrize(
        "text",
        [
            json.dumps({**GOOD_TARGET, "created_at": 1596240000}),
            json.dumps({k: v for k, v in GOOD_TARGET.items() if k != "contributor"}),
            json.dumps([GOOD_TARGET]),
            "{not json",
            json.dumps({**GOOD_TARGET, "contributor": 7}),
            json.dumps({**GOOD_TARGET, "contributor": ""}),
            json.dumps({**GOOD_TARGET, "id": 5}),
            json.dumps({**GOOD_TARGET, "id": ""}),
        ],
        ids=["numeric-time", "no-contributor", "list", "invalid-json",
             "contributor-int", "contributor-empty", "id-int", "id-empty"],
    )
    def test_malformed_target_file_exits_2(self, corpus_artifact, capsys, tmp_path, text):
        target = tmp_path / "target.json"
        target.write_text(text)
        code = main(["recommend", "--corpus", corpus_artifact, "--target", str(target)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: target:")

    def test_malformed_time_flag_exits_2(self, corpus_artifact, capsys):
        code = main(
            ["recommend", "--corpus", corpus_artifact, "--files", "src/net/tcp.c",
             "--contributor", "eve", "--time", "12"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: target: bad created_at")

    @pytest.mark.parametrize("files", ["src/net/udp.c", [1], [""], None])
    def test_target_file_bad_files_exits_2(self, corpus_artifact, capsys, tmp_path, files):
        target = tmp_path / "target.json"
        target.write_text(json.dumps({
            "contributor": "eve",
            "created_at": "2020-08-01T00:00:00Z",
            "files": files,
        }))
        code = main(["recommend", "--corpus", corpus_artifact, "--target", str(target),
                     "--similarity-unit", "chars"])
        assert code == 2
        assert "target: files" in capsys.readouterr().err

    def test_empty_files_exits_2(self, corpus_artifact, capsys):
        code = main(
            ["recommend", "--corpus", corpus_artifact, "--files", "",
             "--contributor", "eve", "--time", "2020-08-01T00:00:00Z"]
        )
        assert code == 2

    def test_existing_pr_id_exits_2(self, corpus_artifact, capsys):
        code = main(
            ["recommend", "--corpus", corpus_artifact, "--files", "src/net/tcp.c",
             "--contributor", "eve", "--time", "2020-08-01T00:00:00Z",
             "--id", "pr-001"]
        )
        assert code == 2
        assert "pr-001" in capsys.readouterr().err

    def test_unknown_contributor_allowed(self, corpus_artifact, capsys):
        code = main(
            ["recommend", "--corpus", corpus_artifact, "--files", "src/net/tcp.c",
             "--contributor", "brand-new-dev", "--time", "2020-08-01T00:00:00Z"]
        )
        assert code == 0

    @pytest.mark.parametrize("name", ["hgrec", "ac", "revfinder", "chrev", "cn"])
    def test_developers_list_of_older_artifacts_changes_no_ranking(
        self, corpus_artifact, capsys, tmp_path, name
    ):
        payload = json.loads(Path(corpus_artifact).read_text())
        assert "developers" not in payload
        ids = {pr["contributor"] for pr in payload["prs"]}
        ids |= {c["author"] for pr in payload["prs"] for c in pr["comments"]}
        payload["developers"] = [{"id": d, "is_bot": d == "alice"} for d in sorted(ids)]
        older = tmp_path / "older.json"
        older.write_text(json.dumps(payload))
        argv = ["recommend", "--recommender", name, "--top-k", "50",
                "--files", "src/net/tcp.c,src/net/dns.c", "--contributor", "eve",
                "--time", "2020-08-01T00:00:00Z"]
        outputs = []
        for path in (corpus_artifact, str(older)):
            assert main([*argv, "--corpus", path]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert '"alice"' in outputs[0]

    def test_baseline_selection(self, corpus_artifact, capsys):
        code = main(
            ["recommend", "--corpus", corpus_artifact, "--recommender", "ac",
             "--files", "src/net/tcp.c", "--contributor", "eve",
             "--time", "2020-08-01T00:00:00Z"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["recommender"] == "ac"

    def test_graph_dump_bit_exact(self, corpus_artifact, capsys, tmp_path):
        dumps = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main(
                ["recommend", "--corpus", corpus_artifact,
                 "--files", "src/net/tcp.c", "--contributor", "eve",
                 "--time", "2020-08-01T00:00:00Z", "--dump-graph", str(path)]
            ) == 0
            capsys.readouterr()
            dumps.append(path.read_bytes())
        assert dumps[0] == dumps[1]
        graph = json.loads(dumps[0])
        assert {"vertices", "edges", "bounds"} <= set(graph)


class TestEvaluate:
    def test_three_rounds_on_15_month_slice(self, tmp_path, bots_file, capsys):
        # regenerate a 15-month corpus by truncating the fixture at month 15
        rows = [json.loads(l) for l in fixture_jsonl().splitlines()]
        kept = [r for r in rows if r["created_at"] < "2020-04"]
        src = tmp_path / "short.jsonl"
        src.write_text("\n".join(json.dumps(r) for r in kept) + "\n")
        artifact = tmp_path / "short-corpus.json"
        assert main(["ingest", "--input", str(src), "--output", str(artifact),
                     "--bots", bots_file]) == 0
        capsys.readouterr()

        out = tmp_path / "out"
        assert main(["evaluate", "--corpus", str(artifact),
                     "--output-dir", str(out), "--jobs", "1"]) == 0
        capsys.readouterr()
        report = json.loads((out / "summary.json").read_text())
        assert len(report["rounds"]) == 3

    def test_wilcoxon_block_present_with_two_recommenders(
        self, corpus_artifact, tmp_path, capsys
    ):
        out = tmp_path / "out"
        assert main(["evaluate", "--corpus", corpus_artifact,
                     "--recommenders", "hgrec,ac",
                     "--output-dir", str(out), "--jobs", "2"]) == 0
        capsys.readouterr()
        report = json.loads((out / "summary.json").read_text())
        assert "ac-s" in report["wilcoxon"]
        assert set(report["wilcoxon"]["ac-s"]) == {"acc", "mrr", "rd"}

    def test_byte_identical_csv_reruns(self, corpus_artifact, tmp_path, capsys):
        outputs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            assert main(["evaluate", "--corpus", corpus_artifact,
                         "--recommenders", "hgrec,revfinder",
                         "--output-dir", str(out)]) == 0
            capsys.readouterr()
            outputs.append((out / "report.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_compare_requires_two(self, corpus_artifact, capsys):
        assert main(["compare", "--corpus", corpus_artifact,
                     "--recommenders", "hgrec"]) == 2

    def test_short_span_exits_2(self, tmp_path, bots_file, capsys):
        rows = [json.loads(l) for l in fixture_jsonl().splitlines()]
        kept = [r for r in rows if r["created_at"] < "2019-09"]
        src = tmp_path / "tiny.jsonl"
        src.write_text("\n".join(json.dumps(r) for r in kept) + "\n")
        artifact = tmp_path / "tiny-corpus.json"
        assert main(["ingest", "--input", str(src), "--output", str(artifact),
                     "--bots", bots_file]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--corpus", str(artifact)]) == 2
        assert "months" in capsys.readouterr().err


class TestConfig:
    def test_round_trip_and_flag_override(self, tmp_path, corpus_artifact, capsys):
        from hgrec.config import HyperParams, RunConfig

        config = RunConfig(params=HyperParams(alpha=0.5), ks=[1, 3])
        path = tmp_path / "config.json"
        path.write_text(config.to_json())
        loaded = RunConfig.from_json(path.read_text())
        assert loaded == config

        # CLI flag wins over the file value
        code = main(
            ["recommend", "--corpus", corpus_artifact, "--config", str(path),
             "--alpha", "0.9", "--files", "src/net/tcp.c",
             "--contributor", "eve", "--time", "2020-08-01T00:00:00Z"]
        )
        assert code == 0

    RECOMMEND = ["recommend", "--files", "src/net/tcp.c", "--contributor", "eve",
                 "--time", "2020-08-01T00:00:00Z"]

    @pytest.mark.parametrize(
        "text, command, field",
        [
            ("{", RECOMMEND, "config is not JSON"),
            ('{"params": {"alpha": "x"}}', RECOMMEND, "alpha"),
            ('{"ks": "5"}', RECOMMEND, "ks"),
            ('{"params": {"bogus": 1}}', RECOMMEND, "bogus"),
            ("{}", ["evaluate", "--ks", "a"], "ks"),
            ("{}", ["evaluate", "--ks", "1,,3"], "ks"),
        ],
        ids=["not-json", "alpha-string", "ks-string", "unknown-param",
             "ks-flag-letter", "ks-flag-empty-item"],
    )
    def test_malformed_config_exits_2(
        self, tmp_path, corpus_artifact, capsys, text, command, field
    ):
        path = tmp_path / "config.json"
        path.write_text(text)
        code = main([*command, "--corpus", corpus_artifact, "--config", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    def test_help_lists_every_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["evaluate", "--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--recommenders", "--ks", "--initial-months", "--max-rounds",
                     "--output-dir", "--jobs", "--alpha", "--top-m",
                     "--comment-decay", "--solver", "--tol", "--similarity-unit",
                     "--ac-window-days", "--cn-decay", "--rd-scope", "--config"):
            assert flag in text
