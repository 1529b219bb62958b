"""CLI commands end to end over the bundled fixture."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hgrec.cli import main
from hgrec.fixtures import BOT_PATTERN, fixture_jsonl

from conftest import load_synth

FIXTURE = Path(__file__).parent / "data" / "review_history_50pr.jsonl"
REPO = Path(__file__).resolve().parent.parent


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


# sha256 of the artifact and the stats line `ingest` prints, as written before
# ingest was made to read each record once.
INGEST_PINS = {
    "fixture": (
        "cada0834ca6f0d133c9a8eb38a3f76a6132b0db3cbfa275e35d0c6c560d636b2",
        '{"comments": 90, "contributors": 4, "prs": 48, "reviewers": 5, '
        '"skipped_lines": 0, "written": "OUT"}',
    ),
    "backtest-baselines": (
        "dd0eb5be9e2a755c157fc13527c0b743d49010de276b98aa37fb6905631b5e63",
        '{"comments": 2313, "contributors": 80, "prs": 760, "reviewers": 80, '
        '"skipped_lines": 0, "written": "OUT"}',
    ),
}


@pytest.mark.parametrize("name", sorted(INGEST_PINS))
def test_ingest_output_is_pinned(tmp_path, capsys, bots_file, name):
    """`ingest` of the bundled fixture (with its bot pattern) and of the
    benchmark's seed-1 backtest-baselines export writes the same bytes."""
    if name == "fixture":
        export, extra = FIXTURE, ["--bots", bots_file]
    else:
        synth = load_synth()
        records, _ = synth.generate(synth.Shape(prs=800, months=36), "1/0")
        export, extra = tmp_path / "export.jsonl", []
        export.write_text(synth.to_jsonl(records), encoding="utf-8")
    out = tmp_path / "corpus.json"
    assert main(["ingest", "--input", str(export), "--output", str(out), *extra]) == 0
    digest, line = INGEST_PINS[name]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert capsys.readouterr().out == line.replace("OUT", str(out)) + "\n"


class TestIngestErrors:
    @pytest.mark.parametrize("command", ["ingest", "stats"])
    def test_bad_bot_pattern_names_its_line(self, tmp_path, capsys, command):
        bots = tmp_path / "bots.txt"
        bots.write_text(BOT_PATTERN + "\n\n[unclosed\n")
        argv = [command, "--input", str(FIXTURE), "--bots", str(bots)]
        if command == "ingest":
            argv += ["--output", str(tmp_path / "o.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: bots file {bots} line 3: bad pattern '[unclosed': "
            "unterminated character set"
        )
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["ingest", "stats"])
    @pytest.mark.parametrize("flag", ["--bots", "--exclude"])
    @pytest.mark.parametrize("empty", [False, True], ids=["not-utf8", "empty-path"])
    def test_unreadable_list_file_exits_2(self, tmp_path, capsys, command, flag, empty):
        """A list file that is not UTF-8, or an empty path, which is read as a
        path rather than taken for no list."""
        listed = tmp_path / "accounts.txt"
        listed.write_bytes(b"\xff[bot]\n")
        argv = [command, "--input", str(FIXTURE), flag, "" if empty else str(listed)]
        if command == "ingest":
            argv += ["--output", str(tmp_path / "o.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        if empty:
            assert err == "error: [Errno 2] No such file or directory: ''\n"
        else:
            assert err.startswith(f"error: {listed}: not UTF-8 text: ")
        assert not (tmp_path / "o.json").exists()

    @staticmethod
    def export_repeating_line_1(tmp_path, *, state="merged", invalid=False):
        """The fixture, a blank line, optionally a line that is not JSON, and
        its first PR again."""
        rows = FIXTURE.read_text().splitlines()
        repeat = {**json.loads(rows[0]), "state": state}
        rows += ["", *(["not json"] if invalid else []), json.dumps(repeat)]
        src = tmp_path / "repeat.jsonl"
        src.write_text("\n".join(rows) + "\n")
        return src

    @pytest.mark.parametrize(
        "command, skip_invalid",
        [("ingest", False), ("ingest", True), ("stats", False), ("stats", True)],
    )
    def test_repeated_pr_id_names_both_lines(self, tmp_path, capsys, command, skip_invalid):
        src = self.export_repeating_line_1(tmp_path, invalid=skip_invalid)
        argv = [command, "--input", str(src)]
        if command == "ingest":
            argv += ["--output", str(tmp_path / "o.json")]
        if skip_invalid:
            argv.append("--skip-invalid")
        assert main(argv) == 2
        line = 53 if skip_invalid else 52  # physical lines: the blank one counts
        assert capsys.readouterr().err == (
            f"error: line {line}: duplicate PR id 'pr-001' (first at line 1)\n"
        )

    @pytest.mark.parametrize("command", ["ingest", "stats"])
    def test_repeated_pr_id_dropped_by_cleaning_is_no_error(self, tmp_path, capsys, command):
        src = self.export_repeating_line_1(tmp_path, state="open")
        argv = [command, "--input", str(src)]
        if command == "ingest":
            argv += ["--output", str(tmp_path / "o.json")]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["prs"] == 48


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

    def test_input_skip_invalid_counts_skipped_lines(self, tmp_path, capsys):
        src = tmp_path / "bad.jsonl"
        src.write_text(FIXTURE.read_text() + "not json\n{}\n")
        out = tmp_path / "o.json"
        assert main(["ingest", "--input", str(src), "--output", str(out),
                     "--skip-invalid"]) == 0
        ingested = json.loads(capsys.readouterr().out)
        assert main(["stats", "--input", str(src), "--skip-invalid"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["skipped_lines"] == 2
        assert stats == {k: v for k, v in ingested.items() if k != "written"}

    @pytest.mark.parametrize(
        "flag",
        [["--bots", "bots.txt"], ["--exclude", "ids.txt"], ["--min-reviews", "0"],
         ["--skip-invalid"]],
        ids=["bots", "exclude", "min-reviews", "skip-invalid"],
    )
    def test_corpus_rejects_input_only_flags(self, corpus_artifact, capsys, flag):
        assert main(["stats", "--corpus", corpus_artifact, *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag[0]}: only with --input, not --corpus\n"

    @pytest.mark.parametrize(
        "text, field",
        [
            ("not json", ""),
            (json.dumps({"format": "hgrec-corpus-v1"}), ""),
            (json.dumps(artifact(created_at="x")), "pr 0: bad created_at"),
            (json.dumps({**artifact(), "t_end": "2020"}), "bad t_end"),
            (json.dumps(artifact(files="src/a.c")), "pr 0: files"),
            (json.dumps({**artifact(), "prs": artifact()["prs"] * 2}), "pr 1: duplicate id"),
            (json.dumps({**artifact(), "prs": []}), "prs must name at least one PR"),
            (json.dumps({**artifact(), "t_end": 1_599_999_999}),
             "bounds (1600000000, 1599999999) leave out PR or comment times"),
            (json.dumps(artifact(comments=[{"author": "bo", "created_at": 1_600_000_001}])),
             "bounds (1600000000, 1600000000) leave out PR or comment times "
             "(1600000000, 1600000001)"),
        ],
        ids=["not-json", "no-prs", "created-at-string", "t-end-string", "files-string",
             "id-repeated", "prs-empty", "t-end-before-t-start", "comment-after-t-end"],
    )
    def test_malformed_artifact_exits_2(self, tmp_path, capsys, text, field):
        path = tmp_path / "corpus.json"
        path.write_text(text)
        assert main(["stats", "--corpus", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: corpus artifact: {field}")


class TestTimeRange:
    """A time ``datetime`` cannot hold (before 0001-01-01T00:00:00Z or after
    9999-12-31T23:59:59Z) is a user error naming its field, whichever
    command reads it."""

    OUTSIDE = "outside 0001-01-01T00:00:00Z through 9999-12-31T23:59:59Z"

    @pytest.mark.parametrize("command", ["stats", "evaluate", "recommend"])
    @pytest.mark.parametrize(
        "payload, field",
        [
            (artifact(created_at=10**12), "pr 0: bad created_at"),
            (artifact(created_at=10**20), "pr 0: bad created_at"),
            (artifact(comments=[{"author": "bo", "created_at": 253402300800}]),
             "pr 0: comment 0 has bad created_at"),
            ({**artifact(), "t_start": -62135596801}, "bad t_start"),
            ({**artifact(), "t_end": 10**20}, "bad t_end"),
        ],
        ids=["created-1e12", "created-1e20", "comment-after-9999", "t-start-before-1",
             "t-end-1e20"],
    )
    def test_artifact_exits_2(self, tmp_path, capsys, command, payload, field):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(payload))
        argv = {
            "stats": ["stats", "--corpus", str(path)],
            "evaluate": ["evaluate", "--corpus", str(path), "--recommenders", "hgrec,ac",
                         "--output-dir", str(tmp_path / "out")],
            "recommend": ["recommend", "--corpus", str(path), "--files", "src/a.c",
                          "--contributor", "eve", "--time", "2020-08-01T00:00:00Z"],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: corpus artifact: {field}: epoch seconds ")
        assert captured.err.endswith(f" {self.OUTSIDE}\n")

    @pytest.mark.parametrize(
        "stamp, epoch",
        [("0001-01-01T00:00:00+01:00", -62135600400),
         ("9999-12-31T23:59:59-01:00", 253402304399)],
        ids=["before-year-1", "after-year-9999"],
    )
    @pytest.mark.parametrize("where", ["pr", "comment"])
    def test_export_exits_2(self, tmp_path, capsys, stamp, epoch, where):
        rows = FIXTURE.read_text().splitlines()
        row = json.loads(rows[2])
        if where == "pr":
            row["created_at"], field = stamp, "bad created_at"
        else:
            row["comments"][0]["created_at"], field = stamp, "comment 0 has bad created_at"
        rows[2] = json.dumps(row)
        src = tmp_path / "export.jsonl"
        src.write_text("\n".join(rows) + "\n")
        out = tmp_path / "o.json"
        assert main(["ingest", "--input", str(src), "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: line 3: {field}: epoch seconds {epoch} {self.OUTSIDE}\n"
        )
        assert not out.exists()

    def test_evaluate_corpus_ending_in_december_9999_exits_2(self, tmp_path, capsys):
        # Every time is in range, but the last round tests the month that
        # ends at 10000-01-01, which ``datetime`` cannot hold.
        times = [253368086400 + i * 2_600_000 for i in range(13)] + [253402300799]
        prs = [
            {"id": f"p{i}", "contributor": "ann", "created_at": t, "state": "merged",
             "files": ["src/a.c"], "comments": [{"author": "bo", "created_at": t}]}
            for i, t in enumerate(times)
        ]
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({"format": "hgrec-corpus-v1", "t_start": times[0],
                                    "t_end": times[-1], "prs": prs}))
        assert main(["evaluate", "--corpus", str(path), "--recommenders", "hgrec,ac",
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: an evaluation round ends at 10000-01-01, after 9999-12-31T23:59:59Z\n"
        )


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

    @pytest.mark.parametrize(
        "time, reason",
        [("12", "Invalid isoformat string: '12'"),
         ("0001-01-01T00:00:00+01:00", "epoch seconds -62135600400 outside "
          "0001-01-01T00:00:00Z through 9999-12-31T23:59:59Z")],
        ids=["not-rfc3339", "before-year-1"],
    )
    def test_malformed_time_flag_exits_2(self, corpus_artifact, capsys, time, reason):
        code = main(
            ["recommend", "--corpus", corpus_artifact, "--files", "src/net/tcp.c",
             "--contributor", "eve", "--time", time]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: target: bad created_at: {reason}\n"

    @pytest.mark.parametrize("files", ["src/net/udp.c", [1], [""], None])
    def test_target_file_bad_files_exits_2(self, corpus_artifact, capsys, tmp_path, files):
        target = tmp_path / "target.json"
        target.write_text(json.dumps({
            "contributor": "eve",
            "created_at": "2020-08-01T00:00:00Z",
            "files": files,
        }))
        code = main(["recommend", "--corpus", corpus_artifact, "--target", str(target)])
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
                     "--output-dir", str(out)]) == 0
        capsys.readouterr()
        report = json.loads((out / "summary.json").read_text())
        assert len(report["rounds"]) == 3

    def test_wilcoxon_block_present_with_two_recommenders(
        self, corpus_artifact, tmp_path, capsys
    ):
        out = tmp_path / "out"
        assert main(["evaluate", "--corpus", corpus_artifact,
                     "--recommenders", "hgrec,ac",
                     "--output-dir", str(out)]) == 0
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

    def test_jobs_stub_accepts_only_1(self, corpus_artifact, tmp_path, capsys):
        reports = []
        for name, extra in (("plain", []), ("jobs-1", ["--jobs", "1"])):
            out = tmp_path / name
            assert main(["evaluate", "--corpus", corpus_artifact,
                         "--output-dir", str(out), *extra]) == 0
            reports.append((out / "report.csv").read_bytes())
        assert reports[0] == reports[1]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["evaluate", "--corpus", corpus_artifact,
                  "--output-dir", str(tmp_path / "jobs-2"), "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "jobs-2").exists()

    @pytest.mark.parametrize("where", ["empty", "under-a-file"])
    def test_unmakeable_output_dir_exits_2_before_the_backtest(
        self, corpus_artifact, tmp_path, capsys, monkeypatch, where
    ):
        import hgrec.cli

        def no_backtest(*args, **kwargs):
            raise AssertionError("run_comparison was called")

        monkeypatch.setattr(hgrec.cli, "run_comparison", no_backtest)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = {"empty": "", "under-a-file": str(blocker / "out")}[where]
        assert main(["evaluate", "--corpus", corpus_artifact,
                     "--recommenders", "hgrec,ac", "--output-dir", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno ")

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
            ('{"ks": []}', ["evaluate"], "ks"),
            ('{"params": {"bogus": 1}}', RECOMMEND, "bogus"),
            ('{"params": {"similarity_unit": "components"}}', RECOMMEND,
             "unknown params keys: ['similarity_unit']"),
            ("{}", ["evaluate", "--ks", "a"], "ks"),
            ("{}", ["evaluate", "--ks", "1,,3"], "ks"),
            ("{}", ["evaluate", "--ks", ""], "ks must be comma-separated integers, got ''"),
            ("{}", ["evaluate", "--recommenders", ""], "unknown recommenders: ['']"),
            ("{}", [*RECOMMEND[:4], "", *RECOMMEND[5:]],
             "target: contributor must be a non-empty string"),
            ("{}", [RECOMMEND[0], "--files", "", *RECOMMEND[3:]],
             "target: files must name at least one path"),
            ("{}", [*RECOMMEND[:6], ""], "target: bad created_at: "),
            ('{"jobs": 2}', ["evaluate"], "unknown config keys: ['jobs']"),
            ('{"params": {"max_iter": 5}}', RECOMMEND,
             "unknown params keys: ['max_iter']"),
            ('{"deterministic": false}', RECOMMEND, "deterministic"),
        ],
        ids=["not-json", "alpha-string", "ks-string", "ks-empty", "unknown-param",
             "similarity-unit-param", "ks-flag-letter", "ks-flag-empty-item",
             "ks-flag-empty", "recommenders-flag-empty", "contributor-flag-empty",
             "files-flag-empty", "time-flag-empty",
             "jobs-key", "max-iter-param", "deterministic-false"],
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

    @pytest.mark.parametrize(
        "command",
        [["stats", "--input", ""], [*RECOMMEND, "--config", ""],
         ["evaluate", "--config", ""], ["recommend", "--target", ""]],
        ids=["stats-input", "recommend-config", "evaluate-config", "recommend-target"],
    )
    def test_empty_path_flag_exits_2(self, corpus_artifact, capsys, command):
        # An empty path is read as a path, not taken for an absent flag.
        if command[0] != "stats":
            command = [*command, "--corpus", corpus_artifact]
        assert main(command) == 2
        assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: ''\n"

    @pytest.mark.parametrize(
        "key, value", [("solver", '"direct"'), ("tol", "1e-10")], ids=["solver", "tol"]
    )
    def test_solver_keys_exit_2_before_any_fit(
        self, tmp_path, corpus_artifact, capsys, monkeypatch, key, value
    ):
        # every fit factors, so no config chooses or tunes a solver
        from hgrec.recommender import HypergraphRecommender

        fits = []
        monkeypatch.setattr(HypergraphRecommender, "fit", fits.append)
        path = tmp_path / "config.json"
        path.write_text(f'{{"params": {{"{key}": {value}}}}}')
        args = [*self.RECOMMEND, "--corpus", corpus_artifact, "--config", str(path)]
        assert main(args) == 2
        assert fits == []
        assert capsys.readouterr().err == f"error: unknown params keys: ['{key}']\n"

    @pytest.mark.parametrize("solver", ["iterative", "auto"])
    def test_solver_argument_accepts_only_direct(self, solver):
        from hgrec.config import HyperParams
        from hgrec.errors import ConfigError

        with pytest.raises(ConfigError, match="solver"):
            HyperParams(solver=solver)

    @pytest.mark.parametrize(
        "flag",
        [["--similarity-unit", "components"], ["--solver", "direct"], ["--tol", "1e-10"]],
        ids=["similarity-unit", "solver", "tol"],
    )
    def test_similarity_unit_flag_is_gone(self, corpus_artifact, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main([*self.RECOMMEND, "--corpus", corpus_artifact, *flag])
        assert exit_info.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_help_lists_every_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["evaluate", "--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--recommenders", "--ks", "--initial-months", "--max-rounds",
                     "--output-dir", "--alpha", "--top-m",
                     "--comment-decay", "--ac-window-days",
                     "--cn-decay", "--rd-scope", "--config"):
            assert flag in text
        for flag in ("--solver", "--tol"):
            assert flag not in text


# Runs in a fresh interpreter: which modules a command loads is a property
# of the whole process, so it cannot be read inside the test session.
FOOTPRINT_SCRIPT = """
import contextlib, io, json, sys
import hgrec
import hgrec.cli

fixture, workdir = sys.argv[1:]
corpus = workdir + "/corpus.json"
target = ["--files", "src/net/tcp.c,src/net/dns.c", "--contributor", "eve",
          "--time", "2020-08-01T00:00:00Z"]
commands = {
    "ingest": ["ingest", "--input", fixture, "--output", corpus],
    "stats --input": ["stats", "--input", fixture],
    "stats --corpus": ["stats", "--corpus", corpus],
    "evaluate baselines": ["evaluate", "--corpus", corpus, "--recommenders",
                           "ac,revfinder,chrev,cn", "--output-dir", workdir + "/out"],
    "recommend revfinder": ["recommend", "--corpus", corpus, *target,
                            "--recommender", "revfinder"],
    "recommend hgrec": ["recommend", "--corpus", corpus, *target],
}
loaded = {"import": "scipy" in sys.modules}
for name, argv in commands.items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = hgrec.cli.main(argv)
    loaded[name] = (code, "scipy" in sys.modules)
print(json.dumps(loaded))
"""


def test_only_a_hypergraph_fit_imports_scipy(tmp_path):
    """`import hgrec`, ingest, stats, a baselines-only evaluate and a
    baseline's recommend never load scipy; an hgrec recommend does."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
        ),
    }
    child = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT, str(FIXTURE), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    loaded = json.loads(child.stdout.splitlines()[-1])
    assert loaded == {
        "import": False,
        "ingest": [0, False],
        "stats --input": [0, False],
        "stats --corpus": [0, False],
        "evaluate baselines": [0, False],
        "recommend revfinder": [0, False],
        "recommend hgrec": [0, True],
    }


def test_python_m_hgrec_runs_the_cli(capsys):
    """`python -m hgrec` prints what the `hgrec` entry point prints."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
        ),
    }
    argv = ["stats", "--input", "tests/data/review_history_50pr.jsonl"]
    child = subprocess.run(
        [sys.executable, "-m", "hgrec", *argv],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    assert main([argv[0], argv[1], str(FIXTURE)]) == 0
    assert child.stdout == capsys.readouterr().out
