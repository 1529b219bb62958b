"""Export parsing and cleaning rules."""

import io
import json

import numpy as np
import pytest

from hgrec import kernels
from hgrec.corpus import (
    TargetPR,
    clean,
    corpus_from_json,
    corpus_to_json,
    parse_export,
    parse_target,
    parse_timestamp,
    reviewer_sets,
)
from hgrec.errors import EmptyCorpusError, ExportParseError, HgrecError

from conftest import DAY, make_corpus, make_pr

T0 = parse_timestamp("2020-01-01T00:00:00Z")


def line(pr_id="pr1", contributor="alice", created="2020-01-01T00:00:00Z",
         state="merged", files=("src/a.c",), comments=()):
    return json.dumps(
        {
            "id": pr_id,
            "contributor": contributor,
            "created_at": created,
            "state": state,
            "files": list(files),
            "comments": [
                {"author": a, "created_at": t} for a, t in comments
            ],
        }
    )


class TestParseExport:
    def test_round_trip_single_line(self):
        text = line(comments=[("bob", "2020-01-02T00:00:00Z"),
                              ("carol", "2020-01-03T00:00:00Z")])
        prs = parse_export(io.StringIO(text))
        assert len(prs) == 1
        pr = prs[0]
        assert pr.id == "pr1"
        assert pr.contributor == "alice"
        assert pr.created_at == T0
        assert len(pr.comments) == 2
        assert pr.comments[0].author == "bob"

    def test_empty_stream(self):
        assert parse_export(io.StringIO("")) == []

    def test_missing_contributor_names_field_and_line(self):
        obj = json.loads(line())
        del obj["contributor"]
        text = line() + "\n" + json.dumps(obj)
        with pytest.raises(ExportParseError) as err:
            parse_export(io.StringIO(text))
        assert "contributor" in str(err.value)
        assert err.value.line_number == 2

    def test_skip_invalid_counts_errors(self):
        text = line() + "\nnot json\n" + line(pr_id="pr2")
        errors = []
        prs = parse_export(io.StringIO(text), skip_invalid=True, errors=errors)
        assert [p.id for p in prs] == ["pr1", "pr2"]
        assert len(errors) == 1
        assert errors[0].line_number == 2

    def test_unknown_fields_ignored(self):
        obj = json.loads(line())
        obj["labels"] = ["x"]
        prs = parse_export(io.StringIO(json.dumps(obj)))
        assert prs[0].id == "pr1"

    def test_input_order_preserved(self):
        text = line(pr_id="b", created="2020-02-01T00:00:00Z") + "\n" + line(pr_id="a")
        prs = parse_export(io.StringIO(text))
        assert [p.id for p in prs] == ["b", "a"]

    def test_comments_sorted_by_time(self):
        text = line(comments=[("z", "2020-01-05T00:00:00Z"),
                              ("a", "2020-01-02T00:00:00Z")])
        (pr,) = parse_export(io.StringIO(text))
        assert [c.author for c in pr.comments] == ["a", "z"]

    def test_offset_timestamps_normalized_to_utc(self):
        assert parse_timestamp("2020-01-01T05:00:00+05:00") == T0

    def test_numeric_pr_created_at_names_line(self):
        obj = json.loads(line())
        obj["created_at"] = 1577836800
        with pytest.raises(ExportParseError) as err:
            parse_export(io.StringIO(line() + "\n" + json.dumps(obj)))
        assert err.value.line_number == 2
        assert "created_at" in str(err.value)

    def test_numeric_comment_created_at_names_line(self):
        obj = json.loads(line())
        obj["comments"] = [{"author": "bob", "created_at": 1577836800}]
        with pytest.raises(ExportParseError) as err:
            parse_export(io.StringIO(line() + "\n" + json.dumps(obj)))
        assert err.value.line_number == 2
        assert "comment 0" in str(err.value)

    @pytest.mark.parametrize("author", [7, None, "", ["bob"]])
    def test_non_string_comment_author_names_line(self, author):
        obj = json.loads(line())
        obj["comments"] = [{"author": author, "created_at": "2020-01-02T00:00:00Z"}]
        with pytest.raises(ExportParseError) as err:
            parse_export(io.StringIO(json.dumps(obj)))
        assert err.value.line_number == 1
        assert "author" in str(err.value)


    @pytest.mark.parametrize("files", [[""], ["src/a.c", ""], "src/a.c", [1], None])
    def test_bad_files_names_line(self, files):
        obj = json.loads(line())
        obj["files"] = files
        with pytest.raises(ExportParseError) as err:
            parse_export(io.StringIO(line() + "\n" + json.dumps(obj)))
        assert err.value.line_number == 2
        assert "files" in str(err.value)

    @pytest.mark.parametrize("comments", [{}, {"bob": "2020-01-02T00:00:00Z"}, "bob", None])
    def test_comments_not_a_list_names_line(self, comments):
        obj = json.loads(line())
        obj["comments"] = comments
        with pytest.raises(ExportParseError) as err:
            parse_export(io.StringIO(line() + "\n" + json.dumps(obj)))
        assert err.value.line_number == 2
        assert "comments must be a list" in str(err.value)

    @pytest.mark.parametrize(
        "bad", [b"\xff" + line().encode(), b"[" * 100_000, b"[1, 2]", b"{"],
        ids=["not-utf8", "nested-too-deep", "not-an-object", "invalid-json"],
    )
    def test_bad_bytes_line_names_line(self, bad):
        with pytest.raises(ExportParseError) as err:
            parse_export([line().encode(), b"", bad])
        assert err.value.line_number == 3

    def test_bytes_lines_keep_u2028_inside_a_path(self):
        obj = json.loads(line(files=("src/odd\u2028name.c",)))
        raw = json.dumps(obj, ensure_ascii=False).encode()
        (pr,) = parse_export(raw.splitlines())
        assert pr.files == ("src/odd\u2028name.c",)


class TestParseTarget:
    def test_defaults_id_and_needs_no_state_or_comments(self):
        got = parse_target(
            {"contributor": "eve", "created_at": "2020-01-01T00:00:00Z",
             "files": ["b.c", "a.c", "a.c"]}
        )
        assert got == TargetPR("target", "eve", T0, ("a.c", "b.c"))

    def test_export_line_is_a_valid_target(self):
        got = parse_target(line(comments=[("bob", "2020-01-02T00:00:00Z")]).encode())
        assert got == TargetPR("pr1", "alice", T0, ("src/a.c",))

    @pytest.mark.parametrize(
        "data, field",
        [
            (b"{not json", "invalid JSON"),
            (b"\xff{}", "utf-8"),
            (b"[]", "not a JSON object"),
            ({"created_at": "2020-01-01T00:00:00Z", "files": ["a.c"]}, "contributor"),
            ({"contributor": "eve", "created_at": 1577836800, "files": ["a.c"]}, "created_at"),
            ({"contributor": "eve", "created_at": "12", "files": ["a.c"]}, "created_at"),
            ({"contributor": 7, "created_at": "2020-01-01T00:00:00Z", "files": ["a.c"]},
             "contributor"),
            ({"id": "", "contributor": "eve", "created_at": "2020-01-01T00:00:00Z",
              "files": ["a.c"]}, "id"),
            ({"contributor": "eve", "created_at": "2020-01-01T00:00:00Z"}, "files"),
            ({"contributor": "eve", "created_at": "2020-01-01T00:00:00Z", "files": []},
             "files"),
            ({"contributor": "eve", "created_at": "2020-01-01T00:00:00Z", "files": ["a.c"],
              "state": "draft"}, "state"),
        ],
    )
    def test_bad_target_names_field(self, data, field):
        with pytest.raises(HgrecError) as err:
            parse_target(data)
        assert str(err.value).startswith("target: ")
        assert field in str(err.value)


class TestClean:
    def test_open_pr_removed(self):
        raw = [
            make_pr("open1", "a", T0, ["f"], state="open"),
            make_pr("m1", "a", T0 + DAY, ["f"]),
        ]
        corpus = clean(raw)
        assert [pr.id for pr in corpus.prs] == ["m1"]

    def test_single_review_reviewer_dropped(self):
        raw = [
            make_pr("p1", "a", T0, ["f"], comments=[("once", T0 + 1), ("twice", T0 + 2)]),
            make_pr("p2", "a", T0 + DAY, ["f"], comments=[("twice", T0 + DAY + 1)]),
        ]
        corpus = clean(raw, min_reviews=2)
        sets = reviewer_sets(corpus)
        assert sets["p1"] == {"twice"}
        assert sets["p2"] == {"twice"}

    def test_bot_comments_removed(self):
        raw = [
            make_pr("p1", "a", T0, ["f"],
                    comments=[("dependabot[bot]", T0 + 1), ("bob", T0 + 2)]),
            make_pr("p2", "c", T0 + DAY, ["f"],
                    comments=[("dependabot[bot]", T0 + DAY + 1), ("bob", T0 + DAY + 2)]),
        ]
        corpus = clean(raw, bot_patterns=[r"\[bot\]$"])
        authors = {c.author for pr in corpus.prs for c in pr.comments}
        assert "dependabot[bot]" not in authors
        assert "bob" in authors

    def test_bot_authored_pr_removed(self):
        raw = [
            make_pr("p1", "release[bot]", T0, ["f"]),
            make_pr("p2", "human", T0 + DAY, ["f"]),
        ]
        corpus = clean(raw, bot_patterns=[r"\[bot\]$"])
        assert [pr.id for pr in corpus.prs] == ["p2"]

    def test_excluded_accounts_removed(self):
        raw = [
            make_pr("p1", "a", T0, ["f"], comments=[("ghost", T0 + 1), ("b", T0 + 2)]),
            make_pr("p2", "c", T0 + DAY, ["f"], comments=[("b", T0 + DAY + 1)]),
        ]
        corpus = clean(raw, min_reviews=1, exclude_ids=["ghost"])
        authors = {c.author for pr in corpus.prs for c in pr.comments}
        assert "ghost" not in authors

    def test_no_file_pr_removed(self):
        raw = [
            make_pr("p1", "a", T0, [], comments=[("b", T0 + 1)]),
            make_pr("p2", "a", T0 + DAY, ["f"]),
        ]
        corpus = clean(raw, min_reviews=1)
        assert [pr.id for pr in corpus.prs] == ["p2"]

    def test_empty_result_raises(self):
        with pytest.raises(EmptyCorpusError):
            clean([make_pr("p1", "a", T0, ["f"], state="open")])

    def test_bounds_and_order(self):
        raw = [
            make_pr("late", "a", T0 + 5 * DAY, ["f"]),
            make_pr("early", "b", T0, ["f"], comments=[("c", T0 + 9 * DAY), ("c", T0 + 1)]),
        ]
        corpus = clean(raw, min_reviews=1)
        assert [pr.id for pr in corpus.prs] == ["early", "late"]
        assert corpus.t_start == T0
        assert corpus.t_end == T0 + 9 * DAY

    def test_idempotent(self):
        raw = [
            make_pr("p1", "a", T0, ["f"], comments=[("b", T0 + 1), ("solo", T0 + 2)]),
            make_pr("p2", "c", T0 + DAY, ["g"], comments=[("b", T0 + DAY + 1)]),
            make_pr("p3", "d", T0 + 2 * DAY, ["h"], state="open"),
        ]
        once = clean(raw, min_reviews=2)
        twice = clean(once.prs, min_reviews=2)
        assert once.prs == twice.prs
        assert (once.t_start, once.t_end) == (twice.t_start, twice.t_end)

    def test_conservation_and_closure(self):
        raw = [
            make_pr("p1", "a", T0, ["f"], comments=[("b", T0 + 1)]),
            make_pr("p2", "c", T0 + DAY, ["g"], comments=[("b", T0 + DAY + 1)]),
        ]
        corpus = clean(raw, min_reviews=1)
        assert {pr.id for pr in corpus.prs} <= {"p1", "p2"}


class TestReviewerSets:
    def test_distinct_authors(self):
        corpus = clean(
            [make_pr("p", "a", T0, ["f"],
                     comments=[("b", T0 + 1), ("c", T0 + 2), ("b", T0 + 3)])],
            min_reviews=1,
        )
        assert reviewer_sets(corpus)["p"] == {"b", "c"}

    def test_self_comments_excluded(self):
        corpus = clean(
            [make_pr("p", "a", T0, ["f"], comments=[("a", T0 + 1)])],
            min_reviews=1,
        )
        assert reviewer_sets(corpus)["p"] == frozenset()

    def test_no_comments(self):
        corpus = clean([make_pr("p", "a", T0, ["f"])], min_reviews=1)
        assert reviewer_sets(corpus)["p"] == frozenset()


class TestSlices:
    def test_untruncated_prs_are_shared_and_truncated_ones_copied(self):
        early = make_pr("p1", "a", T0, ["f"], comments=[("b", T0 + 1)])
        late = make_pr("p2", "a", T0 + 2, ["f"], comments=[("b", T0 + 3), ("c", T0 + 9)])
        corpus = make_corpus([early, late])
        train = corpus.slice_until(T0 + 5)
        assert train.prs[0] is early
        assert train.prs[1] is not late
        assert train.prs[1].comments == late.comments[:1]
        assert len(late.comments) == 2

    def test_root_reads_stored_rows_but_keeps_none_of_its_own(self, monkeypatch):
        rows = []
        row = kernels.mean_similarity_row
        monkeypatch.setattr(
            kernels, "mean_similarity_row",
            lambda *args, **kwargs: rows.append(args) or row(*args, **kwargs),
        )
        corpus = make_corpus([make_pr(f"p{i}", "a", T0 + i, [f"src/f{i}.c"]) for i in range(4)])
        corpus.similarity_row(0, "components")
        assert corpus._similarity["components"] == {}
        sliced = corpus.slice_until(T0 + 2).similarity_row(1, "components")
        assert list(corpus._similarity["components"]) == [1]
        assert len(rows) == 2
        np.testing.assert_array_equal(corpus.similarity_row(1, "components")[:2], sliced)
        assert len(rows) == 2


class TestArtifact:
    def test_json_round_trip(self):
        corpus = clean(
            [
                make_pr("p1", "a", T0, ["f", "g"], comments=[("b", T0 + 1)]),
                make_pr("p2", "b", T0 + DAY, ["f"], comments=[("a", T0 + DAY + 5)]),
            ],
            min_reviews=1,
        )
        text = corpus_to_json(corpus, source_sha256="x" * 64)
        loaded = corpus_from_json(text)
        assert loaded.prs == corpus.prs
        assert (loaded.t_start, loaded.t_end) == (corpus.t_start, corpus.t_end)
        assert corpus_to_json(loaded, source_sha256="x" * 64) == text

    @pytest.mark.parametrize(
        "text", ["nope", b"\xff", "[]", '{"format": "other"}', '{"format": "hgrec-corpus-v1"}'],
    )
    def test_malformed_artifact_names_it(self, text):
        with pytest.raises(HgrecError) as err:
            corpus_from_json(text)
        assert str(err.value).startswith("corpus artifact: ")

    @staticmethod
    def small_payload():
        corpus = clean(
            [
                make_pr("p1", "a", T0, ["f", "g"], comments=[("b", T0 + 1)]),
                make_pr("p2", "b", T0 + DAY, ["f"], comments=[("a", T0 + DAY + 5)]),
            ],
            min_reviews=1,
        )
        return json.loads(corpus_to_json(corpus))

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("prs", 0, "created_at"), "x", "pr 0: bad created_at"),
            (("prs", 0, "created_at"), True, "pr 0: bad created_at"),
            (("prs", 1, "comments", 0, "created_at"), 1.5, "pr 1: comment 0 has bad"),
            (("prs", 1, "comments", 0, "author"), "", "pr 1: comment 0 author"),
            (("t_start",), True, "bad t_start"),
            (("t_end",), "2020", "bad t_end"),
            (("prs", 0, "files"), "f", "pr 0: files"),
            (("prs", 0, "files"), [""], "pr 0: files"),
            (("prs", 0, "files"), [], "pr 0: files"),
            (("prs", 0, "comments"), {}, "pr 0: comments"),
            (("prs", 0, "id"), "", "pr 0: id"),
            (("prs", 1, "contributor"), 7, "pr 1: contributor"),
            (("prs", 0, "state"), "draft", "pr 0: state"),
            (("prs",), {}, "prs must be a list"),
            (("prs", 1, "id"), "p1", "pr 1: duplicate id 'p1'"),
        ],
        ids=["created-at-string", "created-at-bool", "comment-created-at-float",
             "comment-author-empty", "t-start-bool", "t-end-string", "files-string",
             "files-empty-path", "files-empty", "comments-dict", "id-empty", "contributor-int",
             "state-unknown", "prs-dict", "id-repeated"],
    )
    def test_mistyped_field_names_pr_and_field(self, path, value, message):
        payload = self.small_payload()
        *parents, last = path
        node = payload
        for key in parents:
            node = node[key]
        node[last] = value
        with pytest.raises(HgrecError) as err:
            corpus_from_json(json.dumps(payload))
        assert str(err.value).startswith(f"corpus artifact: {message}")

    def test_developers_list_of_older_artifacts_is_ignored(self):
        payload = self.small_payload()
        assert "developers" not in payload
        text = json.dumps(payload)
        payload["developers"] = [{"id": "a", "is_bot": False}, {"id": "b", "is_bot": True}]
        older = corpus_from_json(json.dumps(payload))
        assert corpus_to_json(older) == corpus_to_json(corpus_from_json(text))

    def test_slice_until_truncates_comments(self):
        corpus = clean(
            [
                make_pr("p1", "a", T0, ["f"],
                        comments=[("b", T0 + 1), ("b", T0 + 40 * DAY)]),
                make_pr("p2", "a", T0 + 30 * DAY, ["f"]),
            ],
            min_reviews=1,
        )
        cut = T0 + 10 * DAY
        window = corpus.slice_until(cut)
        assert [pr.id for pr in window.prs] == ["p1"]
        assert all(
            c.created_at < cut for pr in window.prs for c in pr.comments
        )
        assert window.t_end == cut
