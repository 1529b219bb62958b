"""``parse_timestamp``, ``parse_record`` and ``clean`` against the forms they
had before ingest read each record once: same results, same errors."""

import re
import string
from datetime import datetime, timedelta, timezone
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgrec import corpus
from hgrec.corpus import (
    PR_STATES,
    PullRequest,
    ReviewComment,
    ReviewCorpus,
    clean,
    parse_record,
    parse_timestamp,
)
from hgrec.errors import EmptyCorpusError, ExportParseError, HgrecError


# ---------------------------------------------------------------------------
# Oracles: the functions as they were, kept verbatim.


def oracle_parse_timestamp(text: str) -> int:
    if not isinstance(text, str):
        raise TypeError(f"expected an RFC 3339 string, got {type(text).__name__}")
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    moment = datetime.fromisoformat(raw)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return int(moment.timestamp())


def oracle_parse_record(obj, query=False, timestamp=oracle_parse_timestamp):
    if not isinstance(obj, dict):
        raise ValueError("record is not a JSON object")
    defaults = {"id": "target", "state": "open"} if query else {}
    obj = {"files": [], "comments": [], **defaults, **obj}
    for key in ("id", "contributor", "created_at", "state"):
        if key not in obj:
            raise ValueError(f"missing required field {key!r}")
    if obj["state"] not in PR_STATES:
        raise ValueError(f"state must be one of {PR_STATES}, got {obj['state']!r}")
    for key in ("id", "contributor"):
        if not obj[key] or not isinstance(obj[key], str):
            raise ValueError(f"{key} must be a non-empty string")
    try:
        created = timestamp(obj["created_at"])
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad created_at: {exc}") from exc
    files = obj["files"]
    if not isinstance(files, list) or not all(isinstance(f, str) and f for f in files):
        raise ValueError("files must be a list of non-empty strings")
    if query and not files:
        raise ValueError("files must name at least one path")
    if not isinstance(obj["comments"], list):
        raise ValueError("comments must be a list")

    comments = []
    for i, raw in enumerate(obj["comments"]):
        if not isinstance(raw, dict) or "author" not in raw or "created_at" not in raw:
            raise ValueError(f"comment {i} must carry author and created_at")
        if not raw["author"] or not isinstance(raw["author"], str):
            raise ValueError(f"comment {i} author must be a non-empty string")
        try:
            at = timestamp(raw["created_at"])
        except (ValueError, TypeError) as exc:
            raise ValueError(f"comment {i} has bad created_at: {exc}") from exc
        comments.append(ReviewComment(author=raw["author"], created_at=at))

    comments.sort(key=lambda c: c.created_at)
    return PullRequest(
        id=obj["id"],
        contributor=obj["contributor"],
        created_at=created,
        files=tuple(sorted(set(files))),
        comments=tuple(comments),
        state=obj["state"],
    )


def oracle_clean(raw, bot_patterns=(), min_reviews=2, exclude_ids=()):
    bot_res = [re.compile(p) for p in bot_patterns]
    excluded = set(exclude_ids)

    def dropped_account(account: str) -> bool:
        return account in excluded or any(r.search(account) for r in bot_res)

    stage = []
    for pr in raw:
        if pr.state == "open" or dropped_account(pr.contributor):
            continue
        kept = tuple(c for c in pr.comments if not dropped_account(c.author))
        stage.append(
            PullRequest(pr.id, pr.contributor, pr.created_at, pr.files, kept, pr.state)
        )

    seen_on: dict[str, set[str]] = {}
    for pr in stage:
        for reviewer in pr.reviewers():
            seen_on.setdefault(reviewer, set()).add(pr.id)
    casual = {r for r, prs_ in seen_on.items() if len(prs_) < min_reviews}

    cleaned = []
    for pr in stage:
        kept = tuple(
            c
            for c in pr.comments
            if not (c.author in casual and c.author != pr.contributor)
        )
        if not pr.files:
            continue
        cleaned.append(
            PullRequest(pr.id, pr.contributor, pr.created_at, pr.files, kept, pr.state)
        )

    if not cleaned:
        raise EmptyCorpusError("cleaning removed every pull request")
    seen_ids = set()
    for pr in cleaned:
        if pr.id in seen_ids:
            raise HgrecError(f"duplicate PR id {pr.id!r}")
        seen_ids.add(pr.id)

    cleaned.sort(key=lambda pr: pr.created_at)
    stamps = [pr.created_at for pr in cleaned]
    stamps.extend(c.created_at for pr in cleaned for c in pr.comments)
    return ReviewCorpus(prs=cleaned, t_start=min(stamps), t_end=max(stamps))


def outcome(fn, *args, **kwargs):
    """The result, or the exception's type and message."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# parse_timestamp.

moments = st.datetimes(
    min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30)
)
offsets = st.integers(-23 * 60 - 59, 23 * 60 + 59).map(
    lambda minutes: timezone(timedelta(minutes=minutes))
)
fraction_digits = st.integers(1, 9).flatmap(
    lambda n: st.text(string.digits, min_size=n, max_size=n)
)
padding = st.text(" \t\n\r\x0b\x0c 　", max_size=2)


def _week_date(t: datetime, basic: bool) -> str:
    year, week, day = t.isocalendar()
    return f"{year:04d}W{week:02d}{day}" if basic else f"{year:04d}-W{week:02d}-{day}"


stamps = st.one_of(
    moments.map(lambda t: t.strftime("%Y-%m-%dT%H:%M:%SZ")),  # canonical
    moments.map(lambda t: t.strftime("%Y-%m-%dT%H:%M:%Sz")),
    st.tuples(moments, offsets).map(lambda p: p[0].replace(tzinfo=p[1]).isoformat()),
    moments.map(lambda t: t.isoformat()),  # naive
    moments.map(lambda t: t.isoformat(sep=" ", timespec="minutes")),
    st.tuples(padding, moments, padding).map(
        lambda p: p[0] + p[1].strftime("%Y-%m-%dT%H:%M:%SZ") + p[2]
    ),
    st.tuples(moments, fraction_digits, st.sampled_from(["Z", "z", "+02:30", ""])).map(
        lambda p: p[0].strftime("%Y-%m-%dT%H:%M:%S.") + p[1] + p[2]
    ),
    st.tuples(moments, st.booleans(), st.sampled_from(["", "T12", "T1230Z"])).map(
        lambda p: _week_date(p[0], p[1]) + p[2]
    ),
    moments.map(lambda t: t.strftime("%Y%m%dT%H%M%SZ")),  # basic format
    moments.map(lambda t: t.strftime("%Y%m%dT%H%M%S+0100")),
    moments.map(lambda t: t.strftime("%Y-%m-%d")),  # date only
    moments.map(lambda t: t.strftime("%Y-%m-%dZ")),
    moments.map(lambda t: t.strftime("%Y%m%d")),
    st.text(max_size=30),  # garbage
    st.text("0123456789-:TZz+. W", max_size=30),
)


@st.composite
def edited_stamps(draw):
    """A stamp with one character inserted, replaced or deleted."""
    text = draw(stamps)
    at = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from("Zz+-:T .0  "))
    edit = draw(st.sampled_from(["insert", "replace", "delete"]))
    if edit == "insert":
        return text[:at] + char + text[at:]
    if edit == "replace":
        return text[:at] + char + text[at + 1 :]
    return text[:at] + text[at + 1 :]


non_strings = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.binary(max_size=8),
    st.lists(st.integers(), max_size=2),
    moments,
)
timestamp_inputs = st.one_of(stamps, edited_stamps(), non_strings)


@settings(max_examples=1000)
@given(timestamp_inputs)
def test_parse_timestamp_matches_oracle(value):
    assert outcome(parse_timestamp, value) == outcome(oracle_parse_timestamp, value)


class _Py310Datetime(datetime):
    """``datetime`` whose ``fromisoformat`` rejects a trailing ``Z`` or ``z``,
    as Python 3.10's does; it records each string it is given."""

    seen: list = []

    @classmethod
    def fromisoformat(cls, text):
        cls.seen.append(text)
        if isinstance(text, str) and text.endswith(("Z", "z")):
            raise ValueError(f"Invalid isoformat string: {text!r}")
        return datetime.fromisoformat(text)


@settings(max_examples=500)
@given(timestamp_inputs)
def test_parse_timestamp_without_z_support_matches_oracle(value):
    with mock.patch.object(corpus, "datetime", _Py310Datetime):
        got = outcome(parse_timestamp, value)
    assert got == outcome(oracle_parse_timestamp, value)


def test_a_z_stamp_takes_the_fallback_without_z_support():
    _Py310Datetime.seen.clear()
    with mock.patch.object(corpus, "datetime", _Py310Datetime):
        got = parse_timestamp("2020-01-01T00:00:00Z")
    assert got == 1577836800
    assert _Py310Datetime.seen == ["2020-01-01T00:00:00Z", "2020-01-01T00:00:00+00:00"]


def test_a_canonical_stamp_is_read_in_one_call():
    _Py310Datetime.seen.clear()
    with mock.patch.object(corpus, "datetime", _Py310Datetime):
        assert parse_timestamp("2020-01-01T05:00:00+05:00") == 1577836800
    assert _Py310Datetime.seen == ["2020-01-01T05:00:00+05:00"]


# ---------------------------------------------------------------------------
# parse_record.

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=5,
)


def mostly(valid):
    return st.integers(0, 4).flatmap(lambda i: valid if i else json_values)


names = st.text(min_size=1, max_size=3)


def fields(**spec):
    """A dict with each field of ``spec`` but one time in eight."""
    return st.fixed_dictionaries(
        {key: st.tuples(st.integers(0, 7), value) for key, value in spec.items()}
    ).map(lambda drawn: {key: value for key, (keep, value) in drawn.items() if keep})


def records_like(times):
    """Records near the valid shape, with time fields drawn from ``times``
    three times in four."""
    comment_like = fields(author=mostly(names),
                          created_at=mostly(times))
    return fields(
        id=mostly(names),
        contributor=mostly(names),
        created_at=mostly(times),
        state=mostly(st.sampled_from(PR_STATES)),
        files=mostly(st.lists(st.text(max_size=3), max_size=3)),
        comments=mostly(st.lists(mostly(comment_like), max_size=4)),
        extra=json_values,
    )


# Half of the times from two, so that comments tie and their input order shows.
tied_stamps = st.booleans().flatmap(
    lambda tie: st.sampled_from(["2020-01-02T00:00:00Z", "2020-01-01T00:00:00Z"])
    if tie
    else stamps
)


valid_records = st.fixed_dictionaries(
    {
        "id": names,
        "contributor": names,
        "created_at": tied_stamps,
        "state": st.sampled_from(PR_STATES),
        "files": st.lists(names, min_size=1, max_size=3),
        "comments": st.lists(
            st.fixed_dictionaries({"author": names, "created_at": tied_stamps}),
            max_size=5,
        ),
    }
)


@settings(max_examples=400)
@given(records_like(tied_stamps) | valid_records | json_values, st.booleans())
def test_parse_record_matches_oracle(obj, query):
    assert outcome(parse_record, obj, query) == outcome(oracle_parse_record, obj, query)


def test_parse_record_keeps_tied_comments_in_input_order():
    later, earlier = "2020-01-02T00:00:00Z", "2020-01-01T00:00:00Z"
    record = {
        "id": "p1", "contributor": "ann", "created_at": earlier, "state": "merged",
        "comments": [
            {"author": "zed", "created_at": later},
            {"author": "amy", "created_at": earlier},
            {"author": "bob", "created_at": later},
        ],
    }
    parsed = parse_record(record)
    assert parsed == oracle_parse_record(record)
    assert [c.author for c in parsed.comments] == ["amy", "zed", "bob"]


@settings(max_examples=200)
@given(records_like(st.integers(-5, 2**33) | st.booleans()))
def test_parse_record_of_artifact_times_matches_oracle(obj):
    epochs = corpus._epoch_seconds
    assert outcome(parse_record, obj, timestamp=epochs) == outcome(
        oracle_parse_record, obj, timestamp=epochs
    )


# ---------------------------------------------------------------------------
# clean.

people = st.sampled_from(["ann", "bob", "cy", "dee", "eve", "ci[bot]", "dep-bot"])
raw_prs = st.lists(
    st.builds(
        PullRequest,
        id=st.sampled_from([f"p{i}" for i in range(12)]),
        contributor=people,
        created_at=st.integers(0, 50),
        files=st.lists(st.sampled_from(["a.c", "b/c.c", "b/d.c"]), max_size=2).map(
            lambda f: tuple(sorted(set(f)))
        ),
        comments=st.lists(
            st.builds(ReviewComment, author=people, created_at=st.integers(0, 60)),
            max_size=5,
        ).map(tuple),
        state=st.sampled_from(PR_STATES),
    ),
    max_size=14,
)
pattern_sets = st.lists(
    st.sampled_from([r"\[bot\]$", r"-bot$", r"^e", "nobody"]), max_size=2, unique=True
)
exclusions = st.lists(people, max_size=2, unique=True)


@settings(max_examples=400)
@given(raw_prs, pattern_sets, st.integers(1, 3), exclusions)
def test_clean_matches_oracle(raw, patterns, min_reviews, exclude):
    kwargs = dict(bot_patterns=patterns, min_reviews=min_reviews, exclude_ids=exclude)
    expected = outcome(oracle_clean, raw, **kwargs)
    got = outcome(clean, raw, **kwargs)
    if expected[0] != "ok":
        assert got == expected
        return
    assert got[0] == "ok"
    new, old = got[1], expected[1]
    assert (new.t_start, new.t_end) == (old.t_start, old.t_end)
    assert len(new.prs) == len(old.prs)
    for mine, theirs in zip(new.prs, old.prs):
        assert mine == theirs


def test_clean_keeps_a_pr_that_loses_no_comment():
    keep = PullRequest("p1", "ann", 1, ("a.c",), (ReviewComment("bob", 2),))
    trimmed = PullRequest(
        "p2", "ann", 3, ("a.c",), (ReviewComment("bob", 4), ReviewComment("ci[bot]", 5))
    )
    other = PullRequest("p3", "cy", 6, ("a.c",), (ReviewComment("bob", 7),))
    cleaned = clean([keep, trimmed, other], bot_patterns=[r"\[bot\]$"])
    assert cleaned.prs[0] is keep and cleaned.prs[2] is other
    assert cleaned.prs[1] is not trimmed
    assert cleaned.prs[1].comments == (ReviewComment("bob", 4),)


def test_clean_names_both_lines_of_a_repeated_id():
    pr = PullRequest("p1", "ann", 1, ("a.c",), ())
    no_files = PullRequest("p2", "ann", 2, (), ())
    raw = [pr, PullRequest("p2", "ann", 2, ("a.c",), ()), no_files, pr]
    with pytest.raises(HgrecError, match=r"^duplicate PR id 'p1'$"):
        clean(raw)
    with pytest.raises(ExportParseError) as caught:
        clean(raw, lines=[3, 5, 8, 13])
    assert str(caught.value) == "line 13: duplicate PR id 'p1' (first at line 3)"
    assert caught.value.line_number == 13
