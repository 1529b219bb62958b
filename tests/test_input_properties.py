"""Property tests: whatever the input bytes, the CLI ends in success or a user
error (exit 0 or 2), never an internal error (exit 1)."""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hgrec.cli import main
from hgrec.corpus import ARTIFACT_FORMAT, PR_STATES

FIXTURE = Path(__file__).parent / "data" / "review_history_50pr.jsonl"

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def mostly(valid):
    """A field value that is valid three times in four, else any JSON value."""
    return st.integers(0, 3).flatmap(lambda i: valid if i else json_values)


names = st.text(min_size=1, max_size=4)
timestamps = st.datetimes().map(lambda t: t.isoformat() + "Z")
epochs = st.integers(0, 2**33)


def records_like(times):
    """Records near the valid shape, with time fields drawn from ``times``:
    they reach the field checks, and the fit and the query behind them, which
    random values never get past."""
    comment_like = st.fixed_dictionaries(
        {"author": mostly(names), "created_at": mostly(times)}
    )
    return st.fixed_dictionaries(
        {
            "id": mostly(names),
            "contributor": mostly(names),
            "created_at": mostly(times),
            "state": mostly(st.sampled_from(PR_STATES)),
            "files": mostly(
                st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=3)
            ),
        },
        optional={"comments": mostly(st.lists(mostly(comment_like), max_size=3))},
    )


record_like = records_like(timestamps)
# A target may leave out its id.
target_like = record_like | record_like.map(
    lambda obj: {k: v for k, v in obj.items() if k != "id"}
)
export_lines = st.binary(max_size=40) | record_like.map(
    lambda obj: json.dumps(obj, ensure_ascii=False).encode()
)
# Artifacts store times as epoch seconds; older ones also list developers.
# Some repeat their first record, whose id must not load twice.
artifact_records = st.lists(records_like(epochs), max_size=3)
artifact_like = st.fixed_dictionaries(
    {
        "format": mostly(st.just(ARTIFACT_FORMAT)),
        "t_start": mostly(epochs),
        "t_end": mostly(epochs),
        "prs": mostly(artifact_records | artifact_records.map(lambda prs: prs + prs[:1])),
    },
    optional={
        "developers": json_values
        | st.lists(st.fixed_dictionaries({"id": names, "is_bot": st.booleans()}))
    },
)

fuzz = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def corpus_artifact(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifact") / "corpus.json"
    assert main(["ingest", "--input", str(FIXTURE), "--output", str(out)]) == 0
    return str(out)


@fuzz
@given(
    lines=st.lists(export_lines, max_size=4),
    sep=st.sampled_from([b"\n", b"\r\n", b"\r"]),
    skip=st.sampled_from([[], ["--skip-invalid"]]),
)
def test_any_export_bytes_exit_0_or_2(tmp_path, capsys, lines, sep, skip):
    src = tmp_path / "export.jsonl"
    src.write_bytes(sep.join(lines))
    out = tmp_path / "o.json"
    code = main(["ingest", "--input", str(src), "--output", str(out), *skip])
    capsys.readouterr()
    assert code in (0, 2)


@fuzz
@given(value=target_like | json_values)
def test_any_target_json_exits_0_or_2(corpus_artifact, tmp_path, capsys, value):
    target = tmp_path / "target.json"
    target.write_text(json.dumps(value))
    code = main(["recommend", "--corpus", corpus_artifact, "--target", str(target)])
    capsys.readouterr()
    assert code in (0, 2)


@fuzz
@given(value=artifact_like | json_values)
def test_any_artifact_json_exits_0_or_2(tmp_path, capsys, value):
    """``stats`` reads an artifact; ``recommend`` also fits and queries it."""
    artifact = tmp_path / "corpus.json"
    artifact.write_text(json.dumps(value))
    code = main(["stats", "--corpus", str(artifact)])
    assert code in (0, 2)
    if code == 0:
        ids = [pr["id"] for pr in value["prs"]]
        assert len(set(ids)) == len(ids), "a repeated PR id loaded"
        code = main(["recommend", "--corpus", str(artifact), "--files", "a/b",
                     "--contributor", "x", "--time", "2030-01-01T00:00:00Z"])
        assert code in (0, 2)
    capsys.readouterr()
