"""Review-history data model: JSONL export parsing and corpus cleaning.

The export format is one JSON object per line:

    {"id": str, "contributor": str, "created_at": RFC3339 str,
     "state": "merged"|"closed"|"open", "files": [str, ...],
     "comments": [{"author": str, "created_at": RFC3339 str}, ...]}

Unknown fields are ignored. Timestamps are normalized to UTC epoch seconds
with sub-second precision truncated; every model formula uses ratios of time
differences, so the unit choice cancels.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Iterable

from . import kernels
from .errors import EmptyCorpusError, ExportParseError, HgrecError

PR_STATES = ("merged", "closed", "open")


@dataclass(frozen=True)
class Developer:
    id: str
    is_bot: bool = False


@dataclass(frozen=True)
class ReviewComment:
    author: str
    created_at: int


@dataclass
class PullRequest:
    id: str
    contributor: str
    created_at: int
    files: tuple[str, ...]
    comments: tuple[ReviewComment, ...]
    state: str = "merged"

    def reviewers(self) -> frozenset[str]:
        """Distinct comment authors excluding the PR's own contributor."""
        return frozenset(
            c.author for c in self.comments if c.author != self.contributor
        )

    def truncated(self, cut: int) -> "PullRequest":
        """Copy of this PR keeping only comments created before ``cut``."""
        kept = tuple(c for c in self.comments if c.created_at < cut)
        return PullRequest(
            id=self.id,
            contributor=self.contributor,
            created_at=self.created_at,
            files=self.files,
            comments=kept,
            state=self.state,
        )


@dataclass(frozen=True)
class TargetPR:
    id: str
    contributor: str
    created_at: int
    files: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "files", tuple(sorted(set(self.files))))


@dataclass
class ReviewCorpus:
    """Cleaned, chronologically ordered review history.

    ``t_start``/``t_end`` are the dataset window bounds. After clean() they
    equal the min/max observed timestamp; windowed slices carry the window
    cut as ``t_end`` instead.
    """

    prs: list[PullRequest]
    t_start: int
    t_end: int
    developers: dict[str, Developer]
    _comment_counts: dict[str, int] | None = field(
        default=None, repr=False, compare=False
    )
    _file_packs: dict[str, kernels.FilePack] = field(
        default_factory=dict, repr=False, compare=False
    )

    def reviewer_ids(self) -> frozenset[str]:
        out: set[str] = set()
        for pr in self.prs:
            out |= pr.reviewers()
        return frozenset(out)

    def contributor_ids(self) -> frozenset[str]:
        return frozenset(pr.contributor for pr in self.prs)

    def comment_counts(self) -> dict[str, int]:
        """Total comments per author; memoized (corpus is immutable)."""
        if self._comment_counts is None:
            counts: dict[str, int] = {}
            for pr in self.prs:
                for c in pr.comments:
                    counts[c.author] = counts.get(c.author, 0) + 1
            self._comment_counts = counts
        return self._comment_counts

    def file_pack(self, unit: str) -> kernels.FilePack:
        """Every PR's file set packed in corpus order; memoized per unit."""
        if unit not in self._file_packs:
            self._file_packs[unit] = kernels.FilePack.from_file_sets(
                [pr.files for pr in self.prs], unit
            )
        return self._file_packs[unit]

    def stats(self) -> dict[str, int]:
        return {
            "prs": len(self.prs),
            "comments": sum(len(pr.comments) for pr in self.prs),
            "reviewers": len(self.reviewer_ids()),
            "contributors": len(self.contributor_ids()),
        }

    def slice_until(self, cut: int) -> "ReviewCorpus":
        """Training window [t_start, cut): PRs created before the cut with
        comments truncated at the cut, so nothing at or past it leaks in."""
        kept = [pr.truncated(cut) for pr in self.prs if pr.created_at < cut]
        referenced = _referenced_ids(kept)
        return ReviewCorpus(
            prs=kept,
            t_start=self.t_start,
            t_end=cut,
            developers={d: self.developers[d] for d in sorted(referenced)},
        )


def parse_timestamp(text: str) -> int:
    """RFC 3339 string -> UTC epoch seconds (sub-second part truncated).

    Raises ValueError on a malformed string and TypeError on a non-string.
    """
    if not isinstance(text, str):
        raise TypeError(f"expected an RFC 3339 string, got {type(text).__name__}")
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    moment = datetime.fromisoformat(raw)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return int(moment.timestamp())


def format_timestamp(epoch: int) -> str:
    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


def _load_json(data: str | bytes) -> object:
    """Decode bytes as UTF-8 and parse JSON, raising ValueError on failure."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        return json.loads(data)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc


def parse_record(obj: object, query: bool = False) -> PullRequest:
    """Check one record of an export or, with ``query``, a ``recommend``
    target, and build it; raise ValueError naming the bad field. A query may
    leave out ``id`` (``"target"``) and ``state``, and needs a file."""
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
        created = parse_timestamp(obj["created_at"])
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
            at = parse_timestamp(raw["created_at"])
        except (ValueError, TypeError) as exc:
            raise ValueError(f"comment {i} has bad created_at: {exc}") from exc
        comments.append(ReviewComment(author=raw["author"], created_at=at))

    # Ascending time, ties kept in input order.
    comments.sort(key=lambda c: c.created_at)
    return PullRequest(
        id=obj["id"],
        contributor=obj["contributor"],
        created_at=created,
        files=tuple(sorted(set(files))),
        comments=tuple(comments),
        state=obj["state"],
    )


def parse_export(
    stream: Iterable, skip_invalid: bool = False, errors: list | None = None
) -> list[PullRequest]:
    """Parse a JSONL export into raw PullRequests, preserving input order.

    By default the first malformed line raises ExportParseError carrying its
    line number. With skip_invalid=True bad lines are skipped and counted;
    pass ``errors`` (a list) to collect the per-line errors.
    """
    prs = []
    for line_number, line in enumerate(stream, start=1):
        try:
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            if not line.strip():
                continue
            prs.append(parse_record(_load_json(line)))
        except ValueError as exc:
            error = ExportParseError(line_number, str(exc))
            if errors is not None:
                errors.append(error)
            if not skip_invalid:
                raise error from exc
    return prs


def parse_target(data: bytes | dict) -> TargetPR:
    """The PR to recommend reviewers for, from the bytes of a ``--target``
    file or from the record the command-line flags assemble."""
    try:
        obj = data if isinstance(data, dict) else _load_json(data)
        pr = parse_record(obj, query=True)
    except ValueError as exc:
        raise HgrecError(f"target: {exc}") from exc
    return TargetPR(pr.id, pr.contributor, pr.created_at, pr.files)


def _referenced_ids(prs: Iterable[PullRequest]) -> set[str]:
    ids: set[str] = set()
    for pr in prs:
        ids.add(pr.contributor)
        ids.update(c.author for c in pr.comments)
    return ids


def clean(
    raw: list[PullRequest],
    bot_patterns: Iterable[str] = (),
    min_reviews: int = 2,
    exclude_ids: Iterable[str] = (),
) -> ReviewCorpus:
    """Apply the cleaning rules and produce a chronologically sorted corpus.

    Order of operations (one pass, not re-iterated):
      1. drop open PRs;
      2. drop PRs authored by bots or excluded accounts; drop their comments
         everywhere;
      3. drop review comments of reviewers seen on fewer than ``min_reviews``
         distinct PRs (their comments on their own PRs are kept: those never
         enter a reviewer set);
      4. drop PRs with no recorded changed files;
      5. compute the time bounds and sort ascending by creation time.
    """
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

    # Reviewer participation is counted in distinct reviewed PRs.
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
    referenced = _referenced_ids(cleaned)
    return ReviewCorpus(
        prs=cleaned,
        t_start=min(stamps),
        t_end=max(stamps),
        developers={d: Developer(id=d) for d in sorted(referenced)},
    )


def reviewer_sets(corpus: ReviewCorpus) -> dict[str, frozenset[str]]:
    """PR id -> set of reviewer ids (distinct commenters minus contributor)."""
    return {pr.id: pr.reviewers() for pr in corpus.prs}


# ---------------------------------------------------------------------------
# Canonical corpus artifact (the cached output of `hgrec ingest`).

ARTIFACT_FORMAT = "hgrec-corpus-v1"


def corpus_to_json(corpus: ReviewCorpus, source_sha256: str | None = None) -> str:
    payload = {
        "format": ARTIFACT_FORMAT,
        "source_sha256": source_sha256,
        "t_start": corpus.t_start,
        "t_end": corpus.t_end,
        "stats": corpus.stats(),
        "developers": [
            {"id": d.id, "is_bot": d.is_bot}
            for d in sorted(corpus.developers.values(), key=lambda d: d.id)
        ],
        "prs": [
            {
                "id": pr.id,
                "contributor": pr.contributor,
                "created_at": pr.created_at,
                "state": pr.state,
                "files": list(pr.files),
                "comments": [
                    {"author": c.author, "created_at": c.created_at}
                    for c in pr.comments
                ],
            }
            for pr in corpus.prs
        ],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def corpus_from_json(text: str | bytes) -> ReviewCorpus:
    try:
        payload = _load_json(text)
        if not isinstance(payload, dict) or payload.get("format") != ARTIFACT_FORMAT:
            raise ValueError(f"not an {ARTIFACT_FORMAT} document")
        prs = [
            PullRequest(
                id=rec["id"],
                contributor=rec["contributor"],
                created_at=rec["created_at"],
                files=tuple(rec["files"]),
                comments=tuple(
                    ReviewComment(c["author"], c["created_at"]) for c in rec["comments"]
                ),
                state=rec["state"],
            )
            for rec in payload["prs"]
        ]
        developers = {
            d["id"]: Developer(id=d["id"], is_bot=d["is_bot"])
            for d in payload["developers"]
        }
        return ReviewCorpus(
            prs=prs,
            t_start=payload["t_start"],
            t_end=payload["t_end"],
            developers=developers,
        )
    except KeyError as exc:
        raise HgrecError(f"corpus artifact: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise HgrecError(f"corpus artifact: {exc}") from exc


def sha256_of(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
