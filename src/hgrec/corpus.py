"""Review-history data model: JSONL export parsing and corpus cleaning.

The export format is one JSON object per line:

    {"id": str, "contributor": str, "created_at": RFC3339 str,
     "state": "merged"|"closed"|"open", "files": [str, ...],
     "comments": [{"author": str, "created_at": RFC3339 str}, ...]}

Unknown fields are ignored. Timestamps are normalized to UTC epoch seconds
with sub-second precision truncated, and must lie from 0001-01-01T00:00:00Z
through 9999-12-31T23:59:59Z; every model formula uses ratios of time
differences, so the unit choice cancels.

Every record is read once: ``parse_record`` is the only validator, for
export lines, ``recommend`` targets and the PRs of a corpus artifact, and it
checks and converts each comment in one step. ``clean`` keeps a PR that
loses no comment as the parsed object, matches accounts only when there are
bot patterns or excluded ids, and names both export lines of a repeated PR
id when given the lines ``parse_export`` collects. ``corpus_to_json`` writes
the artifact PR by PR as text, never as one tree of dicts; its bytes are
those of ``json.dumps`` with sorted keys and compact separators, pinned by
sha256 in the tests.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import kernels
from .errors import EmptyCorpusError, ExportParseError, HgrecError

PR_STATES = ("merged", "closed", "open")
_created_at = attrgetter("created_at")


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
        """This PR keeping only comments created before ``cut``: itself when
        that is every comment (no code mutates a PR), else a copy."""
        kept = tuple(c for c in self.comments if c.created_at < cut)
        if len(kept) == len(self.comments):
            return self
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


class ReviewPairs(NamedTuple):
    """Who reviewed what in a ``ReviewTable``. Per distinct (PR position,
    reviewer code) pair, ascending: ``pr`` and ``reviewer``. Per review
    comment, grouped by pair in that order and each pair's in comment order:
    its table position (``comments``) and its pair's index (``pair``)."""

    pr: np.ndarray
    reviewer: np.ndarray
    comments: np.ndarray
    pair: np.ndarray


@dataclass(frozen=True)
class ReviewTable:
    """A corpus's PRs and comments as flat, read-only arrays, in corpus
    order; the only source of its comment counts and reviewer pairs.

    Per PR: its id, its contributor's code, its creation time and its
    chronology rank (its place when the PRs are sorted by creation time,
    then id). Per comment, grouped by PR and in each PR's comment order: the
    PR's position, the author's code and the time. A developer's code is its
    position in ``names``, the sorted ids of every contributor and comment
    author of the root corpus, so codes order developers as ids do.
    """

    ids: np.ndarray
    names: np.ndarray
    contributor: np.ndarray
    created: np.ndarray
    chronology: np.ndarray
    comment_pr: np.ndarray
    author: np.ndarray
    comment_time: np.ndarray

    def __post_init__(self):
        for part in vars(self).values():
            part.flags.writeable = False

    def take(self, positions: np.ndarray, cut: int) -> "ReviewTable":
        """The table of the PRs at ``positions`` (ascending) and of their
        comments made before ``cut``; chronology ranks are ranks among
        those PRs."""
        n = len(positions)
        local = np.full(len(self.ids), -1, dtype=np.intp)
        local[positions] = np.arange(n)
        comment_pr = local[self.comment_pr]
        kept = np.flatnonzero((comment_pr >= 0) & (self.comment_time < cut))
        chronology = np.empty(n, dtype=np.int64)
        chronology[np.argsort(self.chronology[positions])] = np.arange(n)
        return ReviewTable(
            ids=self.ids[positions],
            names=self.names,
            contributor=self.contributor[positions],
            created=self.created[positions],
            chronology=chronology,
            comment_pr=comment_pr[kept],
            author=self.author[kept],
            comment_time=self.comment_time[kept],
        )

    @cached_property
    def reviews(self) -> ReviewPairs:
        """The table's ``ReviewPairs``, computed on first use from its comments
        by anyone but the PR's contributor, sorted stably by PR, then author."""
        review = np.flatnonzero(self.author != self.contributor[self.comment_pr])
        n_names = len(self.names)
        key = self.comment_pr[review] * n_names + self.author[review]
        order = np.argsort(key, kind="stable")
        review, key = review[order], key[order]
        fresh = np.ones(len(key), dtype=bool)
        fresh[1:] = key[1:] != key[:-1]
        pr, reviewer = np.divmod(key[fresh], n_names)
        pairs = ReviewPairs(pr, reviewer, review, np.cumsum(fresh) - 1)
        for part in pairs:
            part.flags.writeable = False
        return pairs

    @cached_property
    def reviewed(self) -> tuple[np.ndarray, tuple[str, ...]]:
        """Which developer codes have a pair in ``reviews`` (a read-only mask
        over ``names``) and those developers' ids, in code order; computed on
        first use."""
        mask = np.bincount(self.reviews.reviewer, minlength=len(self.names)) > 0
        mask.flags.writeable = False
        return mask, tuple(self.names[mask].tolist())


@dataclass
class ReviewCorpus:
    """Cleaned, chronologically ordered review history.

    ``t_start``/``t_end`` are the dataset window bounds. After clean() they
    equal the min/max observed timestamp; windowed slices carry the window
    cut as ``t_end`` instead.

    A corpus and every ``slice_until`` descendant share one similarity store,
    held by the root: ``_positions`` maps a slice's PRs to the root's, and
    ``_comment_cut`` is the earliest cut of the slices between it and the
    root, before which its comments were made. Each corpus keeps its own
    ``review_table``, a slice's taken from the root's.
    """

    prs: list[PullRequest]
    t_start: int
    t_end: int
    _comment_counts: dict[str, int] | None = field(
        default=None, repr=False, compare=False
    )
    _file_pack: kernels.FilePack | None = field(
        default=None, repr=False, compare=False
    )
    _root: "ReviewCorpus | None" = field(default=None, repr=False, compare=False)
    _positions: np.ndarray | None = field(default=None, repr=False, compare=False)
    _comment_cut: int | None = field(default=None, repr=False, compare=False)
    _review_table: ReviewTable | None = field(
        default=None, repr=False, compare=False
    )
    # The root's sweep of its PRs against each other (read-only), held by
    # the root once a slice has read it.
    _similarity: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def reviewer_ids(self) -> frozenset[str]:
        """Everyone who commented on another's PR, read off the review
        table."""
        return frozenset(self.review_table().reviewed[1])

    def contributor_ids(self) -> frozenset[str]:
        table = self.review_table()
        return frozenset(table.names[np.unique(table.contributor)].tolist())

    def comment_counts(self) -> dict[str, int]:
        """Total comments per author, counted in the review table; memoized
        (corpus is immutable)."""
        if self._comment_counts is None:
            table = self.review_table()
            counts = np.bincount(table.author, minlength=len(table.names))
            authors = np.flatnonzero(counts)
            self._comment_counts = dict(
                zip(table.names[authors].tolist(), counts[authors].tolist())
            )
        return self._comment_counts

    def file_pack(self) -> kernels.FilePack:
        """Every PR's file set packed in corpus order; memoized. A slice
        gathers its sets from the root's pack and shares its vocabulary,
        which the kernel reads only for token equality."""
        if self._file_pack is None:
            if self._root is None:
                pack = kernels.FilePack.from_file_sets([pr.files for pr in self.prs])
            else:
                pack = self._root.file_pack().take(self._positions)
            self._file_pack = pack
        return self._file_pack

    def review_table(self) -> ReviewTable:
        """This corpus's PRs and comments as a ``ReviewTable``; memoized. The
        root builds its table from its PRs; a slice takes the root's at its
        PRs and at the comments before its cut, once."""
        if self._review_table is None:
            if self._root is None:
                table = _build_review_table(self.prs)
            else:
                table = self._root.review_table().take(
                    self._positions, self._comment_cut
                )
            self._review_table = table
        return self._review_table

    def similarity_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The positive entries of ``kernels.mean_similarity_entries`` of this
        corpus's PRs against each other: the two PRs' indices in this corpus
        (int32, ``rows`` ascending) and the similarity.

        The root's PRs are swept against each other once, on first use. A
        slice's sweep is kept, read-only, in the root's store, where the
        root and every slice read it. An entry depends only on the two file
        sets, so the root's entries read at a slice's PRs are exactly the
        slice's own. A root that is never sliced keeps nothing: built once
        per fit, it would never read its sweep again.
        """
        root = self._root or self
        sweep = root._similarity
        if sweep is None:
            pack = root.file_pack()
            sweep = kernels.mean_similarity_entries(
                pack.tokens, pack.file_off, pack.set_off,
                pack.tokens, pack.file_off, pack.set_off,
                grouping=pack.grouping(),
            )
            if self._root is not None:
                for part in sweep:
                    part.flags.writeable = False
                root._similarity = sweep
        at = self._positions
        if at is None:
            return sweep
        # ``at`` ascends (a slice keeps its parent's order), so rows do too.
        rows, cols, values = sweep
        local = np.full(len(root.prs), -1, dtype=np.int32)
        local[at] = np.arange(len(self.prs))
        rows, cols = local[rows], local[cols]
        kept = (rows >= 0) & (cols >= 0)
        return rows[kept], cols[kept], values[kept]

    def stats(self) -> dict[str, int]:
        """Counted over the PRs, not the review table: ``ingest`` and ``hgrec
        stats`` call it on a corpus that has no table yet, and building one
        costs several times this count."""
        return {
            "prs": len(self.prs),
            "comments": sum([len(pr.comments) for pr in self.prs]),
            "reviewers": len(
                {c.author for pr in self.prs for c in pr.comments
                 if c.author != pr.contributor}
            ),
            "contributors": len({pr.contributor for pr in self.prs}),
        }

    def slice_until(self, cut: int) -> "ReviewCorpus":
        """Training window [t_start, cut): PRs created before the cut with
        comments truncated at the cut, so nothing at or past it leaks in."""
        kept = [i for i, pr in enumerate(self.prs) if pr.created_at < cut]
        positions = np.asarray(kept, dtype=np.int64)
        if self._positions is not None:
            positions = self._positions[positions]
        return ReviewCorpus(
            prs=[self.prs[i].truncated(cut) for i in kept],
            t_start=self.t_start,
            t_end=cut,
            _root=self._root or self,
            _positions=positions,
            _comment_cut=(
                cut if self._comment_cut is None else min(self._comment_cut, cut)
            ),
        )


def _build_review_table(prs: list[PullRequest]) -> ReviewTable:
    names = sorted(
        {pr.contributor for pr in prs} | {c.author for pr in prs for c in pr.comments}
    )
    code = {name: i for i, name in enumerate(names)}
    n_comments = [len(pr.comments) for pr in prs]
    total = sum(n_comments)
    order = sorted(range(len(prs)), key=lambda i: (prs[i].created_at, prs[i].id))
    chronology = np.empty(len(prs), dtype=np.int64)
    chronology[order] = np.arange(len(prs))
    return ReviewTable(
        ids=np.array([pr.id for pr in prs], dtype=object),
        names=np.array(names, dtype=object),
        contributor=np.fromiter(
            (code[pr.contributor] for pr in prs), np.intp, len(prs)
        ),
        created=np.fromiter((pr.created_at for pr in prs), np.int64, len(prs)),
        chronology=chronology,
        comment_pr=np.repeat(np.arange(len(prs)), n_comments),
        author=np.fromiter(
            (code[c.author] for pr in prs for c in pr.comments), np.intp, total
        ),
        comment_time=np.fromiter(
            (c.created_at for pr in prs for c in pr.comments), np.int64, total
        ),
    )


# The first and last whole seconds a ``datetime`` can hold, in UTC epoch
# seconds: 0001-01-01T00:00:00Z and 9999-12-31T23:59:59Z. Both time
# converters accept nothing outside them, so ``datetime.fromtimestamp``
# takes every time a corpus holds.
EPOCH_MIN = -62135596800
EPOCH_MAX = 253402300799


def _out_of_range(epoch: int) -> ValueError:
    return ValueError(
        f"epoch seconds {epoch} outside 0001-01-01T00:00:00Z "
        "through 9999-12-31T23:59:59Z"
    )


def parse_timestamp(text: str) -> int:
    """RFC 3339 string -> UTC epoch seconds (sub-second part truncated).

    Raises ValueError on a malformed string or a moment outside
    ``EPOCH_MIN``..``EPOCH_MAX``, and TypeError on a non-string. A string
    ``datetime.fromisoformat`` takes as given (on Python 3.11, every
    canonical stamp, ``Z`` included) is read in one call; any other value
    takes the path that strips it and rewrites a final ``Z`` or ``z`` as
    ``+00:00``, which gives the same moment for every string both accept.
    """
    try:
        moment = datetime.fromisoformat(text)
    except (TypeError, ValueError):
        moment = _lenient_fromisoformat(text)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    epoch = int(moment.timestamp())
    if not EPOCH_MIN <= epoch <= EPOCH_MAX:
        raise _out_of_range(epoch)
    return epoch


def _lenient_fromisoformat(text: object) -> datetime:
    if not isinstance(text, str):
        raise TypeError(f"expected an RFC 3339 string, got {type(text).__name__}")
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    return datetime.fromisoformat(raw)


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


def parse_record(
    obj: object,
    query: bool = False,
    timestamp: Callable[[object], int] = parse_timestamp,
) -> PullRequest:
    """Check one record of an export or, with ``query``, a ``recommend``
    target, and build it; raise ValueError naming the bad field. A query may
    leave out ``id`` (``"target"``) and ``state``, and needs a file.
    ``timestamp`` converts a time field, raising ValueError or TypeError; the
    corpus artifact stores epoch seconds where an export has RFC 3339."""
    if not isinstance(obj, dict):
        raise ValueError("record is not a JSON object")
    try:
        pr_id = obj.get("id", "target") if query else obj["id"]
        contributor = obj["contributor"]
        created_at = obj["created_at"]
        state = obj.get("state", "open") if query else obj["state"]
    except KeyError as exc:
        raise ValueError(f"missing required field {exc.args[0]!r}") from None
    if state not in PR_STATES:
        raise ValueError(f"state must be one of {PR_STATES}, got {state!r}")
    if not pr_id or not isinstance(pr_id, str):
        raise ValueError("id must be a non-empty string")
    if not contributor or not isinstance(contributor, str):
        raise ValueError("contributor must be a non-empty string")
    try:
        created = timestamp(created_at)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad created_at: {exc}") from exc
    files = obj.get("files", [])
    if not isinstance(files, list) or not all(isinstance(f, str) and f for f in files):
        raise ValueError("files must be a list of non-empty strings")
    if query and not files:
        raise ValueError("files must name at least one path")
    raw_comments = obj.get("comments", [])
    if not isinstance(raw_comments, list):
        raise ValueError("comments must be a list")

    # Each comment is checked and converted in one step.
    comments = []
    for i, raw in enumerate(raw_comments):
        if not isinstance(raw, dict) or "author" not in raw or "created_at" not in raw:
            raise ValueError(f"comment {i} must carry author and created_at")
        author = raw["author"]
        if not author or not isinstance(author, str):
            raise ValueError(f"comment {i} author must be a non-empty string")
        try:
            at = timestamp(raw["created_at"])
        except (ValueError, TypeError) as exc:
            raise ValueError(f"comment {i} has bad created_at: {exc}") from exc
        comments.append(ReviewComment(author, at))

    # Ascending time, ties kept in input order.
    comments.sort(key=_created_at)
    # Positional arguments: keywords cost more than half the call.
    return PullRequest(
        pr_id, contributor, created, tuple(sorted(set(files))), tuple(comments), state
    )


def parse_export(
    stream: Iterable,
    skip_invalid: bool = False,
    errors: list | None = None,
    lines: list | None = None,
) -> list[PullRequest]:
    """Parse a JSONL export into raw PullRequests, preserving input order.

    By default the first malformed line raises ExportParseError carrying its
    line number. With skip_invalid=True bad lines are skipped and counted;
    pass ``errors`` (a list) to collect the per-line errors, and ``lines``
    (a list) to collect each returned PR's line number.
    """
    prs = []
    for line_number, line in enumerate(stream, start=1):
        try:
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            if not line or line.isspace():
                continue
            prs.append(parse_record(_load_json(line)))
        except ValueError as exc:
            error = ExportParseError(line_number, str(exc))
            if errors is not None:
                errors.append(error)
            if not skip_invalid:
                raise error from exc
            continue
        if lines is not None:
            lines.append(line_number)
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


def clean(
    raw: list[PullRequest],
    bot_patterns: Iterable[str | re.Pattern] = (),
    min_reviews: int = 2,
    exclude_ids: Iterable[str] = (),
    lines: list[int] | None = None,
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

    A PR that keeps every comment is kept as the same object. Two kept PRs
    with one id are an error; ``lines``, each raw PR's export line (as
    ``parse_export`` collects them), lets the error name both lines.
    """
    bot_res = [re.compile(p) for p in bot_patterns]
    excluded = set(exclude_ids)

    def dropped_account(account: str) -> bool:
        return account in excluded or any(r.search(account) for r in bot_res)

    # (raw position, PR) of each PR passing steps 1 and 2.
    stage = []
    for at, pr in enumerate(raw):
        if pr.state == "open":
            continue
        if bot_res or excluded:
            if dropped_account(pr.contributor):
                continue
            kept = tuple(c for c in pr.comments if not dropped_account(c.author))
            if len(kept) < len(pr.comments):
                pr = PullRequest(
                    pr.id, pr.contributor, pr.created_at, pr.files, kept, pr.state
                )
        stage.append((at, pr))

    # Reviewer participation is counted in distinct (PR id, reviewer) pairs:
    # an id can repeat here when step 4 leaves only one of its PRs.
    reviews = {
        (pr.id, c.author)
        for _, pr in stage
        for c in pr.comments
        if c.author != pr.contributor
    }
    participation = Counter([reviewer for _, reviewer in reviews])
    casual = {r for r, n in participation.items() if n < min_reviews}

    cleaned = []
    first_at: dict[str, int] = {}
    for at, pr in stage:
        if not pr.files:
            continue
        if casual:
            kept = tuple(
                c
                for c in pr.comments
                if not (c.author in casual and c.author != pr.contributor)
            )
            if len(kept) < len(pr.comments):
                pr = PullRequest(
                    pr.id, pr.contributor, pr.created_at, pr.files, kept, pr.state
                )
        first = first_at.setdefault(pr.id, at)
        if first != at:
            message = f"duplicate PR id {pr.id!r}"
            if lines is None:
                raise HgrecError(message)
            raise ExportParseError(
                lines[at], f"{message} (first at line {lines[first]})"
            )
        cleaned.append(pr)

    if not cleaned:
        raise EmptyCorpusError("cleaning removed every pull request")
    cleaned.sort(key=_created_at)
    stamps = [pr.created_at for pr in cleaned]
    stamps.extend(c.created_at for pr in cleaned for c in pr.comments)
    return ReviewCorpus(prs=cleaned, t_start=min(stamps), t_end=max(stamps))


# ---------------------------------------------------------------------------
# Canonical corpus artifact (the cached output of `hgrec ingest`).

ARTIFACT_FORMAT = "hgrec-corpus-v1"


def corpus_to_json(
    corpus: ReviewCorpus,
    source_sha256: str | None = None,
    stats: dict[str, int] | None = None,
) -> str:
    """The artifact text; ``stats`` is ``corpus.stats()`` when the caller
    already has it. Each PR's object is written as text, keys in sorted
    order, strings escaped by the encoder ``json.dumps`` uses and times by
    ``int.__repr__``; the rest goes through ``json.dumps``. The text is what
    ``json.dumps(..., separators=(",", ":"))`` of the dict with sorted keys
    gives, byte for byte."""
    if stats is None:
        stats = corpus.stats()
    tail = json.dumps(
        {
            "source_sha256": source_sha256,
            "stats": dict(sorted(stats.items())),
            "t_end": corpus.t_end,
            "t_start": corpus.t_start,
        },
        separators=(",", ":"),
    )
    prs = ",".join(map(_pr_json, corpus.prs))
    return f'{{"format":{_json_str(ARTIFACT_FORMAT)},"prs":[{prs}],{tail[1:]}\n'


_json_str = json.encoder.encode_basestring_ascii
_json_int = int.__repr__


def _pr_json(pr: PullRequest) -> str:
    """One PR's object in the artifact, as ``corpus_to_json`` writes it."""
    comments = ",".join(
        [
            f'{{"author":{_json_str(c.author)},"created_at":{_json_int(c.created_at)}}}'
            for c in pr.comments
        ]
    )
    files = ",".join(map(_json_str, pr.files))
    return (
        f'{{"comments":[{comments}],"contributor":{_json_str(pr.contributor)},'
        f'"created_at":{_json_int(pr.created_at)},"files":[{files}],'
        f'"id":{_json_str(pr.id)},"state":{_json_str(pr.state)}}}'
    )


def _epoch_seconds(value: object) -> int:
    """A time field of the corpus artifact: an integer, not a bool, from
    ``EPOCH_MIN`` through ``EPOCH_MAX``."""
    if type(value) is not int:
        raise ValueError(f"expected integer epoch seconds, got {value!r}")
    if not EPOCH_MIN <= value <= EPOCH_MAX:
        raise _out_of_range(value)
    return value


def corpus_from_json(text: str | bytes) -> ReviewCorpus:
    """Load a corpus artifact, checking every PR with the export's field rules
    (times as integers) and rejecting what ``clean`` never writes: a repeated
    PR id, no PRs, and bounds that leave out a PR or comment time; keys it
    does not read, such as the ``developers`` list of older artifacts, are
    ignored."""
    try:
        payload = _load_json(text)
        if not isinstance(payload, dict) or payload.get("format") != ARTIFACT_FORMAT:
            raise ValueError(f"not an {ARTIFACT_FORMAT} document")
        for key in ("t_start", "t_end"):
            try:
                _epoch_seconds(payload[key])
            except ValueError as exc:
                raise ValueError(f"bad {key}: {exc}") from exc
        if not isinstance(payload["prs"], list):
            raise ValueError("prs must be a list")
        prs = []
        first_at: dict[str, int] = {}
        for i, rec in enumerate(payload["prs"]):
            try:
                prs.append(parse_record(rec, timestamp=_epoch_seconds))
                if not prs[-1].files:  # clean() keeps only PRs with files
                    raise ValueError("files must name at least one path")
                pr_id = prs[-1].id
                if pr_id in first_at:  # one id would merge into one vertex
                    raise ValueError(
                        f"duplicate id {pr_id!r} (first at pr {first_at[pr_id]})"
                    )
                first_at[pr_id] = i
            except ValueError as exc:
                raise ValueError(f"pr {i}: {exc}") from exc
        if not prs:
            raise ValueError("prs must name at least one PR")
        times = [pr.created_at for pr in prs]
        times += [c.created_at for pr in prs for c in pr.comments]
        bounds = payload["t_start"], payload["t_end"]
        extent = min(times), max(times)
        if not (bounds[0] <= extent[0] and extent[1] <= bounds[1]):
            raise ValueError(f"bounds {bounds} leave out PR or comment times {extent}")
        return ReviewCorpus(prs, *bounds)
    except KeyError as exc:
        raise HgrecError(f"corpus artifact: missing field {exc}") from exc
    except ValueError as exc:
        raise HgrecError(f"corpus artifact: {exc}") from exc


def sha256_of(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
