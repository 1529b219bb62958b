"""Review-history data model: JSONL export parsing and corpus cleaning.

The export format is one JSON object per line:

    {"id": str, "contributor": str, "created_at": RFC3339 str,
     "state": "merged"|"closed"|"open", "files": [str, ...],
     "comments": [{"author": str, "created_at": RFC3339 str}, ...]}

Unknown fields are ignored. Timestamps are normalized to UTC epoch seconds
with sub-second precision truncated; every model formula uses ratios of time
differences, so the unit choice cancels.

Every record is read once: ``parse_record`` is the only validator, for
export lines, ``recommend`` targets and the PRs of a corpus artifact, and it
checks and converts each comment in one step. ``clean`` keeps a PR that
loses no comment as the parsed object, matches accounts only when there are
bot patterns or excluded ids, and names both export lines of a repeated PR
id when given the lines ``parse_export`` collects. ``corpus_to_json`` writes
the artifact with sorted keys.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain
from operator import attrgetter
from typing import Callable, Iterable

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


@dataclass(frozen=True)
class ReviewTable:
    """A corpus's PRs and comments as flat arrays, in corpus order.

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


@dataclass
class ReviewCorpus:
    """Cleaned, chronologically ordered review history.

    ``t_start``/``t_end`` are the dataset window bounds. After clean() they
    equal the min/max observed timestamp; windowed slices carry the window
    cut as ``t_end`` instead.

    A corpus and every ``slice_until`` descendant share one similarity store
    and one review table, held by the root: ``_positions`` maps a slice's
    PRs to the root's, and ``_comment_cut`` is the earliest cut of the
    slices between it and the root, before which its comments were made.
    """

    prs: list[PullRequest]
    t_start: int
    t_end: int
    # Filled by comment_counts(), or by hypergraph.build from the review table.
    _comment_counts: dict[str, int] | None = field(
        default=None, repr=False, compare=False
    )
    _file_pack: kernels.FilePack | None = field(
        default=None, repr=False, compare=False
    )
    _reviewer_incidence: tuple[tuple[str, ...], np.ndarray, np.ndarray] | None = (
        field(default=None, repr=False, compare=False)
    )
    _root: "ReviewCorpus | None" = field(default=None, repr=False, compare=False)
    _positions: np.ndarray | None = field(default=None, repr=False, compare=False)
    _comment_cut: int | None = field(default=None, repr=False, compare=False)
    # The root's review table (read-only), made by its or a slice's first
    # review_table().
    _review_table: ReviewTable | None = field(
        default=None, repr=False, compare=False
    )
    # The root's sweep of its PRs against each other (read-only), held by
    # the root once a slice has read it.
    _similarity: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def reviewer_ids(self) -> frozenset[str]:
        return frozenset(
            c.author
            for pr in self.prs
            for c in pr.comments
            if c.author != pr.contributor
        )

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

    def reviewer_incidence(self) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        """Who reviewed which PR: the reviewer ids in first-seen order, and
        one (PR position, reviewer position) intp entry per PR and distinct
        reviewer, in corpus order; memoized. A slice builds its own, since
        its PRs' comments are truncated at its cut."""
        if self._reviewer_incidence is None:
            self._reviewer_incidence = _build_reviewer_incidence(self.prs)
        return self._reviewer_incidence

    def review_table(self) -> ReviewTable:
        """This corpus's PRs and comments as a ``ReviewTable``.

        The root's table is made on first use and kept, read-only, where the
        root and every slice read it; a slice's is the root's taken at its
        PRs and at the comments before its cut. Concurrent first reads build
        twice, and the root keeps either. ``slice_until`` makes none, so a
        corpus that is never built from, as by the baselines, has none.
        """
        root = self._root or self
        table = root._review_table
        if table is None:
            table = root._review_table = _build_review_table(root.prs)
        if self._positions is None:
            return table
        return table.take(self._positions, self._comment_cut)

    def similarity_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The positive entries of ``kernels.mean_similarity_entries`` of this
        corpus's PRs against each other: the two PRs' indices in this corpus
        (int32, ``rows`` ascending) and the similarity.

        The root's PRs are swept against each other once, on first use. A
        slice's sweep is kept, read-only, in the root's store, where the
        root and every slice read it. An entry depends only on the two file
        sets, so the root's entries read at a slice's PRs are exactly the
        slice's own. Concurrent first reads sweep twice, and the store keeps
        either. A root that is never sliced keeps nothing: built once per
        fit, it would never read its sweep again.
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
        return {
            "prs": len(self.prs),
            "comments": sum(len(pr.comments) for pr in self.prs),
            "reviewers": len(self.reviewer_ids()),
            "contributors": len(self.contributor_ids()),
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
    table = ReviewTable(
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
    for part in vars(table).values():
        part.flags.writeable = False
    return table


def _build_reviewer_incidence(
    prs: list[PullRequest],
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    index: dict[str, int] = {}
    pr_at: list[int] = []
    reviewer_at: list[int] = []
    for i, pr in enumerate(prs):
        for reviewer in dict.fromkeys(
            c.author for c in pr.comments if c.author != pr.contributor
        ):
            pr_at.append(i)
            reviewer_at.append(index.setdefault(reviewer, len(index)))
    arrays = (np.array(pr_at, dtype=np.intp), np.array(reviewer_at, dtype=np.intp))
    for part in arrays:
        part.flags.writeable = False
    return tuple(index), *arrays


def parse_timestamp(text: str) -> int:
    """RFC 3339 string -> UTC epoch seconds (sub-second part truncated).

    Raises ValueError on a malformed string and TypeError on a non-string.
    A string ``datetime.fromisoformat`` takes as given (on Python 3.11, every
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
    return int(moment.timestamp())


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
    return PullRequest(
        id=pr_id,
        contributor=contributor,
        created_at=created,
        files=tuple(sorted(set(files))),
        comments=tuple(comments),
        state=state,
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

    # (raw position, PR, its reviewers) of each PR passing steps 1 and 2.
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
        stage.append((at, pr, pr.reviewers()))

    # Reviewer participation is counted in distinct reviewed PR ids: an id
    # can repeat here when step 4 leaves only one of its PRs.
    reviewed: dict[str, frozenset[str]] = {}
    for _, pr, reviewers in stage:
        seen = reviewed.get(pr.id)
        reviewed[pr.id] = reviewers if seen is None else seen | reviewers
    participation = Counter(chain.from_iterable(reviewed.values()))
    casual = {r for r, n in participation.items() if n < min_reviews}

    cleaned = []
    first_at: dict[str, int] = {}
    for at, pr, reviewers in stage:
        if not pr.files:
            continue
        if not casual.isdisjoint(reviewers):
            kept = tuple(
                c
                for c in pr.comments
                if not (c.author in casual and c.author != pr.contributor)
            )
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


def reviewer_sets(corpus: ReviewCorpus) -> dict[str, frozenset[str]]:
    """PR id -> set of reviewer ids (distinct commenters minus contributor)."""
    return {pr.id: pr.reviewers() for pr in corpus.prs}


# ---------------------------------------------------------------------------
# Canonical corpus artifact (the cached output of `hgrec ingest`).

ARTIFACT_FORMAT = "hgrec-corpus-v1"


def corpus_to_json(
    corpus: ReviewCorpus,
    source_sha256: str | None = None,
    stats: dict[str, int] | None = None,
) -> str:
    """The artifact text; ``stats`` is ``corpus.stats()`` when the caller
    already has it. Every dict is built with its keys in sorted order, so
    the text is what ``sort_keys`` would give."""
    if stats is None:
        stats = corpus.stats()
    payload = {
        "format": ARTIFACT_FORMAT,
        "prs": [
            {
                "comments": [
                    {"author": c.author, "created_at": c.created_at}
                    for c in pr.comments
                ],
                "contributor": pr.contributor,
                "created_at": pr.created_at,
                "files": pr.files,
                "id": pr.id,
                "state": pr.state,
            }
            for pr in corpus.prs
        ],
        "source_sha256": source_sha256,
        "stats": dict(sorted(stats.items())),
        "t_end": corpus.t_end,
        "t_start": corpus.t_start,
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _epoch_seconds(value: object) -> int:
    """A time field of the corpus artifact: an integer, not a bool."""
    if type(value) is not int:
        raise ValueError(f"expected integer epoch seconds, got {value!r}")
    return value


def corpus_from_json(text: str | bytes) -> ReviewCorpus:
    """Load a corpus artifact, checking every PR with the export's field rules
    (times as integers) and rejecting a repeated PR id, as ``clean`` does;
    keys it does not read, such as the ``developers`` list of older
    artifacts, are ignored."""
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
        return ReviewCorpus(prs=prs, t_start=payload["t_start"], t_end=payload["t_end"])
    except KeyError as exc:
        raise HgrecError(f"corpus artifact: missing field {exc}") from exc
    except ValueError as exc:
        raise HgrecError(f"corpus artifact: {exc}") from exc


def sha256_of(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
