"""Seeded synthetic review-history export for the benchmark.

The shape follows the one the project's measurements were taken on: each
area has a pool of files and three specialist reviewers; a PR touches 1-6
files of one area and carries 0-6 review comments, 80% of them written by the
area's specialists and the rest by random developers; contributors are drawn
uniformly at random. The ``coupling`` knob departs from that shape: with
probability ``coupling`` a PR's contributor is drawn from developers whose
home is the PR's area instead. The workloads keep it at 0.

Counts are balanced rather than drawn independently: PRs are spread evenly
over the window, and areas, file counts, comment counts and the open PRs
come in exact proportions. Two seeds then give corpora of the same size and
cost, and differ only in which files, people and times are drawn.

``depth`` sets how many path components a file has below its area. With a
deep tree and a large pool nearly every file is new (wide paths, many unique
paths); a shallow tree with a small pool repeats files (narrow paths).

Held-out PRs are generated after the corpus window and are returned apart
from the export: they are the queries of the serve workload, and their
comment authors are the ground truth.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import datetime, timezone

# 2019-01-01T00:00:00Z; every corpus starts on a month boundary.
ORIGIN = int(datetime(2019, 1, 1, tzinfo=timezone.utc).timestamp())
MONTH = 30 * 86400
HOUR = 3600
SPECIALISTS_PER_AREA = 3
SPECIALIST_SHARE = 0.8
OPEN_SHARE = 0.05


@dataclass(frozen=True)
class Shape:
    prs: int
    months: int
    developers: int = 80
    areas: int = 48
    files_per_area: int = 21
    depth: int = 1
    coupling: float = 0.0
    held_out: int = 0


def _iso(epoch: int) -> str:
    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


def _file_pool(rng: random.Random, area: int, shape: Shape) -> list[str]:
    pool: set[str] = set()
    fanout = 4
    while len(pool) < shape.files_per_area:
        dirs = [f"d{rng.randrange(fanout)}" for _ in range(shape.depth - 1)]
        pool.add("/".join([f"area{area:02d}", *dirs, f"f{rng.randrange(10**6)}.c"]))
    return sorted(pool)


def _balanced(rng: random.Random, values: list, n: int) -> list:
    """``n`` draws that use every value equally often, in random order."""
    out: list = []
    while len(out) < n:
        block = list(values)
        rng.shuffle(block)
        out += block
    return out[:n]


def generate(shape: Shape, seed: int | str) -> tuple[list[dict], list[dict]]:
    """Return (export records, held-out records), both as export-format dicts."""
    rng = random.Random(seed)
    devs = [f"dev{i:03d}" for i in range(shape.developers)]
    pools = [_file_pool(rng, a, shape) for a in range(shape.areas)]
    specialists = [rng.sample(devs, SPECIALISTS_PER_AREA) for _ in range(shape.areas)]
    homes: list[list[str]] = [[] for _ in range(shape.areas)]
    for dev, area in zip(devs, _balanced(rng, range(shape.areas), len(devs))):
        homes[area].append(dev)

    window = shape.months * MONTH
    total = shape.prs + shape.held_out
    # The corpus spreads over the window; held-out PRs follow it within a month.
    stamps = [ORIGIN + int((n + rng.random()) * window / shape.prs) for n in range(shape.prs)]
    stamps += [
        ORIGIN + window + HOUR + int((n + rng.random()) * MONTH / shape.held_out)
        for n in range(shape.held_out)
    ]
    areas = _balanced(rng, range(shape.areas), total)
    file_counts = _balanced(rng, range(1, 7), total)
    comment_counts = _balanced(rng, range(0, 7), total)
    opened = set(rng.sample(range(shape.prs), round(OPEN_SHARE * shape.prs)))

    records = []
    for n in range(total):
        area = areas[n]
        if homes[area] and rng.random() < shape.coupling:
            contributor = rng.choice(homes[area])
        else:
            contributor = rng.choice(devs)
        pool = pools[area]
        files = rng.sample(pool, min(len(pool), file_counts[n]))
        created = stamps[n]
        comments = []
        for _ in range(comment_counts[n]):
            if rng.random() < SPECIALIST_SHARE:
                author = rng.choice(specialists[area])
            else:
                author = rng.choice(devs)
            comments.append(
                {"author": author, "created_at": _iso(created + rng.randint(HOUR, 7 * 24 * HOUR))}
            )
        held = n >= shape.prs
        records.append(
            {
                "id": f"q-{n - shape.prs:05d}" if held else f"pr-{n:05d}",
                "contributor": contributor,
                "created_at": _iso(created),
                "state": "open" if n in opened else "merged",
                "files": sorted(files),
                "comments": comments,
            }
        )
    return records[: shape.prs], records[shape.prs :]


def to_jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
