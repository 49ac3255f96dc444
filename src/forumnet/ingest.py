"""Parse, validate, and summarize raw forum post logs.

Input is a posts table (CSV or a previously serialized dataset in JSON)
plus an optional user roster. The content tells the two apart, never the
file name: a document whose first character after any BOM and whitespace
is ``{`` or ``[`` is JSON, and anything else is a posts CSV (no valid
header starts with either). ``load_dataset`` reads a posts file once and
keeps the sha256 of its bytes on the dataset. Rows that violate the record
contract are never fatal: they are kept in ``ForumDataset.rejected`` with
a machine-readable reason, so retained + rejected always accounts for
every input row.

Each row validates to a plain tuple or to a ``RejectedRow``; one pass
then drops duplicate post IDs, picks each thread's starter and builds a
single ``PostRecord`` per kept row.

``dataset_to_json``, ``posts_csv`` and ``users_csv`` write a dataset
back out through ``text``, which fixes the bytes of both formats.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections import Counter
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

from .errors import InputError, SchemaError
from .text import csv_text, json_text

POSTS_COLUMNS = ("post_id", "thread_id", "user_id", "forum_id", "timestamp")
START_COLUMN = "is_thread_start"
USERS_COLUMNS = ("user_id", "profession")
PERIODS = ("year", "quarter", "month")

# rows dated before this are rejected as "timestamp out of range"; there
# is no upper bound, so a file ingests the same on every day
VALID_FROM = datetime(1990, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class PostRecord:
    """One forum post event; the atomic input of every network build."""

    post_id: str
    thread_id: str
    user_id: str
    forum_id: str
    timestamp: datetime
    is_thread_start: bool = False


@dataclass(frozen=True)
class UserProfile:
    user_id: str
    profession: str | None = None


@dataclass(frozen=True)
class RejectedRow:
    raw: str
    reason: str


@dataclass
class ForumDataset:
    """Validated post log.

    ``posts`` are sorted by (timestamp, post_id); ``users`` covers every
    posting user (profiles are auto-created when the roster is missing or
    incomplete) and is sorted by user_id. ``source_sha256`` is the sha256
    of the posts file it was loaded from, None for one built in memory.
    Instances are treated as immutable after construction.
    """

    posts: list[PostRecord]
    users: list[UserProfile]
    rejected: list[RejectedRow] = field(default_factory=list)
    source_sha256: str | None = None


@dataclass
class ActivityOverview:
    """Headline activity counts plus per-user / per-forum breakdowns."""

    period: str
    registered_user_count: int
    posting_user_count: int
    thread_count: int
    post_count: int
    posts_per_user: dict[str, int]
    posts_per_forum_per_period: dict[tuple[str, str], int]
    profession_breakdown: dict[str, int]

    def to_dict(self) -> dict:
        cells = [
            {"forum_id": forum, "period": label, "posts": count}
            for (forum, label), count in sorted(self.posts_per_forum_per_period.items())
        ]
        return {
            "period": self.period,
            "registered_user_count": self.registered_user_count,
            "posting_user_count": self.posting_user_count,
            "thread_count": self.thread_count,
            "post_count": self.post_count,
            "posts_per_user": dict(sorted(self.posts_per_user.items())),
            "posts_per_forum_per_period": cells,
            "profession_breakdown": dict(sorted(self.profession_breakdown.items())),
        }


def parse_timestamp(text: str) -> datetime | None:
    """ISO-8601 parser; returns None on garbage and on times that fall
    outside years 1-9999 in UTC. Naive values count as UTC."""
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    try:
        parsed = datetime.fromisoformat(cleaned)
        if parsed.tzinfo is None:
            return parsed.replace(tzinfo=timezone.utc)
        return parsed.astimezone(timezone.utc)
    except (ValueError, OverflowError):
        return None


def format_timestamp(value: datetime) -> str:
    return value.astimezone(timezone.utc).isoformat()


def _read_text(source) -> str:
    """Accept a path, bytes, or file object; decode as UTF-8."""
    try:
        if isinstance(source, (str, Path)):
            return Path(source).read_text(encoding="utf-8-sig")
        data = source if isinstance(source, bytes) else source.read()
        if isinstance(data, bytes):
            return data.decode("utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot read input: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"input is not valid UTF-8: {exc}") from exc
    return data.lstrip("﻿")


def _validate_fields(raw: str, fields: list[str], start: bool | str):
    """The row as (post_id, thread_id, user_id, forum_id, timestamp, start,
    raw), or the RejectedRow that says why it cannot be kept.

    ``fields`` holds the POSTS_COLUMNS values as text; ``start`` is a bool
    or the text of a CSV start column ("", "true" or "false", any case).
    """
    ids = [value.strip() for value in fields[:4]]
    for name, value in zip(POSTS_COLUMNS, ids):
        if not value:
            return RejectedRow(raw, f"missing {name}")
    timestamp = parse_timestamp(fields[4])
    if timestamp is None:
        return RejectedRow(raw, "bad timestamp")
    if timestamp < VALID_FROM:
        return RejectedRow(raw, "timestamp out of range")
    if isinstance(start, str):
        start = start.strip().lower()
        if start not in ("", "true", "false"):
            return RejectedRow(raw, "bad is_thread_start")
        start = start == "true"
    return (*ids, timestamp, start, raw)


def _merge_users(*rosters: Iterable[UserProfile]) -> list[UserProfile]:
    """One profile per user_id, sorted by it; the first one given wins."""
    profiles: dict[str, UserProfile] = {}
    for roster in rosters:
        for profile in roster:
            profiles.setdefault(profile.user_id, profile)
    return [profiles[uid] for uid in sorted(profiles)]


def _finalize(
    rows: list,
    roster: Iterable[UserProfile] = (),
    carried: Iterable[RejectedRow] = (),
) -> ForumDataset:
    """The dataset from validated rows, given in input order.

    The earliest row per post_id is kept (ties by input order) and the
    others are rejected as duplicates. Each thread gets one starter: its
    earliest flagged row, else its earliest row. Rejections keep input
    order, after those ``carried`` over from a serialized dataset.
    """
    kept: dict[str, int] = {}  # post_id -> index of the row kept for it
    for i, row in enumerate(rows):
        if isinstance(row, RejectedRow):
            continue
        j = kept.setdefault(row[0], i)
        if j == i:
            continue
        if row[4] < rows[j][4]:
            kept[row[0]], drop = i, j
        else:
            drop = i
        rows[drop] = RejectedRow(rows[drop][6], "duplicate post_id")

    retained = sorted((rows[i] for i in kept.values()), key=lambda row: (row[4], row[0]))
    # thread_id -> post_id of its starter; walking the rows backwards lets
    # the earliest (flagged) row of each thread be written last
    starters = {row[1]: row[0] for row in reversed(retained)}
    starters.update({row[1]: row[0] for row in reversed(retained) if row[5]})
    posts = [
        PostRecord(post_id, thread_id, user_id, forum_id, ts, starters[thread_id] == post_id)
        for post_id, thread_id, user_id, forum_id, ts, _, _ in retained
    ]
    users = _merge_users(roster, map(UserProfile, {post.user_id for post in posts}))
    rejected = [*carried, *(row for row in rows if isinstance(row, RejectedRow))]
    return ForumDataset(posts=posts, users=users, rejected=rejected)


def _parse_posts_csv(text: str) -> ForumDataset:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("posts CSV is empty, expected a header row") from None
    header = [h.strip() for h in header]
    if header != list(POSTS_COLUMNS) and header != list(POSTS_COLUMNS) + [START_COLUMN]:
        raise SchemaError(
            "bad posts CSV header: expected "
            f"{','.join(POSTS_COLUMNS)}[,{START_COLUMN}], got {','.join(header)}"
        )
    has_start = len(header) == 6

    rows: list = []
    for row in reader:
        if not row:
            continue
        raw = csv_text(row, ())[:-1]  # the row as one CSV line, without its "\n"
        if len(row) != len(header):
            rows.append(RejectedRow(raw, "wrong column count"))
        else:
            rows.append(_validate_fields(raw, row, row[5] if has_start else ""))
    return _finalize(rows)


def _json_text(entry: dict, name: str) -> str:
    """A JSON field as text; absent and null both read as empty."""
    value = entry.get(name)
    return "" if value is None else str(value)


def _parse_posts_json(text: str) -> ForumDataset:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if isinstance(doc, list):
        doc = {"posts": doc}
    if not isinstance(doc, dict) or not isinstance(doc.get("posts"), list):
        raise SchemaError("JSON dataset must be an object with a 'posts' array")

    for name in ("users", "rejected"):
        if not isinstance(doc.get(name, []), list):
            raise SchemaError(f"JSON dataset field {name!r} must be an array")
        if not all(isinstance(entry, dict) for entry in doc.get(name, [])):
            raise SchemaError(f"JSON dataset field {name!r} must hold only objects")

    roster: list[UserProfile] = []
    for entry in doc.get("users", []):
        # IDs and professions are stripped, as in a users CSV
        user_id = _json_text(entry, "user_id").strip()
        if user_id:
            roster.append(UserProfile(user_id, _json_text(entry, "profession").strip() or None))
    carried = [
        RejectedRow(str(entry.get("raw", "")), str(entry.get("reason", "")))
        for entry in doc.get("rejected", [])
    ]

    rows: list = []
    for entry in doc["posts"]:
        raw = json.dumps(entry, sort_keys=True)
        if not isinstance(entry, dict):
            rows.append(RejectedRow(raw, "post entry is not an object"))
            continue
        start = entry.get(START_COLUMN)
        if start is not None and not isinstance(start, bool):
            rows.append(RejectedRow(raw, "bad is_thread_start"))
        else:
            fields = [_json_text(entry, name) for name in POSTS_COLUMNS]
            rows.append(_validate_fields(raw, fields, bool(start)))
    return _finalize(rows, roster, carried)


def parse_posts(source) -> ForumDataset:
    """Parse a posts log into a validated dataset.

    ``source`` is a path, bytes, or file object holding a serialized
    dataset document (JSON: ``{`` or ``[`` first) or else the raw posts
    table (CSV). Per-row faults land in ``rejected``; only an unreadable
    stream or a bad header/shape raises.
    """
    text = _read_text(source)
    json_doc = text.lstrip()[:1] in ("{", "[")
    return _parse_posts_json(text) if json_doc else _parse_posts_csv(text)


def parse_users(source) -> list[UserProfile]:
    """Parse the optional user roster CSV (user_id,profession)."""
    text = _read_text(source)
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("users CSV is empty, expected a header row") from None
    if [h.strip() for h in header] != list(USERS_COLUMNS):
        raise SchemaError(f"bad users CSV header: expected {','.join(USERS_COLUMNS)}")
    roster = []
    for row in reader:
        if row and row[0].strip():
            profession = row[1].strip() if len(row) > 1 else ""
            roster.append(UserProfile(row[0].strip(), profession or None))
    return _merge_users(roster)


def with_users(data: ForumDataset, roster: list[UserProfile]) -> ForumDataset:
    """Attach a roster; posting users missing from it keep auto profiles."""
    return replace(data, users=_merge_users(roster, data.users))


def load_dataset(posts_path, users_path=None) -> ForumDataset:
    """The dataset in the posts file at ``posts_path``, with the optional
    users roster at ``users_path``. The posts file is read once: the bytes
    parsed are the bytes whose sha256 the dataset carries."""
    try:
        raw = Path(posts_path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {posts_path}: {exc}") from exc
    data = replace(parse_posts(raw), source_sha256=hashlib.sha256(raw).hexdigest())
    if users_path is not None:
        data = with_users(data, parse_users(users_path))
    return data


def period_label(timestamp: datetime, period: str) -> str:
    """Calendar bucket label on UTC boundaries: 2012 / 2012-Q3 / 2012-07."""
    utc = timestamp.astimezone(timezone.utc)
    if period == "year":
        return f"{utc.year:04d}"
    if period == "quarter":
        return f"{utc.year:04d}-Q{(utc.month - 1) // 3 + 1}"
    if period == "month":
        return f"{utc.year:04d}-{utc.month:02d}"
    raise ValueError(f"unknown period: {period!r}")


def activity_overview(data: ForumDataset, period: str = "year") -> ActivityOverview:
    """Activity counts for the dataset; an empty dataset yields zeros."""
    if period not in PERIODS:
        raise ValueError(f"unknown period: {period!r}")
    posts_per_user = Counter(p.user_id for p in data.posts)
    cells = Counter((p.forum_id, period_label(p.timestamp, period)) for p in data.posts)
    professions = Counter(p.profession or "unknown" for p in data.users)
    return ActivityOverview(
        period=period,
        registered_user_count=len(data.users),
        posting_user_count=len(posts_per_user),
        thread_count=len({p.thread_id for p in data.posts}),
        post_count=len(data.posts),
        posts_per_user=dict(posts_per_user),
        posts_per_forum_per_period=dict(cells),
        profession_breakdown=dict(professions) if data.users else {},
    )


# --- serialization -------------------------------------------------------

def dataset_to_json(data: ForumDataset) -> str:
    """The dataset document that ``parse_posts`` reads back (without
    ``source_sha256``)."""
    posts = [
        {
            "post_id": p.post_id,
            "thread_id": p.thread_id,
            "user_id": p.user_id,
            "forum_id": p.forum_id,
            "timestamp": format_timestamp(p.timestamp),
            "is_thread_start": p.is_thread_start,
        }
        for p in data.posts
    ]
    return json_text(
        {
            "posts": posts,
            "users": [{"user_id": u.user_id, "profession": u.profession} for u in data.users],
            "rejected": [{"raw": r.raw, "reason": r.reason} for r in data.rejected],
        }
    )


def posts_csv(data: ForumDataset) -> str:
    """The retained posts as a posts CSV with its is_thread_start column."""
    rows = (
        (p.post_id, p.thread_id, p.user_id, p.forum_id, format_timestamp(p.timestamp),
         "true" if p.is_thread_start else "false")
        for p in data.posts
    )
    return csv_text((*POSTS_COLUMNS, START_COLUMN), rows)


def users_csv(data: ForumDataset) -> str:
    return csv_text(USERS_COLUMNS, ((u.user_id, u.profession or "") for u in data.users))
