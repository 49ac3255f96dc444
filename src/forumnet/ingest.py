"""Parse, validate, and summarize raw forum post logs.

Input is a posts table (CSV or a previously serialized dataset in JSON)
plus an optional user roster. The content tells the two apart, never the
file name: a document whose first character after any BOM and whitespace
is ``{`` or ``[`` is JSON, and anything else is a posts CSV (no valid
header starts with either). Both CSV kinds go through one table reader,
which checks the stripped header and reads each line as one row (a stray
quote spoils only its own line), and both rosters (a users CSV, a
dataset JSON's ``users``) through one row rule: ID and profession are
stripped, a blank profession is None, a row with no ID is skipped, and
the first row per ID wins. ``parse_posts`` and ``parse_users`` take a
file's bytes. ``load_dataset`` alone opens data files: it reads the posts
file once, parses those bytes and keeps their sha256 on the dataset, then
merges in the roster parsed from the users file; a fault in a file's
bytes is raised with its path in front. Rows that violate the record
contract are never fatal: they are kept in ``ForumDataset.rejected`` with
a machine-readable reason, so retained + rejected always accounts for
every input row.

Each posts row validates to a plain tuple or to the reason it is
rejected; one pass then drops duplicate post IDs, picks each thread's
starter and builds a single ``PostRecord`` per kept row. A row's raw text
is written only once the row is rejected.

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
from typing import Callable, Iterable

from .errors import InputError, SchemaError
from .text import csv_text, json_text

POSTS_COLUMNS = ("post_id", "thread_id", "user_id", "forum_id", "timestamp")
START_COLUMN = "is_thread_start"
USERS_COLUMNS = ("user_id", "profession")
PERIODS = ("year", "quarter", "month")  # the first is the default

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
            **vars(self),
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


def _decode(raw: bytes) -> str:
    """A file's bytes as UTF-8 text, without its byte-order mark."""
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InputError(f"input is not valid UTF-8: {exc}") from exc


def _validate_fields(fields: list[str], start: bool | str) -> tuple | str:
    """The row as (post_id, thread_id, user_id, forum_id, timestamp, start),
    or the reason it cannot be kept.

    ``fields`` holds the POSTS_COLUMNS values as text; ``start`` is a bool
    or the text of a CSV start column ("", "true" or "false", any case).
    """
    ids = [value.strip() for value in fields[:4]]
    for name, value in zip(POSTS_COLUMNS, ids):
        if not value:
            return f"missing {name}"
    timestamp = parse_timestamp(fields[4])
    if timestamp is None:
        return "bad timestamp"
    if timestamp < VALID_FROM:
        return "timestamp out of range"
    if isinstance(start, str):
        start = start.strip().lower()
        if start not in ("", "true", "false"):
            return "bad is_thread_start"
        start = start == "true"
    return (*ids, timestamp, start)


def _merge_users(*rosters: Iterable[UserProfile]) -> list[UserProfile]:
    """One profile per user_id, sorted by it; the first one given wins."""
    profiles: dict[str, UserProfile] = {}
    for roster in rosters:
        for profile in roster:
            profiles.setdefault(profile.user_id, profile)
    return [profiles[uid] for uid in sorted(profiles)]


def _roster(rows: Iterable[tuple[str, str]]) -> list[UserProfile]:
    """The profiles of roster rows (user_id, profession): both stripped, a
    blank profession None, a row with no ID skipped, the first per ID kept."""
    stripped = ((user_id.strip(), profession.strip()) for user_id, profession in rows)
    return _merge_users(UserProfile(uid, profession or None) for uid, profession in stripped if uid)


def _finalize(rows: list, sources: list, raw: Callable[[object], str]) -> ForumDataset:
    """The dataset from validated rows (tuples, or reasons for rejection),
    given in input order; ``sources[i]`` is the input row that gave
    ``rows[i]``, and ``raw`` writes it as the text of its ``RejectedRow``.

    The earliest row per post_id is kept (ties by input order) and the
    others are rejected as duplicates. Each thread gets one starter: its
    earliest flagged row, else its earliest row. Every posting user gets
    an auto profile, and rejections keep input order.
    """
    kept: dict[str, int] = {}  # post_id -> index of the row kept for it
    for i, row in enumerate(rows):
        if isinstance(row, str):
            continue
        j = kept.setdefault(row[0], i)
        if j == i:
            continue
        if row[4] < rows[j][4]:
            kept[row[0]], drop = i, j
        else:
            drop = i
        rows[drop] = "duplicate post_id"

    retained = sorted((rows[i] for i in kept.values()), key=lambda row: (row[4], row[0]))
    # thread_id -> post_id of its starter; walking the rows backwards lets
    # the earliest (flagged) row of each thread be written last
    starters = {row[1]: row[0] for row in reversed(retained)}
    starters.update({row[1]: row[0] for row in reversed(retained) if row[5]})
    posts = [
        PostRecord(post_id, thread_id, user_id, forum_id, ts, starters[thread_id] == post_id)
        for post_id, thread_id, user_id, forum_id, ts, _ in retained
    ]
    users = _merge_users(map(UserProfile, {post.user_id for post in posts}))
    rejected = [
        RejectedRow(raw(source), row) for row, source in zip(rows, sources) if isinstance(row, str)
    ]
    return ForumDataset(posts=posts, users=users, rejected=rejected)


def _table(text: str, kind: str, columns: tuple, optional: tuple = ()) -> tuple[list, list]:
    """The stripped header of a ``kind`` CSV, ``columns`` with or without
    the ``optional`` ones after them, and its non-empty rows, one per line:
    when a quote left open folds lines into one record (or into a field too
    large to read), each line is read again on its own, so only the quote's
    line is spoilt. A line that fails to parse alone is an input fault."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = [name.strip() for name in next(reader)]
    except StopIteration:
        raise SchemaError(f"{kind} CSV is empty, expected a header row") from None
    if header not in (list(columns), [*columns, *optional]):
        expected = ",".join(columns) + "".join(f"[,{name}]" for name in optional)
        raise SchemaError(f"bad {kind} CSV header: expected {expected}, got {','.join(header)}")
    first = reader.line_num
    try:
        records = list(reader)
        folded = reader.line_num - first > len(records)
    except csv.Error:
        folded = True
    if folded:
        records = []
        for number, line in enumerate(io.StringIO(text).readlines()[first:], first + 1):
            try:
                records.extend(csv.reader([line.rstrip("\r\n")]))
            except csv.Error as exc:
                raise InputError(f"{kind} CSV line {number}: {exc}") from None
    return header, [row for row in records if row]


def _parse_posts_csv(text: str) -> ForumDataset:
    header, sources = _table(text, "posts", POSTS_COLUMNS, (START_COLUMN,))
    rows = [
        "wrong column count" if len(row) != len(header)
        else _validate_fields(row, row[5] if len(header) == 6 else "")
        for row in sources
    ]
    # a rejected row as one CSV line, without its "\n"
    return _finalize(rows, sources, lambda row: csv_text(row, ())[:-1])


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

    roster = _roster(
        (_json_text(entry, "user_id"), _json_text(entry, "profession"))
        for entry in doc.get("users", [])
    )
    carried = [
        RejectedRow(str(entry.get("raw", "")), str(entry.get("reason", "")))
        for entry in doc.get("rejected", [])
    ]

    rows: list = []
    for entry in doc["posts"]:
        if not isinstance(entry, dict):
            rows.append("post entry is not an object")
            continue
        for name in POSTS_COLUMNS[:4]:
            # an ID is a string or a number; an object, array or boolean is none
            if isinstance(entry.get(name), (dict, list, bool)):
                rows.append(f"bad {name}")
                break
        else:
            start = entry.get(START_COLUMN)
            if start is not None and not isinstance(start, bool):
                rows.append("bad is_thread_start")
            else:
                fields = [_json_text(entry, name) for name in POSTS_COLUMNS]
                rows.append(_validate_fields(fields, bool(start)))
    data = _finalize(rows, doc["posts"], lambda entry: json.dumps(entry, sort_keys=True))
    users = _merge_users(roster, data.users)
    return replace(data, users=users, rejected=[*carried, *data.rejected])


def parse_posts(raw: bytes) -> ForumDataset:
    """Parse the bytes of a posts file into a validated dataset.

    ``raw`` holds a serialized dataset document (JSON: ``{`` or ``[``
    first) or else the raw posts table (CSV). Per-row faults land in
    ``rejected``; only undecodable bytes or a bad header/shape raise. The
    dataset carries no ``source_sha256``: ``load_dataset`` reads a file
    and stamps it.
    """
    text = _decode(raw)
    json_doc = text.lstrip()[:1] in ("{", "[")
    return _parse_posts_json(text) if json_doc else _parse_posts_csv(text)


def parse_users(raw: bytes) -> list[UserProfile]:
    """Parse the bytes of the optional user roster CSV (user_id,profession)."""
    _, rows = _table(_decode(raw), "users", USERS_COLUMNS)
    return _roster((row[0], row[1] if len(row) > 1 else "") for row in rows)


def _load(path, parse: Callable[[bytes], object]) -> tuple:
    """The bytes of the file at ``path`` and what ``parse`` makes of them;
    a fault in those bytes is raised with ``path`` in front of it."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return raw, parse(raw)
    except InputError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def load_dataset(posts_path, users_path=None) -> ForumDataset:
    """The dataset in the posts file at ``posts_path``, with the optional
    users roster at ``users_path``; posting users missing from the roster
    keep auto profiles. The posts file is read once: the bytes parsed are
    the bytes whose sha256 the dataset carries."""
    raw, data = _load(posts_path, parse_posts)
    data = replace(data, source_sha256=hashlib.sha256(raw).hexdigest())
    if users_path is None:
        return data
    return replace(data, users=_merge_users(_load(users_path, parse_users)[1], data.users))


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


def activity_overview(data: ForumDataset, period: str = PERIODS[0]) -> ActivityOverview:
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
    posts = [{**vars(p), "timestamp": format_timestamp(p.timestamp)} for p in data.posts]
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
