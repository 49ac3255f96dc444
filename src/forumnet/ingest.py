"""Parse, validate, and summarize raw forum post logs.

Input is a posts table (CSV or a previously serialized dataset in JSON)
plus an optional user roster. Rows that violate the record contract are
never fatal: they are kept in ``ForumDataset.rejected`` with a
machine-readable reason, so retained + rejected always accounts for every
input row.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

from .errors import InputError, SchemaError

POSTS_COLUMNS = ("post_id", "thread_id", "user_id", "forum_id", "timestamp")
START_COLUMN = "is_thread_start"
USERS_COLUMNS = ("user_id", "profession")
PERIODS = ("year", "quarter", "month")

DEFAULT_VALID_FROM = datetime(1990, 1, 1, tzinfo=timezone.utc)


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
    incomplete) and is sorted by user_id. Instances are treated as
    immutable after construction.
    """

    posts: list[PostRecord]
    users: list[UserProfile]
    rejected: list[RejectedRow] = field(default_factory=list)


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
    """ISO-8601 parser; returns None on garbage. Naive values count as UTC."""
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    try:
        parsed = datetime.fromisoformat(cleaned)
    except ValueError:
        return None
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed.astimezone(timezone.utc)


def format_timestamp(value: datetime) -> str:
    return value.astimezone(timezone.utc).isoformat()


def _read_text(source) -> str:
    """Accept a path, text, or file object; decode as UTF-8."""
    try:
        if isinstance(source, (str, Path)):
            return Path(source).read_text(encoding="utf-8-sig")
        data = source.read()
    except OSError as exc:
        raise InputError(f"cannot read input: {exc}") from exc
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise InputError(f"input is not valid UTF-8: {exc}") from exc
        return text
    return data.lstrip("﻿")


def _csv_line(values: Iterable[str]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(list(values))
    return buf.getvalue()


# Candidate rows that survived per-field validation, pre duplicate check.
@dataclass
class _Candidate:
    order: int
    raw: str
    post_id: str
    thread_id: str
    user_id: str
    forum_id: str
    timestamp: datetime
    start_flag: bool | None


def _validate_fields(
    raw: str,
    order: int,
    fields: dict[str, str],
    start_value,
    valid_from: datetime,
    valid_to: datetime,
):
    """Return (_Candidate, None) or (None, RejectedRow)."""
    for name in POSTS_COLUMNS[:4]:
        if not str(fields.get(name, "")).strip():
            return None, RejectedRow(raw, f"missing {name}")
    ts_value = fields.get("timestamp", "")
    if not isinstance(ts_value, str) or not ts_value.strip():
        return None, RejectedRow(raw, "bad timestamp")
    timestamp = parse_timestamp(ts_value)
    if timestamp is None:
        return None, RejectedRow(raw, "bad timestamp")
    if not valid_from <= timestamp <= valid_to:
        return None, RejectedRow(raw, "timestamp out of range")

    start_flag: bool | None
    if start_value is None:
        start_flag = None
    elif isinstance(start_value, bool):
        start_flag = start_value
    else:
        lowered = str(start_value).strip().lower()
        if lowered == "":
            start_flag = None
        elif lowered in ("true", "false"):
            start_flag = lowered == "true"
        else:
            return None, RejectedRow(raw, "bad is_thread_start")

    return (
        _Candidate(
            order=order,
            raw=raw,
            post_id=str(fields["post_id"]).strip(),
            thread_id=str(fields["thread_id"]).strip(),
            user_id=str(fields["user_id"]).strip(),
            forum_id=str(fields["forum_id"]).strip(),
            timestamp=timestamp,
            start_flag=start_flag,
        ),
        None,
    )


def _resolve_duplicates(candidates: list[_Candidate]):
    """Keep the earliest row per post_id (ties by input order), reject the rest."""
    by_id: dict[str, _Candidate] = {}
    rejects: list[tuple[int, RejectedRow]] = []
    for cand in candidates:
        kept = by_id.get(cand.post_id)
        if kept is None:
            by_id[cand.post_id] = cand
            continue
        if (cand.timestamp, cand.order) < (kept.timestamp, kept.order):
            by_id[cand.post_id] = cand
            rejects.append((kept.order, RejectedRow(kept.raw, "duplicate post_id")))
        else:
            rejects.append((cand.order, RejectedRow(cand.raw, "duplicate post_id")))
    return list(by_id.values()), rejects


def _assign_thread_starts(candidates: list[_Candidate]) -> list[PostRecord]:
    """Normalize start flags: one starter per thread.

    An explicitly flagged row wins (earliest if several are flagged);
    otherwise the thread's earliest post is promoted.
    """
    per_thread: dict[str, list[_Candidate]] = defaultdict(list)
    for cand in candidates:
        per_thread[cand.thread_id].append(cand)
    starters: set[str] = set()
    for thread_rows in per_thread.values():
        thread_rows.sort(key=lambda c: (c.timestamp, c.post_id))
        flagged = [c for c in thread_rows if c.start_flag]
        chosen = flagged[0] if flagged else thread_rows[0]
        starters.add(chosen.post_id)
    records = [
        PostRecord(
            post_id=c.post_id,
            thread_id=c.thread_id,
            user_id=c.user_id,
            forum_id=c.forum_id,
            timestamp=c.timestamp,
            is_thread_start=c.post_id in starters,
        )
        for c in candidates
    ]
    records.sort(key=lambda r: (r.timestamp, r.post_id))
    return records


def _finalize(
    candidates: list[_Candidate],
    rejects: list[tuple[int, RejectedRow]],
    roster: list[UserProfile] | None = None,
    carried_rejects: list[RejectedRow] | None = None,
) -> ForumDataset:
    retained, dup_rejects = _resolve_duplicates(candidates)
    rejects = sorted(rejects + dup_rejects, key=lambda item: item[0])
    posts = _assign_thread_starts(retained)

    profiles: dict[str, UserProfile] = {}
    for profile in roster or []:
        profiles.setdefault(profile.user_id, profile)
    for post in posts:
        profiles.setdefault(post.user_id, UserProfile(post.user_id))
    users = [profiles[uid] for uid in sorted(profiles)]

    rejected = list(carried_rejects or []) + [row for _, row in rejects]
    return ForumDataset(posts=posts, users=users, rejected=rejected)


def _parse_posts_csv(text: str, valid_from: datetime, valid_to: datetime) -> ForumDataset:
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

    candidates: list[_Candidate] = []
    rejects: list[tuple[int, RejectedRow]] = []
    for order, row in enumerate(reader):
        if not row:
            continue
        raw = _csv_line(row)
        if len(row) != len(header):
            rejects.append((order, RejectedRow(raw, "wrong column count")))
            continue
        fields = dict(zip(POSTS_COLUMNS, row))
        start_value = row[5] if has_start else None
        cand, reject = _validate_fields(raw, order, fields, start_value, valid_from, valid_to)
        if reject is not None:
            rejects.append((order, reject))
        else:
            candidates.append(cand)
    return _finalize(candidates, rejects)


def _json_text(entry: dict, name: str) -> str:
    """A JSON field as text; absent and null both read as empty."""
    value = entry.get(name)
    return "" if value is None else str(value)


def _parse_posts_json(text: str, valid_from: datetime, valid_to: datetime) -> ForumDataset:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if isinstance(doc, list):
        doc = {"posts": doc}
    if not isinstance(doc, dict) or not isinstance(doc.get("posts"), list):
        raise SchemaError("JSON dataset must be an object with a 'posts' array")

    roster: list[UserProfile] = []
    for entry in doc.get("users", []):
        if isinstance(entry, dict) and _json_text(entry, "user_id").strip():
            profession = entry.get("profession")
            roster.append(
                UserProfile(str(entry["user_id"]), str(profession) if profession else None)
            )
    carried = [
        RejectedRow(str(entry.get("raw", "")), str(entry.get("reason", "")))
        for entry in doc.get("rejected", [])
        if isinstance(entry, dict)
    ]

    candidates: list[_Candidate] = []
    rejects: list[tuple[int, RejectedRow]] = []
    for order, entry in enumerate(doc["posts"]):
        raw = json.dumps(entry, sort_keys=True)
        if not isinstance(entry, dict):
            rejects.append((order, RejectedRow(raw, "post entry is not an object")))
            continue
        fields = {name: _json_text(entry, name) for name in POSTS_COLUMNS}
        start_value = entry.get(START_COLUMN)
        if start_value is not None and not isinstance(start_value, bool):
            rejects.append((order, RejectedRow(raw, "bad is_thread_start")))
            continue
        cand, reject = _validate_fields(raw, order, fields, start_value, valid_from, valid_to)
        if reject is not None:
            rejects.append((order, reject))
        else:
            candidates.append(cand)
    return _finalize(candidates, rejects, roster=roster, carried_rejects=carried)


def parse_posts(
    source,
    format: str = "csv",
    *,
    valid_from: datetime | None = None,
    valid_to: datetime | None = None,
) -> ForumDataset:
    """Parse a posts log into a validated dataset.

    ``source`` is a path or file object; ``format`` is ``csv`` (the raw
    posts table) or ``json`` (a serialized dataset document). Per-row
    faults land in ``rejected``; only an unreadable stream or a bad
    header/shape raises.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"unknown posts format: {format!r}")
    text = _read_text(source)
    low = valid_from or DEFAULT_VALID_FROM
    high = valid_to or datetime.now(timezone.utc)
    if format == "csv":
        return _parse_posts_csv(text, low, high)
    return _parse_posts_json(text, low, high)


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
    profiles: dict[str, UserProfile] = {}
    for row in reader:
        if not row or not row[0].strip():
            continue
        profession = row[1].strip() if len(row) > 1 and row[1].strip() else None
        profiles.setdefault(row[0].strip(), UserProfile(row[0].strip(), profession))
    return [profiles[uid] for uid in sorted(profiles)]


def with_users(data: ForumDataset, roster: list[UserProfile]) -> ForumDataset:
    """Attach a roster; posting users missing from it keep auto profiles."""
    profiles = {p.user_id: p for p in roster}
    for profile in data.users:
        profiles.setdefault(profile.user_id, profile)
    return replace(data, users=[profiles[uid] for uid in sorted(profiles)])


def load_dataset(posts_path, users_path=None, format: str | None = None) -> ForumDataset:
    """Convenience loader: format inferred from the file suffix unless given."""
    if format is None:
        format = "json" if str(posts_path).lower().endswith(".json") else "csv"
    data = parse_posts(posts_path, format)
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


def top_posters(data: ForumDataset, min_posts: int = 0) -> list[tuple[str, int]]:
    """Users with at least ``min_posts`` posts, most active first."""
    if min_posts < 0:
        raise ValueError("min_posts must be >= 0")
    counts = Counter(p.user_id for p in data.posts)
    rows = [(uid, n) for uid, n in counts.items() if n >= min_posts]
    rows.sort(key=lambda item: (-item[1], item[0]))
    return rows


# --- serialization -------------------------------------------------------

def dataset_to_dict(data: ForumDataset) -> dict:
    return {
        "posts": [
            {
                "post_id": p.post_id,
                "thread_id": p.thread_id,
                "user_id": p.user_id,
                "forum_id": p.forum_id,
                "timestamp": format_timestamp(p.timestamp),
                "is_thread_start": p.is_thread_start,
            }
            for p in data.posts
        ],
        "users": [{"user_id": u.user_id, "profession": u.profession} for u in data.users],
        "rejected": [{"raw": r.raw, "reason": r.reason} for r in data.rejected],
    }


def dataset_to_json(data: ForumDataset) -> str:
    return json.dumps(dataset_to_dict(data), indent=2, sort_keys=True) + "\n"


def posts_csv(data: ForumDataset) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(POSTS_COLUMNS) + [START_COLUMN])
    for p in data.posts:
        writer.writerow(
            [
                p.post_id,
                p.thread_id,
                p.user_id,
                p.forum_id,
                format_timestamp(p.timestamp),
                "true" if p.is_thread_start else "false",
            ]
        )
    return buf.getvalue()


def users_csv(data: ForumDataset) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(USERS_COLUMNS))
    for u in data.users:
        writer.writerow([u.user_id, u.profession or ""])
    return buf.getvalue()
