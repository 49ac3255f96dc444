"""Seeded raw post logs for the ``ingest`` workload, with their expected outcome.

The generator writes a posts CSV and a users CSV the way a forum export
would look, plants a counted number of malformed rows for every rejection
reason plus duplicate ``post_id`` rows, and records what a correct ingest
must keep. It shares no code with ``forumnet``: the expectation is derived
here from the rows as written, so the ingest check is made apart from the
program.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Sizes of the ingest workload's input (README: "Workloads").
INGEST_ROWS = 150_000
INGEST_USERS = 5_000
INGEST_THREADS = 20_000
INGEST_FORUMS = 8
IDLE_USERS = 200  # on the roster, never post

WINDOW_START = 1_230_768_000  # 2009-01-01T00:00:00Z
WINDOW_END = 1_420_070_399  # 2014-12-31T23:59:59Z
OUT_OF_RANGE_START = 473_385_600  # 1985-01-01T00:00:00Z, before forumnet's 1990 floor
PROFESSIONS = ("general_practice", "nursing", "cardiology", "general_medicine", "")

POSTS_HEADER = "post_id,thread_id,user_id,forum_id,timestamp,is_thread_start"

# One entry per reason forumnet's CSV path can give a row, each planted
# between PLANT_MIN and PLANT_MAX times (drawn from the seed).
REASONS = (
    "wrong column count",
    "missing post_id",
    "missing thread_id",
    "missing user_id",
    "missing forum_id",
    "bad timestamp",
    "timestamp out of range",
    "bad is_thread_start",
    "duplicate post_id",
)
PLANT_MIN, PLANT_MAX = 100, 300


@dataclass
class IngestInput:
    """The CSV text as written, plus what a correct ingest of it must keep."""

    rows: int
    planted: dict[str, int]
    posts_csv: str = field(repr=False)
    users_csv: str = field(repr=False)
    # valid rows, column-wise: post_id, thread_id, user_id, forum_id, UTC
    # epoch, and whether the row was flagged "true" as its thread's start
    good: tuple[list, list, list, list, list, list] = field(repr=False)
    roster: list[tuple[str, str]] = field(repr=False)

    def expected_posts(self) -> dict[str, tuple[str, str, str, int, bool]]:
        """post_id -> (thread_id, user_id, forum_id, epoch, is_thread_start).

        A thread's start is its earliest explicitly flagged row (by
        timestamp, then post_id), else its earliest row.
        """
        post_ids, threads, users, forums, epochs, flags = self.good
        per_thread: dict[str, list[tuple[int, str, bool]]] = {}
        for pid, t, e, flagged in zip(post_ids, threads, epochs, flags):
            per_thread.setdefault(t, []).append((e, pid, flagged))
        starters = set()
        for members in per_thread.values():
            members.sort()
            flagged = [m for m in members if m[2]]
            starters.add((flagged or members)[0][1])
        return {
            pid: (t, u, f, e, pid in starters)
            for pid, t, u, f, e in zip(post_ids, threads, users, forums, epochs)
        }

    def expected_users(self) -> list[tuple[str, str | None]]:
        """Roster entries (blank profession -> None) plus posting users
        missing from the roster, sorted by user_id."""
        users = {u: (p or None) for u, p in self.roster}
        for u in self.good[2]:
            users.setdefault(u, None)
        return sorted(users.items())


def _iso(epochs: np.ndarray, offsets_min: np.ndarray, styles: np.ndarray) -> list[str]:
    """Render UTC epochs as ISO-8601 in four spellings forumnet accepts:
    ``Z``, ``+00:00``, a naive local time (read as UTC), and a non-zero
    offset with the wall-clock time shifted to match."""
    local = (epochs + offsets_min * 60).astype("datetime64[s]")
    text = np.datetime_as_string(local, unit="s")
    out = []
    for body, style, off in zip(text.tolist(), styles.tolist(), offsets_min.tolist()):
        if style == 0:
            out.append(body + "Z")
        elif style == 1:
            out.append(body + "+00:00")
        elif style == 2:
            out.append(body.replace("T", " "))
        else:
            sign = "+" if off >= 0 else "-"
            out.append(f"{body}{sign}{abs(off) // 60:02d}:{abs(off) % 60:02d}")
    return out


def _iso_one(epoch: int, style: int = 0) -> str:
    return _iso(np.array([epoch]), np.array([0]), np.array([style]))[0]


def make_ingest_input(seed: int, rows: int = INGEST_ROWS, users: int = INGEST_USERS,
                      threads: int = INGEST_THREADS, forums: int = INGEST_FORUMS,
                      idle_users: int = IDLE_USERS) -> IngestInput:
    """Build the ingest workload's posts and users CSV text for ``seed``."""
    rng = np.random.default_rng(seed)
    planted = {reason: int(rng.integers(PLANT_MIN, PLANT_MAX + 1)) for reason in REASONS}
    n_bad = sum(planted.values())
    n_good = rows - n_bad
    if n_good < 1:
        raise ValueError("too few rows for the planted faults")

    # valid rows: skewed authorship, uniform threads, one forum per thread
    user_ids = [f"u{i:05d}" for i in range(1, users + idle_users + 1)]
    thread_ids = [f"t{i:06d}" for i in range(1, threads + 1)]
    forum_ids = [f"f{i:02d}" for i in range(1, forums + 1)]
    weights = 1.0 / np.arange(1, users + 1) ** 0.8
    author = rng.choice(users, size=n_good, p=weights / weights.sum())
    thread = rng.integers(0, threads, size=n_good)
    thread_forum = rng.integers(0, forums, size=threads).tolist()
    epoch = rng.integers(WINDOW_START, WINDOW_END - 10_000_000, size=n_good)
    styles = rng.integers(0, 4, size=n_good)
    offsets = np.where(styles == 3, rng.choice([-300, 60, 330, 540], size=n_good), 0)
    ts_text = _iso(epoch, offsets, styles)
    post_ids = [f"p{i:07d}" for i in range(1, n_good + 1)]
    # start flags: mostly blank (derived); some explicit true/false spellings
    flag_draw = rng.random(n_good)
    flag_text = np.where(flag_draw < 0.85, "", np.where(flag_draw < 0.93, "false", "FALSE"))
    flag_true = rng.random(n_good) < 0.01
    flag_text = np.where(flag_true, np.where(rng.random(n_good) < 0.5, "true", "True"), flag_text)

    good_lines = [
        f"{pid},{thread_ids[t]},{user_ids[u]},{forum_ids[thread_forum[t]]},{ts},{flag}"
        for pid, t, u, ts, flag in zip(
            post_ids, thread.tolist(), author.tolist(), ts_text, flag_text.tolist()
        )
    ]

    # malformed rows: each carries exactly one fault, so its reason is certain
    bad_lines: list[str] = []
    bad_serial = 0

    def base_fields() -> list[str]:
        nonlocal bad_serial
        bad_serial += 1
        t = int(rng.integers(0, threads))
        return [
            f"x{bad_serial:07d}",
            thread_ids[t],
            user_ids[int(rng.integers(0, users))],
            forum_ids[thread_forum[t]],
            _iso_one(int(rng.integers(WINDOW_START, WINDOW_END))),
            "",
        ]

    for reason, count in planted.items():
        for k in range(count):
            f = base_fields()
            if reason == "wrong column count":
                f = f[:5] if k % 2 else f + ["extra"]
            elif reason.startswith("missing "):
                column = ("post_id", "thread_id", "user_id", "forum_id").index(reason[8:])
                f[column] = " " if k % 2 else ""
            elif reason == "bad timestamp":
                f[4] = ("not-a-date", "2012-13-45T00:00:00", "", "12/03/2011")[k % 4]
            elif reason == "timestamp out of range":
                f[4] = _iso_one(OUT_OF_RANGE_START + 86_400 * k, k % 3)
            elif reason == "bad is_thread_start":
                f[5] = ("yes", "1", "no", "t")[k % 4]
            else:  # duplicate post_id: a later copy of a valid row's id
                victim = int(rng.integers(0, n_good))
                f[0] = post_ids[victim]
                f[4] = _iso_one(int(epoch[victim]) + 1 + int(rng.integers(0, 10**6)))
            bad_lines.append(",".join(f))

    # interleave: malformed rows land at seeded positions among the valid ones
    order = rng.permutation(rows)
    lines = [""] * rows
    for slot, line in zip(order[:n_good].tolist(), good_lines):
        lines[slot] = line
    for slot, line in zip(order[n_good:].tolist(), bad_lines):
        lines[slot] = line
    posts_csv = POSTS_HEADER + "\n" + "\n".join(lines) + "\n"

    # roster: every 10th posting user is missing (gets an auto profile),
    # idle users are present, a blank profession means none
    professions = rng.integers(0, len(PROFESSIONS), size=users + idle_users).tolist()
    roster = [
        (user_ids[i], PROFESSIONS[professions[i]])
        for i in range(users + idle_users)
        if i % 10 != 9 or i >= users
    ]
    users_csv = "user_id,profession\n" + "".join(f"{u},{p}\n" for u, p in roster)

    thread_list = thread.tolist()
    good = (
        post_ids,
        [thread_ids[t] for t in thread_list],
        [user_ids[u] for u in author.tolist()],
        [forum_ids[thread_forum[t]] for t in thread_list],
        epoch.tolist(),
        flag_true.tolist(),
    )
    return IngestInput(rows, planted, posts_csv, users_csv, good, roster)
