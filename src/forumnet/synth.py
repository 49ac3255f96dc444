"""Synthetic forum datasets with controllable participation skew.

The generator plants the structures the analysis pipeline should find:
a preferentially-attached core of heavy posters (tunable via
``skew_alpha``), boosted moderators, and silent initiators whose threads
never attract anybody else. Everything is driven by one sequential
seeded random stream, so a config is a complete recipe for its dataset.
An author draw takes O(log users) on a Fenwick tree, so a dataset is made
in O(posts · log users), with the draws of a linear scan over the weights
(see ``_PreferentialPicker``).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import accumulate

from .errors import ConfigError
from .ingest import ForumDataset, PostRecord, UserProfile

DEFAULT_WINDOW_START = datetime(2009, 1, 1, tzinfo=timezone.utc)
DEFAULT_WINDOW_END = datetime(2014, 12, 31, 23, 59, 59, tzinfo=timezone.utc)
DEFAULT_PROFESSIONS = ("general_practice", "nursing", "cardiology", "general_medicine")
PROFESSION_WEIGHTS = (8, 2, 1, 1)
THREADS_PER_SILENT_INITIATOR = 25
MODERATOR_BOOST = 10.0  # added to a moderator's post count in the attachment weight


@dataclass(frozen=True)
class SynthConfig:
    user_count: int
    thread_count: int
    post_count: int
    skew_alpha: float = 1.0
    forum_count: int = 3
    moderator_count: int = 0
    silent_initiator_count: int = 0
    seed: int = 0

    def validate(self) -> None:
        if self.user_count < 1 or self.thread_count < 1 or self.forum_count < 1:
            raise ConfigError("user, thread, and forum counts must all be >= 1")
        if self.skew_alpha <= 0:
            raise ConfigError("skew_alpha must be > 0")
        if self.post_count < self.thread_count:
            raise ConfigError("post_count must cover one starting post per thread")
        if self.moderator_count < 0 or self.silent_initiator_count < 0:
            raise ConfigError("role counts must be >= 0")
        if self.moderator_count + self.silent_initiator_count > self.user_count:
            raise ConfigError("moderators plus silent initiators exceed user_count")
        silent_threads = self.silent_initiator_count * THREADS_PER_SILENT_INITIATOR
        if silent_threads > self.thread_count:
            raise ConfigError("silent initiators need more threads than the config has")
        regular_threads = self.thread_count - silent_threads
        if regular_threads == 0 and self.post_count > self.thread_count:
            raise ConfigError("no regular threads left to hold reply posts")
        if regular_threads > 0 and self.silent_initiator_count == self.user_count:
            raise ConfigError("regular threads need at least one non-silent user")


@dataclass(frozen=True)
class PlantedStructure:
    """Ids the generator assigned to special roles, derivable from config."""

    moderators: tuple[str, ...]
    silent_initiators: tuple[str, ...]


def _ids(prefix: str, count: int) -> list[str]:
    width = max(4, len(str(count)))
    return [f"{prefix}{i:0{width}d}" for i in range(1, count + 1)]


def _planted(cfg: SynthConfig, users: list[str]) -> PlantedStructure:
    m, s = cfg.moderator_count, cfg.silent_initiator_count
    return PlantedStructure(moderators=tuple(users[:m]), silent_initiators=tuple(users[m : m + s]))


def planted_structure(cfg: SynthConfig) -> PlantedStructure:
    cfg.validate()
    return _planted(cfg, _ids("u", cfg.user_count))


class _PreferentialPicker:
    """Weighted draw over users with weight (posts + 1 + boost)^alpha.

    Weights update as posts accumulate, so early winners keep winning;
    the +1 smoothing lets idle users enter at all. A draw takes the first
    user whose running sum of weights, added in user order, exceeds
    ``random() * total``, or the last user when none does.

    The running sums are not formed per draw. A Fenwick tree over the
    weights (P. M. Fenwick, "A new data structure for cumulative frequency
    tables", Software: Practice and Experience 24(3), 1994) holds partial
    sums, and a draw descends it to a candidate in O(log n); a post adds
    its weight change along one path, and the tree is rebuilt from the
    weights every n updates. The tree adds in another order than the scan,
    so its prefix sums may differ from the scan's in the last bits. The
    weights are positive, so a sum of them in any order, and a tree node
    after its updates since the last rebuild, is off by at most about 2n
    rounding errors of 2**-53 relative to its value: about 1e-11 at 50,000
    users, far below ``EXACT_MARGIN``. A target within that margin of the
    candidate's lower or upper prefix sum, or past the tree's last sum,
    takes the scan itself, so the draw is always the scan's.
    """

    EXACT_MARGIN = 1e-9  # relative to a prefix sum

    def __init__(self, alpha, boosts, rng):
        self.alpha, self.boosts, self.rng = alpha, boosts, rng
        self.counts = [0] * len(boosts)
        self.weights = [self._weight(i) for i in range(len(boosts))]
        self.total = sum(self.weights)  # summed in index order, then updated per post
        self.rebuild()

    def _weight(self, index: int) -> float:
        try:
            return (self.counts[index] + 1.0 + self.boosts[index]) ** self.alpha
        except OverflowError:
            return math.inf  # the total turns infinite and the next draw refuses it

    def rebuild(self) -> None:
        """The tree from the weights: node i (from 1) sums the weights of
        users i - (i & -i) to i - 1."""
        n = len(self.weights)
        self.tree = tree = [0.0, *self.weights]
        for i in range(1, n + 1):
            parent = i + (i & -i)
            if parent <= n:
                tree[parent] += tree[i]
        self.updates = 0

    def record(self, index: int) -> None:
        self.counts[index] += 1
        new_weight = self._weight(index)
        change = new_weight - self.weights[index]
        self.total += change
        self.weights[index] = new_weight
        tree, n = self.tree, len(self.weights)
        self.updates += 1
        if self.updates == n:
            self.rebuild()
            return
        node = index + 1
        while node <= n:
            tree[node] += change
            node += node & -node

    def pick(self) -> int:
        if not math.isfinite(self.total):
            raise ConfigError(f"skew_alpha {self.alpha!r} overflows the attachment weights")
        target = self.rng.random() * self.total
        tree, weights, n = self.tree, self.weights, len(self.weights)
        # the last user whose tree prefix sum is at most the target
        index, lower, step = 0, 0.0, 1 << (n.bit_length() - 1)
        while step:
            node = index + step
            if node <= n:
                reached = lower + tree[node]
                if reached <= target:
                    index, lower = node, reached
            step >>= 1
        margin = self.EXACT_MARGIN
        if index == n or target - lower <= margin * lower or (
            (upper := lower + weights[index]) - target <= margin * upper
        ):
            index = min(bisect_right(list(accumulate(weights)), target), n - 1)
        self.record(index)
        return index


def generate(cfg: SynthConfig) -> ForumDataset:
    """Build a dataset per the config; deterministic for a given seed.

    Every thread gets a starting post. Every non-silent user posts at
    least once (budget permitting, in id order) so the configured user
    count is the posting population. Remaining posts go to uniformly
    chosen regular threads with preferentially attached authors. Silent
    initiators only ever start their own threads and nobody joins them.
    """
    cfg.validate()
    rng = random.Random(cfg.seed)

    users = _ids("u", cfg.user_count)
    threads = _ids("t", cfg.thread_count)
    forums = _ids("f", cfg.forum_count)
    planted = _planted(cfg, users)
    silent_set, moderator_set = set(planted.silent_initiators), set(planted.moderators)

    split = cfg.thread_count - cfg.silent_initiator_count * THREADS_PER_SILENT_INITIATOR
    regular_threads, silent_threads = threads[:split], threads[split:]

    regular_users = [u for u in users if u not in silent_set]
    boosts = [MODERATOR_BOOST if u in moderator_set else 0.0 for u in regular_users]
    picker = _PreferentialPicker(cfg.skew_alpha, boosts, rng)

    thread_forum = {t: forums[rng.randrange(len(forums))] for t in threads}
    start_epoch = int(DEFAULT_WINDOW_START.timestamp())
    end_epoch = int(DEFAULT_WINDOW_END.timestamp())

    posts: list[PostRecord] = []
    thread_started_at: dict[str, int] = {}

    def add_post(user: str, thread: str, is_start: bool) -> None:
        if is_start:
            ts = rng.randrange(start_epoch, end_epoch)
            thread_started_at[thread] = ts
        else:
            ts = rng.randrange(thread_started_at[thread] + 1, end_epoch + 1)
        post_id = f"p{len(posts) + 1:06d}"
        stamp = datetime.fromtimestamp(ts, tz=timezone.utc)
        posts.append(PostRecord(post_id, thread, user, thread_forum[thread], stamp, is_start))

    # silent initiators start their private threads, one post each
    for i, user in enumerate(planted.silent_initiators):
        begin = i * THREADS_PER_SILENT_INITIATOR
        for thread in silent_threads[begin : begin + THREADS_PER_SILENT_INITIATOR]:
            add_post(user, thread, is_start=True)

    for thread in regular_threads:
        add_post(regular_users[picker.pick()], thread, is_start=True)

    budget = cfg.post_count - len(posts)

    # best-effort coverage: idle users get one post each while budget lasts
    if regular_threads:
        for i, user in enumerate(regular_users):
            if budget == 0:
                break
            if picker.counts[i] == 0:
                picker.record(i)
                add_post(user, regular_threads[rng.randrange(len(regular_threads))], False)
                budget -= 1

    for _ in range(budget):
        thread = regular_threads[rng.randrange(len(regular_threads))]
        add_post(regular_users[picker.pick()], thread, False)

    profiles = [
        UserProfile(u, rng.choices(DEFAULT_PROFESSIONS, weights=PROFESSION_WEIGHTS)[0])
        for u in users
    ]
    posts.sort(key=lambda p: (p.timestamp, p.post_id))
    return ForumDataset(posts=posts, users=profiles, rejected=[])
