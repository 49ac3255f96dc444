"""Generator contracts: feasibility, determinism, planted structure, skew."""

import hashlib
import itertools
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumnet.centrality import silent_initiators
from forumnet.errors import ConfigError
from forumnet.graph import build_bipartite, project
from forumnet.ingest import dataset_to_json, parse_posts, posts_csv
from forumnet.metrics import degree_centralization
from forumnet.synth import (
    DEFAULT_PROFESSIONS,
    DEFAULT_WINDOW_END,
    DEFAULT_WINDOW_START,
    SynthConfig,
    _PreferentialPicker,
    generate,
    planted_structure,
)

from helpers import scan_pick


def test_minimal_feasible_config():
    data = generate(SynthConfig(user_count=2, thread_count=1, post_count=2, seed=7))
    assert len(data.posts) == 2
    assert len({p.thread_id for p in data.posts}) == 1
    assert len(data.users) == 2


def test_same_seed_same_dataset():
    cfg = SynthConfig(user_count=12, thread_count=8, post_count=50, skew_alpha=1.3, seed=42)
    assert generate(cfg) == generate(cfg)


def test_different_seed_differs():
    base = dict(user_count=12, thread_count=8, post_count=50, skew_alpha=1.3)
    a = generate(SynthConfig(seed=1, **base))
    b = generate(SynthConfig(seed=2, **base))
    assert a.posts != b.posts


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(user_count=0, thread_count=1, post_count=1),
        dict(user_count=2, thread_count=3, post_count=2),
        dict(user_count=2, thread_count=1, post_count=2, skew_alpha=0),
        dict(user_count=2, thread_count=1, post_count=2, moderator_count=3),
        dict(user_count=5, thread_count=10, post_count=20, silent_initiator_count=1),
        dict(
            user_count=1,
            thread_count=26,
            post_count=26,
            silent_initiator_count=1,
        ),
        dict(
            user_count=3,
            thread_count=25,
            post_count=30,
            silent_initiator_count=1,
        ),
        dict(user_count=2, thread_count=1, post_count=2, moderator_count=-1),
    ],
)
def test_infeasible_configs_raise(kwargs):
    with pytest.raises(ConfigError):
        generate(SynthConfig(**kwargs))


def test_generated_data_passes_ingest_cleanly():
    for seed in (0, 1, 2):
        data = generate(
            SynthConfig(user_count=15, thread_count=10, post_count=80, seed=seed)
        )
        parsed = parse_posts(posts_csv(data).encode("utf-8"))
        assert parsed.rejected == []
        assert len(parsed.posts) == 80


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 12),
    st.integers(1, 8),
    st.integers(0, 30),
    st.integers(0, 10_000),
)
def test_ingest_round_trip_property(users, threads, extra, seed):
    cfg = SynthConfig(
        user_count=users,
        thread_count=threads,
        post_count=threads + extra,
        skew_alpha=1.2,
        seed=seed,
    )
    data = generate(cfg)
    parsed = parse_posts(posts_csv(data).encode("utf-8"))
    assert parsed.rejected == []
    assert parsed.posts == data.posts


def test_exactly_one_start_per_thread_and_it_is_earliest():
    data = generate(SynthConfig(user_count=10, thread_count=12, post_count=70, seed=5))
    per_thread = defaultdict(list)
    for p in data.posts:
        per_thread[p.thread_id].append(p)
    assert len(per_thread) == 12
    for posts in per_thread.values():
        starts = [p for p in posts if p.is_thread_start]
        assert len(starts) == 1
        assert starts[0].timestamp == min(p.timestamp for p in posts)


def test_every_user_posts_when_budget_allows():
    cfg = SynthConfig(user_count=30, thread_count=10, post_count=100, seed=6)
    data = generate(cfg)
    assert len({p.user_id for p in data.posts}) == 30


def test_timestamps_confined_to_window():
    data = generate(SynthConfig(user_count=8, thread_count=6, post_count=40, seed=9))
    for p in data.posts:
        assert DEFAULT_WINDOW_START <= p.timestamp <= DEFAULT_WINDOW_END


def test_forum_and_profession_vocabulary():
    cfg = SynthConfig(user_count=10, thread_count=8, post_count=50, forum_count=2, seed=3)
    data = generate(cfg)
    assert {p.forum_id for p in data.posts} <= {"f0001", "f0002"}
    assert {u.profession for u in data.users} <= set(DEFAULT_PROFESSIONS)


def test_silent_initiators_post_only_in_solo_threads():
    cfg = SynthConfig(
        user_count=20, thread_count=60, post_count=300, seed=8, silent_initiator_count=2
    )
    data = generate(cfg)
    planted = planted_structure(cfg).silent_initiators
    users_per_thread = defaultdict(set)
    for p in data.posts:
        users_per_thread[p.thread_id].add(p.user_id)
    for user in planted:
        threads = [t for t, members in users_per_thread.items() if user in members]
        assert len(threads) == 25
        for t in threads:
            assert users_per_thread[t] == {user}


def test_planted_silent_initiators_recovered_exactly():
    cfg = SynthConfig(
        user_count=60,
        thread_count=90,
        post_count=400,
        skew_alpha=1.5,
        seed=3,
        silent_initiator_count=3,
    )
    data = generate(cfg)
    b = build_bipartite(data)
    found = silent_initiators(project(b, "user"), 21)
    assert [uid for uid, _ in found] == list(planted_structure(cfg).silent_initiators)
    assert all(count == 25 for _, count in found)


def test_moderators_out_post_regulars():
    cfg = SynthConfig(
        user_count=30, thread_count=12, post_count=240, skew_alpha=1.2, seed=4,
        moderator_count=2,
    )
    data = generate(cfg)
    planted = planted_structure(cfg)
    counts = Counter(p.user_id for p in data.posts)
    moderator_mean = sum(counts[m] for m in planted.moderators) / 2
    others = [u for u in counts if u not in planted.moderators]
    other_mean = sum(counts[u] for u in others) / len(others)
    assert moderator_mean > other_mean


def test_alpha_turns_up_centralization():
    for seed in range(5):
        values = []
        for alpha in (0.8, 1.5, 2.2):
            cfg = SynthConfig(
                user_count=40,
                thread_count=30,
                post_count=300,
                skew_alpha=alpha,
                seed=seed,
            )
            g = project(build_bipartite(generate(cfg)), "user")
            values.append(degree_centralization(g))
        assert values[0] <= values[1] <= values[2]


def test_full_scale_top_share_regression():
    cfg = SynthConfig(
        user_count=621, thread_count=723, post_count=7089, skew_alpha=1.5, seed=1
    )
    data = generate(cfg)
    counts = Counter(p.user_id for p in data.posts)
    ranked = sorted(counts.values(), reverse=True)
    top5 = max(1, int(round(0.05 * len(ranked))))
    share = sum(ranked[:top5]) / len(data.posts)
    assert share > 0.40
    assert share == pytest.approx(0.6360558611933982)
    assert len(counts) == 621


# sha256 of dataset_to_json(generate(cfg)), as the linear-scan picker wrote them
PINNED_DATASETS = [
    (
        SynthConfig(user_count=621, thread_count=723, post_count=7089, skew_alpha=1.5, seed=7),
        "76ff09cb19851bb454562f6b6d9a4503868a586f48c17c3324ec7a5d9570a776",
    ),
    (
        SynthConfig(user_count=1863, thread_count=1500, post_count=9000, skew_alpha=1.0, seed=7),
        "e52ed39ac83cea448f0f18757da1581dc7526c16a39dd82d152d91ef584f6461",
    ),
    (
        SynthConfig(
            user_count=120, thread_count=150, post_count=900, skew_alpha=1.4, seed=11,
            moderator_count=3, silent_initiator_count=2,
        ),
        "c2896cfb7150803654888a966495858418cadeadcc96df1e55b8e7713d6fb11c",
    ),
]


@pytest.mark.parametrize("cfg, digest", PINNED_DATASETS, ids=["paper", "sparse-large", "roles"])
def test_generated_dataset_is_byte_pinned(cfg, digest):
    assert hashlib.sha256(dataset_to_json(generate(cfg)).encode()).hexdigest() == digest


class _FixedDraw:
    """An rng whose every draw is ``value``."""

    def __init__(self, value: float):
        self.value = value

    def random(self) -> float:
        return self.value


def picked(weights, target: float) -> int:
    """The index the picker draws over ``weights`` when its target is ``target``."""
    picker = _PreferentialPicker(1.0, [0.0] * len(weights), _FixedDraw(target))
    picker.weights[:] = weights
    picker.total = 1.0  # random() * total is then the target itself
    return picker.pick()


# 2**-60 leaves a running sum of 1.0 or more unchanged, so prefix sums repeat
WEIGHTS = st.lists(
    st.one_of(st.floats(1e-12, 1e12), st.sampled_from([1.0, 2.0**-60])), min_size=1, max_size=40
)


@settings(max_examples=300, deadline=None)
@given(WEIGHTS, st.sampled_from(["inside", "prefix", "past"]), st.data())
def test_pick_matches_linear_scan(weights, where, data):
    """The search picks the scan's index for a draw anywhere below the
    total, exactly on a prefix sum, and at or past the last sum."""
    sums = list(itertools.accumulate(weights))
    if where == "inside":
        target = data.draw(st.floats(0.0, sums[-1], exclude_max=True))
    elif where == "prefix":
        target = sums[data.draw(st.integers(0, len(sums) - 1))]
    else:
        target = data.draw(st.floats(sums[-1], 1e300))
    assert picked(weights, target) == scan_pick(weights, target)


def test_pick_skips_weights_too_small_to_move_the_sum():
    weights = [1.0, 2.0**-60, 2.0**-60, 1.0]
    assert picked(weights, 1.0) == scan_pick(weights, 1.0) == 3
    assert picked(weights, 2.0) == scan_pick(weights, 2.0) == 3  # past the last sum


def test_overflowing_alpha_raises_config_error():
    cfg = SynthConfig(user_count=50, thread_count=50, post_count=500, skew_alpha=200)
    with pytest.raises(ConfigError, match="skew_alpha"):
        generate(cfg)


def test_overflow_that_no_draw_reads_is_not_refused():
    """A moderator's weight overflows, but every post starts a silent
    initiator's thread, so no draw reads it."""
    cfg = SynthConfig(
        user_count=3, thread_count=25, post_count=25, skew_alpha=1000,
        moderator_count=1, silent_initiator_count=1,
    )
    assert len(generate(cfg).posts) == 25
