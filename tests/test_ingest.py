"""Parsing, validation, aggregation, and round-trip serialization."""

import io
import json
from collections import Counter
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumnet.errors import InputError, SchemaError
from forumnet.ingest import (
    activity_overview,
    dataset_to_json,
    load_dataset,
    parse_posts,
    parse_timestamp,
    parse_users,
    period_label,
    posts_csv,
    top_posters,
    users_csv,
    with_users,
)
from forumnet.synth import SynthConfig, generate

from helpers import dataset_from_posts

HEADER = "post_id,thread_id,user_id,forum_id,timestamp"


def csv_stream(*rows, header=HEADER):
    return io.StringIO("\n".join([header, *rows]) + "\n")


def test_four_valid_rows_kept():
    data = parse_posts(
        csv_stream(
            "p1,t1,u1,f1,2012-01-01T10:00:00Z",
            "p2,t1,u2,f1,2012-01-01T11:00:00Z",
            "p3,t2,u2,f1,2012-01-02T10:00:00Z",
            "p4,t2,u3,f2,2012-01-02T11:00:00Z",
        )
    )
    assert len(data.posts) == 4
    assert data.rejected == []
    assert [u.user_id for u in data.users] == ["u1", "u2", "u3"]


def test_duplicate_post_id_keeps_first():
    data = parse_posts(
        csv_stream(
            "p1,t1,u1,f1,2012-01-01T10:00:00Z",
            "p1,t1,u2,f1,2012-01-01T11:00:00Z",
        )
    )
    assert len(data.posts) == 1
    assert data.posts[0].user_id == "u1"
    assert [r.reason for r in data.rejected] == ["duplicate post_id"]


def test_bad_timestamp_rejected():
    data = parse_posts(csv_stream("p1,t1,u1,f1,not-a-date"))
    assert data.posts == []
    assert [r.reason for r in data.rejected] == ["bad timestamp"]


def test_missing_field_rejected():
    data = parse_posts(csv_stream("p1,,u1,f1,2012-01-01T10:00:00Z"))
    assert [r.reason for r in data.rejected] == ["missing thread_id"]


def test_wrong_column_count_rejected():
    data = parse_posts(csv_stream("p1,t1,u1,f1,2012-01-01T10:00:00Z,true,extra"))
    assert [r.reason for r in data.rejected] == ["wrong column count"]


def test_timestamp_out_of_range_rejected():
    data = parse_posts(csv_stream("p1,t1,u1,f1,1970-01-01T00:00:00Z"))
    assert [r.reason for r in data.rejected] == ["timestamp out of range"]


def test_bad_header_is_fatal():
    with pytest.raises(SchemaError):
        parse_posts(io.StringIO("who,what,when\n1,2,3\n"))


def test_empty_stream_is_fatal():
    with pytest.raises(SchemaError):
        parse_posts(io.StringIO(""))


def test_unreadable_path_is_input_error():
    with pytest.raises(InputError):
        parse_posts("/nonexistent/posts.csv")


def test_rows_sorted_by_timestamp_then_post_id():
    data = parse_posts(
        csv_stream(
            "p9,t1,u1,f1,2012-01-02T00:00:00Z",
            "p2,t1,u2,f1,2012-01-01T00:00:00Z",
            "p1,t1,u3,f1,2012-01-02T00:00:00Z",
        )
    )
    assert [p.post_id for p in data.posts] == ["p2", "p1", "p9"]


def test_lossless_or_logged():
    rows = [
        "p1,t1,u1,f1,2012-01-01T00:00:00Z",
        "p2,t1,u1,f1,bogus",
        "p2,t1,u1,f1,2012-01-01T01:00:00Z",
        "p2,t1,u1,f1,2012-01-01T02:00:00Z",
        ",t1,u1,f1,2012-01-01T03:00:00Z",
    ]
    data = parse_posts(csv_stream(*rows))
    assert len(data.posts) + len(data.rejected) == len(rows)


def test_explicit_thread_start_flag_wins():
    data = parse_posts(
        csv_stream(
            "p1,t1,u1,f1,2012-01-01T00:00:00Z,false",
            "p2,t1,u2,f1,2012-01-01T01:00:00Z,true",
            header=HEADER + ",is_thread_start",
        )
    )
    starts = {p.post_id: p.is_thread_start for p in data.posts}
    assert starts == {"p1": False, "p2": True}


def test_thread_start_derived_from_earliest():
    data = parse_posts(
        csv_stream(
            "p2,t1,u2,f1,2012-01-01T05:00:00Z",
            "p1,t1,u1,f1,2012-01-01T00:00:00Z",
        )
    )
    starts = {p.post_id: p.is_thread_start for p in data.posts}
    assert starts == {"p1": True, "p2": False}


def test_bad_thread_start_value_rejected():
    data = parse_posts(
        csv_stream(
            "p1,t1,u1,f1,2012-01-01T00:00:00Z,maybe",
            header=HEADER + ",is_thread_start",
        )
    )
    assert [r.reason for r in data.rejected] == ["bad is_thread_start"]


def test_parse_timestamp_variants():
    utc = timezone.utc
    assert parse_timestamp("2012-03-04T05:06:07Z") == datetime(2012, 3, 4, 5, 6, 7, tzinfo=utc)
    assert parse_timestamp("2012-03-04 05:06:07") == datetime(2012, 3, 4, 5, 6, 7, tzinfo=utc)
    assert parse_timestamp("2012-03-04T05:06:07+02:00") == datetime(
        2012, 3, 4, 3, 6, 7, tzinfo=utc
    )
    assert parse_timestamp("garbage") is None


def test_period_labels():
    stamp = datetime(2012, 7, 15, tzinfo=timezone.utc)
    assert period_label(stamp, "year") == "2012"
    assert period_label(stamp, "quarter") == "2012-Q3"
    assert period_label(stamp, "month") == "2012-07"
    with pytest.raises(ValueError):
        period_label(stamp, "week")


def test_overview_hand_counts():
    data = dataset_from_posts([("u1", "t1"), ("u2", "t1"), ("u2", "t2")])
    overview = activity_overview(data)
    assert overview.posting_user_count == 2
    assert overview.thread_count == 2
    assert overview.post_count == 3
    assert overview.posts_per_user == {"u1": 1, "u2": 2}


def test_overview_empty_dataset_is_zeros():
    data = dataset_from_posts([])
    overview = activity_overview(data)
    assert overview.registered_user_count == 0
    assert overview.posting_user_count == 0
    assert overview.thread_count == 0
    assert overview.post_count == 0
    assert overview.posts_per_user == {}
    assert overview.posts_per_forum_per_period == {}


def test_overview_cells_match_independent_group_by():
    cfg = SynthConfig(user_count=20, thread_count=15, post_count=100, seed=11)
    data = generate(cfg)
    overview = activity_overview(data, "year")
    oracle = Counter(
        (p.forum_id, f"{p.timestamp.astimezone(timezone.utc).year:04d}") for p in data.posts
    )
    assert overview.posts_per_forum_per_period == dict(oracle)
    assert sum(overview.posts_per_forum_per_period.values()) == 100
    assert sum(overview.posts_per_user.values()) == overview.post_count


def test_overview_invariant_under_row_permutation():
    rows = [("u1", "t1"), ("u2", "t1"), ("u3", "t2"), ("u1", "t2"), ("u1", "t3")]
    forward = activity_overview(dataset_from_posts(rows))
    backward = activity_overview(dataset_from_posts(rows[::-1]))
    assert forward.posts_per_user == backward.posts_per_user
    assert forward.thread_count == backward.thread_count
    assert forward.posting_user_count == backward.posting_user_count


def test_registered_count_uses_roster():
    data = dataset_from_posts([("u1", "t1")])
    roster = parse_users(io.StringIO("user_id,profession\nu1,nursing\nu2,\nu3,gp\n"))
    merged = with_users(data, roster)
    overview = activity_overview(merged)
    assert overview.registered_user_count == 3
    assert overview.posting_user_count == 1
    assert overview.profession_breakdown == {"gp": 1, "nursing": 1, "unknown": 1}


def test_top_posters_ordering_and_threshold():
    data = dataset_from_posts([("a", "t1"), ("a", "t2"), ("a", "t3"), ("b", "t1")])
    assert top_posters(data, 2) == [("a", 3)]
    assert top_posters(data) == [("a", 3), ("b", 1)]
    assert top_posters(dataset_from_posts([]), 0) == []
    with pytest.raises(ValueError):
        top_posters(data, -1)


def test_top_posters_matches_histogram_filter():
    data = generate(SynthConfig(user_count=50, thread_count=30, post_count=400, seed=9))
    listed = top_posters(data, 10)
    oracle = Counter(p.user_id for p in data.posts)
    expected = sorted(
        ((u, n) for u, n in oracle.items() if n >= 10), key=lambda x: (-x[1], x[0])
    )
    assert listed == expected


def test_ties_in_top_posters_break_by_user_id():
    data = dataset_from_posts([("b", "t1"), ("a", "t2")])
    assert top_posters(data) == [("a", 1), ("b", 1)]


def test_json_round_trip():
    data = parse_posts(
        csv_stream(
            "p1,t1,u1,f1,2012-01-01T10:00:00Z",
            "p2,t1,u2,f1,2012-01-01T11:00:00Z",
            "p3,t2,u2,f1,bad-stamp",
        )
    )
    again = parse_posts(io.StringIO(dataset_to_json(data)), format="json")
    assert again.posts == data.posts
    assert again.users == data.users
    assert again.rejected == data.rejected


def test_csv_round_trip():
    original = generate(SynthConfig(user_count=8, thread_count=5, post_count=30, seed=2))
    parsed = parse_posts(io.StringIO(posts_csv(original)))
    parsed = with_users(parsed, parse_users(io.StringIO(users_csv(original))))
    assert parsed.posts == original.posts
    assert parsed.users == original.users


def test_users_csv_bad_header():
    with pytest.raises(SchemaError):
        parse_users(io.StringIO("name,job\nu1,gp\n"))


def test_load_dataset_suffix_detection(tmp_path):
    data = dataset_from_posts([("u1", "t1"), ("u2", "t1")])
    json_path = tmp_path / "data.json"
    json_path.write_text(dataset_to_json(data), encoding="utf-8")
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(posts_csv(data), encoding="utf-8")
    assert load_dataset(json_path).posts == data.posts
    assert load_dataset(csv_path).posts == data.posts


def test_parse_posts_unknown_format():
    with pytest.raises(ValueError):
        parse_posts(io.StringIO("x"), format="xml")


def test_json_posts_must_be_object_array():
    with pytest.raises(SchemaError):
        parse_posts(io.StringIO('{"no_posts": []}'), format="json")
    with pytest.raises(InputError):
        parse_posts(io.StringIO("{nope"), format="json")


def test_json_null_user_id_is_rejected(tmp_path):
    post = {"post_id": "p1", "thread_id": "t1", "user_id": None, "forum_id": "f1",
            "timestamp": "2012-01-01T10:00:00Z"}
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"posts": [post], "users": [{"user_id": None}]}),
                    encoding="utf-8")
    data = load_dataset(path)
    assert data.posts == []
    assert [row.reason for row in data.rejected] == ["missing user_id"]
    assert data.users == []


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("abcde"), st.sampled_from("xyz")),
        max_size=20,
    )
)
def test_overview_totals_property(rows):
    data = dataset_from_posts([(f"u{a}", f"t{b}") for a, b in rows])
    overview = activity_overview(data)
    assert sum(overview.posts_per_user.values()) == overview.post_count
    assert overview.posting_user_count <= overview.registered_user_count


def test_serialized_json_shape():
    data = dataset_from_posts([("u1", "t1")])
    doc = json.loads(dataset_to_json(data))
    assert set(doc) == {"posts", "users", "rejected"}
    assert doc["posts"][0]["post_id"] == "p0000"
    assert doc["posts"][0]["is_thread_start"] is True
