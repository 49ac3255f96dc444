"""Parsing, validation, aggregation, and round-trip serialization."""

import hashlib
import io
import json
from collections import Counter
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumnet import cli
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


def test_future_timestamp_kept():
    data = parse_posts(csv_stream("p1,t1,u1,f1,2099-01-01T00:00:00Z"))
    assert [p.timestamp.year for p in data.posts] == [2099]
    assert data.rejected == []


def test_timestamp_beyond_utc_range_is_bad():
    """Offsets that push a time past year 9999 or before year 1 in UTC
    are rejected rows, not an OverflowError."""
    data = parse_posts(
        csv_stream(
            "p1,t1,u1,f1,9999-12-31T23:00:00-05:00",
            "p2,t1,u1,f1,0001-01-01T00:00:00+01:00",
        )
    )
    assert data.posts == []
    assert [r.reason for r in data.rejected] == ["bad timestamp", "bad timestamp"]


def test_bad_header_is_fatal():
    with pytest.raises(SchemaError):
        parse_posts(io.StringIO("who,what,when\n1,2,3\n"))


def test_empty_stream_is_fatal():
    with pytest.raises(SchemaError):
        parse_posts(io.StringIO(""))


def test_unreadable_path_is_input_error():
    with pytest.raises(InputError):
        parse_posts("/nonexistent/posts.csv")


def test_non_utf8_path_is_input_error(tmp_path):
    bad = tmp_path / "posts.csv"
    bad.write_bytes(f"{HEADER}\np1,t1,J\xf6rg,f1,2012-01-01T00:00:00Z\n".encode("latin-1"))
    with pytest.raises(InputError, match="UTF-8"):
        parse_posts(bad)


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


def json_posts(*posts, users=()):
    return io.StringIO(json.dumps({"posts": list(posts), "users": list(users)}))


def json_post(post_id, timestamp, **extra):
    return {"post_id": post_id, "thread_id": "t1", "user_id": "u1", "forum_id": "f1",
            "timestamp": timestamp, **extra}


@pytest.mark.parametrize("flag", [{"is_thread_start": None}, {}], ids=["null", "absent"])
def test_json_null_or_absent_start_flag_is_kept_unflagged(flag):
    data = parse_posts(
        json_posts(
            json_post("p1", "2012-01-01T01:00:00Z", **flag),
            json_post("p2", "2012-01-01T00:00:00Z", is_thread_start=False),
        ),
    )
    assert data.rejected == []
    starts = {p.post_id: p.is_thread_start for p in data.posts}
    assert starts == {"p1": False, "p2": True}


def test_json_string_start_flag_rejected():
    post = json_post("p1", "2012-01-01T00:00:00Z", is_thread_start="true")
    data = parse_posts(json_posts(post))
    assert data.posts == []
    assert [(r.raw, r.reason) for r in data.rejected] == [
        (json.dumps(post, sort_keys=True), "bad is_thread_start")
    ]


def test_duplicate_dated_earlier_displaces_the_kept_row():
    first = "p1,t1,u1,f1,2012-01-02T00:00:00Z"
    data = parse_posts(csv_stream(first, "p1,t1,u2,f1,2012-01-01T00:00:00Z"))
    assert [p.user_id for p in data.posts] == ["u2"]
    assert [(r.raw, r.reason) for r in data.rejected] == [(first, "duplicate post_id")]


def test_rejections_keep_input_order():
    data = parse_posts(
        csv_stream(
            "p1,t1,u1,f1,2012-01-02T00:00:00Z",
            "p2,t1,u1,f1,nonsense",
            "p1,t1,u2,f1,2012-01-01T00:00:00Z",
            "p3,t1,,f1,2012-01-01T00:00:00Z",
            "p4,t1,u1,f1",
        )
    )
    assert [r.raw.split(",")[:3] for r in data.rejected] == [
        ["p1", "t1", "u1"], ["p2", "t1", "u1"], ["p3", "t1", ""], ["p4", "t1", "u1"]
    ]
    assert [r.reason for r in data.rejected] == [
        "duplicate post_id", "bad timestamp", "missing user_id", "wrong column count"
    ]


def test_json_roster_first_entry_wins():
    data = parse_posts(
        json_posts(
            json_post("p1", "2012-01-01T00:00:00Z"),
            users=[{"user_id": "u1", "profession": "nursing"},
                   {"user_id": "u1", "profession": "cardiology"}],
        ),
    )
    assert [(u.user_id, u.profession) for u in data.users] == [("u1", "nursing")]


def test_json_roster_ids_are_stripped():
    """As in a users CSV: " u1 " is the poster u1, not a second user."""
    data = parse_posts(
        json_posts(
            json_post("p1", "2012-01-01T00:00:00Z"),
            users=[{"user_id": " u1 ", "profession": " nursing "}],
        ),
    )
    assert [(u.user_id, u.profession) for u in data.users] == [("u1", "nursing")]
    assert activity_overview(data).registered_user_count == 1


@pytest.mark.parametrize(
    "doc",
    [
        {"posts": [], "users": 5},
        {"posts": [], "users": {"u1": "x"}},
        {"posts": [], "users": None},
        {"posts": [], "users": [5, "u9", {"user_id": "u2"}]},
        {"posts": [], "rejected": 7},
        {"posts": [], "rejected": {"raw": "x", "reason": "y"}},
        {"posts": [], "rejected": [{"raw": "x", "reason": "y"}, "p1,t1"]},
    ],
    ids=["users-number", "users-object", "users-null", "users-entry-not-object",
         "rejected-number", "rejected-object", "rejected-entry-not-object"],
)
def test_json_users_and_rejected_must_be_arrays_of_the_right_entries(tmp_path, capsys, doc):
    """A roster or rejection log of the wrong shape is refused, never read
    as empty: a dropped rejection would break lossless-or-logged."""
    with pytest.raises(SchemaError):
        parse_posts(io.StringIO(json.dumps(doc)))
    path = tmp_path / "data.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["ingest", "--posts", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


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


def test_json_round_trip():
    data = parse_posts(
        csv_stream(
            "p1,t1,u1,f1,2012-01-01T10:00:00Z",
            "p2,t1,u2,f1,2012-01-01T11:00:00Z",
            "p3,t2,u2,f1,bad-stamp",
        )
    )
    again = parse_posts(io.StringIO(dataset_to_json(data)))
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


@pytest.mark.parametrize(
    "name, writer",
    [("data.json", dataset_to_json), ("data.dat", dataset_to_json), ("data", dataset_to_json),
     ("data.csv", posts_csv), ("posts.json", posts_csv), ("posts", posts_csv)],
    ids=["json", "json-as-dat", "json-bare", "csv", "csv-as-json", "csv-bare"],
)
def test_load_dataset_ignores_the_suffix(tmp_path, name, writer):
    """The content tells a dataset JSON from a posts CSV, whatever the
    file is called, and the dataset carries the sha256 of the file."""
    data = dataset_from_posts([("u1", "t1"), ("u2", "t1")])
    path = tmp_path / name
    path.write_text(writer(data), encoding="utf-8")
    loaded = load_dataset(path)
    assert loaded.posts == data.posts
    assert loaded.source_sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    assert data.source_sha256 is None
    assert "source_sha256" not in dataset_to_json(loaded)


@pytest.mark.parametrize("lead", ["\ufeff", " \n\t", "\ufeff\r\n "], ids=["bom", "space", "both"])
def test_json_after_bom_or_whitespace_is_json(tmp_path, lead):
    data = dataset_from_posts([("u1", "t1"), ("u2", "t1")])
    text = lead + dataset_to_json(data)
    assert parse_posts(io.StringIO(text)).posts == data.posts
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    assert load_dataset(path).posts == data.posts
    listed = lead + json.dumps([json_post("p1", "2012-01-01T00:00:00Z")])
    assert [p.post_id for p in parse_posts(io.BytesIO(listed.encode("utf-8"))).posts] == ["p1"]


def test_load_dataset_unreadable_path_names_it(tmp_path):
    missing = tmp_path / "missing.csv"
    with pytest.raises(InputError, match=f"cannot read {missing}"):
        load_dataset(missing)


def test_json_posts_must_be_object_array():
    with pytest.raises(SchemaError):
        parse_posts(io.StringIO('{"no_posts": []}'))
    with pytest.raises(InputError):
        parse_posts(io.StringIO("{nope"))


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


# sha256 of the posts and users CSVs that synth 60/80/400, alpha 1.5,
# seed 3 writes, and of the dataset.json that ingest makes from them;
# no file holds a float
PINNED_DATASET_FILES = {
    "x.csv": "f9d7863fc44fb78f7b1a9e095133b41680e6fe90effaa004f1ab02aced426b8b",
    "x.users.csv": "2383f49301f3fccaf2122f2d0afdecd2d2a06f536a99d09364f5bfae08c7b85a",
    "clean/dataset.json": "a507a745469d8fb6b6a78eb8dc0ac2fd4860ffbf5d3cf32f332932b113375cc7",
}


def test_written_dataset_files_are_byte_pinned(tmp_path, capsys):
    synth = ["synth", "--users", "60", "--threads", "80", "--posts", "400", "--alpha", "1.5",
             "--seed", "3", "--out", str(tmp_path / "x.csv")]
    assert cli.main(synth) == 0
    ingest = ["ingest", "--posts", str(tmp_path / "x.csv"),
              "--users", str(tmp_path / "x.users.csv"), "--out", str(tmp_path / "clean")]
    assert cli.main(ingest) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in PINNED_DATASET_FILES
    }
    assert digests == PINNED_DATASET_FILES
