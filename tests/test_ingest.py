"""Parsing, validation, aggregation, and round-trip serialization."""

import csv
import hashlib
import json
import re
from dataclasses import replace
from collections import Counter
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumnet import cli, ingest
from forumnet.errors import InputError, SchemaError
from forumnet.ingest import (
    _merge_users,
    activity_overview,
    dataset_to_json,
    load_dataset,
    parse_posts,
    parse_timestamp,
    parse_users,
    period_label,
    posts_csv,
    users_csv,
)
from forumnet.synth import SynthConfig, generate

from helpers import dataset_from_posts

HEADER = "post_id,thread_id,user_id,forum_id,timestamp"
USERS_HEADER = ("user_id", "profession")


def csv_stream(*rows, header=HEADER):
    return ("\n".join([header, *rows]) + "\n").encode("utf-8")


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


def quoted_rows(count):
    """``count`` valid posts rows, the tenth with a quote before its second
    field: left open, it would fold every line after it into that row."""
    rows = [f"p{i:05d},t{i % 50},u{i % 70},f1,2012-01-{1 + i % 28:02d}T00:00:00Z"
            for i in range(count)]
    rows[9] = rows[9].replace(",", ',"', 1)
    return rows


@pytest.mark.parametrize("count", [2_000, 4_000], ids=["folded", "over-field-limit"])
def test_a_stray_quote_spoils_only_its_own_row(count):
    """Read whole, the 2,000 rows fold into one rejection and the 4,000
    (over 128 KiB after the quote) overflow the reader's field limit."""
    rows = quoted_rows(count)
    source = csv_stream(*rows)
    assert (len(source) > csv.field_size_limit()) == (count == 4_000)
    data = parse_posts(source)
    assert sorted(p.post_id for p in data.posts) == [f"p{i:05d}" for i in range(count) if i != 9]
    assert [(r.raw, r.reason) for r in data.rejected] == [(rows[9] + '"', "wrong column count")]


def test_a_stray_quote_in_a_roster_spoils_only_its_own_profile():
    users = parse_users(b'user_id,profession\nu1,gp\n"u2,nursing\nu3,cardiology\nu4,\n')
    assert [(u.user_id, u.profession) for u in users] == [
        ("u1", "gp"), ("u2,nursing", None), ("u3", "cardiology"), ("u4", None)
    ]


def test_a_line_that_fails_alone_is_an_input_fault():
    """A bare carriage return inside a line fails the reader even on that
    line alone: the file is refused, naming the line, not a traceback."""
    source = csv_stream("p1,t1,u1,f1,2012-01-01T00:00:00Z", "p2,t1,u2\rf1,2012-01-02T00:00:00Z")
    with pytest.raises(InputError, match="^posts CSV line 3: new-line character"):
        parse_posts(source)


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
        parse_posts("who,what,when\n1,2,3\n".encode("utf-8"))


def test_empty_stream_is_fatal():
    with pytest.raises(SchemaError):
        parse_posts("".encode("utf-8"))


def test_unreadable_path_is_input_error():
    with pytest.raises(InputError):
        load_dataset("/nonexistent/posts.csv")


def test_text_is_not_a_posts_file():
    """The parsers take a file's bytes: text, such as a path, fails
    loudly and is never parsed as CSV."""
    with pytest.raises(AttributeError):
        parse_posts(HEADER + "\n")


def test_non_utf8_path_is_input_error(tmp_path):
    bad = tmp_path / "posts.csv"
    bad.write_bytes(f"{HEADER}\np1,t1,J\xf6rg,f1,2012-01-01T00:00:00Z\n".encode("latin-1"))
    with pytest.raises(InputError, match="UTF-8"):
        load_dataset(bad)


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
    return json.dumps({"posts": list(posts), "users": list(users)}).encode("utf-8")


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


@pytest.mark.parametrize(
    "column, value",
    [("thread_id", {"a": 1}), ("user_id", ["x"]), ("user_id", True), ("post_id", False),
     ("forum_id", [])],
    ids=["object", "array", "true", "false", "empty-array"],
)
def test_json_id_that_is_no_string_or_number_is_rejected(column, value):
    post = {**json_post("p1", "2012-01-01T00:00:00Z"), column: value}
    data = parse_posts(json_posts(post, json_post("p2", "2012-01-02T00:00:00Z")))
    assert [p.post_id for p in data.posts] == ["p2"]
    assert [(r.raw, r.reason) for r in data.rejected] == [
        (json.dumps(post, sort_keys=True), f"bad {column}")
    ]


@pytest.mark.parametrize("entry", [["p1"], "p1", 7, None], ids=["array", "string", "number", "null"])
def test_json_post_entry_that_is_no_object_is_rejected(entry):
    data = parse_posts(json_posts(entry, json_post("p2", "2012-01-02T00:00:00Z")))
    assert [p.post_id for p in data.posts] == ["p2"]
    assert [(r.raw, r.reason) for r in data.rejected] == [
        (json.dumps(entry), "post entry is not an object")
    ]


def test_json_numeric_ids_are_kept_as_their_text():
    post = {"post_id": 7, "thread_id": 8, "user_id": 9, "forum_id": 1.5,
            "timestamp": "2012-01-01T00:00:00Z"}
    [kept] = parse_posts(json_posts(post)).posts
    assert (kept.post_id, kept.thread_id, kept.user_id, kept.forum_id) == ("7", "8", "9", "1.5")


def test_duplicate_dated_earlier_displaces_the_kept_row():
    first = "p1,t1,u1,f1,2012-01-02T00:00:00Z"
    data = parse_posts(csv_stream(first, "p1,t1,u2,f1,2012-01-01T00:00:00Z"))
    assert [p.user_id for p in data.posts] == ["u2"]
    assert [(r.raw, r.reason) for r in data.rejected] == [(first, "duplicate post_id")]


@pytest.mark.parametrize("form", ["csv", "json"])
def test_raw_text_is_written_for_rejected_rows_only(monkeypatch, form):
    """A duplicate and a bad row keep the raw text they always had, and it
    is written for them alone, not for the rows that are kept."""
    rows = [
        ("p1", "t1", "u,1", "f1", "2012-01-01T00:00:00Z"),
        ("p1", "t1", 'u"2', "f1", "2012-01-02T00:00:00Z"),
        ("p2", "t1", "u3", "f1", "notadate"),
        ("p3", "t1", "u4", "f1", "2012-01-03T00:00:00Z"),
    ]
    if form == "csv":
        source = csv_stream(*(ingest.csv_text(row, ())[:-1] for row in rows))
        expected = ['p1,t1,"u""2",f1,2012-01-02T00:00:00Z', "p2,t1,u3,f1,notadate"]
        owner, name = ingest, "csv_text"
    else:
        entries = [dict(zip(ingest.POSTS_COLUMNS, row)) for row in rows]
        source = json_posts(*entries)
        expected = [json.dumps(entry, sort_keys=True) for entry in entries[1:3]]
        owner, name = json, "dumps"
    written = []
    writer = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: written.append(a) or writer(*a, **k))
    data = parse_posts(source)
    assert [p.post_id for p in data.posts] == ["p1", "p3"]
    assert [(r.raw, r.reason) for r in data.rejected] == [
        (expected[0], "duplicate post_id"), (expected[1], "bad timestamp")
    ]
    assert len(written) == 2


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
        parse_posts(json.dumps(doc).encode("utf-8"))
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
    roster = parse_users("user_id,profession\nu1,nursing\nu2,\nu3,gp\n".encode("utf-8"))
    merged = replace(data, users=_merge_users(roster, data.users))
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
    again = parse_posts(dataset_to_json(data).encode("utf-8"))
    assert again.posts == data.posts
    assert again.users == data.users
    assert again.rejected == data.rejected


def test_csv_round_trip():
    original = generate(SynthConfig(user_count=8, thread_count=5, post_count=30, seed=2))
    parsed = parse_posts(posts_csv(original).encode("utf-8"))
    roster = parse_users(users_csv(original).encode("utf-8"))
    parsed = replace(parsed, users=_merge_users(roster, parsed.users))
    assert parsed.posts == original.posts
    assert parsed.users == original.users


def test_users_csv_bad_header():
    with pytest.raises(SchemaError, match="expected user_id,profession, got name,job$"):
        parse_users("name,job\nu1,gp\n".encode("utf-8"))


@pytest.mark.parametrize(
    "parse, text",
    [(parse_posts, f"\n{HEADER}\np1,t1,u1,f1,2012-01-01T00:00:00Z\n"),
     (parse_users, "\nuser_id,profession\nu1,gp\n")],
    ids=["posts", "users"],
)
def test_blank_first_line_is_a_bad_header(parse, text):
    """A blank first line is a header with no column, not an empty file."""
    with pytest.raises(SchemaError, match="^bad (posts|users) CSV header: expected .*, got $"):
        parse(text.encode("utf-8"))


@pytest.mark.parametrize(
    "rows, want",
    [
        ([(" u1 ", " gp "), ("u2\t", "nursing")], [("u1", "gp"), ("u2", "nursing")]),
        ([("u1", " "), ("u2", "")], [("u1", None), ("u2", None)]),
        ([("", "gp"), ("  ", "nursing"), ("u1", "gp")], [("u1", "gp")]),
        ([("u2", "gp"), (" u2", "nursing"), ("u1", "")], [("u1", None), ("u2", "gp")]),
    ],
    ids=["padded-ids", "blank-profession", "empty-id", "repeated-id"],
)
def test_users_csv_and_json_roster_give_the_same_profiles(rows, want):
    """One roster-row rule for both forms: IDs and professions stripped, a
    blank profession None, a row with no ID skipped, the first per ID kept."""
    from_csv = parse_users(
        "".join(f"{uid},{job}\n" for uid, job in [USERS_HEADER, *rows]).encode("utf-8")
    )
    from_json = parse_posts(
        json_posts(users=[{"user_id": uid, "profession": job} for uid, job in rows])
    ).users
    assert from_csv == from_json
    assert [(u.user_id, u.profession) for u in from_csv] == want


@pytest.mark.parametrize(
    "faulty, content, error",
    [
        ("posts", f"{HEADER}\np1,t1,J\xf6rg,f1,2012-01-01T00:00:00Z\n".encode("latin-1"),
         "not valid UTF-8"),
        ("users", "user_id,profession\nJ\xf6rg,gp\n".encode("latin-1"), "not valid UTF-8"),
        ("posts", b"who,what,when\n1,2,3\n", "bad posts CSV header"),
        ("users", b"name,job\nu1,gp\n", "bad users CSV header"),
    ],
    ids=["latin-posts", "latin-users", "header-posts", "header-users"],
)
def test_a_fault_in_a_data_file_names_the_file(tmp_path, capsys, faulty, content, error):
    paths = {"posts": tmp_path / "posts.csv", "users": tmp_path / "users.csv"}
    paths["posts"].write_bytes(csv_stream("p1,t1,u1,f1,2012-01-01T10:00:00Z"))
    paths["users"].write_bytes(b"user_id,profession\nu1,gp\n")
    paths[faulty].write_bytes(content)
    with pytest.raises(InputError, match=f"^{re.escape(str(paths[faulty]))}: .*{error}") as raised:
        load_dataset(paths["posts"], paths["users"])
    assert isinstance(raised.value, SchemaError) == ("header" in error)
    args = ["ingest", "--posts", str(paths["posts"]), "--users", str(paths["users"]),
            "--out", str(tmp_path / "d")]
    assert cli.main(args) == 1
    assert capsys.readouterr().err.startswith(f"error: {paths[faulty]}: ")


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
    assert parse_posts(text.encode("utf-8")).posts == data.posts
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    assert load_dataset(path).posts == data.posts
    listed = lead + json.dumps([json_post("p1", "2012-01-01T00:00:00Z")])
    assert [p.post_id for p in parse_posts(listed.encode("utf-8")).posts] == ["p1"]


def test_load_dataset_unreadable_path_names_it(tmp_path):
    missing = tmp_path / "missing.csv"
    with pytest.raises(InputError, match=f"cannot read {missing}"):
        load_dataset(missing)


def test_unreadable_roster_names_it(tmp_path, capsys):
    posts, missing = tmp_path / "ok.csv", tmp_path / "missing.csv"
    posts.write_bytes(csv_stream("p1,t1,u1,f1,2012-01-01T10:00:00Z"))
    with pytest.raises(InputError, match=f"cannot read {missing}"):
        load_dataset(posts, missing)
    args = ["ingest", "--posts", str(posts), "--users", str(missing), "--out", str(tmp_path / "d")]
    assert cli.main(args) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")


def test_json_posts_must_be_object_array():
    with pytest.raises(SchemaError):
        parse_posts('{"no_posts": []}'.encode("utf-8"))
    with pytest.raises(InputError):
        parse_posts("{nope".encode("utf-8"))


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
