"""Tie sections written from per-node pieces: the same bytes as one
formatted line per tie, in every writer and at every chunk boundary."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumnet import text
from forumnet.graph import WEIGHTINGS, OneModeNetwork, edge_list_csv, project
from forumnet.text import tie_lines
from forumnet.viz import EXPORT_FORMATS, _drawing, export_graph

from helpers import from_rows, make_bipartite, oracle_edge_list_csv, oracle_export

# names that CSV quotes, DOT and XML escape, and that are not ASCII
NAMES = st.text(alphabet=list("ab1,\"'\\\r\n\t <&>é字"), max_size=4)


def first_difference(written: str, expected: str):
    """None, or the first line where the texts differ, with its number: a
    short report, where pytest would diff whole files line by line."""
    if written == expected:
        return None
    lines = zip(written.splitlines(True) + [""], expected.splitlines(True) + [""])
    return next((k, a, b) for k, (a, b) in enumerate(lines) if a != b)


def assert_writers_agree(network, seed: int) -> None:
    positions = np.random.default_rng(seed).random((len(_drawing(network)[0].nodes), 2))
    for format in EXPORT_FORMATS:
        written = "".join(export_graph(network, positions, format))
        assert first_difference(written, oracle_export(network, positions, format)) is None
    if isinstance(network, OneModeNetwork):
        written = "".join(edge_list_csv(network))
        assert first_difference(written, oracle_edge_list_csv(network)) is None


@st.composite
def bipartite_networks(draw):
    """Up to 6 users and 6 threads; thread IDs are often user IDs too."""
    users = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    threads = draw(
        st.lists(st.one_of(st.sampled_from(users), NAMES), min_size=1, max_size=6, unique=True)
    )
    cells = draw(
        st.lists(
            st.tuples(st.sampled_from(users), st.sampled_from(threads), st.integers(1, 40)),
            max_size=24,
        )
    )
    return make_bipartite({(user, thread): count for user, thread, count in cells})


@settings(max_examples=150, deadline=None)
@given(bipartite_networks(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_tie_writers_match_one_line_per_tie(b, chunk, seed):
    """edge_list_csv and every export format give the oracles' bytes for
    the bipartite network and both projections, under both weightings
    ("posts" gives many distinct weights), with a chunk of a few ties so
    that m falls below, on and past chunk boundaries."""
    with mock.patch.object(text, "TIE_CHUNK", chunk):
        assert_writers_agree(b, seed)
        for weighting in WEIGHTINGS:
            for mode in ("user", "thread"):
                assert_writers_agree(project(b, mode, weighting), seed)


@pytest.mark.parametrize("offset", [None, -1, 0, 1], ids=["m=0", "chunk-1", "chunk", "chunk+1"])
def test_tie_writers_at_the_chunk_size(offset):
    """At the module's own chunk size: no ties, and one tie short of a
    chunk, exactly one, and one past it, each with its own weight."""
    m = 0 if offset is None else text.TIE_CHUNK + offset
    n = 130  # 8,385 pairs
    assert n * (n - 1) // 2 > text.TIE_CHUNK
    rng = np.random.default_rng(m)
    i, j = np.triu_indices(n, 1)
    network = from_rows(
        tuple(',"<&>é\n'[k % 7] + str(k) for k in range(n)),
        np.column_stack((i, j))[:m],
        rng.permutation(m) + 1,
        node_attr=rng.integers(0, 50, n),
    )
    assert_writers_agree(network, m)


def test_tie_chunk_crosses_empty_rows():
    """A chunk that starts inside row 0 and ends inside row 3, with rows 1
    and 2 empty between them, holds each tie under its own row."""
    g = from_rows("abcdefgh", [(0, 1), (0, 2), (0, 6), (0, 7), (3, 5), (3, 6), (3, 7)], [1] * 7)
    with mock.patch.object(text, "TIE_CHUNK", 3):
        chunks = list(tie_lines(list("abcdefgh"), list("ABCDEFGH"), g, lambda weight: "\n"))
    assert chunks == ["aB\naC\naG\n", "aH\ndF\ndG\n", "dH\n"]


def test_tie_tails_are_formatted_once_per_distinct_weight():
    formatted = []

    def tail(weight):
        formatted.append(weight)
        return f"|{weight}\n"

    g = from_rows("xyz", [(0, 1), (0, 2), (1, 2)], [7, 7, 3])
    lines = tie_lines(["a", "b", "c"], ["A", "B", "C"], g, tail)
    assert "".join(lines) == "aB|7\naC|7\nbC|3\n"
    assert formatted == [3, 7]
