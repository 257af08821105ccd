"""graph6 codec, cross-checked against networkx's implementation."""

import gc
import random
import re
import time
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowup.errors import GraphParseError
from blowup.families import parse_expression
from blowup.graphs import Graph, complete, empty, g6_decode, g6_encode, random_graph, triu_pair_arrays
from blowup.search import stream_max


def nx_roundtrip_encode(g: Graph) -> str:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    ii, jj = np.nonzero(np.triu(g.adj, 1))
    h.add_edges_from(zip(ii.tolist(), jj.tolist()))
    return nx.to_graph6_bytes(h, header=False).decode("ascii").strip()


def test_fixed_vectors():
    assert g6_encode(empty(3)) == "B?"
    assert g6_encode(complete(3)) == "Bw"
    assert g6_encode(complete(1)) == "@"
    assert g6_decode("B?") == empty(3)
    assert g6_decode("Bw") == complete(3)
    assert g6_decode("@") == complete(1)


def test_exhaustive_small_roundtrip_and_nx_agreement():
    for n in range(1, 6):
        m = n * (n - 1) // 2
        for mask in range(1 << m):
            bits = [(mask >> b) & 1 for b in range(m)]
            # bit b corresponds to the b-th upper-triangle pair in column order
            pairs = [(i, j) for j in range(1, n) for i in range(j)]
            g = Graph.from_edges(n, [p for p, s in zip(pairs, bits) if s])
            s = g6_encode(g)
            assert g6_decode(s) == g
            assert s == nx_roundtrip_encode(g)


def test_random_roundtrip_against_networkx():
    rng = random.Random(1729)
    for _ in range(300):
        n = rng.randint(1, 20)
        g = random_graph(n, rng)
        s = g6_encode(g)
        assert g6_decode(s) == g
        assert s == nx_roundtrip_encode(g)
        back = nx.from_graph6_bytes(s.encode("ascii"))
        assert back.number_of_nodes() == g.n
        assert back.number_of_edges() == g.edge_count


def test_header_accepted():
    s = g6_encode(complete(4))
    assert g6_decode(">>graph6<<" + s) == complete(4)


def test_long_form_order():
    # 100 vertices needs the 4-byte order prefix
    g = empty(100)
    s = g6_encode(g)
    assert s.startswith("~")
    assert g6_decode(s) == g
    assert s == nx_roundtrip_encode(g)


def test_pair_arrays_follow_graph6_order():
    for n in (*range(1, 70), 129, 300):
        ii, jj = triu_pair_arrays(n)
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        assert list(zip(ii.tolist(), jj.tolist())) == pairs, n


def test_graph6_paths_retain_nothing():
    # a stream solve and a codec round trip keep nothing per order once they
    # return; two pair-index arrays of orders 300 and 301 alone are 1.4 MiB
    rng = random.Random(300)
    lines = [g6_encode(random_graph(n, rng)) for n in (300, 301)]
    g = random_graph(200, rng)
    gc.collect()
    tracemalloc.start()
    try:
        assert stream_max(2, lines).evaluations == 2
        assert g6_decode(g6_encode(g)) == g
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 64 * 1024


def test_order_field_boundary_against_networkx():
    # 62 is the last order with a 1-byte field, 63 the first with the 4-byte one
    rng = random.Random(6263)
    for n, head in ((62, chr(62 + 63)), (63, "~??~")):
        for _ in range(5):
            g = random_graph(n, rng)
            s = g6_encode(g)
            assert s.startswith(head)
            assert s == nx_roundtrip_encode(g)
            assert g6_decode(s) == g


@st.composite
def graphs(draw):
    """Any graph on 1..16 vertices, or on 62 or 63 either side of the order field's width."""
    n = draw(st.integers(1, 16) | st.sampled_from([62, 63]))
    ii, jj = triu_pair_arrays(n)
    size = (len(ii) + 7) // 8
    raw = np.frombuffer(draw(st.binary(min_size=size, max_size=size)), dtype=np.uint8)
    bits = np.unpackbits(raw)[: len(ii)].astype(bool)
    return Graph.from_edges(n, zip(ii[bits].tolist(), jj[bits].tolist()))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(graphs())
@example(complete(62))
@example(empty(63))
def test_roundtrip_property(g):
    s = g6_encode(g)
    assert g6_decode(s) == g
    assert g6_encode(g6_decode(s)) == s
    assert s == nx_roundtrip_encode(g)


def test_decode_errors_carry_offsets():
    with pytest.raises(GraphParseError):
        g6_decode("")
    with pytest.raises(GraphParseError) as ei:
        g6_decode("B\x1f")  # byte below 63
    assert "offset" in str(ei.value)
    with pytest.raises(GraphParseError):
        g6_decode("B")  # truncated: needs one body byte
    with pytest.raises(GraphParseError):
        g6_decode("B??")  # trailing data
    # n=3 uses 3 pair bits + 3 padding bits; '@' encodes 000001, so the
    # pair bits are clear but a padding bit is set
    with pytest.raises(GraphParseError):
        g6_decode("B@")


def test_padding_enforced():
    # n=2: one pair bit, five padding bits. 'G'+bit patterns with nonzero
    # padding are invalid even though the leading bit is fine.
    ok = g6_decode("A_")  # single edge on 2 vertices
    assert ok == complete(2)
    with pytest.raises(GraphParseError):
        g6_decode("A`")  # same edge bit, one padding bit set


def test_rejects_unencodable():
    with pytest.raises(GraphParseError):
        g6_decode("~~" + "?" * 10)  # 8-byte order form unsupported


def test_oversized_line_is_refused_in_one_scan():
    # a 3.0 MB line of order 6000: the byte range is checked in one C-level
    # scan before the order field meets the dense ceiling
    n = 6000
    body = "~" * ((n * (n - 1) // 2 + 5) // 6)
    line = "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0)) + body
    for refuse, message in ((g6_decode, ""), (lambda s: stream_max(1, [s]), "line 1: ")):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^{message}graph6 string needs .*order 6000"):
            refuse(line)
        assert time.perf_counter() - start < 0.05
    # a bad byte is still located at its own offset
    with pytest.raises(GraphParseError, match=f"byte 33 outside .*offset {len(line) - 1}\\)"):
        g6_decode(line[:-1] + "!")


def test_first_bad_byte_is_reported():
    for text, byte, offset in (("B!w\x1f", 33, 1), ("Bw\x1f!", 31, 2), ("~??B \x7f", 32, 4)):
        with pytest.raises(GraphParseError, match=f"^byte {byte} outside .*offset {offset}\\)"):
            g6_decode(text)


def test_offsets_count_in_the_line_as_given():
    # the whitespace and header the line rule drops still count toward an offset
    for text, reason, offset in (
        ("  C!", "byte 33 outside the graph6 range 63..126", 3),
        (">>graph6<<C!", "byte 33 outside the graph6 range 63..126", 11),
        ("  >>graph6<<  >>graph6<<", "byte 62 outside the graph6 range 63..126", 14),
        ("\t>>graph6<< ~?", "truncated graph6 order field", 14),
    ):
        with pytest.raises(GraphParseError) as ei:
            g6_decode(text)
        assert (ei.value.reason, ei.value.offset) == (reason, offset), text
        with pytest.raises(GraphParseError) as ei:
            stream_max(1, [text])
        assert str(ei.value) == f"line 1: {reason} (at offset {offset})", text


def test_stream_and_literal_read_lines_alike():
    # a doubled header is refused, and whitespace before a header accepted,
    # by the stream, g6_decode and the g6: literal alike
    line = ">>graph6<<>>graph6<<Ch"
    with pytest.raises(GraphParseError) as decoded:
        g6_decode(line)
    assert (decoded.value.reason, decoded.value.offset) == ("byte 62 outside the graph6 range 63..126", 10)
    with pytest.raises(GraphParseError, match=f"^line 1: {re.escape(str(decoded.value))}$"):
        stream_max(1, [line])
    with pytest.raises(GraphParseError) as literal:
        parse_expression("g6:" + line)
    assert literal.value.reason == f"bad graph6 literal: {decoded.value.reason}"
    assert literal.value.offset == 3 + decoded.value.offset

    line = "  >>graph6<<  Ch"
    g = g6_decode("Ch")
    assert g6_decode(line) == g
    assert stream_max(1, [line]) == stream_max(1, ["Ch"])
    assert parse_expression("g6:" + line).provenance.graph == g
