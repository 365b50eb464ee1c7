"""The vectorized feature-CSV kernel against the line loop it stands in for.

`graphdata._read_features_lines` is the reference: on every file the kernel
takes, its array must be bitwise equal to the loop's; on every file it
declines, the loop runs and its errors (message and line number) reach the
caller unchanged.
"""

import importlib.util
import math
import os
import sys
import threading
import tracemalloc
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext

import numpy as np
import pytest

import signa.diffcore as dc
import signa.diffcore.ops as ops
import signa.graphdata as graphdata
from signa.errors import IngestionError

needs_kernel = pytest.mark.skipif(
    not graphdata._X87_LONGDOUBLE,
    reason="np.longdouble is not the x87 80-bit format here, so every feature CSV takes the line loop",
)


def _write(tmp_path, text, name="f.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode() if isinstance(text, str) else text)
    return str(path)


def _csv(rows) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


def _assert_kernel_matches_loop(path):
    kernel = graphdata._parse_features(path)
    assert kernel is not None, "the kernel declined a file it should take"
    loop = graphdata._read_features_lines(path)
    assert kernel.shape == loop.shape
    np.testing.assert_array_equal(kernel.view(np.uint64), loop.view(np.uint64))
    return kernel


# ---------------------------------------------------------------------------
# token generators: each returns rows of string tokens


def _matrix(rng, rows=30, cols=17):
    return rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-8, 9, size=(rows, cols))


def _digits(rng, n):
    return "".join(map(str, rng.integers(0, 10, size=n)))


def _rows(tokens, cols):
    return [tokens[i : i + cols] for i in range(0, len(tokens), cols)]


def _digit_strings(rng, rows=40, cols=17):
    # 18, 19 or 20 significant digits with the dot anywhere
    tokens = []
    for _ in range(rows * cols):
        digits = str(rng.integers(1, 10)) + _digits(rng, int(rng.integers(17, 20)))
        dot = int(rng.integers(0, len(digits) + 1))
        token = digits if dot == len(digits) else digits[:dot] + "." + digits[dot:]
        tokens.append(("-" if rng.random() < 0.5 else "") + ("0" + token if dot == 0 else token))
    return _rows(tokens, cols)


def _long_tokens(rng, rows=20, cols=9):
    # 23, 24 and 25 bytes; the kernel converts up to 24 and hands 25 to float()
    tokens = []
    for _ in range(rows * cols):
        size = int(rng.integers(23, 26))
        sign = "-" if rng.random() < 0.5 else ""
        if rng.random() < 0.5:  # few enough significant digits for the kernel
            head = "0." + "0" * int(rng.integers(3, 7))
        else:
            head = _digits(rng, int(rng.integers(1, 4))) + "."
        tokens.append(sign + head + _digits(rng, size - len(sign) - len(head)))
    # the dot falls outside the last 24 bytes
    tokens[:3] = [".0000000000000000000000007", "12.0000000000000000000005", "-1.00000000000000000000009"]
    return _rows(tokens, cols)


FORMATS = {
    "%.17g": lambda rng: [["%.17g" % v for v in row] for row in _matrix(rng)],
    "repr": lambda rng: [[repr(float(v)) for v in row] for row in _matrix(rng)],
    "%.6f": lambda rng: [["%.6f" % v for v in row] for row in _matrix(rng)],
    "%.3e": lambda rng: [["%.3e" % v for v in row] for row in _matrix(rng)],
    "integers": lambda rng: [[str(v) for v in row] for row in rng.integers(-(10**18), 10**18, size=(30, 17))]
    + [["0", "-0", str(10**19 - 1), str(2**63), str(2**63 - 1), str(2**64 - 1), str(-(10**19 - 1)),
        "9999999999999999999", "10000000000000000000", "00000000000000000000001", "123",
        "-5", "7", "18446744073709551616", "1", "2", "3"]],
    "zeros": lambda rng: [["-0.0", "0.0", "-0", "0", "000", "-000.000", "0000.5", "-007.250", "00012",
                           "-0.000000", "0.10", "0001.0001"]] * 3,
    "18-20 digits": _digit_strings,
    "23-25 bytes": _long_tokens,
    "mixed": lambda rng: [
        ["%.17g" % v if j % 3 else "%.4f" % v for j, v in enumerate(row)] for row in _matrix(rng)
    ],
}


@needs_kernel
@pytest.mark.parametrize("block_bytes", [64, graphdata._BLOCK_BYTES])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_kernel_is_bitwise_the_line_loop(fmt, seed, block_bytes, tmp_path, monkeypatch):
    monkeypatch.setattr(graphdata, "_BLOCK_BYTES", block_bytes)
    rows = FORMATS[fmt](np.random.default_rng(seed))
    _assert_kernel_matches_loop(_write(tmp_path, _csv(rows)))


@needs_kernel
def test_plain_decimals_never_reach_float(tmp_path, monkeypatch):
    rows = FORMATS["%.6f"](np.random.default_rng(0))
    path = _write(tmp_path, _csv(rows))
    calls = []

    def spy(token):
        calls.append(token)
        return float(token)

    monkeypatch.setattr(graphdata, "float", spy, raising=False)
    kernel = graphdata._parse_features(path)
    monkeypatch.delattr(graphdata, "float")
    # only a quotient on a midpoint between two doubles may take float()
    assert len(calls) <= len(rows) * len(rows[0]) // 100
    loop = graphdata._read_features_lines(path)
    np.testing.assert_array_equal(kernel.view(np.uint64), loop.view(np.uint64))


# ---------------------------------------------------------------------------
# ties: a quotient on a midpoint between two doubles goes to float()


def _spy_midpoints(monkeypatch):
    flagged = []
    midpoints = graphdata._midpoints

    def spy(quotient):
        mask = midpoints(quotient)
        flagged.append(int(mask.sum()))
        return mask

    monkeypatch.setattr(graphdata, "_midpoints", spy)
    return flagged


def _near_midpoints(rng, count):
    """(token, midpoint) pairs: 19-digit decimals within half a 64-bit ulp of
    the midpoint between two doubles, but not on it.  Their quotient rounds
    onto the midpoint, and rounding that to a double picks the even side."""
    pairs = []
    with localcontext() as ctx:
        ctx.prec = 80
        while len(pairs) < count:
            # in [8, 10) a 19-digit step (1e-18) is near the 64-bit ulp (2^-60 ~ 8.7e-19),
            # so most midpoints have a 19-digit neighbour within half an ulp
            x = float(rng.uniform(8.0, 10.0))
            mid = (Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2
            half_ulp = Decimal(2) ** (math.frexp(x)[1] - 1 - 64)
            sign = "-" if rng.random() < 0.5 else ""
            for rounding in (ROUND_FLOOR, ROUND_CEILING):
                d = mid.quantize(Decimal("1e-18"), rounding=rounding)
                if d != mid and abs(d - mid) < half_ulp:
                    pairs.append((sign + str(d), sign + str(mid)))
    return pairs[:count]


@needs_kernel
def test_exact_ties_take_the_midpoint_branch(tmp_path, monkeypatch):
    flagged = _spy_midpoints(monkeypatch)
    path = _write(tmp_path, "9007199254740993,9007199254740995\n-9007199254740993,1.5\n")
    features = _assert_kernel_matches_loop(path)
    assert flagged == [3]
    assert features[0].tolist() == [9007199254740992.0, 9007199254740996.0]


@needs_kernel
def test_near_ties_take_the_midpoint_branch(tmp_path, monkeypatch):
    pairs = _near_midpoints(np.random.default_rng(3), 240)
    # rounding the midpoint to even is wrong for about half of them
    assert sum(float(token) != float(mid) for token, mid in pairs) > 60
    flagged = _spy_midpoints(monkeypatch)
    path = _write(tmp_path, _csv(_rows([token for token, _ in pairs], 12)))
    _assert_kernel_matches_loop(path)
    assert sum(flagged) == len(pairs)


# ---------------------------------------------------------------------------
# the benchmark's own inputs


@pytest.fixture(scope="module")
def workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = importlib.util.spec_from_file_location(name, os.path.join(root, "perfbench", "workloads.py"))
        sys.modules[name] = importlib.util.module_from_spec(spec)  # its dataclass looks itself up
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@needs_kernel
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["dense-n4k", "wide-gconv-n1k"])
def test_benchmark_inputs_parse_bitwise(workload, seed, workloads, tmp_path):
    graph, paths = workloads.write_inputs(workloads.WORKLOADS[workload], seed, str(tmp_path))
    features = _assert_kernel_matches_loop(paths["features"])
    np.testing.assert_array_equal(features.view(np.uint64), graph.features.view(np.uint64))


# ---------------------------------------------------------------------------
# files the kernel leaves to the line loop: same array, or the same error


def _same_outcome(path):
    """`_read_features` gives what the line loop gives: the same array, or the
    same error with the same message; returns that message or array."""
    try:
        expected = graphdata._read_features_lines(path)
    except (IngestionError, UnicodeDecodeError) as exc:
        with pytest.raises(type(exc)) as got:
            graphdata._read_features(path)
        assert str(got.value) == str(exc)
        return str(exc)
    actual = graphdata._read_features(path)
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))
    return actual


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("1.5,2.25", "ragged feature row: expected 3 columns, got 2"),
        ("1.5,2.25,3,4", "ragged feature row: expected 3 columns, got 4"),
        ("1.5,2.25\n1,2,3,4", "ragged feature row: expected 3 columns, got 2"),
        ("1.5,abc,2", "non-numeric feature value"),
        ("1.5,1.2.3,2", "non-numeric feature value"),
        ("--1,0,0", "non-numeric feature value"),
        ("1,-,2", "non-numeric feature value"),
        ("1,2,.", "non-numeric feature value"),
        ("1e,2,3", "non-numeric feature value"),
        ("1,,3", "non-numeric feature value"),
        ("1,2.5.5,3.0", "non-numeric feature value"),
    ],
)
def test_errors_past_the_first_block_keep_their_line(bad_row, message, tmp_path, monkeypatch):
    monkeypatch.setattr(graphdata, "_BLOCK_BYTES", 64)
    blocks = []
    parse_block = graphdata._parse_block

    def spy(*args):
        blocks.append(parse_block(*args))
        return blocks[-1]

    monkeypatch.setattr(graphdata, "_parse_block", spy)
    good = "1.5,-2.25,3.125\n"
    path = _write(tmp_path, good * 30 + bad_row + "\n" + good * 10)
    assert f"f.csv:31: {message}" in _same_outcome(path)
    if graphdata._X87_LONGDOUBLE:
        assert blocks[0] is not None and blocks[-1] is None  # declined after a parsed block


# each file either holds the rows [1.5, 2] and [-3, 4.25] or is rejected
@pytest.mark.parametrize(
    "text, rejected, kernel_takes",
    [
        ("1.5,2\n-3,4.25", False, True),
        ("1.5,2\n\n-3,4.25\n", False, False),
        ("1.5,2\n-3,4.25\n\n", False, False),
        ("1.5,2\r\n-3,4.25\r\n", False, False),
        ("\ufeff1.5,2\n-3,4.25\n", False, False),
        (" 1.5, 2\n-3 ,4.25\t\n", False, False),
        ("x,y\n1.5,2\n-3,4.25\n", True, False),
        ("\ufeffx,y\n1.5,2\n-3,4.25\n", True, False),
        ("x,y\r\n1.5,2\r\n-3,4.25\r\n", True, False),
        ("x,y\r1.5,2\n-3,4.25\n", True, False),
        (b"\xff,y\n1.5,2\n-3,4.25\n", True, False),
        ("x,y\n", True, False),
        ("", True, False),
        (" \n\t\n", True, False),
    ],
)
def test_loop_files_keep_their_outcome(text, rejected, kernel_takes, tmp_path):
    path = _write(tmp_path, text)
    outcome = _same_outcome(path)
    if rejected:
        assert isinstance(outcome, str)
    else:
        np.testing.assert_array_equal(outcome, [[1.5, 2.0], [-3.0, 4.25]])
    if graphdata._X87_LONGDOUBLE:
        assert (graphdata._parse_features(path) is not None) == kernel_takes


def _in_thread(target, fifo):
    """Run target in a thread; True if it finished without a writer on fifo.
    If it blocks opening the pipe, a writer that closes at once gives it EOF."""
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=10)
    blocked = thread.is_alive()
    if blocked:
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        thread.join(timeout=10)
    assert not thread.is_alive()
    return not blocked


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_a_pipe_is_read_once_by_the_loop(tmp_path):
    fifo = str(tmp_path / "features.csv")
    os.mkfifo(fifo)
    declined = []
    # the kernel reads a file twice, so it must leave a pipe unopened
    assert _in_thread(lambda: declined.append(graphdata._parse_features(fifo)), fifo)
    assert declined == [None]

    def write():
        with open(fifo, "w") as fh:
            fh.write("1.5,2\n-3,4.25\n")

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    parsed = []
    _in_thread(lambda: parsed.append(graphdata._read_features(fifo)), fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert parsed[0].tolist() == [[1.5, 2.0], [-3.0, 4.25]]


# ---------------------------------------------------------------------------
# memory and platform


@needs_kernel
def test_parse_memory_stays_near_the_output(tmp_path):
    x = np.random.default_rng(0).standard_normal((1000, 2000))
    path = str(tmp_path / "wide.csv")
    np.savetxt(path, x, fmt="%.17g", delimiter=",")
    tracemalloc.start()
    try:
        features = graphdata._read_features(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(features.view(np.uint64), x.view(np.uint64))
    # the 16 MB output plus a few blocks; the line loop peaks near 77 MB
    assert peak < 48e6, f"peak {peak / 1e6:.1f} MB"


@needs_kernel
def test_an_f32_load_holds_no_f64_copy_of_the_features(tmp_path):
    x = np.random.default_rng(0).standard_normal((1000, 2000))
    path = str(tmp_path / "wide.csv")
    np.savetxt(path, x, fmt="%.17g", delimiter=",")
    edges = _write(tmp_path, "0 1\n", name="e.txt")
    dc.set_precision("f32")
    tracemalloc.start()
    try:
        graph = graphdata.load_graph(edges, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.features.tobytes() == x.astype(np.float32).tobytes()
    # the 8 MB output plus a few blocks, below the 16 MB of an f64 parse
    assert peak < 14e6, f"peak {peak / 1e6:.1f} MB"


def _f32_midpoint_tokens(rng, count):
    """19-digit decimals just above the midpoint of two adjacent f32
    integers, and the upper one of the two.  The kernel converts them
    itself; they round to the midpoint in f64, and from there to the even
    f32, where rounding the decimal to f32 once would go up."""
    shifts = rng.integers(1, 17, size=count)
    lower = rng.integers(2**23, 2**24, size=count) << shifts  # f32 integers 2**shifts apart
    mid = lower + (1 << (shifts - 1))
    tokens = [f"{m}.{'0' * (18 - len(str(m)))}1" for m in mid]
    return tokens, (lower + (1 << shifts)).astype(np.float32)


@needs_kernel
@pytest.mark.parametrize("block_bytes", [64, graphdata._BLOCK_BYTES])
def test_the_kernel_rounds_to_f64_then_to_f32(block_bytes, tmp_path, monkeypatch):
    monkeypatch.setattr(graphdata, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(5)
    tokens = [f"{v:.9g}" for v in rng.standard_normal(36) * 10.0 ** rng.integers(-40, 40, size=36)]
    near_ties, upper = _f32_midpoint_tokens(rng, 36)
    # rounding once would give the upper f32 for all of them; twice, for about half
    assert 9 < sum(np.float32(float(t)) != u for t, u in zip(near_ties, upper)) < 27
    tokens += near_ties + ["1e39", "-3.5e38", "1e-50", "0", "-0", "65504"]
    path = _write(tmp_path, _csv(_rows(tokens, 6)))
    dc.set_precision("f32")
    got = graphdata._parse_features(path)
    assert got is not None and got.dtype == np.float32
    with np.errstate(over="ignore"):
        want = graphdata._read_features_lines(path).astype(np.float32)
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


@needs_kernel
def test_the_kernel_parses_where_the_gate_is_on(tmp_path, monkeypatch):
    path = _write(tmp_path, _csv(FORMATS["%.17g"](np.random.default_rng(0))))
    monkeypatch.setattr(graphdata, "_read_features_lines", lambda *args: pytest.fail("the line loop ran"))
    assert graphdata._read_features(path).shape == (30, 17)
    assert [int(v) for v in graphdata._TENS] == [10**k for k in range(graphdata._TOKEN_BYTES)]


def test_without_an_x87_long_double_the_loop_parses(tmp_path, monkeypatch):
    path = _write(tmp_path, _csv(FORMATS["%.17g"](np.random.default_rng(0))))
    expected = graphdata._read_features_lines(path)
    monkeypatch.setattr(graphdata, "_X87_LONGDOUBLE", False)
    monkeypatch.setattr(graphdata, "_parse_features", lambda *args: pytest.fail("the kernel ran"))
    actual = graphdata._read_features(path)
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


# ---------------------------------------------------------------------------
# non-finite values


@pytest.mark.parametrize("block_entries", [6, ops._BLOCK_ENTRIES])
@pytest.mark.parametrize(
    "token, kernel_takes",
    [("nan", False), ("-inf", False), ("Infinity", False), ("1e400", True), ("-1e400", True)],
)
def test_a_non_finite_feature_value_is_refused(token, kernel_takes, block_entries, tmp_path, monkeypatch):
    # letters send a file to the line loop; 1e400 is a kernel token that
    # float() reads as inf.  A budget of 6 entries scans two rows per block.
    monkeypatch.setattr(ops, "_BLOCK_ENTRIES", block_entries)
    good = "1.5,-2.25,3.125\n"
    feats = _write(tmp_path, good * 5 + f"1,{token},2\n" + good * 4)
    edges = _write(tmp_path, "0 1\n", name="e.txt")
    if graphdata._X87_LONGDOUBLE:
        assert (graphdata._parse_features(feats) is not None) == kernel_takes
    with pytest.raises(IngestionError) as exc:
        graphdata.load_graph(edges, feats)
    assert str(exc.value) == f"{feats}: feature row 5 holds a non-finite value"


@pytest.mark.parametrize("block_entries", [6, ops._BLOCK_ENTRIES])
def test_a_value_beyond_f32_is_refused_at_load_under_f32(block_entries, tmp_path, monkeypatch):
    # the features are cast to the active precision before the finite scan,
    # so 1e39, finite in f64, is refused at load and named by its row
    monkeypatch.setattr(ops, "_BLOCK_ENTRIES", block_entries)
    good = "1.5,-2.25,3.125\n"
    feats = _write(tmp_path, good * 3 + "1,1e39,2\n" + good * 2)
    edges = _write(tmp_path, "0 1\n", name="e.txt")
    assert graphdata.load_graph(edges, feats).features[3, 1] == 1e39
    dc.set_precision("f32")
    with pytest.raises(IngestionError) as exc:
        graphdata.load_graph(edges, feats)
    assert str(exc.value) == f"{feats}: feature row 3 holds a non-finite value as float32"


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_load_graph_holds_the_features_once_in_the_active_precision(precision, tmp_path, monkeypatch):
    # f64 keeps the parser's own array: no pass over it and no copy; f32
    # keeps its rounding, as each epoch's cast once made it
    parsed = np.random.default_rng(3).normal(size=(6, 4))
    monkeypatch.setattr(graphdata, "_read_features", lambda path: parsed)
    dc.set_precision(precision)
    graph = graphdata.load_graph(_write(tmp_path, "0 1\n", name="e.txt"), "f.csv")
    if precision == "f64":
        assert graph.features is parsed
    else:
        assert graph.features.tobytes() == parsed.astype(np.float32).tobytes()
