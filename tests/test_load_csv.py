"""``load_csv``'s two parsers: numpy's C reader for plain numeric files, and
the row-by-row ``csv`` parser for everything else.

Both must give bit-identical arrays, the same notes and the same error text
on any file, and plain files written by ``simulate`` or shaped like the
d=64 benchmark input must never reach the row parser.
"""

import csv
import json
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smooth_threshold import cli
from smooth_threshold.cli import ColumnRoles, load_csv, main
from smooth_threshold.errors import InputError
from smooth_threshold.simulate import SimSpec, generate

BAD_BYTE = "@ff@"  # replaced by the byte 0xff when the file is written

NUMBER_FORMATS = (repr, "%.17g".__mod__, "%.3e".__mod__)
PLAIN_ODD_NUMBERS = ("nan", "-inf", " 0.25 ", "1e400")  # numbers to numpy too
ODD_NUMBERS = PLAIN_ODD_NUMBERS + ("1_000", '"0.5"', "\t-3 ", "", "NA", BAD_BYTE)
RESPONSES = {-1.0: ("-1", "-1.0", " -1 ", "-1e0"),
             0.0: ("0", "0.0", "-0", " 0 "),
             1.0: ("1", "1.0", "+1", " 1 ")}
ODD_RESPONSES = ('"1"', "1_0e-1", "2", "yes", "")
UNUSED_TEXT = ("abc", "", '"a{}b"', '"two\nlines"', "1_000")
LINE_ENDS = ("\n", "\r\n", "\r")


def _cell(draw, name, coding, delimiter, messy):
    odd = messy and draw(st.integers(0, 9)) == 0
    if name == "y":
        if odd:
            return draw(st.sampled_from(ODD_RESPONSES))
        return draw(st.sampled_from(RESPONSES[draw(st.sampled_from(coding))]))
    if odd:
        pool = UNUSED_TEXT if name == "note" else ODD_NUMBERS
        return draw(st.sampled_from(pool)).format(delimiter)
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from(PLAIN_ODD_NUMBERS))
    value = draw(st.floats(allow_nan=False, allow_infinity=False, width=64))
    return draw(st.sampled_from(NUMBER_FORMATS))(value)


@st.composite
def csv_files(draw):
    """``(text, roles, delimiter)`` of a small header-first file: either
    messy throughout, or plain numbers with at most one flaw that only the
    row or column count shows."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    n_cov = draw(st.integers(1, 3))
    covariates = [f"z{j}" for j in range(1, n_cov + 1)]
    weight = draw(st.booleans())
    unused = draw(st.booleans())  # a column only explicit covariates skip
    names = ["y", "x"] + covariates + ["w"] * weight + ["note"] * unused
    header = draw(st.permutations(names))
    explicit = unused or draw(st.booleans())
    roles = ColumnRoles(
        covariates=tuple(draw(st.permutations(covariates))) if explicit else None,
        weight="w" if weight else None)
    coding = draw(st.sampled_from([(-1.0, 1.0), (0.0, 1.0), (1.0,)]))
    messy = draw(st.booleans())

    quoting = draw(st.sampled_from(["{}", '"{}"', " {} "]))
    lines = [delimiter.join(quoting.format(name) for name in header)]
    for _ in range(draw(st.integers(0 if messy else 1, 6))):
        kind = "plain" if not messy else draw(
            st.sampled_from(["plain"] * 6 + ["blank", "comment", "ragged"]))
        if kind == "blank":
            lines.append("")
            continue
        cells = [_cell(draw, name, coding, delimiter, messy) for name in header]
        if kind == "comment":
            cells[0] = "#" + cells[0]
        elif kind == "ragged":
            cells = cells[:-1] if draw(st.booleans()) else cells + ["0"]
        lines.append(delimiter.join(cells))
    flaw = None if messy else draw(st.sampled_from([None, "blank", "short", "long"]))
    if flaw == "blank":
        lines.insert(draw(st.integers(1, len(lines))), "")
    elif flaw == "short":
        lines[1:] = [line.rpartition(delimiter)[0] for line in lines[1:]]
    elif flaw == "long":
        lines[1:] = [line + delimiter + "0" for line in lines[1:]]

    end = draw(st.sampled_from(LINE_ENDS + ("mixed",)))
    text = ""
    for line in lines:
        text += line + (draw(st.sampled_from(LINE_ENDS)) if end == "mixed" else end)
    if not draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line end
    elif draw(st.integers(0, 4)) == 0:
        text += "\n"  # a trailing blank line
    return text, roles, delimiter


def outcome(path, roles, delimiter):
    """Everything a load produces, byte for byte, or its error text."""
    try:
        data, weights, notes = load_csv(path, roles, delimiter)
    except InputError as exc:
        return str(exc)
    return (data.x.tobytes(), data.y.tobytes(), data.z.shape, data.z.tobytes(),
            None if weights is None else weights.tobytes(), notes)


@settings(max_examples=150, deadline=None)
@given(csv_files())
def test_fast_path_matches_row_parser(tmp_path_factory, case):
    text, roles, delimiter = case
    path = tmp_path_factory.mktemp("equiv") / "a.csv"
    path.write_bytes(text.encode("utf-8").replace(BAD_BYTE.encode(), b"\xff"))
    fast = outcome(path, roles, delimiter)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_read_table", lambda *args: None)
        slow = outcome(path, roles, delimiter)
    assert fast == slow


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet='a,"\r\n', max_size=40), st.integers(1, 5))
def test_line_count_matches_text_handle(tmp_path_factory, text, chunk_bytes):
    path = tmp_path_factory.mktemp("lines") / "a.csv"
    path.write_bytes(text.encode())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_CHUNK_BYTES", chunk_bytes)  # "\r\n" split across chunks
        count, quotes = cli._line_and_quote_count(path)
    with open(path, encoding="utf-8", newline="") as handle:
        assert count == len(handle.readlines())
    assert quotes == text.count('"')


@pytest.fixture
def no_row_parser(monkeypatch):
    def fail(*args):
        raise AssertionError("plain numeric file reached the row parser")
    monkeypatch.setattr(cli, "_parse_rows", fail)


def test_simulate_output_takes_fast_path(tmp_path, no_row_parser, capsys):
    path = tmp_path / "sim.csv"
    assert main(["simulate", "--model", "conditional_mean", "--n", "300",
                 "--d", "12", "--s", "3", "--noise-sd", "1.0", "--seed", "4",
                 "--out", str(path)]) == 0
    data, _, _ = load_csv(path)
    original, _ = generate(SimSpec(model="conditional_mean", n=300, d=12, s=3,
                                   noise_sd=1.0, seed=4))
    for name in ("x", "y", "z"):
        assert getattr(data, name).tobytes() == getattr(original, name).tobytes()


def test_benchmark_shaped_file_takes_fast_path(tmp_path, no_row_parser):
    # n=2000, d=64, repr floats, "\n" line ends: the d=64 benchmark's input
    original, _ = generate(SimSpec(model="conditional_mean", n=2000, d=64,
                                   s=8, seed=1))
    path = tmp_path / "instance.csv"
    with open(path, "w", encoding="utf-8", newline="") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["y", "x"] + [f"z{j + 1}" for j in range(64)])
        writer.writerows([repr(float(v)) for v in row] for row in
                         np.column_stack([original.y, original.x, original.z]))
    data, weights, notes = load_csv(path)
    assert weights is None and notes == []
    for name in ("x", "y", "z"):
        assert getattr(data, name).tobytes() == getattr(original, name).tobytes()


@pytest.fixture
def loadtxt_calls(monkeypatch):
    calls = []
    real = np.loadtxt

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(np, "loadtxt", spy)
    return calls


def test_quoted_cell_goes_straight_to_row_parser(tmp_path, loadtxt_calls):
    # one quoted cell in the last row: numpy would parse every row before it
    # only to fail there, and the row parser would read the file again
    original, _ = generate(SimSpec(model="conditional_mean", n=500, d=16,
                                   s=4, seed=2))
    rows = [[repr(float(v)) for v in row] for row in
            np.column_stack([original.y, original.x, original.z])]
    rows[-1][5] = f'"{rows[-1][5]}"'
    path = tmp_path / "quoted.csv"
    path.write_text("\n".join(",".join(row) for row in
                              [["y", "x"] + [f"z{j + 1}" for j in range(16)]]
                              + rows) + "\n")
    quoted = outcome(path, None, ",")
    assert loadtxt_calls == []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_read_table", lambda *args: None)
        assert outcome(path, None, ",") == quoted
    assert quoted[3] == original.z.tobytes()


def test_quoted_header_keeps_the_fast_path(tmp_path, loadtxt_calls,
                                           no_row_parser):
    path = tmp_path / "header.csv"
    path.write_text('"y","x","z1"\n1,0.5,0.25\n-1,0.2,0.5\n')
    data, _, _ = load_csv(path)
    assert len(loadtxt_calls) == 1
    assert np.array_equal(data.z, [[0.25], [0.5]])


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_pipe_is_read_by_row_parser(tmp_path):
    # a pipe cannot be read twice, so it skips the fast path and its checks
    fifo = tmp_path / "in.csv"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text,
                              args=("y,x,z1\n1,0.5,0.25\n-1,0.2,0.5\n",))
    writer.start()
    data, _, _ = load_csv(fifo)
    assert np.array_equal(data.z, [[0.25], [0.5]])
    writer.join(timeout=10)
    assert not writer.is_alive()


@pytest.mark.parametrize("row", [1, 5000], ids=["first-chunk", "later-chunk"])
@pytest.mark.parametrize("fast", [True, False], ids=["fast-path", "row-parser"])
def test_non_utf8_file_is_an_input_error(tmp_path, monkeypatch, capsys, row, fast):
    if not fast:
        monkeypatch.setattr(cli, "_read_table", lambda *args: None)
    rows = [b"1,0.5,0.25"] * 6000
    rows[row - 1] = b"1,0.5,0.2\xff"
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"\n".join([b"y,x,z1"] + rows) + b"\n")
    assert main(["fit", "--input", str(path), "--delta", "0.5",
                 "--lambda-tgt", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    record = json.loads(captured.err)
    assert record == {"error": "input", "message": f"cannot decode {path} as "
                      f"UTF-8 (byte 0xff: invalid start byte)"}


def test_unterminated_quote_is_an_input_error(tmp_path, capsys):
    # the quoted cell swallows the rest of the file, past csv's field limit
    path = tmp_path / "quote.csv"
    path.write_text("y,x,z1\n1,0.5,\"0.25\n" + "1,0.5,0.25\n" * 20000)
    assert main(["fit", "--input", str(path), "--delta", "0.5",
                 "--lambda-tgt", "0.1"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "input"
    assert record["message"].startswith(f"cannot parse {path} as CSV: field larger")
