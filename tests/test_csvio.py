import csv
import os
import re
import struct

import numpy as np
import pytest

from enarkit import csvio
from enarkit.csvio import write_table
from enarkit.errors import DataError
from enarkit.network import read_edge_csv
from enarkit.process import Panel, read_panel_csv, write_panel_csv


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestWriteTable:
    def test_extreme_doubles_are_written_as_their_repr(self, tmp_path):
        bits = np.random.default_rng(7).integers(0, 2**64, 2000, dtype=np.uint64)
        random_doubles = [struct.unpack("<d", struct.pack("<Q", int(b)))[0] for b in bits]
        values = [5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max,
                  np.finfo(float).tiny, 0.0, -0.0, np.nan, np.inf, -np.inf,
                  1e16, 1e-5, 1 / 3, *random_doubles]
        path = tmp_path / "t.csv"
        # each value both as a Python float and as a numpy float64
        write_table(str(path), ["value", "numpy"], zip(values, np.array(values)))
        header, *rows = read_rows(path)
        assert header == ["value", "numpy"]
        assert rows == [[repr(float(v))] * 2 for v in values]

    @pytest.mark.parametrize("bad", [[1, 2, 3], [1]], ids=["longer", "shorter"])
    @pytest.mark.parametrize("position", [0, 5000], ids=["first-batch", "later-batch"])
    def test_row_of_the_wrong_width_raises_and_writes_nothing(self, tmp_path, bad, position):
        rows = [[i, 0.5] for i in range(6000)]
        rows[position] = bad
        path = tmp_path / "t.csv"
        with pytest.raises(TypeError):
            write_table(str(path), ["a", "b"], rows)
        assert os.listdir(tmp_path) == []

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"kept\r\n")
        with pytest.raises(TypeError):
            write_table(str(path), ["a", "b"], [[1, 2], [3]])
        assert path.read_bytes() == b"kept\r\n"
        assert os.listdir(tmp_path) == ["t.csv"]



C = csvio.CHUNK_LINES
# file rows (the header is row 1) that open or close a chunk of the body
CHUNK_EDGES = {"first-of-1": 2, "last-of-1": C + 1, "first-of-2": C + 2,
               "last-of-2": 2 * C + 1, "first-of-3": 2 * C + 2}
# a blank and a whitespace-only line on both sides of a chunk boundary
BLANKS = {"no-blanks": {}, "blanks-at-1|2": {C + 1: "", C + 2: " \t "},
          "blanks-at-2|3": {2 * C + 1: "   ", 2 * C + 2: ""}}
# (row, blank lines) for an offending row at each chunk edge that no blank holds
PLACES = [pytest.param(row, blanks, id=f"{at}-{name}")
          for at, row in CHUNK_EDGES.items() for name, blanks in BLANKS.items()
          if row not in blanks]


def insert_rows(lines, placed):
    """``lines`` (the header first) with each line of ``placed`` inserted
    so that it lands on its file row."""
    out = list(lines)
    for row in sorted(placed):
        out.insert(row - 1, placed[row])
    return out


def write_lines(path, lines, seed=0):
    """Write ``lines``, ending each in LF or CRLF at random."""
    ends = np.random.default_rng(seed).choice(["\n", "\r\n"], len(lines))
    path.write_text("".join(line + end for line, end in zip(lines, ends)), newline="")


def edge_lines(n=200):
    """The header and every pair of ``n`` nodes, some written high id first."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return ["src,dst"] + [f"{j},{i}" if (i + j) % 3 == 0 else f"{i},{j}" for i, j in pairs]


class TestEdgeReaderAcrossChunks:
    OFFENDERS = {  # line -> message after "row <r>: "
        "1,x": "cannot parse edge '1,x'",
        "4": "cannot parse edge '4'",
        "-1,3": "negative node id",
        "5,5": "self-loop on node 5",
        "1,0": r"duplicate edge \(0, 1\)",
        "3,250": r"edge \(3,250\) exceeds node count 200",
    }

    @pytest.mark.parametrize("row, blanks", PLACES)
    @pytest.mark.parametrize("line", OFFENDERS)
    def test_error_names_the_file_row(self, tmp_path, line, row, blanks):
        path = tmp_path / "edges.csv"
        write_lines(path, insert_rows(edge_lines(), {**blanks, row: line}), seed=row)
        # a duplicate inserted before the pair it repeats leaves that pair the repeat
        shown = row + 1 if line == "1,0" and row == 2 else row
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: row {shown}: "
                                             rf"{self.OFFENDERS[line]}$"):
            read_edge_csv(str(path), n_nodes=200)

    @pytest.mark.parametrize("blanks", BLANKS)
    def test_blank_lines_at_chunk_edges_are_skipped(self, tmp_path, blanks):
        lines = edge_lines()[: 3 * C]
        path = tmp_path / "edges.csv"
        write_lines(path, insert_rows(lines, BLANKS[blanks]))
        a = read_edge_csv(str(path), n_nodes=200).adjacency
        src, dst = np.array([line.split(",") for line in lines[1:]], dtype=int).T
        expected = np.zeros((200, 200))
        expected[src, dst] = expected[dst, src] = 1
        assert np.array_equal(a.toarray(), expected)


def panel_lines(n=90, t_len=100, p=2):
    """The header and the rows of a complete panel, node by node."""
    rng = np.random.default_rng(9)
    rows = [",".join([str(i), str(t), repr(float(rng.standard_normal())),
                      *(map(repr, rng.standard_normal(p).tolist()) if t < t_len else [""] * p)])
            for i in range(n) for t in range(t_len + 1)]
    return ["node,t,y," + ",".join(f"z{j + 1}" for j in range(p))] + rows


class TestPanelReaderAcrossChunks:
    @pytest.mark.parametrize("row, blanks", PLACES)
    @pytest.mark.parametrize("kind", ["key", "short", "empty", "bad-z", "duplicate"])
    def test_error_names_the_file_row(self, tmp_path, kind, row, blanks):
        lines = insert_rows(panel_lines(), blanks)
        node, t, y, z1, z2 = lines[row - 1].split(",")
        assert int(t) < 100  # the replaced row must carry covariates
        message = f"covariates missing or malformed at node {node}, t {t}"
        if kind == "key":
            lines[row - 1] = f"{node},{t}.5,{y},{z1},{z2}"
            message = re.escape(f"cannot parse {lines[row - 1]!r}")
        elif kind == "short":
            lines[row - 1] = f"{node},{t},{y},{z1}"
        elif kind == "empty":
            lines[row - 1] = f"{node},{t},{y},,"
        elif kind == "bad-z":
            lines[row - 1] = f"{node},{t},{y},{z1},abc"
        else:
            lines.insert(row - 1, lines[1])  # a second (0, 0)
            message = r"duplicate \(node=0, t=0\)"
            row += row == 2  # inserted before the first, which becomes the repeat
        path = tmp_path / "panel.csv"
        write_lines(path, lines, seed=row)
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: row {row}: {message}$"):
            read_panel_csv(str(path))

    def test_shuffled_rows_with_blanks_at_chunk_edges_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        panel = Panel(y=rng.standard_normal((90, 101)), z=rng.standard_normal((90, 100, 2)))
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, str(path))
        header, *rows = path.read_text().splitlines()
        rows = [rows[k] for k in rng.permutation(len(rows))]
        blanks = {**BLANKS["blanks-at-1|2"], **BLANKS["blanks-at-2|3"]}
        write_lines(path, insert_rows([header, *rows], blanks))
        back = read_panel_csv(str(path))
        assert back.y.tobytes() == panel.y.tobytes()
        assert back.z.tobytes() == panel.z.tobytes()

    def test_final_time_covariates_are_never_read(self, tmp_path):
        lines = panel_lines()
        expected = read_panel_csv(str(_write(tmp_path / "clean.csv", lines)))
        # every final-time row, in every chunk, carries fields that do not parse
        for j, line in enumerate(lines):
            if line.endswith(",,"):
                lines[j] = line[:-2] + ",zz,"[: 4 - j % 2]  # "zz," or "zz"
        back = read_panel_csv(str(_write(tmp_path / "dirty.csv", lines)))
        assert back.y.tobytes() == expected.y.tobytes()
        assert back.z.tobytes() == expected.z.tobytes()


def _write(path, lines):
    write_lines(path, lines)
    return path


class TestLineEnds:
    SEPARATORS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

    @pytest.mark.parametrize("sep", SEPARATORS, ids=[hex(ord(s)) for s in SEPARATORS])
    def test_only_lf_cr_and_crlf_end_a_line(self, tmp_path, sep):
        # str.splitlines also ends a line at each of these; the readers do not,
        # so a row's number counts LF, CR and CRLF only
        path = tmp_path / "edges.csv"
        path.write_text(f"src,dst\n0,1{sep}\n1,2\r0,1\r\n", encoding="utf-8", newline="")
        with pytest.raises(DataError, match=r": row 4: duplicate edge \(0, 1\)$"):
            read_edge_csv(str(path))
        path.write_text(f"src,dst\n0,1{sep}1,2\n", encoding="utf-8", newline="")
        with pytest.raises(DataError, match=re.escape(f": row 2: cannot parse edge {f'0,1{sep}1,2'!r}")):
            read_edge_csv(str(path))
        path.write_text(f"node,t,y\n0,0,1.5{sep}\r\n0,1,2.5\n", encoding="utf-8", newline="")
        assert read_panel_csv(str(path)).y.tolist() == [[1.5, 2.5]]


class TestEncoding:
    @pytest.mark.parametrize("row", [1, 3, 2 * C + 2], ids=["header", "row-3", "third-chunk"])
    def test_a_byte_that_is_not_utf8_is_a_data_error_naming_its_row(self, tmp_path, row):
        lines = [line.encode() for line in edge_lines()[: 3 * C]]
        lines[row - 1] += b"\xff"
        path = tmp_path / "edges.csv"
        path.write_bytes(b"\r".join(lines[:2]) + b"\r" + b"\r\n".join(lines[2:]))
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: row {row}: not UTF-8: "
                                             r"'utf-8' codec can't decode byte 0xff"):
            read_edge_csv(str(path), n_nodes=200)

    def test_utf8_text_outside_the_read_columns_is_accepted(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,note\n0,1,caf\u00e9\n1,2,\u2603\n", encoding="utf-8")
        assert read_edge_csv(str(path)).adjacency.sum() == 4


class TestHeader:
    @pytest.mark.parametrize("header", ["node, t, y, z1", " node ,\tt,y , z1 "])
    def test_panel_fields_may_carry_surrounding_spaces(self, tmp_path, header):
        lines = panel_lines(n=5, t_len=4, p=1)
        assert lines[0] == "node,t,y,z1"
        expected = read_panel_csv(str(_write(tmp_path / "plain.csv", lines)))
        back = read_panel_csv(str(_write(tmp_path / "spaced.csv", [header, *lines[1:]])))
        assert back.y.tobytes() == expected.y.tobytes()
        assert back.z.tobytes() == expected.z.tobytes()

    @pytest.mark.parametrize("header", ["src, dst", " src\t, dst "])
    def test_edge_fields_may_carry_surrounding_spaces(self, tmp_path, header):
        lines = edge_lines(n=20)
        expected = read_edge_csv(str(_write(tmp_path / "plain.csv", lines))).adjacency
        back = read_edge_csv(str(_write(tmp_path / "spaced.csv", [header, *lines[1:]]))).adjacency
        assert (back != expected).nnz == 0


class TestRowOf:
    def test_counts_data_lines_past_blanks_and_stops_at_the_last(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("not,a,checked,header\n0,1\n\n  \n2,3\r\n4,5\n", newline="")
        assert [csvio.row_of(str(path), j) for j in range(3)] == [
            f"{path}: row {r}" for r in (2, 5, 6)
        ]
        with pytest.raises(IndexError):
            csvio.row_of(str(path), 3)
