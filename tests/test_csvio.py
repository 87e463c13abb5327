import csv
import os
import struct

import numpy as np
import pytest

from enarkit.csvio import write_table


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
