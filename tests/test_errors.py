import json

import pytest

from enarkit.errors import NUMBER, DataError, check_type, load_json


class TestCheckType:
    def test_names_the_first_bad_element_of_a_long_list(self):
        values = list(range(10_000))
        values[7_000] = True
        values[9_000] = "x"
        with pytest.raises(DataError, match=r"^key 'v' element 7000 has type bool, expected int$"):
            check_type(values, [(int,)], "key 'v'")

    def test_element_subclasses_pass(self):
        class Tagged(float):
            pass

        values = [1, Tagged(2.5)]
        assert check_type(values, [NUMBER], "v") is values

    def test_nested_lists_name_both_positions(self):
        rows = [[1.0, 2], [3.0, 4.0], [5.0, None]]
        with pytest.raises(DataError, match=r"^rows element 2 element 1 has type NoneType"):
            check_type(rows, [[NUMBER]], "rows")
        with pytest.raises(DataError, match=r"^rows element 1 has type float, expected list$"):
            check_type([[1.0], 2.0], [[NUMBER]], "rows")
        assert check_type([], [[NUMBER]], "rows") == []


class TestLoadJson:
    def test_reads_an_object(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": [1, 2]}))
        assert load_json(str(path)) == {"n": [1, 2]}

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "the top level has type list, expected dict"),
        ('{"n": 1,\n', "invalid JSON at line 2: Expecting property name"),
    ])
    def test_rejects_with_a_data_error_naming_the_file(self, tmp_path, text, message):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{path}: {message}"):
            load_json(str(path))

    def test_unreadable_file_raises_its_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_json(str(tmp_path / "missing.json"))
