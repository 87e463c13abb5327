import json

import pytest

from enarkit.errors import NUMBER, DataError, check_type, load_json, write_json


class TestCheckType:
    def test_names_the_first_bad_element_of_a_long_list(self):
        values = list(range(10_000))
        values[7_000] = True
        values[9_000] = "x"
        with pytest.raises(DataError, match=r"^key 'v' element 7000 has type bool, expected int$"):
            check_type(values, [(int,)], "key 'v'")

    def test_names_the_first_non_finite_element_of_a_long_list(self):
        values = [float(i) for i in range(10_000)]
        values[6_000] = float("-inf")
        values[8_000] = float("nan")
        with pytest.raises(DataError, match=r"^key 'v' element 6000 is -inf, not a finite number$"):
            check_type(values, [NUMBER], "key 'v'")

    @pytest.mark.parametrize("value, shown", [
        (float("nan"), "nan"), (float("inf"), "inf"), (-float("inf"), "-inf"),
        (10**400, "an integer beyond the double range"),
        (-(2**1024), "an integer beyond the double range"),
    ])
    def test_a_number_must_be_finite_in_a_double(self, value, shown):
        with pytest.raises(DataError, match=f"^key 'x' is {shown}, not a finite number$"):
            check_type(value, NUMBER, "key 'x'")
        with pytest.raises(DataError, match=f"^key 'x' element 1 element 0 is {shown}, "):
            check_type([[1.0], [value]], [[NUMBER]], "key 'x'")

    def test_an_integer_spec_takes_any_integer(self):
        assert check_type(10**400, (int,), "seed") == 10**400
        assert check_type(1.7976931348623157e308, NUMBER, "x") == 1.7976931348623157e308
        assert check_type(-(2**1023), NUMBER, "x") == -(2**1023)

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


class TestWriteJson:
    def reject(self, constant):
        raise ValueError(f"{constant} is not JSON")

    def test_keys_indented_and_latent_last_one_row_per_line(self, tmp_path):
        path = tmp_path / "f.json"
        write_json(str(path), {"latent": [[1.0, 2.5], [3.0, -4.0]], "a": 1, "b": {"c": None}})
        assert path.read_text() == (
            '{\n  "a": 1,\n  "b": {\n    "c": null\n  },\n'
            '  "latent": [\n    [1.0, 2.5],\n    [3.0, -4.0]\n  ]\n}\n'
        )

    @pytest.mark.parametrize("doc", [
        {"a": [1, 2]}, {"latent": [], "a": 1}, {"latent": [[0.1]]}, {},
    ])
    def test_loads_back_equal(self, tmp_path, doc):
        path = tmp_path / "f.json"
        write_json(str(path), doc)
        back = json.loads(path.read_text(), parse_constant=self.reject)
        assert back == doc
        assert list(back) == sorted(doc, key=lambda key: key == "latent")  # latent last

    @pytest.mark.parametrize("doc", [{"a": float("nan")}, {"latent": [[1.0, float("inf")]]}])
    def test_non_finite_number_raises_and_writes_nothing(self, tmp_path, doc):
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(str(tmp_path / "f.json"), doc)
        assert list(tmp_path.iterdir()) == []
