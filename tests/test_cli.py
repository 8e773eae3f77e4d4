import ast
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcslab import derived_conditions
from lcslab.builtin_manifolds import family
from lcslab.cli import USAGE, LoadError, UsageError, _sample_value, build_manifold, help_text, load, main, read_argv
from lcslab.curvature import CurvatureStack
from lcslab.symexpr import MAX_TERMS

from conftest import SRC, reference_arg_parser

# the reference manifold, written to a file under another name
EXAMPLE_DEF = dict(family("lcs", 3), name="ref-from-file")

# sha256 of each `lcslab <command> <built-in> --json` report.  Every scalar is
# canonical, so a rewrite of the engine must reproduce these byte for byte;
# re-record them only for a deliberate change of the reports.
REPORT_DIGESTS = {
    ("check-lcs", "example51"): "3c90c7bf27151e30e5ae50ca10a8bcc052f229f9394c1a58ffd7a050c8299062",
    ("check-lcs", "flat3"): "20154550bc6fa15644a838a6ea4371391d534f741a7dc18cf58ee284b6acb7c0",
    ("check-lcs", "desitter3"): "803d65ec0a2f2ca2f0f459d11ed7dcf49a81a87dc44141b7197adb65d4bc8548",
    ("curvature", "example51"): "009b3bc3dc213267f0d395e4866ce38beb9462de4bf4ec30ce59fdb820ae9f8e",
    ("curvature", "flat3"): "09c6c90faf6b461e6229673ad9cb6bab2379d677aa7882f70d315ae93e08d703",
    ("curvature", "desitter3"): "6cbc8d2c3a9e2f31592176ccdd3bd6786e6ebabf76bfd23252be8f85e5db11fa",
    ("fit SGR", "example51"): "2094969695431e63e57c26c58612356968890f01383622703def43ff93d0ac84",
    ("fit SGR", "flat3"): "fbf372f2f85a8dcd4f110cc5cd313b9ba7665f193d767922bebabd79c911ecb6",
    ("fit SGR", "desitter3"): "70f0d92859ef37ab7918f2df8cfe92b8f91076d2e500fe98ca5ffc63bd76ca60",
    ("fit SGRR", "example51"): "f1ea5cd24c9ec952854a48922c5fc5bfc1b1f0f2d83ad4b2bd5d12a87c6c17d4",
    ("fit SGRR", "flat3"): "3bc26d198393f38cfab5f3aa6598fb5953087c3f4023c98e3c81fd7246514c2f",
    ("fit SGRR", "desitter3"): "9c3d9c4e5dfc0b46e5474e62bab50120699facdb63cca4bb0f404cb7d96d1d43",
    ("soliton", "example51"): "b64314eb69ddb195dd48c42972b846d0e1258251fb11cffc52e4058c32273089",
    ("soliton", "flat3"): "277b910cb2d2e1cf91101dc53a4bf5129b0d56a0858b726687411d5f65181677",
    ("soliton", "desitter3"): "75c96427cd15d47b0157c2f9682789324836fa539f1a646db089dd8b27fce5f8",
    ("derived-conditions", "example51"): "1523fd6ffaf3c4af41c9ed85fcd3ff091b44536c57b5df750ce1943f38eb961c",
    ("derived-conditions", "flat3"): "fab87410681eb9f5b76dd7d88300f4f1483cc52f5f751b81dceab73ef31318f7",
    ("derived-conditions", "desitter3"): "4b32f2c2d84006f38501e1df73263b7f25208ecc8a7cba0c861cd114db4d8aa9",
    ("conformance", "example51"): "64ad8e7f2e53e2163766b8107c56cbb12b834a87cce4f4c75ac01b4932d0baa0",
}
# built-ins a command refuses with exit 2 and no report: the published
# tables conformance compares with describe example51 alone
REFUSED = {("conformance", "flat3"), ("conformance", "desitter3")}


def write_def(tmp_path, payload, name="def.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestLoad:
    def test_builtin(self):
        defn = load("example51")
        assert defn.xi == 3 and len(defn.coords) == 3

    def test_file_equivalent_to_builtin(self, tmp_path, example51):
        data = build_manifold(load(write_def(tmp_path, EXAMPLE_DEF)))
        assert data.brackets == example51.brackets
        assert data.connection.gamma == example51.connection.gamma

    def test_missing_file(self):
        with pytest.raises(LoadError, match="built-in"):
            load("no-such-def.json")

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n "coords": [,]\n}', encoding="utf-8")
        with pytest.raises(LoadError, match="line 2"):
            load(str(path))

    def test_unknown_variable_reported_with_location(self, tmp_path):
        payload = dict(EXAMPLE_DEF, frame=[["z*w", "z*y", "0"], ["0", "z", "0"], ["0", "0", "1"]])
        path = tmp_path / "pretty.json"
        path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
        with pytest.raises(LoadError, match=r"'w'.*line \d+"):
            build_manifold(load(str(path)))

    def test_non_string_cell_reported_with_location(self, tmp_path):
        payload = dict(EXAMPLE_DEF, frame=[["z*x", "z*y", 0], ["0", "z", "0"], ["0", "0", "1"]])
        path = tmp_path / "pretty.json"
        path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
        with pytest.raises(LoadError, match=r"^frame\[1\]\[3\] must be an expression string \(line 12\)$"):
            build_manifold(load(str(path)))

    # an object cell is found however the file spaces its tokens
    @pytest.mark.parametrize("layout, line", [({"separators": (",", ":")}, 1), ({"indent": 1}, 22)], ids=["compact", "indent1"])
    def test_object_cell_reported_with_location(self, tmp_path, layout, line):
        payload = dict(EXAMPLE_DEF, frame=[["z*x", "z*y", "0"], ["0", "z", "0"], ["0", "0", {"a": 1}]])
        path = tmp_path / "def.json"
        path.write_text(json.dumps(payload, **layout), encoding="utf-8")
        with pytest.raises(LoadError, match=rf"^frame\[3\]\[3\] must be an expression string \(line {line}\)$"):
            build_manifold(load(str(path)))

    def test_family_up_to_the_cap(self):
        defn = load("desitter12")
        assert defn.coords == [f"x{i}" for i in range(1, 12)] + ["t"] and defn.xi == 12
        assert build_manifold(defn).name == "desitter12"

    # a name too long to stat is still "no such file", quoted briefly
    @pytest.mark.parametrize("name", ["lcs2", "lcs04", "lcs13", "desitter", "lcsx", pytest.param("lcs" + "3" * 300, id="lcs3x300")])
    def test_bad_family_name_is_two(self, capsys, name):
        assert main(["check-lcs", name]) == 2
        err = capsys.readouterr().err
        assert "lcs<N> and desitter<N> with N from 3 to 12" in err and len(err) < 300

    def test_singular_frame(self, tmp_path):
        payload = dict(EXAMPLE_DEF, frame=[["z*x", "0", "0"], ["z*x", "0", "0"], ["0", "0", "1"]])
        with pytest.raises(LoadError, match="singular"):
            build_manifold(load(write_def(tmp_path, payload)))

    def test_degenerate_at_sample(self, tmp_path):
        payload = dict(EXAMPLE_DEF, metric=[["1", "0", "0"], ["0", "z - 2", "0"], ["0", "0", "-1"]])
        with pytest.raises(LoadError, match="degenerate"):
            build_manifold(load(write_def(tmp_path, payload)))

    def test_non_lorentzian(self, tmp_path):
        payload = dict(EXAMPLE_DEF, metric=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
        with pytest.raises(LoadError, match="signature"):
            build_manifold(load(write_def(tmp_path, payload)))

    def test_bad_xi_index(self, tmp_path):
        payload = dict(EXAMPLE_DEF, xi=4)
        with pytest.raises(LoadError, match="xi"):
            load(write_def(tmp_path, payload))

    def test_metric_lower_triangle_optional(self, tmp_path, example51):
        payload = dict(
            EXAMPLE_DEF,
            metric=[["1", "0", "0"], [None, "1", "0"], [None, None, "-1"]],
        )
        data = build_manifold(load(write_def(tmp_path, payload)))
        assert data.metric.g == example51.metric.g

    def test_metric_short_rows(self, tmp_path, example51):
        payload = dict(EXAMPLE_DEF, metric=[["1", "0", "0"], ["1", "0"], ["-1"]])
        data = build_manifold(load(write_def(tmp_path, payload)))
        assert data.metric.g == example51.metric.g

    def test_textually_asymmetric_but_equal(self, tmp_path):
        payload = dict(
            EXAMPLE_DEF,
            metric=[["1", "x + x", "0"], ["2*x", "1", "0"], ["0", "0", "-1"]],
            sample_point={"x": "1/8"},
        )
        data = build_manifold(load(write_def(tmp_path, payload)))
        assert data.metric.g[0][1] == data.chart.parse("2*x")

    def test_asymmetric_metric_rejected(self, tmp_path):
        payload = dict(
            EXAMPLE_DEF,
            metric=[["1", "x", "0"], ["y", "1", "0"], ["0", "0", "-1"]],
        )
        with pytest.raises(LoadError, match="differ"):
            build_manifold(load(write_def(tmp_path, payload)))

    def test_sample_override(self, tmp_path):
        payload = dict(EXAMPLE_DEF, metric=[["1", "0", "0"], ["0", "z - 2", "0"], ["0", "0", "-1"]])
        path = write_def(tmp_path, payload)
        data = build_manifold(load(path, {"z": "3"}))
        assert data.name == "ref-from-file"


class TestExitCodes:
    def test_conformance_passes(self, capsys):
        assert main(["conformance"]) == 0
        out = capsys.readouterr().out
        assert "mismatch" in out

    def test_conformance_needs_the_reference_coordinates(self, capsys):
        assert main(["conformance", "lcs4"]) == 2
        assert "x, y, z" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change",
        [
            lambda d: d["frame"][1].__setitem__(1, "2*z"),
            lambda d: d["metric"][0].__setitem__(0, "2"),
            lambda d: d.__setitem__("xi", 2),
        ],
        ids=["frame", "metric", "xi"],
    )
    def test_conformance_needs_the_reference_manifold(self, tmp_path, capsys, change):
        payload = json.loads(json.dumps(EXAMPLE_DEF))
        change(payload)
        assert main(["conformance", write_def(tmp_path, payload)]) == 2
        assert "example51" in capsys.readouterr().err

    def test_conformance_accepts_the_reference_under_any_name(self, tmp_path, capsys):
        assert main(["conformance", write_def(tmp_path, EXAMPLE_DEF)]) == 0

    def test_check_lcs_flat_fails(self, capsys):
        assert main(["check-lcs", "flat3"]) == 1

    def test_load_error_is_two(self, capsys):
        assert main(["check-lcs", "missing.json"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, key",
        # bool is an int subclass; a JSON number is not an expression string
        [
            ({"xi": True}, "xi"),
            ({"frame": [["z*x", "z*y", 0], ["0", "z", "0"], ["0", "0", "1"]]}, "frame"),
            ({"sample_point": ["x"]}, "sample_point"),
            ({"sample_point": 5}, "sample_point"),
            ({"metric": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}, "metric[3][3]"),
            ({"metric": [["1", "0", "0"], [None, "1", True], [None, None, "-1"]]}, "metric[2][3]"),
            ({"metric": [["1", "0", {"a": 1}], ["0", "1", "0"], [None, "0", "-1"]]}, "metric[1][3]"),
            # "forms" is not a definition key: it is written to the --forms file
            ({"forms": {"A": ["0", 0, "0"], "B": ["0", "0", "0"]}}, "A[2]"),
            ({"name": [1, 2]}, "'name'"),
            ({"frame": [["z*x", "z*y", 0], ["0", "z", "0"], ["0", "0", "1"]]}, "frame[1][3]"),
            # falsy values are not a missing sample point either
            ({"sample_point": []}, "sample_point"),
            ({"sample_point": 0}, "sample_point"),
            ({"sample_point": False}, "sample_point"),
            ({"sample_point": ""}, "sample_point"),
        ],
    )
    def test_malformed_cell_is_two(self, tmp_path, capsys, change, key):
        change = dict(change)
        forms = change.pop("forms", None)
        path = write_def(tmp_path, dict(EXAMPLE_DEF, **change))
        argv = ["check-lcs", path]
        if forms is not None:
            argv = ["check", "SGRR", path, "--forms", write_def(tmp_path, forms, "forms.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        # "must be": rejected for its type, not read as the text of an expression
        assert "error:" in err and key in err and "must be" in err and "Traceback" not in err

    def test_null_sample_point_is_no_sample_point(self, tmp_path):
        assert main(["check-lcs", write_def(tmp_path, dict(EXAMPLE_DEF, sample_point=None))]) == 0

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([EXAMPLE_DEF], "definition must be a JSON object"),
            (dict(EXAMPLE_DEF, coords=["x", "y", "x"]), "duplicate coordinate names"),
            (dict(EXAMPLE_DEF, frame=[["z*x", "z*y", "0"], ["0", "z", "0"]]), "'frame' must be a 3x3 array"),
            (dict(EXAMPLE_DEF, frame=[["z*x", "z*y"], ["0", "z"], ["0", "0"]]), "'frame' must be a 3x3 array"),
            (dict(EXAMPLE_DEF, metric=[["1", "0", "0"], ["0", "1", "0"]]), "'metric' must have 3 rows"),
            (
                dict(EXAMPLE_DEF, metric=[["1", "0", "0"], ["1"], ["-1"]]),
                "metric row 2 must be a list of 3 entries (or 2 from the diagonal)",
            ),
            (
                dict(EXAMPLE_DEF, metric=[["1", None, "0"], [None, "1", "0"], ["0", "0", "-1"]]),
                "metric entry (1,2) is missing",
            ),
        ],
        ids=["not-object", "duplicate-coords", "frame-rows", "frame-row-length", "metric-rows", "metric-row-length", "metric-missing"],
    )
    def test_bad_shape_is_two(self, tmp_path, capsys, payload, message):
        assert main(["check-lcs", write_def(tmp_path, payload)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "Traceback" not in err

    def test_huge_bad_cell_is_quoted_briefly(self, tmp_path, capsys):
        cell = "(" * 5000 + "x" + ")" * 5000
        frame = [[cell, "z*y", "0"], ["0", "z", "0"], ["0", "0", "1"]]
        path = write_def(tmp_path, dict(EXAMPLE_DEF, frame=frame))
        assert main(["curvature", path]) == 2
        err = capsys.readouterr().err
        assert "frame[1][1]" in err and f"... ({len(cell)} characters) (line 1)" in err
        assert len(err.encode()) < 1024 and "Traceback" not in err

    def test_oversized_cell_is_two_at_once(self, tmp_path, capsys):
        # expanded, the power alone has 12,341 terms; the parser refuses it unbuilt
        frame = [["(x+y+z+1)^40/(x-y)^40", "z*y", "0"], ["0", "z", "0"], ["0", "0", "1"]]
        path = write_def(tmp_path, dict(EXAMPLE_DEF, frame=frame))
        start = time.perf_counter()
        assert main(["curvature", path]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert "frame[1][1]" in err and f"larger than {MAX_TERMS} terms" in err and "Traceback" not in err

    def test_engine_fault_is_three(self, monkeypatch, capsys):
        def boom(*args):
            raise RuntimeError("stack failed\nsecond line")

        monkeypatch.setattr(CurvatureStack, "compute", classmethod(boom))
        assert main(["curvature", "example51", "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError: 'stack failed\\nsecond line'\n"

    def test_xi_identity_fault_is_three(self, monkeypatch, capsys):
        # derived-conditions reads the structure before the identity, so an
        # error raised inside the identity is an engine fault, never a report
        def boom(*args):
            raise ValueError("inexact polynomial division")

        monkeypatch.setattr(derived_conditions, "nabla_r_xi_identity", boom)
        assert main(["derived-conditions", "example51", "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: ValueError: 'inexact polynomial division'\n"

    def test_interrupt_propagates(self, monkeypatch):
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(CurvatureStack, "compute", classmethod(interrupt))
        with pytest.raises(KeyboardInterrupt):
            main(["curvature", "example51"])

    @pytest.mark.parametrize(
        "cell, message",
        [
            ("z*x +", "expected a number, variable, '(' or '-' (at position 5)"),
            ("(x", "expected ')' (at position 2)"),
            ("0^-1", "zero raised to a negative power (at position 2)"),
        ],
        ids=["trailing-operator", "unclosed-parenthesis", "zero-to-a-negative-power"],
    )
    def test_short_bad_cell_is_quoted_whole(self, tmp_path, capsys, cell, message):
        frame = [[cell, "z*y", "0"], ["0", "z", "0"], ["0", "0", "1"]]
        path = write_def(tmp_path, dict(EXAMPLE_DEF, frame=frame))
        assert main(["curvature", path]) == 2
        assert capsys.readouterr().err == f"error: frame[1][1]: {message} in {cell!r} (line 1)\n"

    def test_bad_non_ascii_cell_gives_its_line(self, tmp_path, capsys):
        # written unescaped, the cell is not in the file as json.dumps spells
        # it ("z\u00e9+"), so its line is found from its own text
        frame = [["z*x", "z*y", "0"], ["0", "z\u00e9+", "0"], ["0", "0", "1"]]
        path = tmp_path / "def.json"
        text = json.dumps(dict(EXAMPLE_DEF, frame=frame), ensure_ascii=False, indent=1)
        path.write_text(text, encoding="utf-8")
        line = next(i for i, row in enumerate(text.splitlines(), 1) if '"z\u00e9+"' in row)
        assert line > 1
        assert main(["curvature", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: frame[2][2]: unknown variable 'z\u00e9' (at position 0) in 'z\u00e9+' (line {line})\n"

    @pytest.mark.parametrize("option, text, position", [("--p", "x+", 2), ("--lambda", "(", 1)], ids=["p", "lambda"])
    def test_bad_soliton_expression_is_two(self, capsys, option, text, position):
        assert main(["soliton", "example51", option, text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad {option} expression: expected a number, variable, '(' or '-' (at position {position})\n"

    # a superscript two is a digit to str.isdigit, but int refuses it: each
    # entry point that parses an expression refuses it as a load error
    @pytest.mark.parametrize(
        "where, message",
        [
            ("frame-cell", "error: frame[1][3]: unexpected '\u00b2' (at position 1) in '2\u00b2' (line 1)\n"),
            ("forms-cell", "A[2]: expected an integer (at position 2) in 'x^\u00b2' (line 1)\n"),
            ("p", "error: bad --p expression: unexpected '\u00b2' (at position 1)\n"),
            ("p-first", "error: bad --p expression: expected a number, variable, '(' or '-' (at position 0)\n"),
            ("lambda", "error: bad --lambda expression: expected an integer (at position 2)\n"),
        ],
    )
    def test_non_decimal_digit_is_two(self, tmp_path, capsys, where, message):
        frame = [["z*x", "z*y", "2\u00b2"], ["0", "z", "0"], ["0", "0", "1"]]
        forms = write_def(tmp_path, {"A": ["0", "x^\u00b2", "0"], "B": ["0", "0", "0"]}, "forms.json")
        argv = {
            "frame-cell": ["curvature", write_def(tmp_path, dict(EXAMPLE_DEF, frame=frame))],
            "forms-cell": ["check", "SGR", "example51", "--forms", forms],
            "p": ["soliton", "example51", "--p", "3\u00b2"],
            "p-first": ["soliton", "example51", "--p", "\u00b2"],
            "lambda": ["soliton", "example51", "--lambda", "x^\u00b2"],
        }[where]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and captured.err.endswith(message)

    def test_decimal_digits_of_any_script_are_numbers(self, capsys):
        # every character str.isdecimal accepts, int accepts too: an
        # Arabic-Indic three is the number 3
        assert main(["soliton", "example51", "--lambda", "\u0663*x", "--json"]) == 0
        three = capsys.readouterr().out
        assert main(["soliton", "example51", "--lambda", "3*x", "--json"]) == 0
        assert capsys.readouterr().out == three

    @pytest.mark.parametrize("where", ["frame-cell", "forms-entry", "coords", "sample-point", "sample-value", "sample-option"])
    def test_huge_name_is_quoted_briefly(self, tmp_path, capsys, where):
        name = "q" * 10001
        frame = [[name, "z*y", "0"], ["0", "z", "0"], ["0", "0", "1"]]
        forms = tmp_path / "forms.json"
        forms.write_text(json.dumps({"A": ["0", name, "0"], "B": ["0", "0", "0"]}), encoding="utf-8")
        argv = {
            "frame-cell": ["curvature", write_def(tmp_path, dict(EXAMPLE_DEF, frame=frame))],
            "forms-entry": ["check", "SGRR", "example51", "--forms", str(forms)],
            "coords": ["curvature", write_def(tmp_path, dict(EXAMPLE_DEF, coords=["x", "y", "1" + name]))],
            "sample-point": ["curvature", "example51", "--sample", name + "=2"],
            "sample-value": ["curvature", "example51", "--sample", "x=" + name],
            "sample-option": ["curvature", "example51", "--sample", name],
        }[where]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "characters)" in err
        assert len(err.encode()) < 1024 and "Traceback" not in err

    @pytest.mark.parametrize(
        "case", ["definition-not-utf8", "definition-is-directory", "forms-entries-not-array", "forms-not-utf8"]
    )
    def test_unreadable_input_is_two(self, tmp_path, capsys, case):
        not_utf8 = tmp_path / "latin1.json"
        not_utf8.write_bytes(json.dumps(dict(EXAMPLE_DEF, name="café"), ensure_ascii=False).encode("latin-1"))
        forms = tmp_path / "forms.json"
        forms.write_text(json.dumps({"A": 5, "B": ["0", "0", "0"]}), encoding="utf-8")
        argv = {
            "definition-not-utf8": ["check-lcs", str(not_utf8)],
            "definition-is-directory": ["check-lcs", str(tmp_path)],
            "forms-entries-not-array": ["check", "SGRR", "example51", "--forms", str(forms)],
            "forms-not-utf8": ["check", "SGRR", "example51", "--forms", str(not_utf8)],
        }[case]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "command",
        [["check-lcs"], ["curvature"], ["fit", "SGR"], ["fit", "SGRR"], ["soliton"], ["derived-conditions"], ["conformance"]],
    )
    def test_one_dimensional_definition_is_two(self, tmp_path, capsys, command):
        path = write_def(tmp_path, {"coords": ["t"], "frame": [["1"]], "metric": [["-1"]], "xi": 1})
        assert main([*command, path]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "coords" in err and "Traceback" not in err

    def test_check_with_forms(self, tmp_path, capsys):
        forms = tmp_path / "forms.json"
        forms.write_text(json.dumps({"A": ["0", "0", "0"], "B": ["0", "0", "0"]}), encoding="utf-8")
        assert main(["check", "SGRR", "flat3", "--forms", str(forms)]) == 0
        assert main(["check", "SGRR", "example51", "--forms", str(forms)]) == 1

    def test_bad_forms_file(self, tmp_path, capsys):
        forms = tmp_path / "forms.json"
        forms.write_text(json.dumps({"A": ["0"]}), encoding="utf-8")
        assert main(["check", "SGRR", "example51", "--forms", str(forms)]) == 2
        forms.write_text(json.dumps({"A": ["0", "0", "0"], "B": ["0", "0"]}), encoding="utf-8")
        assert main(["check", "SGR", "example51", "--forms", str(forms)]) == 2
        assert "'A' and 'B' must each have 3 entries" in capsys.readouterr().err

    def test_every_bad_forms_entry_is_named(self, tmp_path, capsys):
        forms = tmp_path / "forms.json"
        forms.write_text(json.dumps({"A": ["0", "w", 0], "B": ["0", "0", "0"]}), encoding="utf-8")
        assert main(["check", "SGRR", "example51", "--forms", str(forms)]) == 2
        err = capsys.readouterr().err
        assert "A[2]" in err and "A[3]" in err

    def test_check_sgr_reports_predictions(self, tmp_path, capsys):
        forms = tmp_path / "forms.json"
        forms.write_text(json.dumps({"A": ["0", "0", "0"], "B": ["0", "0", "0"]}), encoding="utf-8")
        assert main(["check", "SGR", "desitter3", "--forms", str(forms)]) == 0
        out = capsys.readouterr().out
        assert "recurrence.SGR" in out
        assert "predictions.scalar" in out and "A(xi)" in out
        assert "predictions.opposition" in out

    def test_check_sgr_predictions_with_nonzero_forms(self, tmp_path, capsys):
        forms = write_def(tmp_path, {"A": ["x/z", "1", "2/z"], "B": ["0", "y", "1/z^2"]}, "forms.json")
        assert main(["check", "SGR", "example51", "--json", "--forms", forms]) == 1
        entries = json.loads(capsys.readouterr().out)["entries"]
        none = dict.fromkeys(("engine", "note", "published", "residual"))
        assert entries[3:] == [
            dict(
                none,
                check_id="recurrence.SGR",
                status="fail",
                title="SGR condition with the given forms",
                residual="component (1,1,2,1,2) = (-x*z^4 + x)/z^3",
                note="residual is nonzero",
            ),
            # A(xi) = 2/z: r = 2(n-1)(alpha^2-rho) - (n^2+2) B(xi)/A(xi)
            dict(
                none,
                check_id="predictions.scalar",
                status="info",
                title="predicted vs engine scalar curvature",
                engine="engine (-2*z^4 + 10)/z^2, predicted (-11*z + 16)/(2*z^2)",
                note="hypothesis residual nonzero; reported informationally",
            ),
            dict(
                none,
                check_id="predictions.opposition",
                status="info",
                title="A + (n^2/r) B",
                note="scalar curvature is not constant; the opposition relation needs a nonzero constant",
            ),
        ]
        # flat3 has alpha = 0, so there is no structure to predict from
        assert main(["check", "SGR", "flat3", "--json", "--forms", forms]) == 1
        entries = json.loads(capsys.readouterr().out)["entries"]
        assert [e["check_id"] for e in entries[3:]] == ["recurrence.SGR", "predictions"]
        assert entries[-1] == dict(
            none, check_id="predictions", status="info", title="scalar-curvature predictions", note="alpha is identically zero"
        )

    def test_check_sgpr_needs_structure(self, tmp_path, capsys):
        forms = tmp_path / "forms.json"
        forms.write_text(json.dumps({"A": ["0", "0", "0"], "B": ["0", "0", "0"]}), encoding="utf-8")
        assert main(["check", "SGPR", "flat3", "--forms", str(forms)]) == 1
        assert "concircular structure" in capsys.readouterr().out
        assert main(["check", "SGPR", "desitter3", "--forms", str(forms)]) == 0

    def test_fit_answers_without_failing(self, capsys):
        assert main(["fit", "SGRR", "example51"]) == 0
        assert "no exact solution" in capsys.readouterr().out
        assert main(["fit", "SGRR", "flat3"]) == 0

    def test_soliton_and_derived(self, capsys):
        assert main(["soliton", "example51", "--p", "0"]) == 0
        out = capsys.readouterr().out
        assert "-4/(3*z)" in out and "-2/(3*z)" in out
        assert main(["derived-conditions", "desitter3"]) == 0

    def test_soliton_explicit_lambda(self, capsys):
        assert main(["soliton", "desitter3", "--p", "0", "--lambda", "7/3"]) == 0
        assert main(["soliton", "flat3", "--lambda", "1"]) == 0

    def test_curvature_command(self, capsys):
        assert main(["curvature", "example51"]) == 0
        out = capsys.readouterr().out
        assert "scalar" in out and "self-check" in out

    def test_sample_flag(self, tmp_path, capsys):
        payload = dict(EXAMPLE_DEF, metric=[["1", "0", "0"], ["0", "z - 2", "0"], ["0", "0", "-1"]])
        path = write_def(tmp_path, payload)
        assert main(["check-lcs", path]) == 2
        assert main(["check-lcs", path, "--sample", "x=2,y=2,z=4"]) != 2

    @pytest.mark.parametrize("sample, name", [("x=2,x=3,y=2,z=2", "x"), ("x=2, y=2,z=2,y =2", "y")])
    def test_sample_naming_a_coordinate_twice_is_refused(self, capsys, sample, name):
        assert main(["curvature", "example51", "--sample", sample]) == 2
        assert f"--sample names coordinate '{name}' twice" in capsys.readouterr().err


# A sample value's load outcome: the exit code of `check-lcs` and its stderr.
# The definition's metric diag(1/z, z - 1, -1) is Lorentzian at z > 1 (the
# check then fails: the frame is not a concircular structure with this
# metric), has the wrong signature at z < 1 and a pole at z = 0.  Sample
# values are read as Fraction reads them; these outcomes, all but the text of
# the pole message, were recorded while every value still went through
# Fraction.
POLE = "x=2, y=2, z=0"
SAMPLE_OUTCOMES = {
    "2": (1, ""),
    "-3": (2, "error: metric signature at the sample point is (0,3); expected one negative and the rest positive\n"),
    "+4": (1, ""),
    " 5 ": (1, ""),
    "1/2": (2, "error: metric signature at the sample point is (1,2); expected one negative and the rest positive\n"),
    "2.5": (1, ""),
    "1e1": (1, ""),
    "0": (2, f"error: cannot evaluate metric at the sample point: denominator of 1/z vanishes at {POLE}\n"),
    "x": (2, "error: bad sample_point entry 'z': 'x'\n"),
    "1/0": (2, "error: bad sample_point entry 'z': '1/0'\n"),
    # an exponent of magnitude above 4,300 is refused before Fraction
    # expands it (1e-5000000000 would not finish)
    "1e4300": (1, ""),
    "1e-4300": (2, "error: metric signature at the sample point is (1,2); expected one negative and the rest positive\n"),
    "1e4301": (2, "error: bad sample_point entry 'z': '1e4301'\n"),
    "1E-4301": (2, "error: bad sample_point entry 'z': '1E-4301'\n"),
    "1e5000000000": (2, "error: bad sample_point entry 'z': '1e5000000000'\n"),
    "1e-5000000000": (2, "error: bad sample_point entry 'z': '1e-5000000000'\n"),
}


@pytest.mark.parametrize("value", list(SAMPLE_OUTCOMES))
@pytest.mark.parametrize("given", ["sample_point", "--sample"])
def test_sample_value_grammar_is_fractions(tmp_path, capsys, value, given):
    # an ASCII integer is read by int, anything else by Fraction: either
    # way a value loads, or is refused, exactly as Fraction alone did, up
    # to the bound on the exponent
    payload = dict(EXAMPLE_DEF, metric=[["1/z", "0", "0"], ["0", "z - 1", "0"], ["0", "0", "-1"]])
    if given == "sample_point":
        code = main(["check-lcs", write_def(tmp_path, dict(payload, sample_point={"z": value}))])
    else:
        code = main(["check-lcs", write_def(tmp_path, payload), "--sample", f"z={value}"])
    assert (code, capsys.readouterr().err) == SAMPLE_OUTCOMES[value]


# texts around the integer grammar: a lone or doubled sign, non-ASCII digits,
# '_', spaces and a trailing newline, and texts only Fraction reads
@pytest.mark.parametrize(
    "text",
    ["7", "+7", "-07", "0", "12345678901234567890", "+", "-", "", "+-1", "--1", "1_000", "٣", "-٣", "²", "７"]
    + ["7\n", " 7", "7 ", "\n", "1.0", "1e3", "1/2", "-1/2", "0x10", "+ 7"],
)
def test_integer_sample_values_skip_fractions(monkeypatch, text):
    # the model: the pattern the integer path matched before its str tests;
    # a text it matches is read by int, with no import of fractions
    integer = re.fullmatch(r"[+-]?[0-9]+", text) is not None
    monkeypatch.setitem(sys.modules, "fractions", None)  # importing it raises ImportError
    try:
        value = _sample_value(text)
    except ImportError:
        assert not integer
    else:
        assert integer and value == (int(text), 1)


class TestJsonReports:
    def test_json_structure(self, capsys):
        assert main(["conformance", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "conformance"
        statuses = {e["status"] for e in payload["entries"]}
        assert statuses == {"pass", "info", "mismatch"}
        ids = [e["check_id"] for e in payload["entries"]]
        for expected in (
            "bracket.12",
            "bracket.13",
            "bracket.23",
            "connection.11",
            "connection.33",
            "riemann.122",
            "ricci.11",
            "ricci.22",
            "ricci.33",
            "nabla-ricci.1",
            "nabla-ricci.3",
            "forms.fit",
            "recurrence.SGRR",
            "axioms",
        ):
            assert expected in ids, expected
        by_id = {e["check_id"]: e for e in payload["entries"]}
        assert by_id["ricci.33"]["status"] == "pass"
        assert by_id["ricci.11"]["status"] == "mismatch"
        assert by_id["ricci.11"]["published"] == "-(z^2 + 1/z^2)"
        assert by_id["ricci.11"]["engine"] is not None
        assert by_id["recurrence.SGRR"]["status"] == "mismatch"
        assert by_id["axioms"]["status"] == "pass"
        counts = payload["summary"]
        assert counts["fail"] == 0 and counts["mismatch"] == 7

    def test_conformance_connection_and_curvature_all_pass(self, capsys):
        main(["conformance", "--json"])
        payload = json.loads(capsys.readouterr().out)
        conn = [e for e in payload["entries"] if e["check_id"].startswith("connection.")]
        curv = [e for e in payload["entries"] if e["check_id"].startswith("riemann.")]
        brackets = [e for e in payload["entries"] if e["check_id"].startswith("bracket.")]
        assert len(conn) == 9 and all(e["status"] == "pass" for e in conn)
        assert len(curv) == 6 and all(e["status"] == "pass" for e in curv)
        assert len(brackets) == 3 and all(e["status"] == "pass" for e in brackets)

    def test_byte_identical_reruns(self):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "lcslab.cli", "conformance", "--json"],
                capture_output=True,
                cwd=SRC,  # `-m` imports from the working directory, so the child runs this lcslab
                check=True,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


# standard modules no cold command loads: `argparse` (with `gettext` and
# `locale`) builds parsers the command table replaced, `dataclasses`
# compiles its methods at class creation
UNLOADED = ["argparse", "dataclasses", "gettext", "locale"]


def test_cli_import_leaves_out_dataclasses():
    # every cold command pays for what `import lcslab.cli` pulls in
    probe = f"import sys, lcslab.cli; print(sorted(set({UNLOADED!r}) & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, cwd=SRC, check=True, text=True).stdout
    assert out.strip() == "[]"
    # a typing.NamedTuple compiles a ForwardRef per field at class creation;
    # the records are collections.namedtuple subclasses.  (The interpreter's
    # site packages may load typing themselves, so the test reads the source.)
    imports = []
    for path in sorted((SRC / "lcslab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module] if isinstance(node, ast.ImportFrom) else []
            imports += [f"{path.name}: {name}" for name in names if name and name.split(".")[0] == "typing"]
    assert imports == []

# each record of the engine and the CLI, a collections.namedtuple subclass:
# its fields and defaults
RECORDS = {
    "cli.ManifoldDef": ("name coords frame metric xi sample_point source_text", {"sample_point": None, "source_text": ""}),
    "cli.ReportEntry": (
        "check_id status title engine published residual note",
        {"engine": None, "published": None, "residual": None, "note": None},
    ),
    "axioms.AxiomCheck": ("axiom description detail", {"detail": ""}),
    "frame_geometry.FrameTensor": ("valence comps dim zero", {}),
    "curvature.CurvatureStack": ("riemann13 ricci q_operator scalar", {}),
    "levi_civita.ConnectionCoeffs": ("frame gamma", {}),
    "conditions.RecurrenceForms": ("a b", {}),
    "conditions.NoSolution": ("direction component needed detail", {}),
    "conditions.SgrPredictions": ("r_predicted r_note opposition opposition_note", {}),
    "einstein.ClassifierVerdict": ("kind a b", {"a": None, "b": None}),
    "derived_conditions.DerivedConditions": (
        "rxm cxs guard_rxm guard_cxs mproj_xi_residual einstein_from_rxm einstein_from_cxs",
        {},
    ),
    "lcs_structure.LcsStructure": ("xi eta phi alpha rho beta", {}),
}


@pytest.mark.parametrize("record", list(RECORDS))
def test_record_keeps_its_fields_and_defaults(record):
    module, name = record.split(".")
    cls = getattr(importlib.import_module(f"lcslab.{module}"), name)
    fields, defaults = RECORDS[record]
    fields = tuple(fields.split())
    assert (cls._fields, cls._field_defaults) == (fields, defaults)
    given = tuple(range(len(fields) - len(defaults)))
    value = cls(*given)
    assert value == given + tuple(defaults.values())
    assert value._asdict() == dict(zip(fields, value))
    assert value._replace(**{fields[0]: "x"}) == ("x", *value[1:])
    assert not hasattr(value, "__dict__")  # __slots__ = (): no per-record dict


# the modules of lcslab every command loads
CORE_MODULES = {
    "",
    "_poly_py",
    "cli",
    "curvature",
    "frame_geometry",
    "levi_civita",
    "manifold",
    "polyops",
    "symexpr",
}
# a definition given by a name that could be a built-in loads the table
BUILTINS = {"builtin_manifolds"}


# case -> (arguments, exit code, the modules it loads besides CORE_MODULES)
COMMAND_IMPORTS = {
    "curvature": (["curvature", "example51"], 0, BUILTINS | {"cmd_curvature", "self_checks"}),
    "curvature-file": (["curvature", "DEF"], 0, {"cmd_curvature", "self_checks"}),
    "check-lcs": (["check-lcs", "example51"], 0, BUILTINS | {"cmd_check_lcs", "lcs_structure", "axioms", "einstein"}),
    "check": (
        ["check", "SGR", "example51", "--forms", "FORMS"],
        1,
        BUILTINS | {"cmd_check", "conditions", "einstein", "lcs_structure"},
    ),
    "fit": (["fit", "SGR", "example51"], 0, BUILTINS | {"cmd_fit", "conditions", "einstein"}),
    "fit-file": (["fit", "SGRR", "DEF"], 0, {"cmd_fit", "conditions", "einstein"}),
    "soliton": (["soliton", "example51"], 0, BUILTINS | {"cmd_soliton", "lcs_structure", "soliton"}),
    "derived-conditions": (
        ["derived-conditions", "example51"],
        0,
        BUILTINS | {"cmd_derived_conditions", "derived_conditions", "einstein", "lcs_structure"},
    ),
    "conformance": (
        ["conformance", "example51"],
        0,
        BUILTINS | {"cmd_conformance", "conditions", "einstein", "lcs_structure", "axioms", "self_checks"},
    ),
}


@pytest.mark.parametrize("case", list(COMMAND_IMPORTS))
def test_command_imports_only_the_layers_it_runs(tmp_path, case):
    # a cold command compiles each module it loads: its own report module and
    # the layers it runs, and no other.  None of these loads the self-checks
    # unless it reports them, the Einstein classification or the axioms
    # unless it runs them, the heuristic GCD (_heugcd; every GCD here has a
    # zero, equal or one-term operand) or its fallback (_subresultant); a
    # definition file loads no table of built-ins; no command imports
    # fractions (with decimal and numbers) for integer sample points; and
    # none loads UNLOADED
    forms = tmp_path / "forms.json"
    forms.write_text(json.dumps({"A": ["x", "0", "1/z"], "B": ["0", "y", "1"]}), encoding="utf-8")
    definition = write_def(tmp_path, EXAMPLE_DEF)
    argv, code, extra = COMMAND_IMPORTS[case]
    argv = [{"FORMS": str(forms), "DEF": definition}.get(a, a) for a in argv]
    probe = (
        "import contextlib, io, json, sys; from lcslab.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()): code = main({[*argv, '--json']!r})\n"
        "print(code, json.dumps(sorted(m for m in sys.modules if m == 'lcslab' or m.startswith('lcslab.'))))\n"
        f"print(json.dumps(sorted({{'fractions', 'decimal', 'numbers', *{UNLOADED!r}}} & set(sys.modules))))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, cwd=SRC, check=True, text=True).stdout
    first, numbers = out.splitlines()
    exit_code, modules = first.split(maxsplit=1)
    assert int(exit_code) == code
    assert json.loads(modules) == sorted(f"lcslab.{m}" if m else "lcslab" for m in CORE_MODULES | extra)
    assert json.loads(numbers) == []


def test_module_run_refuses_like_the_console_script():
    # under `python -m lcslab.cli` a command module's load error must reach
    # main's handler (exit 2), not a second copy of the cli module (exit 3)
    done = subprocess.run(
        [sys.executable, "-m", "lcslab.cli", "conformance", "flat3"], capture_output=True, cwd=SRC, text=True
    )
    assert done.returncode == 2 and not done.stdout
    assert done.stderr.startswith("error: conformance compares with the published tables of example51")


@pytest.mark.parametrize("command, name, code", [("check-lcs", "example51", 0), ("check-lcs", "flat3", 1)])
def test_cold_command_runs_without_the_collector(command, name, code):
    # as the console script runs it: sys.argv set, main() with no arguments;
    # the cyclic collector is off for the whole command, so the run makes
    # no collection; the collector's state and its collection count are
    # read where main ends the process, and the report stays the recorded one
    probe = (
        "import gc, os, sys; from lcslab.cli import main\n"
        "collections = []\n"
        "gc.callbacks.append(lambda phase, info: phase == 'start' and collections.append(info['generation']))\n"
        "def observed_exit(code, exit=os._exit):\n"
        "    print(code, int(gc.isenabled()), len(collections), file=sys.stderr, flush=True)\n"
        "    exit(code)\n"
        "os._exit = observed_exit\n"
        f"sys.argv = ['lcslab', {command!r}, {name!r}, '--json']\n"
        "main()\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, cwd=SRC, text=True)
    assert done.returncode == code
    exit_code, enabled, collections = map(int, done.stderr.split())
    assert exit_code == code
    assert not enabled and not collections
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == REPORT_DIGESTS[(command, name)]


# Imported at the start of every child of the exit test (it is first on
# PYTHONPATH): an atexit handler that a cold command must never run, and,
# when asked, an engine fault, so that the child exits 3.
SITECUSTOMIZE = """
import atexit, os, sys

atexit.register(lambda: sys.stderr.write("atexit handler ran\\n"))
if os.environ.get("LCSLAB_TEST_FAULT"):
    from lcslab.curvature import CurvatureStack

    def boom(*args):
        raise RuntimeError("stack failed")

    CurvatureStack.compute = classmethod(boom)
"""
def stack_fails(*args):
    raise RuntimeError("stack failed")


# exit code -> the arguments of a command that ends with it
COLD_EXITS = {
    0: ["check-lcs", "example51", "--json"],
    1: ["check-lcs", "flat3"],
    2: ["check-lcs", "nosuch"],
    3: ["curvature", "example51", "--json"],
}


@pytest.mark.parametrize("code", list(COLD_EXITS))
@pytest.mark.parametrize("how", ["console-script", "module"])
def test_cold_command_exits_as_main_returns(monkeypatch, capsys, tmp_path, how, code):
    # run as the process's command, main flushes the report and ends the
    # process with os._exit: no interpreter teardown, so no atexit handler
    # runs, yet stdout, stderr and the exit code are those main(argv) gives
    # in-process.  PYTHONUNBUFFERED is dropped: a report left in the stdout
    # buffer would be lost at os._exit.
    argv = COLD_EXITS[code]
    if code == 3:
        monkeypatch.setattr(CurvatureStack, "compute", classmethod(stack_fails))
    assert main(argv) == code
    expected = capsys.readouterr()
    (tmp_path / "sitecustomize.py").write_text(SITECUSTOMIZE, encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "LCSLAB_TEST_FAULT")}
    env["PYTHONPATH"] = f"{tmp_path}{os.pathsep}{SRC}"
    if code == 3:
        env["LCSLAB_TEST_FAULT"] = "1"
    if how == "module":
        cmd = [sys.executable, "-m", "lcslab.cli", *argv]
    else:  # what the installed `lcslab` script runs
        cmd = [sys.executable, "-c", "import sys; from lcslab.cli import main; sys.exit(main())", *argv]
    done = subprocess.run(cmd, capture_output=True, cwd=SRC, env=env, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (code, expected.out, expected.err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_cold_command_whose_flush_fails_exits_as_the_interpreter_reports_it():
    # a report that fits the stdout buffer is written at the flush; when
    # that fails, the interpreter's own exit reports it (exit 120), as it
    # would without os._exit, instead of the report vanishing with exit 0
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    code = "import sys; from lcslab.cli import main; sys.exit(main())"
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-c", code, "check-lcs", "flat3"], stdout=full, stderr=subprocess.PIPE, cwd=SRC, env=env, text=True
        )
    assert done.returncode == 120
    assert "No space left on device" in done.stderr and "Traceback" not in done.stderr


def test_main_with_arguments_leaves_the_collector_alone(capsys):
    before = gc.get_freeze_count()
    assert gc.isenabled()
    assert main(["check-lcs", "example51", "--json"]) == 0
    assert gc.get_freeze_count() == before
    assert gc.isenabled()


def test_parser_offers_every_recurrence_kind():
    # RECURRENCE_KINDS is the one list of kinds: `check` offers each, `fit`
    # the two it solves, and each names a condition of its own (a kind the
    # conditions did not know would read as another's)
    from lcslab.cli import COMMANDS, RECURRENCE_KINDS
    from lcslab.conditions import _recurrence_terms

    assert (COMMANDS["check"][1], COMMANDS["fit"][1]) == (("SGR", "SGRR", "SGPR"), ("SGR", "SGRR"))
    data = build_manifold(load("example51"))
    terms = [_recurrence_terms(data, kind) for kind in RECURRENCE_KINDS]
    assert all(a != b for i, a in enumerate(terms) for b in terms[i + 1 :])


def test_json_reports_match_recorded_digests(capsys):
    changed = []
    for (command, name), digest in REPORT_DIGESTS.items():
        main([*command.split(), name, "--json"])
        out = capsys.readouterr().out
        if hashlib.sha256(out.encode()).hexdigest() != digest:
            changed.append(f"{command} {name}")
    for command, name in sorted(REFUSED):
        code = main([*command.split(), name, "--json"])
        captured = capsys.readouterr()
        if code != 2 or captured.out or "example51" not in captured.err:
            changed.append(f"{command} {name}")
    assert not changed


@pytest.mark.parametrize("command", sorted({command for command, _ in REPORT_DIGESTS}))
def test_lcs3_is_example51_under_another_name(capsys, command):
    main([*command.split(), "lcs3", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["manifold"] == "lcs3"
    payload["manifold"] = "example51"
    out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[(command, "example51")]


# -- the argv reader against the argparse parser it replaced ----------------

REFERENCE_PARSER = reference_arg_parser()

# command -> its KIND values and a value for each of its own options
ARGV_COMMANDS = {
    "check-lcs": ((), {}),
    "curvature": ((), {}),
    "check": (("SGR", "SGRR", "SGPR"), {"--forms": "f.json"}),
    "fit": (("SGR", "SGRR"), {}),
    "soliton": ((), {"--p": "-1", "--lambda": "x + 1"}),
    "derived-conditions": ((), {}),
    "conformance": ((), {}),
}


def reference_outcome(argv):
    """``vars`` of the reference parse, or how it ends: "help", "version" or
    exit status 2."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(REFERENCE_PARSER.parse_args(argv))
        except SystemExit as exc:
            return exc.code or ("version" if out.getvalue() == "lcslab 0.1.0\n" else "help")


def reader_outcome(argv):
    try:
        options = read_argv(argv)
    except UsageError:
        return 2
    return options if isinstance(options, dict) else "help" if options == help_text() else "version"


def rewritten(argv):
    """A command line the reader accepts, spelt so that the reference parser
    reads it as the reader does: -h, --help and --version before the command,
    the command, each later option (a value joined to it as --opt=value),
    then '--' and the positionals.  The reader skips any other token before
    the command, and accepts such a line only to print the help or the
    version, which that token does not change, so it is left out."""
    i = next((i for i, token in enumerate(argv) if token[:1] != "-"), len(argv))
    options = [token for token in argv[:i] if token in ("-h", "--help", "--version")] + argv[i : i + 1]
    _, own = ARGV_COMMANDS.get(argv[i] if argv[i:] else None, ((), {}))
    positionals = []
    rest = iter(argv[i + 1 :])
    for token in rest:
        if token == "--":
            positionals += rest
        elif token.startswith("--") or token == "-h":
            options.append(f"{token}={next(rest, '')}" if token in {"--sample", *own} else token)
        else:
            positionals.append(token)
    return [*options, "--", *positionals]


def expected_outcome(argv):
    """The reference's outcome where it accepts argv or the reader refuses
    it; otherwise the reference's outcome on ``rewritten(argv)``."""
    outcome = reference_outcome(argv)
    if outcome == 2 and reader_outcome(argv) != 2:
        return reference_outcome(rewritten(argv))
    return outcome


def argv_corpus():
    """Every command and kind (a bad kind, and for fit SGPR, included), with
    no, one or two positionals after the kind, none or all of its options,
    each option alone (``--opt value``) or joined (``--opt=value``), the
    options before, after or between the positionals; then the cases that
    read one token at a time."""
    corpus = []
    for command, (kinds, own) in ARGV_COMMANDS.items():
        options = {"--json": None, "--sample": "x=1,y=2", **own}
        for kind in [*kinds, "SGPR", "BAD"] if kinds else [None]:
            for definition in ([], ["lcs4"], ["lcs4", "extra"]):
                positionals = [kind] * (kind is not None) + definition
                for given in ({}, options):
                    for joined in (False, True):
                        opts = [
                            [o] if v is None else [f"{o}={v}"] if joined else [o, v] for o, v in given.items()
                        ]
                        flat = [t for o in opts for t in o]
                        corpus.append([command, *flat, *positionals])
                        corpus.append([command, *positionals, *flat])
                        # options between the positionals, the first one first
                        mixed = [command]
                        for i, p in enumerate(positionals):
                            mixed += [*opts[i], p] if i < len(opts) else [p]
                        corpus.append(mixed + [t for o in opts[len(positionals) :] for t in o])
    corpus += [
        # a positional after an option, and a value option's next token
        ["fit", "SGR", "--json", "lcs4"],
        ["check", "--forms", "f.json", "SGR", "--json", "lcs4"],
        ["soliton", "--lambda", "-1/z"],
        ["soliton", "--p", "--json"],
        ["curvature", "--sample", "--"],
        ["curvature", "--sample", "--", "lcs4"],
        # repeated options: the last value wins
        ["curvature", "--sample", "x=1", "--sample=y=2", "--json", "--json"],
        ["soliton", "--p", "1", "--p=2", "--lambda", "3", "--lambda=4"],
        ["check", "SGR", "lcs4", "--forms", "a.json", "--forms=b.json"],
        # values that look like options, and options that take no value
        ["soliton", "--p", "-1/2"],
        ["soliton", "--p", "-x + 1"],
        ["soliton", "--p=-x"],
        ["soliton", "--lambda", "-2.5"],
        # soliton has no --V option
        ["soliton", "--V", "xi"],
        ["soliton", "--V=xi"],
        ["curvature", "--sample"],
        ["curvature", "--sample", "--json"],
        ["curvature", "--sample=", "lcs4"],
        ["curvature", "--sample", "-5"],
        ["curvature", "--json=1"],
        ["curvature", "--json="],
        # unknown options, positionals that look like options
        ["curvature", "--bogus"],
        ["curvature", "--bogus=1", "lcs4"],
        ["curvature", "-x"],
        ["curvature", "-5"],
        ["curvature", "-1.5"],
        ["curvature", "-"],
        ["curvature", ""],
        ["curvature", "a b"],
        ["curvature", "--forms", "f.json"],
        ["fit", "SGR", "--forms", "f.json"],
        # the '--' marker: every later token is a positional
        ["curvature", "--"],
        ["curvature", "--", "lcs4"],
        ["curvature", "--", "--json"],
        ["curvature", "lcs4", "--"],
        ["curvature", "lcs4", "--json", "--"],
        ["curvature", "--json", "--"],
        ["curvature", "--", "lcs4", "extra"],
        ["fit", "SGR", "--", "lcs4"],
        ["fit", "--", "SGR", "lcs4"],
        ["fit", "SGR", "--"],
        ["fit", "SGR", "--json", "--"],
        ["check", "--forms", "f.json", "--", "SGR"],
        ["check", "SGR", "--forms", "--", "f.json"],
        # before the command, and no command
        [],
        ["nosuch"],
        ["--", "curvature"],
        ["--json", "curvature"],
        ["--bogus=1", "curvature"],
        ["-5", "curvature"],
        ["-1", "-h"],
        ["-", "--version"],
        ["--", "--help"],
        ["CURVATURE"],
        ["fit"],
        ["check"],
        ["check", "SGR"],
        ["check", "--forms", "f.json"],
        # help and version
        ["-h"],
        ["--help"],
        ["--version"],
        ["--version", "nosuch"],
        ["--bogus", "-h"],
        ["-x", "-h"],
        ["-h=1"],
        ["--version=1"],
        ["curvature", "-h"],
        ["curvature", "--help", "--bogus"],
        ["curvature", "a", "b", "-h"],
        ["curvature", "--version"],
        ["curvature", "--sample", "-h"],
        ["curvature", "--help=1"],
        ["check", "BAD", "-h"],
        ["check", "-h", "BAD"],
        ["check", "SGR", "-h"],
    ]
    return corpus


def test_reader_gives_the_options_of_the_reference_parser():
    # where the reference accepts a command line, the reader gives the same
    # options, help or version; where the reader accepts a line the
    # reference refuses, it reads it as the reference reads it rewritten
    corpus = argv_corpus()
    outcomes = [reference_outcome(argv) for argv in corpus]
    assert sum(isinstance(o, dict) for o in outcomes) > 200 and outcomes.count(2) > 300
    newly_read = [argv for argv, o in zip(corpus, outcomes) if o == 2 and reader_outcome(argv) != 2]
    assert len(newly_read) > 20 and all(reference_outcome(rewritten(argv)) != 2 for argv in newly_read)
    assert [(argv, reader_outcome(argv)) for argv in corpus] == [(argv, expected_outcome(argv)) for argv in corpus]


def test_a_positional_may_follow_an_option(capsys):
    assert main(["fit", "SGR", "lcs4", "--json"]) == 0
    after = capsys.readouterr().out
    assert main(["fit", "SGR", "--json", "lcs4"]) == 0
    assert capsys.readouterr().out == after
    assert json.loads(after)["manifold"] == "lcs4"


def test_a_value_option_takes_a_next_token_that_starts_with_a_dash(capsys):
    assert main(["soliton", "--lambda=-1/z"]) == 0
    joined = capsys.readouterr().out
    assert main(["soliton", "--lambda", "-1/z"]) == 0
    assert capsys.readouterr().out == joined
    assert "-1/z" in joined


# tokens a command line is drawn from: every option, alone and joined, the
# values they take, positionals and tokens that look like options (--V
# among them); none is an abbreviation of an option, and '--' comes at most
# once (argparse drops a second '--' that is the <def.json> after a KIND;
# the reader keeps it)
ARGV_TOKENS = [
    *ARGV_COMMANDS,
    "SGR",
    "SGPR",
    "BAD",
    "lcs4",
    "extra",
    "--json",
    "--json=1",
    "--sample",
    "x=1",
    "--sample=x=2",
    "--forms",
    "--forms=f.json",
    "--V",
    "xi",
    "--V=xi",
    "--p",
    "--p=-1",
    "-1",
    "--lambda",
    "-x + 1",
    "--lambda=2",
    "--bogus",
    "-x",
    "-",
    "-h",
    "--version",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(ARGV_TOKENS), max_size=7), st.none() | st.integers(0, 7))
def test_reader_agrees_with_the_reference_parser_on_drawn_command_lines(argv, marker):
    if marker is not None:
        argv.insert(marker, "--")
    assert reader_outcome(argv) == expected_outcome(argv)


def test_refused_command_lines_exit_2_with_the_usage_line(capsys):
    refused = [argv for argv in argv_corpus() if reference_outcome(argv) == reader_outcome(argv) == 2]
    for argv in refused:
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        usage, error = err.splitlines()
        assert (out, usage) == ("", USAGE) and error.startswith("lcslab: error: "), argv


@pytest.mark.parametrize("option", ["--js", "--sam=x=1", "--lam=2"])
def test_abbreviated_options_are_refused(capsys, option):
    # argparse took a unique prefix of an option for the option; the reader
    # takes only the option as written
    argv = ["soliton", option]
    assert isinstance(reference_outcome(argv), dict)
    assert main(argv) == 2
    assert capsys.readouterr().err.endswith(f"lcslab: error: unrecognized arguments: {option!r}\n")


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["fit", "--help"], ["--version"]])
def test_help_and_version_exit_0(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert not err
    assert out == ("lcslab 0.1.0\n" if argv == ["--version"] else help_text())


def test_help_is_the_readme_cli_block(capsys):
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```\n", 1)[0]
    assert main(["--help"]) == 0
    assert capsys.readouterr().out == block


# The cell fuzz: seeded draws of short cells from ASCII and non-ASCII digits
# and letters (superscripts and a Roman numeral, which str.isdigit or
# str.isalnum accept and int refuses; Arabic-Indic and fullwidth decimal
# digits, which int accepts; accented and Greek letters), each placed in
# one entry point that parses an expression.  Every outcome is a report or
# a load error, never an engine fault.
FUZZ_ALPHABET = "0123456789xyzab+-*/^() " + "²³¹Ⅷ٣１éΩ_."
FUZZ_SINKS = ("frame", "metric", "forms", "p", "lambda")


def test_fuzzed_cells_exit_0_1_or_2(tmp_path, capsys):
    rng = random.Random(40)
    forms_path = tmp_path / "forms.json"
    for draw in range(500):
        cell = "".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randint(1, 5)))
        sink = FUZZ_SINKS[draw % len(FUZZ_SINKS)]
        if sink == "frame":
            frame = [["z*x", "z*y", cell], ["0", "z", "0"], ["0", "0", "1"]]
            argv = ["check-lcs", write_def(tmp_path, dict(EXAMPLE_DEF, frame=frame))]
        elif sink == "metric":
            metric = [[cell, "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]
            argv = ["check-lcs", write_def(tmp_path, dict(EXAMPLE_DEF, metric=metric))]
        elif sink == "forms":
            forms_path.write_text(json.dumps({"A": ["0", cell, "0"], "B": ["0", "0", "0"]}), encoding="utf-8")
            argv = ["check", "SGRR", "example51", "--forms", str(forms_path)]
        else:
            argv = ["soliton", "example51", f"--{sink}", cell]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "internal error" not in err, (argv, code, err)
