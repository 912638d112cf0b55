import json
import math
import os
import subprocess
import sys
import time

import pytest

from pawncount import closedforms as cf
from pawncount import verify as vf
from pawncount.cli import main
from pawncount.decomposition import count_independent_sets, split_by_color
from pawncount.errors import (GuardExceeded, IllegalMatrix, InvalidK,
                              InvalidTiling, MatrixFormatError, NoFitFound,
                              NonConverged, NonIntegerResult, PawncountError)
from pawncount.oracle import M_SET
from pawncount.transfer import count_via_transfer


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestCount:
    def test_human_output(self, capsys):
        code, out, _ = run_cli("count", "-m", "3", "-n", "5", "--quantity", "M",
                               capsys=capsys)
        assert code == 0
        assert "M(3,5) = 2117" in out

    def test_json_record(self, capsys):
        code, out, _ = run_cli("count", "-m", "2", "-n", "3", "--quantity", "U",
                               "--json", capsys=capsys)
        assert code == 0
        record = json.loads(out)
        assert record["value"] == "36"
        assert isinstance(record["value"], str)
        assert record["quantity"] == "U"
        assert record["annotations"] == []

    def test_json_roundtrip_byte_identical(self, capsys):
        code, out, _ = run_cli("count", "-m", "4", "-n", "4", "--json",
                               capsys=capsys)
        assert code == 0
        line = out.strip()
        assert json.dumps(json.loads(line)) == line

    def test_methods_agree(self, capsys):
        values = {}
        for method in ("auto", "oracle", "transfer", "closed", "decomposition"):
            code, out, _ = run_cli("count", "-m", "4", "-n", "3",
                                   "--method", method, "--json", capsys=capsys)
            assert code == 0
            values[method] = json.loads(out)["value"]
        assert len(set(values.values())) == 1

    def test_decomposition_reports_color_counts(self, capsys):
        code, out, _ = run_cli("count", "-m", "4", "-n", "3",
                               "--method", "decomposition", "--json",
                               capsys=capsys)
        assert code == 0
        record = json.loads(out)
        assert record["value"] == "484"
        assert record["annotations"] == ["black/white shape counts: B=22, W=22"]

    def test_isolated_quantity(self, capsys):
        code, out, _ = run_cli("count", "-m", "1", "-n", "1", "--quantity", "L",
                               capsys=capsys)
        assert code == 0
        assert "L(1,1) = 2" in out

    def test_diagonal_run_quantity(self, capsys):
        code, out, _ = run_cli("count", "-m", "2", "-n", "2", "--quantity", "U",
                               "--k", "3", "--json", capsys=capsys)
        assert code == 0
        record = json.loads(out)
        assert record["quantity"] == "Uk"
        assert record["k"] == 3
        assert record["value"] == "16"

    @pytest.mark.parametrize("method", ["auto", "oracle"])
    def test_run_longer_than_every_diagonal(self, method, capsys):
        # no run of 10**18 fits on a board whose diagonals are at most 2
        # long, so every one of the 2^4 boards counts, at the cost of k = 3
        code, out, _ = run_cli("count", "-m", "2", "-n", "2", "--quantity", "U",
                               "--k", str(10 ** 18), "--method", method,
                               capsys=capsys)
        assert code == 0
        assert out == f"Uk(2,2) = {2 ** 4}\n"

    @pytest.mark.parametrize("method", ["auto", "closed", "oracle"])
    def test_run_shorter_than_two_is_one_usage_error(self, method, capsys):
        code, out, err = run_cli("count", "-m", "2", "-n", "2", "--quantity",
                                 "U", "--k", "1", "--method", method,
                                 capsys=capsys)
        assert (code, out) == (2, "")
        assert err == "error: diagonal run length must be >= 2, got 1\n"

    def test_erratum_annotation_surfaces(self, capsys):
        code, out, _ = run_cli("count", "-m", "5", "-n", "2",
                               "--method", "closed", "--json", capsys=capsys)
        assert code == 0
        record = json.loads(out)
        assert record["value"] == "169"
        assert any("156" in note for note in record["annotations"])

    def test_oracle_guard_maps_to_exit_3(self, capsys):
        code, _, err = run_cli("count", "-m", "6", "-n", "6",
                               "--method", "oracle", capsys=capsys)
        assert code == 3
        assert "transfer" in err

    def test_no_closed_form_names_auto(self, capsys):
        # --method transfer would refuse a tall board too; auto sweeps the
        # shorter side with the frontier sweep or the colour split
        code, _, err = run_cli("count", "-m", "4", "-n", "4", "--quantity", "L",
                               "--method", "closed", capsys=capsys)
        assert code == 3
        assert "--method auto" in err

    def test_usage_error_exit_2(self, capsys):
        code, _, _ = run_cli("count", "-m", "2", "-n", "2",
                             "--quantity", "X", capsys=capsys)
        assert code == 2

    def test_k_requires_quantity_u(self, capsys):
        code, _, err = run_cli("count", "-m", "2", "-n", "2", "--quantity", "M",
                               "--k", "3", capsys=capsys)
        assert code == 2
        assert "quantity U" in err

    def test_empty_board(self, capsys):
        code, out, _ = run_cli("count", "-m", "0", "-n", "9", capsys=capsys)
        assert code == 0
        assert "= 1" in out

    def test_large_height_uses_transpose(self, capsys):
        code, out, _ = run_cli("count", "-m", "19", "-n", "2", "--json",
                               "--method", "transfer", capsys=capsys)
        assert code == 0
        value = int(json.loads(out)["value"])
        code, out, _ = run_cli("count", "-m", "2", "-n", "19", "--json",
                               capsys=capsys)
        assert value == int(json.loads(out)["value"])
        # U sweeps along the shorter side too: 24 rows pass the 22-row limit
        code, out, _ = run_cli("count", "-m", "24", "-n", "3", "--quantity",
                               "U", "--json", "--method", "transfer",
                               capsys=capsys)
        assert code == 0
        assert int(json.loads(out)["value"]) == cf.upper_bound_U(24, 3)

    def test_tall_isolated_board_uses_transposed_closed_form(self, capsys):
        code, out, _ = run_cli("count", "-m", "5", "-n", "2", "--quantity", "L",
                               "--json", capsys=capsys)
        assert code == 0
        record = json.loads(out)
        assert record["method"] == "closed"
        assert record["value"] == "43"  # oracle and transfer agree

    @pytest.mark.parametrize("argv,method", [
        (("-m", "17", "-n", "17"), "decomposition"),
        (("-m", "7", "-n", "7", "--method", "transfer"), "transfer"),
        (("-m", "3", "-n", "7"), "closed"),
        (("-m", "7", "-n", "7", "--quantity", "U"), "closed"),
        (("-m", "7", "-n", "7", "--quantity", "L"), "transfer"),
        (("-m", "7", "-n", "7"), "closed"),
    ])
    def test_json_method_names_the_route(self, argv, method, capsys):
        code, out, _ = run_cli("count", *argv, "--json", capsys=capsys)
        assert code == 0
        assert json.loads(out)["method"] == method

    def test_auto_colour_split_text_unchanged(self, capsys):
        code, out, _ = run_cli("count", "-m", "7", "-n", "7", capsys=capsys)
        assert code == 0
        expected = count_via_transfer(7, 7, M_SET)
        assert out == f"M(7,7) = {expected}\n"

    @pytest.mark.parametrize("error", [NonIntegerResult, NoFitFound])
    def test_failed_self_check_exits_1(self, error, monkeypatch, capsys):
        def broken():
            raise error("synthetic self-check failure")

        monkeypatch.setattr(cf, "closed_forms", lambda *args: [broken])
        code, out, err = run_cli("count", "-m", "3", "-n", "5", capsys=capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: synthetic self-check failure")
        assert "Traceback" not in err

    def test_u_board_past_4300_digits(self, capsys):
        code, out, _ = run_cli("count", "-m", "150", "-n", "150",
                               "--quantity", "U", capsys=capsys)
        assert code == 0
        assert out == f"U(150,150) = {cf.upper_bound_U(150, 150)}\n"


#: The README's exit-code table, one row per package error.
EXIT_CODES = {NonIntegerResult: 1, NoFitFound: 1, InvalidK: 2,
              GuardExceeded: 3, NonConverged: 4, IllegalMatrix: 5,
              InvalidTiling: 5, MatrixFormatError: 5}


def test_exit_code_table_covers_every_package_error():
    assert set(EXIT_CODES) == set(PawncountError.__subclasses__())


@pytest.mark.parametrize("error", EXIT_CODES, ids=lambda e: e.__name__)
def test_package_error_exits_with_its_code(error, monkeypatch, capsys):
    def broken():
        raise error("synthetic failure")

    monkeypatch.setattr(cf, "closed_forms", lambda *args: [broken])
    code, out, err = run_cli("count", "-m", "3", "-n", "5", capsys=capsys)
    assert code == EXIT_CODES[error]
    assert out == ""
    assert err == "error: synthetic failure\n"


class TestGuards:
    """Each guard answers at once: no 2^width state array is built."""

    @pytest.mark.parametrize("argv,code", [
        (("table", "--quantity", "L", "--max-m", "31", "--max-n", "31"), 3),
        (("eigen", "-m", "45"), 3),
        (("count", "-m", "100", "-n", "1", "--method", "decomposition"), 0),
        (("count", "-m", "26", "-n", "3", "--method", "decomposition"), 0),
        (("eigen", "-m", "13", "--spectrum"), 3),
        (("table", "--quantity", "M", "--max-m", "45", "--max-n", "45"), 3),
        (("count", "-m", "45", "-n", "45"), 3),
        (("count", "-m", "23", "-n", "23", "--method", "transfer"), 3),
        (("eigen", "-m", "23"), 0),
        (("count", "-m", "31", "-n", "31", "--quantity", "L"), 3),
        (("table", "--quantity", "M", "--max-m", "40", "--max-n", "8"), 0),
        (("table", "--quantity", "L", "--max-m", "24", "--max-n", "4"), 0),
    ])
    def test_answers_within_a_second(self, argv, code, capsys):
        start = time.perf_counter()
        assert run_cli(*argv, capsys=capsys)[0] == code
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("argv", [
        ("count", "-m", "4", "-n", "99999999999999999999"),
        ("count", "-m", "12", "-n", "99999999999999999999"),
        ("count", "-m", "3", "-n", "99999999999999999999", "--quantity", "L"),
        ("count", "-m", "99999999999999999999", "-n", "1"),
    ])
    def test_side_past_maxsize_exit_3(self, argv, capsys):
        """A side no route can index or step through is refused by name,
        not by an internal error or an allocation that never ends."""
        start = time.perf_counter()
        code, out, err = run_cli(*argv, capsys=capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and str(sys.maxsize) in err
        assert time.perf_counter() - start < 2.0

    def test_empty_board_with_a_huge_side(self, capsys):
        huge = "99999999999999999999"
        assert run_cli("count", "-m", huge, "-n", "0", capsys=capsys) == (
            0, f"M({huge},0) = 1\n", "")

    @pytest.mark.parametrize("max_m,max_n", [(100000, 100000), (2049, 2048)])
    def test_table_cell_guard(self, max_m, max_n, capsys):
        """A table of more than 2^22 boards is refused before its list of
        boards exists, even where every board has a closed form."""
        code, out, err = run_cli("table", "--quantity", "U", "--max-m", str(max_m),
                                 "--max-n", str(max_n), capsys=capsys)
        assert (code, out) == (3, "")
        assert f"{max_m * max_n} cells" in err and "2^22" in err

    def test_decomposition_runs_along_the_longer_side(self, capsys):
        _, out, _ = run_cli("count", "-m", "100", "-n", "1", "--method",
                            "decomposition", "--json", capsys=capsys)
        assert json.loads(out)["value"] == str(2 ** 100)
        _, out, _ = run_cli("count", "-m", "26", "-n", "3", "--method",
                            "decomposition", "--json", capsys=capsys)
        _, auto, _ = run_cli("count", "-m", "26", "-n", "3", "--json",
                             capsys=capsys)
        assert json.loads(out)["value"] == json.loads(auto)["value"]

    def test_colour_split_counts_past_the_full_profile(self, capsys):
        code, out, _ = run_cli("count", "-m", "24", "-n", "24", "--json",
                               capsys=capsys)
        assert code == 0
        value = int(json.loads(out)["value"])
        black, white = split_by_color(24, 24)
        assert value == (count_independent_sets(black, guard=300)
                         * count_independent_sets(white, guard=300))
        assert math.isqrt(value) ** 2 == value


class TestRoutes:
    @pytest.mark.parametrize("quantity", ["M", "U", "L"])
    def test_table_cells_equal_count(self, quantity, capsys):
        # the 20x5 grid reads its cells with m > n off shorter-side sweeps
        for max_m, max_n in ((8, 8), (20, 5)):
            code, out, _ = run_cli("table", "--quantity", quantity, "--max-m",
                                   str(max_m), "--max-n", str(max_n),
                                   "--format", "json", capsys=capsys)
            assert code == 0
            rows = json.loads(out)
            assert len(rows) == max_m * max_n
            for row in rows:
                _, single, _ = run_cli("count", "-m", str(row["m"]), "-n",
                                       str(row["n"]), "--quantity", quantity,
                                       "--json", capsys=capsys)
                assert json.loads(single)["value"] == row["value"], row

    def test_three_way_check_covers_transposed_closed_forms(self, monkeypatch):
        covered = {}
        closed_forms = cf.closed_forms

        def spy(quantity, m, n):
            forms = closed_forms(quantity, m, n)
            covered[quantity, m, n] = len(forms)
            return forms

        monkeypatch.setattr(cf, "closed_forms", spy)
        assert vf.run_check("three-way-agreement", vf.check_three_way_agreement,
                            {"three_way_cells": 14}).passed
        # M(7,2): closed_form_M(2,7), the height-2 shape formula and the
        # height-7 colour-class generating functions
        assert covered["M", 7, 2] == 3
        assert covered["L", 7, 2] == 1


class TestEigen:
    def test_known_value(self, capsys):
        code, out, _ = run_cli("eigen", "-m", "2", "--json", capsys=capsys)
        assert code == 0
        record = json.loads(out)
        assert abs(record["value"] - 2.6180339887) < 1e-8

    def test_alpha_one(self, capsys):
        code, out, _ = run_cli("eigen", "-m", "1", capsys=capsys)
        assert code == 0
        assert "2.0" in out

    def test_spectrum_flag(self, capsys):
        code, out, _ = run_cli("eigen", "-m", "3", "--spectrum", "--json",
                               capsys=capsys)
        assert code == 0
        record = json.loads(out)
        assert len(record["spectrum"]) == 8
        assert abs(record["spectrum"][0] - 4.3027756377) < 1e-8

    def test_non_convergence_exit_4(self, capsys):
        code, _, err = run_cli("eigen", "-m", "3", "--max-iter", "2",
                               "--tol", "1e-15", capsys=capsys)
        assert code == 4
        assert "converge" in err

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_bad_tolerance_exit_2(self, tol, capsys):
        # a NaN tolerance never met would run every default iteration, and
        # an infinite one would stop after the first estimate
        start = time.perf_counter()
        code, out, err = run_cli("eigen", "-m", "3", "--tol", tol,
                                 capsys=capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: tolerance must be")

    @pytest.mark.parametrize("max_iter", ["0", "-5"])
    def test_bad_max_iter_exit_2(self, max_iter, capsys):
        code, out, err = run_cli("eigen", "-m", "3", "--max-iter", max_iter,
                                 capsys=capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: max_iter must be >= 1, got {max_iter}\n"


class TestTable:
    def test_csv_format(self, capsys):
        code, out, _ = run_cli("table", "--quantity", "M", "--max-m", "3",
                               "--max-n", "4", "--format", "csv", capsys=capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "m,n,quantity,value"
        assert "3,4,M,484" in lines

    def test_markdown_contains_values(self, capsys):
        code, out, _ = run_cli("table", "--quantity", "M", "--max-m", "2",
                               "--max-n", "2", capsys=capsys)
        assert code == 0
        assert "| 9 |" in out

    def test_json_rows(self, capsys):
        code, out, _ = run_cli("table", "--quantity", "L", "--max-m", "2",
                               "--max-n", "3", "--format", "json", capsys=capsys)
        assert code == 0
        rows = {(r["m"], r["n"]): r["value"] for r in json.loads(out)}
        assert rows[(2, 3)] == "11"

    def test_quantities_consistent_across_methods(self, capsys):
        code, out, _ = run_cli("table", "--quantity", "U", "--max-m", "8",
                               "--max-n", "3", "--format", "json", capsys=capsys)
        assert code == 0
        from pawncount.oracle import U_SET, count_by_enumeration
        for row in json.loads(out):
            assert int(row["value"]) == count_by_enumeration(row["m"], row["n"], U_SET)


class TestBijection:
    def test_forward(self, tmp_path, capsys):
        src = tmp_path / "mat.txt"
        src.write_text("1")
        code, out, _ = run_cli("bijection", "--matrix-file", str(src),
                               capsys=capsys)
        assert code == 0
        assert json.loads(out) == {"rows": 2, "cols": 2, "anchors": [[1, 1]]}

    def test_forward_zero_matrix(self, tmp_path, capsys):
        src = tmp_path / "mat.txt"
        src.write_text("00\n00")
        code, out, _ = run_cli("bijection", "--matrix-file", str(src),
                               capsys=capsys)
        assert code == 0
        assert json.loads(out) == {"rows": 3, "cols": 3, "anchors": []}

    def test_roundtrip_byte_identical(self, tmp_path, capsys):
        text = "10010\n00000\n01001"
        src = tmp_path / "mat.txt"
        src.write_text(text)
        code, out, _ = run_cli("bijection", "--matrix-file", str(src),
                               capsys=capsys)
        assert code == 0
        back = tmp_path / "tiling.json"
        back.write_text(out)
        code, out, _ = run_cli("bijection", "--tiling-json", str(back),
                               "--invert", capsys=capsys)
        assert code == 0
        assert out.rstrip("\n") == text

    def test_ascii_flag(self, tmp_path, capsys):
        src = tmp_path / "mat.txt"
        src.write_text("10\n00")
        code, out, _ = run_cli("bijection", "--matrix-file", str(src),
                               "--ascii", capsys=capsys)
        assert code == 0
        assert out == "aa.\naa.\n...\n"

    def test_illegal_matrix_exit_5(self, tmp_path, capsys):
        src = tmp_path / "mat.txt"
        src.write_text("11")
        code, _, err = run_cli("bijection", "--matrix-file", str(src),
                               capsys=capsys)
        assert code == 5
        assert "(1, 1)" in err

    @pytest.mark.parametrize("flag,text,line", [
        ("--matrix-file", "11\n00",
         "error: matrix has forbidden horiz_pair at (1, 1); only "
         "fully-isolated matrices map to tilings"),
        ("--tiling-json", '{"rows": 4, "cols": 4, "anchors": [[1, 1], [1, 2]]}',
         "error: anchors (1,1) and (1,2) overlap"),
        ("--tiling-json", '{"rows": 4, "cols": 4, "anchors": [[5, 1]]}',
         "error: anchor (5,1) leaves the 4x4 board"),
    ], ids=["illegal-matrix", "overlap", "off-board"])
    def test_error_names_its_cell_once(self, flag, text, line, tmp_path,
                                       capsys):
        src = tmp_path / "input"
        src.write_text(text)
        code, out, err = run_cli("bijection", flag, str(src), capsys=capsys)
        assert (code, out, err) == (5, "", line + "\n")

    @pytest.mark.parametrize("text", [
        '{"rows": 2, "cols": 2, "anchors": [[5, 5]]}',
        '{"rows": -1, "cols": 2, "anchors": []}',
        '{"rows": 0, "cols": 0, "anchors": []}',
        '{"rows": 1, "cols": 0, "anchors": []}',
        '{"rows": true, "cols": 3, "anchors": []}',
        '{"rows": 3, "cols": 3, "anchors": [[true, true]]}',
    ], ids=["anchor-off-board", "negative-rows", "zero-by-zero", "zero-cols",
            "bool-rows", "bool-anchor"])
    def test_bad_tiling_exit_5(self, text, tmp_path, capsys):
        src = tmp_path / "tiling.json"
        src.write_text(text)
        code, out, err = run_cli("bijection", "--tiling-json", str(src),
                                 capsys=capsys)
        assert code == 5
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        '{"rows": 3, "cols": 3, "anchors": [' + "[" * 500 + "]" * 500 + "]}",
    ], ids=["100000-deep-file", "500-deep-anchor"])
    def test_deep_nesting_exit_5(self, text, tmp_path, capsys):
        # the JSON decoder and repr() both recurse once per level
        src = tmp_path / "tiling.json"
        src.write_text(text)
        code, out, err = run_cli("bijection", "--tiling-json", str(src),
                                 "--invert", capsys=capsys)
        assert (code, out) == (5, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and len(err) < 200

    def test_oversized_tiling_exit_3(self, tmp_path, capsys):
        # 43 bytes that name a 3000x3000 matrix, above the 2^22-cell bound
        src = tmp_path / "tiling.json"
        src.write_text('{"rows": 3001, "cols": 3001, "anchors": []}')
        start = time.perf_counter()
        code, out, err = run_cli("bijection", "--tiling-json", str(src),
                                 capsys=capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "3000x3000" in err

    @pytest.mark.parametrize("anchors,want", [
        ("[[5, 7]]", 3),
        ("[[5, 7], [6, 8]]", 5),
    ], ids=["one-anchor", "overlapping-pair"])
    def test_huge_tiling_checks_its_anchors_first(self, anchors, want,
                                                  tmp_path, capsys):
        """A 3000000x3000000 board: an overlap is reported (exit 5) before
        the size guard refuses the board (exit 3), and neither packs the
        anchors of 9e12 cells."""
        src = tmp_path / "tiling.json"
        src.write_text(f'{{"rows": 3000000, "cols": 3000000, "anchors": {anchors}}}')
        start = time.perf_counter()
        code, out, err = run_cli("bijection", "--tiling-json", str(src),
                                 capsys=capsys)
        assert time.perf_counter() - start < 1.0
        assert code == want
        assert out == ""
        assert err.startswith("error: ")

    def test_missing_file_exit_5(self, capsys):
        code, _, _ = run_cli("bijection", "--matrix-file", "/nonexistent",
                             capsys=capsys)
        assert code == 5

    @pytest.mark.parametrize("flag", ["--matrix-file", "--tiling-json"])
    def test_non_utf8_file_exit_5(self, flag, tmp_path, capsys):
        src = tmp_path / "input"
        src.write_bytes(b"\xff\xfe\x00")
        code, out, err = run_cli("bijection", flag, str(src), capsys=capsys)
        assert code == 5
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_requires_exactly_one_input(self, tmp_path, capsys):
        code, _, _ = run_cli("bijection", capsys=capsys)
        assert code == 2
        src = tmp_path / "mat.txt"
        src.write_text("1")
        code, _, _ = run_cli("bijection", "--matrix-file", str(src),
                             "--tiling-json", str(src), capsys=capsys)
        assert code == 2

    def test_invert_rejects_matrix_input(self, tmp_path, capsys):
        src = tmp_path / "mat.txt"
        src.write_text("1")
        code, _, _ = run_cli("bijection", "--matrix-file", str(src),
                             "--invert", capsys=capsys)
        assert code == 2


class TestVerify:
    def test_quick_battery_passes(self, capsys):
        code, out, _ = run_cli("verify", "--level", "quick", capsys=capsys)
        assert code == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out
        assert "expected deviation from published formulas" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli("verify", "--level", "quick", "--json",
                               capsys=capsys)
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["level"] == "quick"
        names = {c["name"] for c in report["checks"]}
        assert {"three-way-agreement", "colour-split"} <= names
        assert all(c["passed"] for c in report["checks"])
        assert all(c["elapsed_s"] >= 0 for c in report["checks"])

    def test_json_counts_the_cells_each_check_compared(self, capsys):
        code, out, _ = run_cli("verify", "--level", "full", "--json",
                               capsys=capsys)
        assert code == 0
        cells = {c["name"]: c["cells"] for c in json.loads(out)["checks"]}
        assert list(cells) == [name for name, _ in vf.CHECKS]
        assert all(type(v) is int for v in cells.values())
        assert cells == {
            "transfer-reference": 80, "three-way-agreement": 198,
            "colour-split": 98, "radical-closed-forms": 52,
            "diagonal-word-bounds": 118, "bound-sandwich": 64,
            "perfect-square": 24, "shape-formulas": 195,
            "tiling-bijection": 16248, "dominant-eigenvalues": 17,
            "asymptotics": 5, "isolated-height-3": 44, "per-row-growth": 13}

    def test_report_values(self):
        check = vf.CheckResult("c", True, "fine", ("dev",), 3, 0.5)
        same = vf.CheckResult(name="c", passed=True, details="fine",
                              deviations=("dev",), cells=3, elapsed_s=0.5)
        assert check == same and hash(check) == hash(same)
        assert check != vf.CheckResult("c", True, "fine", ("dev",), 3)
        assert repr(vf.CheckResult("c", False, "bad")) == (
            "CheckResult(name='c', passed=False, details='bad', "
            "deviations=(), cells=0, elapsed_s=None)")
        report = vf.VerificationReport("quick", (check,))
        assert report == vf.VerificationReport("quick", (same,))
        assert hash(report) == hash(vf.VerificationReport("quick", (same,)))
        assert repr(report) == f"VerificationReport(level='quick', checks=({check!r},))"
        for value, field in ((check, "passed"), (report, "level")):
            with pytest.raises(AttributeError):
                setattr(value, field, None)

    def test_report_dict_key_order(self):
        check = vf.CheckResult("c", False, "bad", ("dev",), 3, 0.5)
        assert list(check.to_dict().items()) == [
            ("name", "c"), ("passed", False), ("details", "bad"),
            ("deviations", ("dev",)), ("cells", 3), ("elapsed_s", 0.5)]
        report = vf.VerificationReport("full", (check,)).to_dict()
        assert list(report) == ["level", "passed", "checks"]
        assert report["passed"] is False

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        from pawncount.verify import CheckResult, VerificationReport

        def fake_run(level):
            return VerificationReport(level, (
                CheckResult("doomed", False, "synthetic failure"),))

        # cli imports verify when the command runs, so patch it at home
        monkeypatch.setattr("pawncount.verify.run_verification", fake_run)
        code, out, _ = run_cli("verify", capsys=capsys)
        assert code == 1
        assert "[FAIL] doomed" in out

    def test_a_check_that_raises_fails_alone(self, capsys, monkeypatch):
        def broken(m, pats):
            raise ZeroDivisionError("synthetic")

        monkeypatch.setattr(vf, "dominant_eigenvalue", broken)
        code, out, err = run_cli("verify", capsys=capsys)
        assert (code, err) == (1, "")
        lines = {line.split()[1].rstrip(":"): line
                 for line in out.splitlines() if line.startswith("[")}
        assert list(lines) == [name for name, _ in vf.CHECKS]
        for name, line in lines.items():
            if name in ("dominant-eigenvalues", "per-row-growth"):
                assert line.startswith(f"[FAIL] {name}: raised ZeroDivisionError")
            else:
                assert line.startswith(f"[PASS] {name}: ")


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "pawncount", "count", "-m", "2", "-n", "2"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "M(2,2) = 9" in result.stdout


#: Modules that a call loads only when its command needs them; the
#: package itself never loads dataclasses or mpmath.
_OPTIONAL = ("numpy", "dataclasses", "inspect", "json", "csv",
             "fractions", "decimal", "pawncount.tiling", "pawncount.transfer",
             "mpmath")

# Runs one CLI call in a fresh interpreter and reports its exit code, its
# output and which of the optional modules were loaded by the time it
# returned.  The modules are read before the probe imports json for its
# own report.
_IMPORT_PROBE = f"""
import contextlib, io, sys
from pawncount.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
loaded = [name for name in {_OPTIONAL!r} if name in sys.modules]
import json
print(json.dumps([code, out.getvalue(), loaded]))
"""


def _probe(*argv):
    result = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.parametrize("statement", ["import pawncount",
                                       "import pawncount.cli"])
def test_numpy_is_not_imported_by_the_package(statement):
    result = subprocess.run(
        [sys.executable, "-c",
         f"import sys; {statement}; "
         f"print([name for name in {_OPTIONAL!r} if name in sys.modules])"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ("count", "-m", "3", "-n", "5"),
    ("count", "-m", "4", "-n", "20"),
    ("count", "-m", "5", "-n", "2"),
    ("count", "-m", "100", "-n", "100", "--quantity", "U"),
    ("count", "-m", "2", "-n", "2", "--quantity", "U", "--k", "3"),
    ("table", "--quantity", "U", "--max-m", "6", "--max-n", "10"),
    ("count", "-m", "16", "-n", "17"),
    ("table", "--quantity", "M", "--max-m", "13", "--max-n", "40"),
    ("count", "-m", "40", "-n", "3", "--quantity", "L"),
    ("table", "--quantity", "L", "--max-m", "3", "--max-n", "9"),
])
def test_closed_form_calls_skip_numpy(argv):
    code, out, loaded = _probe(*argv)
    assert code == 0 and out
    assert loaded == []


def test_no_typing_or_rationals_at_run_time():
    # -S leaves site out, so every module loaded is the package's doing;
    # the package dir goes on PYTHONPATH, which -S still reads
    src = os.path.dirname(os.path.dirname(cf.__file__))
    probe = ("import sys\n"
             "import pawncount.cli, pawncount.tiling\n"
             "code = pawncount.cli.main(['count', '-m', '3', '-n', '5'])\n"
             "print(code, [name for name in ('typing', 'fractions', 'decimal',"
             " 'numbers') if name in sys.modules])\n")
    result = subprocess.run([sys.executable, "-S", "-c", probe],
                            env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "M(3,5) = 2117\n0 []\n"


@pytest.mark.parametrize("argv,module", [
    (("count", "-m", "3", "-n", "5", "--json"), "json"),
    (("count", "-m", "93", "-n", "70", "--quantity", "U", "--json"), "json"),
    (("count", "-m", "5", "-n", "4", "--method", "oracle", "--json"), "json"),
    (("table", "--max-m", "9", "--max-n", "14", "--format", "json"), "json"),
    (("table", "--max-m", "9", "--max-n", "14", "--format", "csv"), "csv"),
])
def test_json_and_csv_load_only_their_module(argv, module):
    code, out, loaded = _probe(*argv)
    assert code == 0 and out
    assert loaded == [module]


def test_bijection_skips_numpy(tmp_path):
    matrix = tmp_path / "mat.txt"
    matrix.write_text("10010\n00000\n01001")
    code, out, loaded = _probe("bijection", "--matrix-file", str(matrix))
    assert code == 0 and loaded == ["json", "pawncount.tiling"]
    tiling = tmp_path / "tiling.json"
    tiling.write_text(out)
    code, out, loaded = _probe("bijection", "--tiling-json", str(tiling),
                               "--invert")
    assert code == 0 and loaded == ["json", "pawncount.tiling"]
    assert out.rstrip("\n") == matrix.read_text()
    code, out, loaded = _probe("bijection", "--matrix-file", str(matrix),
                               "--ascii")
    assert code == 0 and loaded == ["pawncount.tiling"]
    assert out == "aa.bb.\naa.bb.\n.cc.dd\n.cc.dd\n"


def test_five_row_shape_dp_still_loads_on_demand():
    code, out, loaded = _probe("count", "-m", "5", "-n", "2",
                               "--method", "closed", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["value"] == "169"
    assert any("156" in note for note in record["annotations"])
    # the stored corrected pair answers without the shape DP
    assert loaded == ["json"]


@pytest.mark.parametrize("quantity,expected", [
    ("M", "M(5,4) = 17424"),
    ("U", "U(5,4) = 57600"),
    ("L", "L(5,4) = 1213"),
])
def test_oracle_skips_numpy(quantity, expected):
    code, out, loaded = _probe("count", "-m", "5", "-n", "4",
                               "--quantity", quantity, "--method", "oracle")
    assert code == 0 and out.strip() == expected
    assert loaded == []


def test_sweeping_call_loads_numpy():
    code, out, loaded = _probe("count", "-m", "17", "-n", "17")
    assert code == 0 and out
    assert {"numpy", "pawncount.transfer"} <= set(loaded)


@pytest.mark.parametrize("argv,loaded", [
    (("eigen", "-m", "18"), []),
    (("eigen", "-m", "25", "--json"), ["json"]),
])
def test_power_iteration_on_lists_skips_numpy(argv, loaded):
    code, out, modules = _probe(*argv)
    assert code == 0 and out
    assert modules == loaded


@pytest.mark.parametrize("argv", [("eigen", "-m", "26"),
                                  ("eigen", "-m", "8", "--spectrum")])
def test_wide_or_dense_eigen_loads_numpy(argv):
    code, out, loaded = _probe(*argv)
    assert code == 0 and out
    assert {"numpy", "pawncount.transfer"} <= set(loaded)


@pytest.mark.parametrize("argv,loaded", [
    (("count", "-m", "16", "-n", "20", "--quantity", "L"), []),
    (("count", "-m", "31", "-n", "14", "--quantity", "L", "--json"), ["json"]),
    (("table", "--quantity", "L", "--max-m", "14", "--max-n", "40",
      "--format", "csv"), ["csv"]),
])
def test_short_l_sweeps_skip_numpy(argv, loaded):
    code, out, modules = _probe(*argv)
    assert code == 0 and out
    assert modules == loaded


@pytest.mark.parametrize("argv", [
    ("count", "-m", "16", "-n", "200", "--quantity", "L"),
    ("count", "-m", "14", "-n", "21", "--quantity", "U", "--method", "transfer"),
])
def test_long_l_sweeps_and_u_by_transfer_load_numpy(argv):
    code, out, loaded = _probe(*argv)
    assert code == 0 and out
    assert {"numpy", "pawncount.transfer"} <= set(loaded)


def test_too_tall_l_sweep_refused_before_numpy(capsys):
    code, out, loaded = _probe("count", "-m", "31", "-n", "31", "--quantity", "L")
    assert (code, out, loaded) == (3, "", [])
    assert run_cli("count", "-m", "31", "-n", "31", "--quantity", "L",
                   capsys=capsys) == (
        3, "", "error: the L sweep at height 31 holds 4870847 frontiers, "
               "above the 2^22 limit\n")


@pytest.mark.parametrize("argv", [
    ("count", "-m", "17", "-n", "17", "--json"),
    ("count", "-m", "5", "-n", "6", "--quantity", "L", "--method", "transfer"),
    ("count", "-m", "8", "-n", "9", "--method", "decomposition", "--json"),
    ("table", "--max-m", "17", "--max-n", "17", "--format", "csv"),
    ("eigen", "-m", "4", "--spectrum", "--json"),
    ("verify", "--level", "quick", "--json"),
])
def test_no_command_loads_dataclasses(argv):
    code, out, loaded = _probe(*argv)
    assert code == 0 and out
    assert "numpy" in loaded and "dataclasses" not in loaded


def test_lazy_package_exports():
    import pawncount

    for name in pawncount.__all__:
        assert getattr(pawncount, name) is not None
    assert set(pawncount.__all__) <= set(dir(pawncount))
    from pawncount import count_via_transfer as exported
    assert exported is count_via_transfer
    with pytest.raises(AttributeError):
        pawncount.no_such_export
