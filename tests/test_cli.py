import cmath
import json
import math
import os
import subprocess
import sys

import pytest

from cyclic_leibniz.algebra import CyclicAlgebra
from cyclic_leibniz.cli import EXIT_BROKEN_PIPE, main


def write_doc(tmp_path, name, dimension, tail, tolerance=None):
    doc = {"dimension": dimension, "tail": [[z.real, z.imag] for z in map(complex, tail)]}
    if tolerance is not None:
        doc["tolerance"] = tolerance
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_text(record) -> str:
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


class TestClassify:
    def test_type_n_law(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", 3, [0, 1])
        code, out, _ = run(capsys, "classify", path)
        assert code == 0
        assert "class: type 3" in out
        assert "law: a·a^3 = a^3" in out
        assert out.startswith("tolerance: 1e-09")

    def test_hand_worked_case(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", 3, [4, 2])
        code, out, _ = run(capsys, "classify", path)
        assert code == 0
        assert "class: type 2" in out
        assert "gamma: (-1)" in out

    def test_nilpotent(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", 4, [0, 0, 0])
        code, out, _ = run(capsys, "classify", path)
        assert code == 0
        assert "class: nilpotent" in out
        assert "law: a·a^4 = 0" in out

    def test_json_output(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", 3, [4, 2])
        code, out, _ = run(capsys, "classify", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 2
        assert payload["gamma"] == [[-1.0, 0.0]]

    def test_parse_failure_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run(capsys, "classify", str(bad))
        assert code == 2
        assert "error:" in err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code, _, err = run(capsys, "classify", str(tmp_path / "nope.json"))
        assert code == 2

    def test_tail_mismatch_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dimension": 4, "tail": [[1, 0]]}))
        code, _, err = run(capsys, "classify", str(bad))
        assert code == 2

    @pytest.mark.parametrize("field", ["tail", "tolerance"])
    def test_huge_integer_document_exits_two(self, tmp_path, capsys, field):
        # a 401-digit JSON integer overflows float conversion
        huge = "1" + "0" * 400
        doc = tmp_path / "huge.json"
        doc.write_text(
            '{"dimension": 2, "tail": [[%s, 0]]}' % huge if field == "tail"
            else '{"dimension": 2, "tail": [[1, 0]], "tolerance": %s}' % huge
        )
        code, out, err = run(capsys, "classify", str(doc))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_huge_integer_tail_entry_is_named(self, tmp_path, capsys):
        doc = tmp_path / "huge.json"
        doc.write_text('{"dimension": 2, "tail": [[1%s, 0]]}' % ("0" * 400))
        code, out, err = run(capsys, "classify", str(doc))
        assert (code, out) == (2, "")
        assert err == "error: tail entry 0 is out of floating-point range\n"

    @pytest.mark.parametrize(
        "template, message",
        [
            ('{"dimension": 2, "tail": [[%s, 0]]}', "tail entries must be finite"),
            ('{"dimension": %s, "tail": [[1, 0]]}',
             "dimension must be a positive integer, got inf"),
            ('{"dimension": 2, "tail": [[1, 0]], "tolerance": %s}',
             "tolerance must be positive and finite, got inf"),
        ],
        ids=["tail", "dimension", "tolerance"],
    )
    def test_integer_past_digit_limit_names_the_field(self, tmp_path, capsys,
                                                      template, message):
        # 5,001 digits: past the int-string conversion limit, read as inf
        doc = tmp_path / "huge.json"
        doc.write_text(template % ("1" * 5001))
        code, out, err = run(capsys, "classify", str(doc))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_deterministic_output(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", 4, [0.5, -1.25, 2])
        _, first, _ = run(capsys, "classify", path)
        _, second, _ = run(capsys, "classify", path)
        assert first == second


class TestIso:
    def test_two_dim_rescaling(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.json", 2, [3])
        b = write_doc(tmp_path, "b.json", 2, [5])
        code, out, _ = run(capsys, "iso", a, b)
        assert code == 0
        assert "verdict: isomorphic" in out

    def test_sign_flip(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.json", 3, [1, 1])
        b = write_doc(tmp_path, "b.json", 3, [1, -1])
        code, out, _ = run(capsys, "iso", a, b, "--check")
        assert code == 0
        assert "search oracle: agrees" in out

    def test_distinct_classes(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.json", 3, [1, 1])
        b = write_doc(tmp_path, "b.json", 3, [1, 2])
        code, out, _ = run(capsys, "iso", a, b, "--check")
        assert code == 1
        assert "verdict: not isomorphic" in out
        assert "search oracle: agrees" in out

    def test_dimension_mismatch(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.json", 2, [1])
        b = write_doc(tmp_path, "b.json", 3, [1, 0])
        code, out, _ = run(capsys, "iso", a, b)
        assert code == 1
        assert "dimension mismatch" in out

    def test_json_output(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.json", 3, [4, 2])
        b = write_doc(tmp_path, "b.json", 3, [1, -1])
        code, out, _ = run(capsys, "iso", a, b, "--check", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["isomorphic"] is True
        assert payload["oracle_agrees"] is True

    @pytest.mark.parametrize("content", [
        b'{"dimension": 2, "tail": ' + b"[" * 1000 + b"]" * 1000 + b"}",
        '{"dimension": 2, "tail": [[1, 0]]}'.encode("utf-16"),
    ], ids=["nested-1000-deep", "utf-16"])
    def test_undecodable_document_is_named(self, tmp_path, capsys, content):
        a = write_doc(tmp_path, "a.json", 2, [1])
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code, out, err = run(capsys, "iso", a, str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad} ") and err.count("\n") == 1

    def test_oracle_failures_exit_one(self, tmp_path, capsys):
        # n = 12 and 16 pairs at scales where the oracle's rank test is
        # unreliable: type 12 against type 11 (settled by the leading-index
        # check), then a type-16 pair on which search raises
        # NotAGeneratorError; verification outcomes exit 1, never the
        # usage-error code 2
        pairs = [
            (12, [0] * 10 + [0.042758573916107115 + 0.1484776781705134j],
             [0] * 9 + [0.29175604000885863 + 2.434518873682391j,
                        -0.026769032612109365 - 0.12068656863673177j]),
            (16, [0] * 14 + [0.1], [0] * 14 + [0.2]),
        ]
        for n, tail_a, tail_b in pairs:
            a = write_doc(tmp_path, "a.json", n, tail_a)
            b = write_doc(tmp_path, "b.json", n, tail_b)
            code, out, err = run(capsys, "iso", a, b, "--check")
            assert err == ""
            ok = "verdict: isomorphic" in out and "search oracle: agrees" in out
            assert code == (0 if ok else 1)

    def test_overflowing_power_basis_warns_nothing(self, tmp_path, capsys):
        # the search's candidate is 1e8 * a, whose powers overflow: the basis
        # is dependent, and numpy's overflow warnings stay off stderr
        path = write_doc(tmp_path, "a.json", 40, [0] * 38 + [1e-8])
        code, out, err = run(capsys, "iso", path, path, "--check")
        assert (code, err) == (1, "")
        assert "search oracle: FAILED" in out

    def test_overflowing_map_check_warns_nothing(self, tmp_path, capsys):
        # the products the map check compares overflow: the candidate fails,
        # and numpy's overflow and invalid-value warnings stay off stderr
        a = write_doc(tmp_path, "a.json", 5, [1e100, 0, 1e300, 0])
        b = write_doc(tmp_path, "b.json", 5, [1, 1e300, 0, 0])
        code, out, err = run(capsys, "iso", a, b, "--check")
        assert (code, err) == (1, "")
        assert out.endswith("verdict: not isomorphic\nsearch oracle: agrees\n")


class TestOrbit:
    def test_plus_minus_members(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", 3, [1, 1])
        code, out, _ = run(capsys, "orbit", path)
        assert code == 0
        assert "orbit members: 2 (group order 2)" in out
        lines = out.splitlines()
        assert "  (-1)  [canonical]" in lines
        assert "  (1)" in lines

    def test_three_members_dim_four(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", 4, [1, 1, 1])
        code, out, _ = run(capsys, "orbit", path)
        assert code == 0
        assert "orbit members: 3 (group order 3)" in out

    def test_k_equals_n_single_empty_member(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", 3, [0, 5])
        code, out, _ = run(capsys, "orbit", path)
        assert code == 0
        assert "orbit members: 1 (group order 1)" in out
        assert "  ()  [canonical]" in out

    def test_nilpotent_rejected(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", 3, [0, 0])
        code, out, _ = run(capsys, "orbit", path)
        assert code == 1
        assert "orbit undefined for nilpotent algebra" in out


class TestMul:
    def test_generator_square(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", 3, [1, 2])
        code, out, _ = run(capsys, "mul", path, "1,0,0", "1,0,0")
        assert code == 0
        assert "product: (0, 1, 0)" in out

    def test_left_annihilator(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", 3, [1, 2])
        code, out, _ = run(capsys, "mul", path, "0,1,0", "1,0,0")
        assert code == 0
        assert "product: (0, 0, 0)" in out

    def test_tail_read_off(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", 3, [1, 2])
        code, out, _ = run(capsys, "mul", path, "1,0,0", "0,0,1")
        assert code == 0
        assert "product: (0, 1, 2)" in out

    def test_complex_coordinates(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", 2, [1])
        code, out, _ = run(capsys, "mul", path, "2i,0", "1,0")
        assert code == 0
        assert "product: (0, 0+2i)" in out

    def test_wrong_length_exits_two(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", 3, [1, 2])
        code, _, err = run(capsys, "mul", path, "1,0", "1,0,0")
        assert code == 2

    @pytest.mark.parametrize("x", ["nan,0,0", "1e400,0,0"])
    def test_non_finite_coordinates_exit_two(self, tmp_path, capsys, x):
        # a non-finite coordinate would print NaN or Infinity, which are not JSON
        path = write_doc(tmp_path, "a.json", 3, [1, 2])
        for flags in ([], ["--json"]):
            code, out, err = run(capsys, "mul", path, x, "1,0,0", *flags)
            assert (code, out) == (2, "")
            assert err == f"error: not a finite complex number: {x.split(',')[0]!r}\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_product_exits_two(self, tmp_path, capsys):
        # finite inputs whose product overflows would print Infinity, not JSON
        path = write_doc(tmp_path, "a.json", 3, [4, 2])
        for flags in ([], ["--json"]):
            code, out, err = run(capsys, "mul", path, "1e200,0,0", "1e200,0,1e200", *flags)
            assert (code, out) == (2, "")
            assert err == "error: product is out of floating-point range\n"

    def test_negative_zero_prints_as_zero(self, tmp_path, capsys):
        # -1 times a zero coordinate is IEEE -0.0
        path = write_doc(tmp_path, "a.json", 3, [4, 2])
        code, out, err = run(capsys, "mul", path, "--", "-1,0,0", "1,0,0")
        assert (code, out, err) == (0, "tolerance: 1e-09\nproduct: (0, -1, 0)\n", "")

    def test_negative_zero_json_is_zero(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", 3, [4, 2])
        code, out, err = run(capsys, "mul", path, "--json", "--", "-1,0,0", "1,0,0")
        assert (code, err) == (0, "")
        assert out == record_text(
            {"product": [[0.0, 0.0], [-1.0, 0.0], [0.0, 0.0]], "tolerance": 1e-9}
        )

    def test_negative_coordinates_after_double_dash(self, tmp_path, capsys):
        # without --, argparse reads -1,0,0 as an option
        path = write_doc(tmp_path, "a.json", 3, [1, 2])
        code, out, err = run(capsys, "mul", path, "--json", "--", "-1,0,0", "0,0,1")
        assert (code, err) == (0, "")
        assert json.loads(out)["product"] == [[0, 0], [-1, 0], [-2, 0]]


class TestVerify:
    def test_valid_document_passes(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", 5, [1, 2j, -3, 0.5])
        code, out, _ = run(capsys, "verify", path)
        assert code == 0
        assert "leibniz: pass" in out
        assert "cayley-hamilton: pass" in out

    def test_dimension_one_trivial(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", 1, [])
        code, out, _ = run(capsys, "verify", path)
        assert code == 0

    def test_large_tail_of_dimension_24_passes(self, tmp_path, capsys):
        # max|f(L_a)| is about 0.5 here, judged against max|L_a^24|
        path = write_doc(tmp_path, "a.json", 24, [3.3] * 23)
        code, out, _ = run(capsys, "verify", path)
        assert code == 0
        assert "cayley-hamilton: pass" in out

    def test_tight_tolerance_can_fail(self, tmp_path, capsys):
        # this dim-5 tail has a relative float cayley residual near 1e-16: fine
        # at the default tolerance, a reported failure at 1e-17
        tail = [2.971 + 3.924j, -4.146 - 9.97j, 9.469 - 4.032j, -3.72 + 7.834j]
        path = write_doc(tmp_path, "a.json", 5, tail)
        code, out, _ = run(capsys, "verify", path)
        assert code == 0
        code, out, _ = run(capsys, "verify", path, "--tolerance", "1e-17")
        assert code == 1
        assert "cayley-hamilton: FAIL" in out
        assert "residual" in out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_residuals_exit_two(self, tmp_path, capsys):
        # the products overflow, so the identities are never evaluated: the
        # residuals would print NaN, which is neither a pass, a fail, nor JSON
        path = write_doc(tmp_path, "a.json", 3, [1e300, 1e300])
        for flags in ([], ["--json"]):
            code, out, err = run(capsys, "verify", path, *flags)
            assert (code, out) == (2, "")
            assert err == "error: verification residuals are out of floating-point range\n"

    def test_out_of_memory_exits_two(self, tmp_path, capsys, monkeypatch):
        # what numpy raises when the check's arrays do not fit; never allocated here
        def no_memory(self):
            raise MemoryError("Unable to allocate 23.8 GiB for an array")

        monkeypatch.setattr(CyclicAlgebra, "verify_leibniz", no_memory)
        path = write_doc(tmp_path, "a.json", 3, [1, 2])
        for flags in ([], ["--json"]):
            code, out, err = run(capsys, "verify", path, *flags)
            assert (code, out) == (2, "")
            assert err == "error: Unable to allocate 23.8 GiB for an array\n"


class TestTable:
    def test_dimension_three(self, capsys):
        code, out, _ = run(capsys, "table", "3")
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("  ")]
        assert len(lines) == 3
        assert "nilpotent: a·a^3 = 0" in lines[0]
        assert "type 3: a·a^3 = a^3" in lines[1]
        assert "type 2: a·a^3 = a^2 + γ3·a^3" in lines[2]
        assert "orbit group order 2" in lines[2]

    def test_dimension_four_includes_cube_root_family(self, capsys):
        code, out, _ = run(capsys, "table", "4")
        assert code == 0
        assert out.count("type") == 3
        assert "orbit group order 3" in out

    def test_dimension_two(self, capsys):
        code, out, _ = run(capsys, "table", "2")
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("  ")]
        assert len(lines) == 2

    def test_out_of_range(self, capsys):
        code, out, err = run(capsys, "table", "0")
        assert (code, out) == (2, "")
        assert err == "error: dimension must be a positive integer, got 0\n"
        code, out, _ = run(capsys, "table", "1")
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("  ")] == [
            "  1. nilpotent: a·a^1 = 0"
        ]
        code, out, _ = run(capsys, "table", "17")
        assert code == 0
        assert out.count("type") == 16

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "table", "4", "--json")
        payload = json.loads(out)
        assert [f["k"] for f in payload["families"]] == [None, 4, 3, 2]


class TestFuzz:
    def test_clean_campaign(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--trials", "60", "--dim-max", "4",
                           "--seed", "42")
        assert code == 0
        assert "verdict:               pass" in out

    def test_oracle_exception_exits_one(self, capsys):
        code, out, err = run(capsys, "fuzz", "--trials", "50", "--dim-max", "16",
                             "--seed", "0")
        assert err == ""
        assert code == (0 if "verdict:               pass" in out else 1)
        if code:
            assert "reproduce with:" in out

    def test_zero_trials(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--trials", "0")
        assert code == 0

    def test_negative_seed_names_the_field(self, capsys):
        code, out, err = run(capsys, "fuzz", "--trials", "5", "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "error: seed must be a non-negative integer, got -1\n"

    def test_dim_max_beyond_int64_names_the_field(self, capsys):
        code, out, err = run(capsys, "fuzz", "--trials", "5",
                             "--dim-max", "9223372036854775808")
        assert (code, out) == (2, "")
        assert err == ("error: dim_max must be at most 2**63 - 1, "
                       "got 9223372036854775808\n")

    def test_tolerance_above_generator_scales_names_the_field(self, capsys):
        code, out, err = run(capsys, "fuzz", "--tolerance", "0.6")
        assert (code, out) == (2, "")
        assert err == ("error: tolerance must be below 0.5, the smallest generator "
                       "scale fuzz draws, got 0.6\n")
        code, out, err = run(capsys, "fuzz", "--tolerance", "0.3")
        assert code in (0, 1) and err == ""
        assert out.startswith("tolerance: 0.3\n")

    def test_tolerance_reads_back_exactly(self, capsys):
        # :g keeps six significant digits: 1.23457e-17 is another float
        code, out, _ = run(capsys, "fuzz", "--trials", "40", "--dim-max", "6",
                           "--tolerance", "1.23456789e-17")
        assert code == 1
        lines = out.splitlines()
        assert float(lines[0].removeprefix("tolerance: ")) == 1.23456789e-17
        assert lines[-1].startswith("reproduce with: ")
        assert float(lines[-1].split("--tolerance ")[1]) == 1.23456789e-17

    def test_byte_identical_reports(self, capsys):
        args = ("fuzz", "--trials", "50", "--dim-max", "4", "--seed", "9")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--trials", "25", "--json")
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["trials"] == 25


EXACT_DOCS = {
    "type2.json": (3, [4, 2]),
    "flip.json": (3, [1, -1]),
    "other.json": (3, [1, 2]),
    "cube.json": (4, [1, 1, 1]),
    "nil.json": (3, [0, 0]),
    "two.json": (2, [1]),
    # not integral: its relative c-h residual is rounding noise, about 1.7e-16
    "inexact.json": (3, [3.3, 1.7]),
}
CUBE_GAMMA = [[-0.5, -0.866025404], [-0.5, 0.866025404]]

# (argv, exit code, human stdout, --json record); integer tails, so every
# printed residual but the one FAIL case is exactly zero
EXACT_CASES = {
    "classify": (
        ["classify", "type2.json"], 0,
        "tolerance: 1e-09\ndimension: 3\nclass: type 2\n"
        "law: a·a^3 = a^2 + (-1)·a^3\ngamma: (-1)\n",
        {"class": "type 2", "dimension": 3, "gamma": [[-1.0, 0.0]], "k": 2,
         "law": "a·a^3 = a^2 + (-1)·a^3", "tolerance": 1e-09},
    ),
    "classify-nilpotent": (
        ["classify", "nil.json"], 0,
        "tolerance: 1e-09\ndimension: 3\nclass: nilpotent\n"
        "law: a·a^3 = 0\ngamma: ()\n",
        {"class": "nilpotent", "dimension": 3, "gamma": [], "k": None,
         "law": "a·a^3 = 0", "tolerance": 1e-09},
    ),
    "iso": (
        ["iso", "type2.json", "flip.json"], 0,
        "tolerance: 1e-09\nverdict: isomorphic\n",
        {"isomorphic": True, "tolerance": 1e-09, "verdict": "isomorphic"},
    ),
    "iso-not": (
        ["iso", "type2.json", "other.json"], 1,
        "tolerance: 1e-09\nverdict: not isomorphic\n",
        {"isomorphic": False, "tolerance": 1e-09, "verdict": "not isomorphic"},
    ),
    "iso-dimension-mismatch": (
        ["iso", "two.json", "type2.json"], 1,
        "tolerance: 1e-09\nverdict: not isomorphic (dimension mismatch: 2 vs 3)\n",
        {"isomorphic": False, "tolerance": 1e-09,
         "verdict": "not isomorphic (dimension mismatch: 2 vs 3)"},
    ),
    "iso-check": (
        ["iso", "type2.json", "flip.json", "--check"], 0,
        "tolerance: 1e-09\nverdict: isomorphic\nsearch oracle: agrees\n",
        {"isomorphic": True, "oracle_agrees": True, "oracle_isomorphic": True,
         "tolerance": 1e-09, "verdict": "isomorphic"},
    ),
    "iso-check-not": (
        ["iso", "type2.json", "other.json", "--check"], 1,
        "tolerance: 1e-09\nverdict: not isomorphic\nsearch oracle: agrees\n",
        {"isomorphic": False, "oracle_agrees": True, "oracle_isomorphic": False,
         "tolerance": 1e-09, "verdict": "not isomorphic"},
    ),
    "orbit": (
        ["orbit", "cube.json"], 0,
        "tolerance: 1e-09\ndimension: 4\nclass: type 2\n"
        "orbit members: 3 (group order 3)\n"
        "  (-0.5-0.866025404i, -0.5+0.866025404i)  [canonical]\n"
        "  (-0.5+0.866025404i, -0.5-0.866025404i)\n"
        "  (1, 1)\n",
        {"canonical": CUBE_GAMMA, "dimension": 4, "group_order": 3, "k": 2,
         "members": [CUBE_GAMMA, CUBE_GAMMA[::-1], [[1.0, 0.0], [1.0, 0.0]]],
         "tolerance": 1e-09},
    ),
    "orbit-nilpotent": (
        ["orbit", "nil.json"], 1,
        "tolerance: 1e-09\norbit undefined for nilpotent algebra\n",
        {"error": "orbit undefined for nilpotent algebra", "tolerance": 1e-09},
    ),
    "mul": (
        ["mul", "type2.json", "1,0,0", "0,2i,1"], 0,
        "tolerance: 1e-09\nproduct: (0, 4, 2+2i)\n",
        {"product": [[0.0, 0.0], [4.0, 0.0], [2.0, 2.0]], "tolerance": 1e-09},
    ),
    "verify": (
        ["verify", "cube.json"], 0,
        "tolerance: 1e-09\ndimension: 4\nleibniz: pass (max residual 0.000e+00)\n"
        "cayley-hamilton: pass (residual 0.000e+00)\n",
        {"cayley_passed": True, "cayley_residual": 0.0, "dimension": 4,
         "leibniz_passed": True, "leibniz_residual": 0.0, "tolerance": 1e-09},
    ),
    "verify-fail": (
        ["verify", "inexact.json", "--tolerance", "1e-17"], 1,
        "tolerance: 1e-17\ndimension: 3\nleibniz: pass (max residual 0.000e+00)\n"
        "cayley-hamilton: FAIL (residual 1.739e-16)\n",
        {"cayley_passed": False, "cayley_residual": 1.7392243984924373e-16, "dimension": 3,
         "leibniz_passed": True, "leibniz_residual": 0.0, "tolerance": 1e-17},
    ),
    "table": (
        ["table", "3"], 0,
        "tolerance: 1e-09\nclassification families for dimension 3:\n"
        "  1. nilpotent: a·a^3 = 0\n"
        "  2. type 3: a·a^3 = a^3\n"
        "  3. type 2: a·a^3 = a^2 + γ3·a^3  [1 parameter, orbit group order 2]\n",
        {"dimension": 3, "tolerance": 1e-09, "families": [
            {"k": None, "law": "a·a^3 = 0", "orbit_order": None, "parameters": 0},
            {"k": 3, "law": "a·a^3 = a^3", "orbit_order": 1, "parameters": 0},
            {"k": 2, "law": "a·a^3 = a^2 + γ3·a^3", "orbit_order": 2,
             "parameters": 1},
        ]},
    ),
}


class TestExactOutput:
    """Full stdout and exit code of each subcommand, human and --json."""

    @pytest.mark.parametrize("as_json", [False, True], ids=["human", "json"])
    @pytest.mark.parametrize("case", list(EXACT_CASES))
    def test_output(self, tmp_path, capsys, case, as_json):
        argv, expected_code, text, record = EXACT_CASES[case]
        for name, (n, tail) in EXACT_DOCS.items():
            write_doc(tmp_path, name, n, tail)
        argv = [str(tmp_path / a) if a in EXACT_DOCS else a for a in argv]
        code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
        assert (code, err) == (expected_code, "")
        assert out == (record_text(record) if as_json else text)

    @pytest.mark.parametrize("argv", [
        ["--trials", "60", "--dim-max", "4", "--seed", "42"],
        ["--trials", "50", "--dim-max", "16", "--seed", "0"],
    ])
    def test_fuzz_human_and_json_agree(self, capsys, argv):
        code, out, _ = run(capsys, "fuzz", *argv)
        json_code, json_out, _ = run(capsys, "fuzz", *argv, "--json")
        record = json.loads(json_out)
        assert code == json_code == (0 if record["passed"] else 1)
        lines = out.splitlines()
        assert lines[0] == f"tolerance: {record['tolerance']:g}"
        fields = dict(line.split(":", 1) for line in lines[2:10])
        assert {key: value.strip() for key, value in fields.items()} == {
            "trials requested": str(record["trials"]),
            "trials executed": str(record["executed"]),
            "skipped near boundary": str(record["skipped_near_boundary"]),
            "law agreements": f"{record['law_checks']} "
                              f"(max deviation {record['max_law_deviation']:.3e})",
            "iso agreements": str(record["iso_checks"]),
            "max leibniz residual": f"{record['max_leibniz_residual']:.3e}",
            "max cayley residual": f"{record['max_cayley_residual']:.3e}",
            "verdict": "pass" if record["passed"] else "FAIL",
        }
        failures = [line[len("failure: "):] for line in lines
                    if line.startswith("failure: ")]
        assert failures == record["failures"]
        assert any(line.startswith("reproduce with:") for line in lines) == (
            not record["passed"]
        )


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = write_doc(tmp_path, "a.json", 3, [4, 2])
        result = subprocess.run(
            [sys.executable, "-m", "cyclic_leibniz", "classify", path],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "class: type 2" in result.stdout

    @pytest.mark.parametrize("command", ["classify", "orbit"])
    def test_pipe_closed_before_output_exits_quietly(self, tmp_path, command):
        # the few lines fit the stdout buffer, so the write fails at the final
        # flush; PYTHONUNBUFFERED would make print itself fail instead
        path = write_doc(tmp_path, "a.json", 3, [4, 2])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "cyclic_leibniz", command, path],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120, env=env,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (EXIT_BROKEN_PIPE, "")

    def test_pipe_closed_mid_output_exits_quietly(self, tmp_path):
        # orbit of dimension 200 prints about 600 kB; read 300 bytes, then close
        path = write_doc(tmp_path, "ones.json", 200, [1] * 199)
        proc = subprocess.Popen(
            [sys.executable, "-m", "cyclic_leibniz", "orbit", path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            head = proc.stdout.read(300)
            proc.stdout.close()
            stderr = proc.stderr.read()
            code = proc.wait(timeout=120)
        finally:
            proc.kill()
            proc.stderr.close()
        assert head.startswith("tolerance: 1e-09\ndimension: 200\n")
        assert "Traceback" not in stderr
        assert (code, stderr) == (EXIT_BROKEN_PIPE, "")


class TestGlobalFlags:
    def test_tolerance_must_be_positive(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", 2, [1])
        code, _, err = run(capsys, "classify", path, "--tolerance", "-1")
        assert code == 2

    @pytest.mark.parametrize("argv", [["table", "2", "--json"], ["fuzz", "--trials", "0"]])
    def test_infinite_tolerance_exits_two(self, capsys, argv):
        # neither command builds an algebra that would check the flag
        code, out, err = run(capsys, *argv, "--tolerance", "inf")
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_extreme_scale_rejected_alike_by_classify_and_orbit(self, tmp_path, capsys):
        # the least orbit member is on the 1e-300 grid, another member is not
        tail = [1, -1, 2.4e8 * cmath.exp(1j * math.pi / 4)]
        path = write_doc(tmp_path, "a.json", 4, tail, tolerance=1e-300)
        expected = (2, "", "error: -231822198.309+62116570.8246i is out of range "
                           "of the eps=1e-300 grid\n")
        assert run(capsys, "classify", path) == expected
        assert run(capsys, "orbit", path) == expected

    def test_tolerance_below_grid_range_is_an_error_message(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", 3, [4, 2])
        code, out, err = run(capsys, "classify", path, "--tolerance", "1e-320")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "out of range" in err

    def test_tolerance_echoed_in_header(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", 2, [1])
        _, out, _ = run(capsys, "classify", path, "--tolerance", "1e-7")
        assert out.startswith("tolerance: 1e-07")

    def test_file_tolerance_used_when_flag_absent(self, tmp_path, capsys):
        path = write_doc(tmp_path, "a.json", 2, [1], tolerance=1e-6)
        _, out, _ = run(capsys, "classify", path)
        assert out.startswith("tolerance: 1e-06")

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
