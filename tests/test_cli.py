import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import darboux3
from darboux3.cli import main

HSA_1011 = ["hsa", "--alpha", "1", "--beta", "0", "--kappa", "1", "--lambda", "1"]
HSA_1001 = ["hsa", "--alpha", "1", "--beta", "0", "--kappa", "0", "--lambda", "1"]
HSA_1111 = ["hsa", "--alpha", "1", "--beta", "1", "--kappa", "1", "--lambda", "1"]


def child_pythonpath() -> str:
    """Import path for a child process: the darboux3 under test, not an installed one."""
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(darboux3.__file__)))
    return os.pathsep.join(p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p)


def run_json(tmp_path, args, name="r.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None)


class TestAnalyzeCommand:
    def test_report_structure_and_verdict(self, tmp_path):
        code, report = run_json(
            tmp_path, ["analyze"] + HSA_1111 + ["--degree", "2", "--seed", "5"]
        )
        assert code == 0
        for key in ("schema", "tool", "version", "seed", "config", "model", "conclusion"):
            assert key in report
        assert report["schema"] == 1
        assert report["seed"] == 5
        assert report["conclusion"] == "none_up_to_bound"
        assert report["model"]["dx"] == "x*y - x - z"
        assert [c["body"]["text"] for c in report["exp_factors"]] == ["z"]

    def test_integrable_case(self, tmp_path):
        code, report = run_json(tmp_path, ["analyze"] + HSA_1001 + ["--degree", "2"])
        assert code == 0
        assert report["conclusion"] == "darboux_integral_found"
        nontrivial = [c for c in report["combinations"] if not c["trivial"]]
        assert len(nontrivial) == 1

    def test_byte_identical_reports(self, tmp_path):
        args = ["analyze"] + HSA_1011 + ["--degree", "2", "--seed", "3"]
        main(args + ["--out", str(tmp_path / "a.json")])
        main(args + ["--out", str(tmp_path / "b.json")])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_exact_residual_is_constant_and_seed_free(self, tmp_path):
        # sampled minors used to leave t^2 + 2*t + 2 in cell b2=0 under seed
        # 217; the seed is echoed, and the rest of the report is the same bytes
        reports = []
        for seed in (0, 12, 217):
            out = tmp_path / f"{seed}.json"
            main(["analyze"] + HSA_1001 + ["--degree", "2", "--seed", str(seed), "--out", str(out)])
            reports.append(out.read_text().replace(f'"seed": {seed}', '"seed": null'))
        assert "nonconstant residual" not in reports[0]
        assert reports[1:] == reports[:1] * 2

    def test_coefficient_maps(self, tmp_path):
        _, report = run_json(tmp_path, ["analyze"] + HSA_1011 + ["--degree", "2"])
        cert = report["darboux_polynomials"][0]
        assert cert["body"]["coefficients"] == {"x": "1"}
        assert cert["cofactor"]["coefficients"] == {"y": "1", "1": "-1"}

    def test_degree_cap(self, tmp_path, capsys):
        code, _ = run_json(tmp_path, ["analyze"] + HSA_1011 + ["--degree", "9"])
        assert code == 2
        assert "capped at 6 (a bound on run time and memory)" in capsys.readouterr().err


class TestModelValidation:
    def test_both_sources_rejected(self, tmp_path, capsys):
        field = tmp_path / "f.txt"
        field.write_text("dx = x\ndy = y\ndz = z\n")
        code = main(["analyze", "hsa", "--field", str(field)])
        assert code == 2
        assert "model source" in capsys.readouterr().err

    def test_no_source_rejected(self):
        assert main(["analyze"]) == 2

    def test_missing_hsa_flag_named(self, capsys):
        code = main(["analyze", "hsa", "--alpha", "1", "--beta", "0", "--kappa", "0"])
        assert code == 2
        assert "--lambda" in capsys.readouterr().err

    def test_float_rational_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "hsa", "--alpha", "0.5", "--beta", "0", "--kappa", "0", "--lambda", "0"])
        assert exc.value.code == 2

    def test_unreadable_field_file(self, capsys):
        code = main(["analyze", "--field", "/nonexistent/path.txt"])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_field_file_parse_error(self, tmp_path, capsys):
        field = tmp_path / "f.txt"
        field.write_text("dx = x/y\ndy = y\ndz = z\n")
        code = main(["analyze", "--field", str(field)])
        assert code == 2

    def test_field_file_exponent_above_cap(self, tmp_path, capsys):
        field = tmp_path / "f.txt"
        field.write_text("dx = x^1000\ndy = y\ndz = z\n")
        code = main(["verify", "--field", str(field), "--poly", "y", "--cofactor", "1"])
        assert code == 2
        assert "exponent above" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "expr, message",
        [
            ("(x^32)^3", "degree 96 above 32"),
            ("((x+y+z+1)^8)^8", "degree 64 above 32"),
            ("((((((2^32)^32)^32)^32)^32)^32)", "bits above 4096"),
        ],
    )
    def test_field_file_degree_above_cap(self, tmp_path, capsys, expr, message):
        field = tmp_path / "f.txt"
        field.write_text(f"dx = {expr}\ndy = y\ndz = z\n")
        code = main(["verify", "--field", str(field), "--poly", "y", "--cofactor", "1"])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "expr",
        ["(" * 200 + "x" + ")" * 200, "-" * 1000 + "x", "x" + "^1" * 500],
        ids=["parentheses", "signs", "exponents"],
    )
    def test_field_file_nesting_above_cap(self, tmp_path, capsys, expr):
        # the parser recurses once per level, so nesting is capped well below
        # the interpreter's recursion limit
        field = tmp_path / "f.txt"
        field.write_text(f"dx = {expr}\ndy = y\ndz = z\n")
        code = main(["verify", "--field", str(field), "--poly", "y", "--cofactor", "1"])
        assert code == 2
        assert "nesting deeper than 100" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "template",
        [
            "[]",
            '{"fixed": [["b1", 0]], "eigen": "b0", "enumerate": {"b2": [1]}}',
            '{"fixed": {"b1": 1e400, "b3": 0}, "eigen": "b0", "enumerate": {"b2": [1]}}',
            '{"fixed": {"b1": "1/0", "b3": 0}, "eigen": "b0", "enumerate": {"b2": [1]}}',
            '{"fixed": {"b1": 0.1, "b3": 0}, "eigen": "b0", "enumerate": {"b2": [1]}}',
            '{"fixed": {"b1": true, "b3": 0}, "eigen": "b0", "enumerate": {"b2": [1]}}',
            '{"fixed": {"b1": 0, "b3": 0}, "eigen": "b0", "enumerate": {"b2": "12"}}',
            '{"fixed": {"b1": 0, "b3": 0}, "eigen": "b0", "enumerate": {"b2": [1]}, "extra": 5}',
            '{"fixed": {"b1": 0, "b3": 0}, "eigen": "b0", "enumerated": {"b2": [1]}}',
        ],
        ids=["not-an-object", "fixed-list", "overflowing-float", "zero-denominator", "float",
             "boolean", "enumerate-string", "unknown-key", "misspelt-key"],
    )
    def test_template_json_value_rejected(self, capsys, template):
        # template values are JSON integers or integer and p/q literal strings,
        # and the only keys are fixed, eigen and enumerate
        args = ["search-darboux"] + HSA_1001 + ["--degree", "2", "--template-json", template]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --template-json: ")
        raw = json.loads(template)
        unknown = set(raw) - {"fixed", "eigen", "enumerate"} if isinstance(raw, dict) else set()
        for key in unknown:  # an unknown key is named, not ignored
            assert f'unknown key "{key}"; expected fixed, eigen, enumerate' in err

    def test_field_file_with_params(self, tmp_path):
        field = tmp_path / "f.txt"
        field.write_text(
            "# dynamo, beta = 0\nparam a = 1\ndx = x*(y-1)\ndy = a*(1-x^2) - y\ndz = x - z\n"
        )
        code, report = run_json(
            tmp_path, ["analyze", "--field", str(field), "--degree", "2"]
        )
        assert code == 0
        assert report["model"]["params"]["a"] == "1"

    def test_extra_param_flag(self, tmp_path):
        field = tmp_path / "f.txt"
        field.write_text("dx = c*x\ndy = y\ndz = z\n")
        for param in ("c=3/2", "c=3 / 2"):
            code, report = run_json(
                tmp_path,
                ["analyze", "--field", str(field), "--param", param, "--degree", "1"],
            )
            assert code == 0
            assert report["model"]["dx"] == "3/2*x"


# field-file text over the grammar's alphabet: free text, and three
# definition lines whose bodies are free text
_EXPR_CHARS = st.sampled_from(list("0123456789xyz+-*/^(). "))
_FIELD_PIECES = st.sampled_from(list("0123456789xyz+-*/^(). \n") + ["dx = ", "dy = ", "dz = "])
field_file_text = st.one_of(
    st.lists(_FIELD_PIECES, max_size=80).map("".join),
    st.lists(st.lists(_EXPR_CHARS, max_size=40).map("".join), min_size=3, max_size=3).map(
        lambda bodies: "".join(f"d{v} = {b}\n" for v, b in zip("xyz", bodies))
    ),
)


@given(field_file_text)
@settings(max_examples=200, deadline=2000)
def test_field_file_fuzz_ends_in_documented_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        field = os.path.join(tmp, "f.txt")
        with open(field, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--field", field, "--poly", "y", "--cofactor", "1"])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


class TestVerifyCommand:
    def test_darboux_poly_true(self, tmp_path):
        field = tmp_path / "f.txt"
        field.write_text("param b = 0\ndx = x*(y-1) - b*z\ndy = 1 - x^2 - y\ndz = x - z\n")
        code, report = run_json(
            tmp_path,
            ["verify", "--field", str(field), "--poly", "x", "--cofactor", "y-1"],
        )
        assert code == 0
        assert report["verified"] is True
        assert report["relation"] == "X(h) = K*h"

    def test_darboux_poly_false_still_exit_zero(self, tmp_path):
        code, report = run_json(
            tmp_path,
            ["verify"] + HSA_1111 + ["--poly", "x", "--cofactor", "y-1"],
        )
        assert code == 0
        assert report["verified"] is False

    def test_exp_factor(self, tmp_path):
        code, report = run_json(
            tmp_path,
            ["verify"] + HSA_1111 + ["--exp-g", "z", "--cofactor", "x-z"],
        )
        assert code == 0
        assert report["verified"] is True

    def test_exp_factor_with_denominator(self, tmp_path):
        code, report = run_json(
            tmp_path,
            ["verify"]
            + HSA_1011
            + ["--exp-g", "z*x", "--exp-den", "x", "--cofactor", "x-z"],
        )
        assert code == 0
        assert report["verified"] is True
        assert report["relation"] == "X(g/h) = L"

    def test_needs_exactly_one_candidate(self):
        assert main(["verify"] + HSA_1111 + ["--cofactor", "y-1"]) == 2

    def test_high_degree_cofactor_rejected(self):
        assert main(["verify"] + HSA_1111 + ["--poly", "x", "--cofactor", "x^2"]) == 2


class TestSignedFlagValues:
    """Expression, rational and point flags take a value that starts with "-"
    as the next token, not only in the --flag=value form."""

    def test_cofactor_and_poly(self, tmp_path):
        field = tmp_path / "f.txt"
        field.write_text("dx = -x*y\ndy = 1\ndz = 0\n")
        for poly in ("x", "-x"):
            code, report = run_json(
                tmp_path, ["verify", "--field", str(field), "--poly", poly, "--cofactor", "-y"]
            )
            assert code == 0
            assert report["verified"] is True
            assert (report["config"]["poly"], report["config"]["cofactor"]) == (poly, "-y")

    def test_negative_rational_alpha(self, tmp_path):
        args = ["analyze", "hsa", "--alpha", "-1/2", "--beta", "0", "--kappa", "1", "--lambda", "1"]
        code, report = run_json(tmp_path, args + ["--degree", "1"])
        assert code == 0
        assert report["config"]["alpha"] == "-1/2"

    def test_resonant_tuple(self, tmp_path):
        args = ["analyze", "hsa", "--alpha", "-4/9", "--beta", "0", "--kappa", "4/3"]
        code, report = run_json(tmp_path, args + ["--lambda", "0", "--degree", "1"])
        assert code == 0
        assert (report["config"]["alpha"], report["config"]["kappa"]) == ("-4/9", "4/3")

    def test_negative_x0(self, tmp_path):
        args = ["drift"] + HSA_1001 + ["--integral", "F1", "--x0", "-0.5,0.2,0.1"]
        code, _ = run_json(tmp_path, args + ["--t-end", "1", "--h", "0.01"])
        assert code == 3  # F1 needs x > 0: the point was read

    def test_flag_followed_by_a_flag_still_lacks_its_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "hsa", "--alpha", "--beta", "0", "--kappa", "0", "--lambda", "0"])
        assert exc.value.code == 2
        assert "--alpha: expected one argument" in capsys.readouterr().err


class TestSearchCommands:
    def test_fixed_cofactor_mode(self, tmp_path):
        code, report = run_json(
            tmp_path,
            ["search-darboux"] + HSA_1011 + ["--degree", "3", "--cofactor", "y-1"],
        )
        assert code == 0
        assert report["mode"] == "fixed-cofactor"
        assert [p["text"] for p in report["kernel_basis"]] == ["x"]

    def test_pencil_mode(self, tmp_path):
        code, report = run_json(tmp_path, ["search-darboux"] + HSA_1011 + ["--degree", "2"])
        assert code == 0
        assert report["mode"] == "pencil"
        assert [c["body"]["text"] for c in report["certificates"]] == ["x", "x^2"]
        assert report["template"]["eigen"] == "b0"

    def test_field_template_sweeps_b2_both_ways(self, tmp_path):
        field = tmp_path / "f.txt"
        field.write_text("dx = -x*y\ndy = 1\ndz = 0\n")
        code, report = run_json(
            tmp_path, ["search-darboux", "--field", str(field), "--degree", "2"]
        )
        assert code == 0
        assert report["template"]["enumerate"] == {"b2": ["-2", "-1", "0", "1", "2"]}
        assert "x" in [c["body"]["text"] for c in report["certificates"]]

    def test_template_json(self, tmp_path):
        template = '{"fixed": {"b1": "0", "b3": "0", "b2": "1"}, "eigen": "b0", "enumerate": {}}'
        code, report = run_json(
            tmp_path,
            ["search-darboux"] + HSA_1011 + ["--degree", "2", "--template-json", template],
        )
        assert code == 0
        assert [c["body"]["text"] for c in report["certificates"]] == ["x"]

    @pytest.mark.parametrize(
        "template",
        [
            '{"fixed": {"b1": 0, "b3": 0}, "eigen": 5, "enumerate": {"b2": [1]}}',
            '{"fixed": {"b0": 0, "b1": 0, "b3": 0}, "enumerate": {"b2": [1]}}',
        ],
        ids=["eigen-not-a-string", "eigen-missing"],
    )
    def test_template_json_eigen_must_name_a_slot(self, capsys, template):
        args = ["search-darboux"] + HSA_1011 + ["--degree", "2", "--template-json", template]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            'error: --template-json: "eigen" must be a string naming the solved slot, '
            "one of b0..b3\n"
        )

    def test_bad_template_json(self):
        assert (
            main(["search-darboux"] + HSA_1011 + ["--template-json", "{bad json"]) == 2
        )

    def test_expfactors(self, tmp_path):
        code, report = run_json(tmp_path, ["search-expfactors"] + HSA_1111 + ["--degree", "2"])
        assert code == 0
        assert [c["body"]["text"] for c in report["certificates"]] == ["z"]
        assert report["certificates"][0]["cofactor"]["text"] == "x - z"


class TestCombineCommand:
    def test_from_analyze_report(self, tmp_path):
        _, _ = run_json(
            tmp_path, ["analyze"] + HSA_1001 + ["--degree", "2"], name="analysis.json"
        )
        code, report = run_json(
            tmp_path,
            ["combine", "--from", str(tmp_path / "analysis.json")],
            name="combo.json",
        )
        assert code == 0
        nontrivial = [c for c in report["combinations"] if not c["trivial"]]
        assert len(nontrivial) == 1
        assert nontrivial[0]["log_derivative_numerator"] == "0"

    def test_missing_report(self):
        assert main(["combine", "--from", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize(
        "damage",
        [lambda blk: blk.pop("body"), lambda blk: blk.update(kind="bogus")],
        ids=["no-body", "unknown-kind"],
    )
    def test_malformed_certificate_block(self, tmp_path, capsys, damage):
        run_json(tmp_path, ["analyze"] + HSA_1001 + ["--degree", "2"], name="analysis.json")
        report = json.loads((tmp_path / "analysis.json").read_text())
        damage(report["darboux_polynomials"][0])
        (tmp_path / "bad.json").write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["combine", "--from", str(tmp_path / "bad.json")]) == 2
        assert capsys.readouterr().err.startswith("error: --from: ")

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '{"model": {"dx": "x"}, "certificates": []}',
            '{"model": {"dx": "x", "dy": "y", "dz": "z"}, "certificates": 5}',
        ],
        ids=["not-an-object", "model-without-dy", "certificates-not-a-list"],
    )
    def test_malformed_report(self, tmp_path, capsys, text):
        (tmp_path / "bad.json").write_text(text)
        assert main(["combine", "--from", str(tmp_path / "bad.json")]) == 2
        assert capsys.readouterr().err.startswith("error: --from: ")

    def test_deeply_nested_report(self, tmp_path, capsys):
        # deeper than the JSON parser's recursion limit
        (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
        assert main(["combine", "--from", str(tmp_path / "deep.json")]) == 2
        assert capsys.readouterr().err.startswith("error: --from: cannot load report: ")


@functools.lru_cache(maxsize=None)
def _analyze_report(model: tuple) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", *model, "--degree", "2"]) == 0
    return out.getvalue()


# JSON values that replace a part of a report: wrong types, large integers
# (below the 4300-digit limit of int-to-str conversion) and nested arrays
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=8),
    st.text(alphabet="0123456789xyz+-*/^(). ", max_size=8),
    st.sampled_from(["x", "z", "y - 1", "x - z", "x^2", "1"]),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.integers(min_value=0, max_value=4000).map(lambda n: -(10**n)),
    st.integers(min_value=1, max_value=50).map(
        lambda n: functools.reduce(lambda acc, _: [acc], range(n), [])
    ),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


def _slots(node):
    """Every (container, key) pair of a JSON tree."""
    for key in list(node) if isinstance(node, dict) else range(len(node)):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


@st.composite
def damaged_report(draw):
    """A valid analyze report in which one to four parts, each drawn from all
    of its keys and array items, are dropped or replaced by _JUNK."""
    report = json.loads(_analyze_report(draw(st.sampled_from([tuple(HSA_1001), tuple(HSA_1111)]))))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        slots = list(_slots(report))
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        if draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(_JUNK)
    return report


report_text = st.one_of(
    damaged_report().map(json.dumps),
    st.builds(lambda text, cut: text[:cut], damaged_report().map(json.dumps), st.integers(0, 2000)),
    _JUNK.map(json.dumps) | st.integers(1, 100_000).map(lambda n: "[" * n + "]" * n),
)


@given(report_text)
@settings(max_examples=150, deadline=2000)
def test_combine_report_fuzz_ends_in_documented_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "r.json")
        with open(report, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["combine", "--from", report])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


# --template-json text: a valid template with one to three parts dropped or
# replaced by _JUNK, cut short, or junk
_TEMPLATE = {"fixed": {"b1": "0", "b3": 0}, "eigen": "b0", "enumerate": {"b2": [-1, "0", "1/2"]}}


@st.composite
def damaged_template(draw):
    template = json.loads(json.dumps(_TEMPLATE))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        slots = list(_slots(template))
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        if draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(_JUNK)
    return template


@given(
    st.one_of(
        damaged_template().map(json.dumps),
        st.builds(
            lambda text, cut: text[:cut], damaged_template().map(json.dumps), st.integers(0, 120)
        ),
        _JUNK.map(json.dumps),
    )
)
@settings(max_examples=150, deadline=2000)
def test_template_json_fuzz_ends_in_documented_exit_code(text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["search-darboux"] + HSA_1001 + ["--degree", "2", "--template-json", text])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


class TestNumericCommands:
    def test_simulate_csv(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(
            ["simulate"]
            + HSA_1001
            + ["--x0", "0.5,0.2,0.1", "--t-end", "0.01", "--h", "0.001", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,y,z"
        assert lines[1] == "0.0,0.5,0.2,0.1"
        assert len(lines) == 12
        t, x, y, z = (float(v) for v in lines[-1].split(","))
        assert t == pytest.approx(0.01)

    def test_simulate_needs_one_mode(self):
        code = main(
            ["simulate"] + HSA_1001 + ["--x0", "0.5,0.2,0.1", "--h", "0.1", "--tolerance", "0.1"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "command",
        [
            ["simulate"] + HSA_1001 + ["--x0", "0.5,0.2,0.1", "--h", "0.1"],
            ["drift"] + HSA_1001 + ["--integral", "F1", "--x0", "0.5,0.2,0.1"],
        ],
        ids=["simulate", "drift"],
    )
    def test_infinite_t_end_rejected(self, capsys, command):
        assert main(command + ["--t-end", "inf"]) == 2
        assert capsys.readouterr().err.startswith("error: t_end must be positive and finite")

    @pytest.mark.parametrize(
        "command",
        [
            ["simulate"] + HSA_1001 + ["--x0", "0.5,0.2,0.1"],
            ["drift"] + HSA_1001 + ["--integral", "F1", "--x0", "0.5,0.2,0.1"],
        ],
        ids=["simulate", "drift"],
    )
    def test_sample_count_above_cap_rejected(self, capsys, monkeypatch, command):
        from darboux3 import numerics

        def no_step(*args):
            raise AssertionError("integration ran")

        monkeypatch.setattr(numerics, "_rk4_step", no_step)
        assert main(command + ["--t-end", "1e9", "--h", "1e-9"]) == 2
        assert "above the cap" in capsys.readouterr().err

    def test_drift_report(self, tmp_path):
        code, report = run_json(
            tmp_path,
            ["drift"]
            + HSA_1001
            + [
                "--integral",
                "F1",
                "--x0",
                "0.5,0.2,0.1",
                "--t-end",
                "1",
                "--h",
                "0.001",
                "--study-h",
                "0.01",
            ],
        )
        assert code == 0
        assert report["drift"]["relative_drift"] < 1e-10
        assert report["drift"]["domain_violation"] is None
        assert report["step_halving"]["ratio"] > 1

    def test_drift_constraint_violation_exit2(self, tmp_path):
        code, _ = run_json(
            tmp_path,
            ["drift"] + HSA_1111 + ["--integral", "F1", "--x0", "0.5,0.2,0.1"],
        )
        assert code == 2

    def test_drift_domain_error_exit3(self, tmp_path):
        code, _ = run_json(
            tmp_path,
            ["drift"] + HSA_1001 + ["--integral", "F1", "--x0=-0.5,0.2,0.1", "--t-end", "1", "--h", "0.01"],
        )
        assert code == 3

    def test_f2_experiment(self, tmp_path):
        code, report = run_json(
            tmp_path,
            ["f2-experiment"]
            + HSA_1001
            + ["--x0", "0.5,1.5,0.1", "--t-end", "3", "--h", "0.001"],
        )
        assert code == 0
        assert report["conserved_variant"] == "F2_corrected"
        assert report["variants"]["F2_paper"]["symbolically_conserved"] is False
        assert report["variants"]["F2_corrected"]["symbolically_conserved"] is True
        assert report["variants"]["F2_paper"]["symbolic_ddt_numerator"] == "x^2*z - z"

    def test_drift_requires_dynamo_model(self, tmp_path):
        field = tmp_path / "f.txt"
        field.write_text("dx = x\ndy = y\ndz = z\n")
        code = main(
            ["drift", "--field", str(field), "--integral", "F1", "--x0", "0.5,0.2,0.1"]
        )
        assert code == 2


class TestFullDegreeAnalyze:
    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["analyze"] + HSA_1111 + ["--no-such-flag"])
        assert exc.value.code == 2

    def test_analyze_degree_4(self, tmp_path):
        code, report = run_json(tmp_path, ["analyze"] + HSA_1111 + ["--degree", "4"])
        assert code == 0
        assert report["conclusion"] == "none_up_to_bound"
        assert report["darboux_polynomials"] == []
        assert [c["body"]["text"] for c in report["exp_factors"]] == ["z"]

    def test_combine_from_expfactor_search(self, tmp_path):
        main(
            ["search-expfactors"]
            + HSA_1001
            + ["--degree", "2", "--out", str(tmp_path / "exp.json")]
        )
        code, report = run_json(
            tmp_path, ["combine", "--from", str(tmp_path / "exp.json")], name="c.json"
        )
        assert code == 0
        # e^z (x - z) and the quadratic (1 - y) have independent cofactors
        assert all(c["trivial"] for c in report["combinations"])


class TestCrossProcessStability:
    def test_reports_stable_under_hash_randomization(self, tmp_path):
        # Minimal environment: only the hash seed may differ between the runs.
        pythonpath = child_pythonpath()
        args = [
            sys.executable, "-m", "darboux3.cli",
            "analyze", "hsa", "--alpha", "1", "--beta", "0",
            "--kappa", "0", "--lambda", "1", "--degree", "2",
        ]
        outs = []
        for seed in ("1", "99"):
            out = tmp_path / f"h{seed}.json"
            env = {
                "PYTHONHASHSEED": seed,
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": pythonpath,
            }
            subprocess.run(args + ["--out", str(out)], check=True, env=env)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @staticmethod
    def loaded_by_cli_import(package: str) -> str:
        """The modules of package that a fresh `import darboux3.cli` loads."""
        code = (
            "import sys, darboux3.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
        )
        env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": child_pythonpath()}
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, env=env, capture_output=True, text=True
        )
        return out.stdout.strip()

    def test_cli_import_leaves_scipy_unloaded(self):
        assert self.loaded_by_cli_import("scipy") == "[]"

    def test_cli_import_leaves_numpy_unloaded(self):
        assert self.loaded_by_cli_import("numpy") == "[]"

    def test_pencil_report_carries_sampling_note(self, tmp_path):
        code, report = run_json(tmp_path, ["search-darboux"] + HSA_1011 + ["--degree", "2"])
        assert code == 0
        assert any("minor sampling" in note for note in report["notes"])
