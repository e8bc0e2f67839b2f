import json
import math
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from qdiv.cli import main
from qdiv.files import load_operator, save_operator
from qdiv.sampling import SeededRng, haar_unitary
from qdiv.suites import SUITES, run_suite


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qdiv", *args],
        capture_output=True, text=True,
    )


@pytest.fixture
def diag_files(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_operator(a, np.diag([0.5, 0.5]), role="density")
    save_operator(b, np.diag([1.0, 0.0]), role="density")
    return str(a), str(b)


# ------------------------------------------------------------------- div

def test_div_self_is_zero(diag_files):
    a, _ = diag_files
    out = run_cli("div", "sandwiched", a, a, "--alpha", "2")
    assert out.returncode == 0
    assert out.stdout.strip() == "0.000000000000"


def test_div_support_violation_prints_inf(diag_files):
    a, b = diag_files
    out = run_cli("div", "sandwiched", a, b, "--alpha", "2")
    assert out.returncode == 0
    assert out.stdout.strip() == "inf"


def test_div_umegaki_log_two(diag_files):
    a, b = diag_files
    out = run_cli("div", "umegaki", b, a)
    assert out.returncode == 0
    assert out.stdout.strip() == "0.693147180560"


def test_div_fdiv_with_registry_function(diag_files):
    a, _ = diag_files
    out = run_cli("div", "fdiv", a, a, "--f", "xlogx")
    assert out.returncode == 0
    assert out.stdout.strip() == "0.000000000000"


def test_div_dfg(diag_files):
    a, _ = diag_files
    out = run_cli("div", "dfg", a, a, "--f", "power:0.5", "--g", "power:2")
    assert out.returncode == 0
    # tr (B^1/2 A B^1/2)^2 at A=B=I/2: sum (1/4)^2 = 1/8
    assert out.stdout.strip() == "0.125000000000"


def test_div_writes_report(diag_files, tmp_path):
    a, b = diag_files
    report = tmp_path / "r.json"
    out = run_cli("div", "sandwiched", a, b, "--alpha", "2", "--out", str(report))
    assert out.returncode == 0
    doc = json.loads(report.read_text())
    assert doc["results"]["value"] == "inf"


# ------------------------------------------------------------- exit codes

def test_exit_code_validation_failure(tmp_path):
    bad = tmp_path / "bad.json"
    save_operator(bad, np.diag([0.6, 0.6]))  # not a density, no role claimed
    ok = tmp_path / "ok.json"
    save_operator(ok, np.diag([0.5, 0.5]))
    out = run_cli("div", "umegaki", str(bad), str(ok))
    assert out.returncode == 2
    assert "invalid input" in out.stderr


def test_exit_code_role_mismatch(tmp_path):
    bad = tmp_path / "claimed.json"
    # claims to be a density but is not
    text = open(bad, "w", encoding="utf-8")
    from qdiv.files import operator_to_text

    text.write(operator_to_text(np.diag([0.6, 0.6]), role="density"))
    text.close()
    ok = tmp_path / "ok.json"
    save_operator(ok, np.diag([0.5, 0.5]))
    out = run_cli("div", "umegaki", str(bad), str(ok))
    assert out.returncode == 2


def test_exit_code_unparseable_file(tmp_path, diag_files):
    a, _ = diag_files
    junk = tmp_path / "junk.json"
    junk.write_text("{this is not json")
    out = run_cli("div", "umegaki", a, str(junk))
    assert out.returncode == 2


def test_exit_code_missing_file(diag_files):
    a, _ = diag_files
    out = run_cli("div", "umegaki", a, "/nonexistent/b.json")
    assert out.returncode == 2


def test_exit_code_unknown_tag(diag_files):
    a, b = diag_files
    out = run_cli("div", "nonsense", a, b)
    assert out.returncode == 3


def test_exit_code_missing_parameter(diag_files):
    a, b = diag_files
    out = run_cli("div", "sandwiched", a, b)  # no --alpha
    assert out.returncode == 3


@pytest.mark.parametrize("flags", [
    ("umegaki", "--alpha", "2"),
    ("fdiv", "--f", "xlogx", "--g", "power:2", "--alpha", "7"),
    ("sandwiched", "--alpha", "2", "--f", "xlogx"),
])
def test_exit_code_parameter_the_tag_does_not_take(diag_files, flags):
    a, b = diag_files
    out = run_cli("div", flags[0], a, b, *flags[1:])
    assert out.returncode == 3
    assert out.stdout == ""
    assert "takes no" in out.stderr


def test_exit_code_unknown_function(diag_files):
    a, b = diag_files
    out = run_cli("div", "fdiv", a, b, "--f", "mystery:3")
    assert out.returncode == 3


def _readme_exit_codes():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    paragraph = readme.read_text(encoding="utf-8").split("Exit codes:")[1].split("\n\n")[0]
    return {int(c) for c in re.findall(r"`(\d)`", paragraph)}


def _scalar_file(tmp_path, name, entry):
    """An n = 1 positive operator file; JSON text, so inf and nan can be spelled."""
    path = tmp_path / f"{name}.json"
    path.write_text(f'{{"dim": 1, "role": "positive", "re": [[{entry}]], "im": [[0]]}}')
    return str(path)


DIV_PARAMS = {"umegaki": [], "renyi": ["--alpha", "2"], "sandwiched": ["--alpha", "3"],
              "sandwiched-core": ["--alpha", "2"], "fdiv": ["--f", "xlogx"],
              "dfg": ["--f", "power:0.5", "--g", "power:2"]}


def test_div_edge_inputs_exit_with_a_documented_code(tmp_path, capsys):
    """n = 1 operands 2^k (k from -1070 to 1020) on either side or both,
    subnormal, zero and non-finite entries: every run ends with an exit code
    the README lists, and no exception escapes ``main``.  Both Renyi
    divergences of the 1x1 operators [a] and [b] are log a - log b at every
    scale."""
    codes = _readme_exit_codes()
    assert codes == {0, 1, 2, 3}
    one = _scalar_file(tmp_path, "one", "1")
    scales = {_scalar_file(tmp_path, f"k{k}", repr(2.0**k)): k * math.log(2.0)
              for k in list(range(-1070, 1021, 29)) + [1020]}
    odd = [_scalar_file(tmp_path, f"odd{i}", entry) for i, entry in enumerate(
        ["5e-324", "1e-320", "0", "-1e-320", "Infinity", "-Infinity", "NaN", "1e999"])]
    for tag, params in DIV_PARAMS.items():
        for x in list(scales) + odd:
            for a, b in ((x, one), (one, x), (x, x)):
                capsys.readouterr()
                code = main(["div", tag, a, b, *params])
                assert code in codes, (tag, a, b)
                if tag in ("renyi", "sandwiched") and x in scales:
                    want = {(x, one): scales[x], (one, x): -scales[x], (x, x): 0.0}[a, b]
                    assert code == 0
                    assert float(capsys.readouterr().out) == pytest.approx(want, abs=1e-9)


def test_div_unrepresentable_value_exits_two_without_a_traceback(tmp_path):
    half, tiny = tmp_path / "half.json", tmp_path / "tiny.json"
    save_operator(half, np.diag([0.5, 0.5]), role="positive")
    save_operator(tiny, 1e-160 * np.diag([1.0, 0.5]), role="positive")
    # the value, the sum of l^3/m^2 over the diagonal, is about 6.25e319
    out = run_cli("div", "fdiv", str(half), str(tiny), "--f", "power:3")
    assert out.returncode == 2
    assert out.stderr.startswith("invalid input:")
    assert "Traceback" not in out.stderr
    out = run_cli("div", "sandwiched", str(half), str(tiny), "--alpha", "3")
    assert out.returncode == 0
    assert out.stdout.strip() == "368.178613064424"


def test_div_operands_beyond_a_float_exit_two_with_a_clean_stderr(tmp_path):
    # 1e308 I has the trace 2e308: numpy's overflow warning once came first on
    # stderr.  [[1e308, 1e308], [1e308, 1e308]] has the eigenvalue 2e308: it
    # was once snapped to rank 0, so dfg printed 0 and sandwiched-core inf.
    big, huge = tmp_path / "big.json", tmp_path / "huge.json"
    save_operator(big, 1e308 * np.eye(2), role="positive")
    save_operator(huge, np.full((2, 2), 1e308), role="positive")
    for argv in (["umegaki", big, big],
                 ["dfg", big, huge, "--f", "power:0.5", "--g", "power:2"],
                 ["sandwiched-core", big, huge, "--alpha", "3"]):
        out = run_cli("div", *map(str, argv))
        assert out.returncode == 2, argv
        assert out.stderr.startswith("invalid input:"), out.stderr
        assert out.stdout == ""


@pytest.mark.parametrize("entry", ['"1"', "true", "null", '{"a": 1}'])
def test_div_on_a_non_numeric_operator_entry_is_invalid_input(tmp_path, entry):
    # "1" and true were once read as 1.0 and exited 0; {"a": 1} ended in a
    # traceback and exit 1
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text('{"dim": 1, "re": [[1]], "im": [[0]]}\n')
    bad.write_text(f'{{"dim": 1, "re": [[{entry}]], "im": [[0]]}}\n')
    out = run_cli("div", "umegaki", str(bad), str(good))
    assert out.returncode == 2, out.stderr
    assert out.stderr == "invalid input: re is not a 1x1 array of JSON numbers\n"
    assert out.stdout == ""
    assert run_cli("div", "umegaki", str(good), str(good)).returncode == 0


def test_div_fdiv_xlogx_with_a_ratio_beyond_a_float(tmp_path):
    one, tiny = tmp_path / "one.json", tmp_path / "tiny.json"
    save_operator(one, np.array([[1.0]]), role="positive")
    save_operator(tiny, np.array([[2.0**-1070]]), role="positive")
    # l/m = 2^1070 overflows a float; the value l log(l/m) does not
    out = run_cli("div", "fdiv", str(one), str(tiny), "--f", "xlogx")
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) == pytest.approx(1070 * math.log(2.0), abs=1e-12)


def test_div_dfg_with_f_squared_beyond_a_float(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_operator(a, 1e-170 * np.eye(2), role="positive")
    save_operator(b, 1e-160 * np.eye(2), role="positive")
    # f(B)^2 = 1e320 overflows a float; tr (f(B) A f(B))^2 = 2e300 does not
    out = run_cli("div", "dfg", str(a), str(b), "--f", "power:-1", "--g", "power:2")
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) == pytest.approx(2e300, rel=1e-14)


def test_exit_code_bad_usage():
    out = run_cli("frobnicate")
    assert out.returncode == 3


def test_exit_code_no_samples():
    # a suite that samples nothing would pass without checking anything
    for suite, n in (("invariance", "0"), ("invariance", "-3"),
                     ("prop2-limits", "0"), ("wigner", "0")):
        res = run_cli("check", suite, "--samples", n)
        assert res.returncode == 3
        assert "pass" not in res.stdout


def test_exit_code_thm4_dimension_one():
    # diag(1..n) is scalar at n = 1, so the suite's expected violation cannot occur
    res = run_cli("check", "thm4", "--dim", "1")
    assert res.returncode == 2
    assert "dimension at least 2" in res.stderr


def test_exit_code_suite_failure_and_success(tmp_path):
    ok = run_cli("check", "thm4", "--dim", "2", "--alpha", "2")
    assert ok.returncode == 0
    # alpha = 1 is invalid for the scalar criterion: usage-level rejection
    bad = run_cli("check", "prop1", "--alpha", "1")
    assert bad.returncode == 2


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_exit_code_alpha_outside_the_divergence_range(alpha, diag_files, tmp_path,
                                                      capsys):
    # once exit 1 for prop1, and thm4 at inf marked its expected violation [pass];
    # a suite that ignores alpha wrote NaN (not JSON) or -inf as "inf" to its report
    a, _ = diag_files
    report = tmp_path / "r.json"
    for argv in (["check", "prop1"], ["check", "thm4"], ["div", "sandwiched", a, a],
                 ["check", "lemmas", "--samples", "2", "--out", str(report)]):
        assert main([*argv, f"--alpha={alpha}"]) == 2
        out = capsys.readouterr()
        assert f"alpha must lie in (0,1) or (1,inf), got {alpha}" in out.err
        assert "pass" not in out.out
    assert not report.exists()


@pytest.mark.parametrize("suite", SUITES)
def test_run_suite_rejects_an_empty_sample(suite):
    # prop2-limits once passed with 0 of 0 probe flags in agreement, and prop1
    # and thm4, which draw nothing, passed too
    with pytest.raises(ValueError, match="need at least one sample"):
        run_suite(suite, samples=0)


@pytest.mark.parametrize("suite", SUITES)
def test_check_rejects_a_finite_alpha_outside_the_range(suite, capsys):
    # once every suite that does not read alpha exited 0 and echoed it
    assert main(["check", suite, "--samples", "2", "--alpha", "-3"]) == 2
    out = capsys.readouterr()
    assert "invalid input: alpha must lie in (0,1) or (1,inf), got -3.0" in out.err
    assert "pass" not in out.out


@pytest.mark.parametrize("suite", SUITES)
def test_check_rejects_a_dimension_below_one(suite, capsys):
    # once exit 2 or 0 by suite: prop1 passed and reported "dim": -2
    for dim in ("0", "-2"):
        assert main(["check", suite, "--samples", "2", "--dim", dim]) == 3
        out = capsys.readouterr()
        assert "usage error: --dim must be at least 1" in out.err
        assert "pass" not in out.out


@pytest.mark.parametrize("passed", [True, False])
def test_check_renders_its_report_only_for_out(passed, monkeypatch, tmp_path, capsys):
    # a NaN measurement is not JSON: it stops the report, not a run without one
    def nan_suite(name, **params):
        return passed, [{"name": "probe", "measured": math.nan, "bound": 1.0,
                         "pass": passed}]

    monkeypatch.setattr("qdiv.cli.run_suite", nan_suite)
    assert main(["check", "lemmas"]) == (0 if passed else 1)
    assert "measured=nan" in capsys.readouterr().out
    report = tmp_path / "r.json"
    assert main(["check", "lemmas", "--out", str(report)]) == 2
    assert "invalid input: Out of range float values are not JSON compliant" \
        in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("argv,code,message", [
    (["check", "prop1", "--alpha", "400"], 0, "suite passed"),
    (["check", "prop1", "--alpha", "1.0000001"], 2, "invalid input: prop1: no finite gap"),
    (["check", "prop1", "--alpha", "1e5"], 2, "invalid input: prop1: no finite gap"),
    (["check", "thm4", "--alpha", "0.999999"], 2, "invalid input: thm4: the gap"),
    (["check", "thm4", "--dim", "3", "--alpha", "1e-5"], 0, "suite passed"),
    (["check", "thm4", "--dim", "3", "--alpha", "1e-300"], 2,
     "invalid input: thm4: the powers at alpha=1e-300 do not resolve"),
])
def test_scalar_criteria_beyond_the_float_range(argv, code, message, capsys):
    # once RuntimeWarnings (an error under this suite's warning filter) and a
    # failed or NaN-passed suite, or an ArithmeticError traceback
    assert main(argv) == code
    out = capsys.readouterr()
    assert message in out.out + out.err
    assert "nan" not in out.out


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_exit_code_tol_not_finite_or_negative(tol, capsys):
    # a NaN or +inf bound would pass every deviation
    for suite in ("invariance", "prop1"):
        assert main(["check", suite, "--tol", tol]) == 3
        out = capsys.readouterr()
        assert "usage error: --tol must be" in out.err and "pass" not in out.out


def test_div_resolves_the_tag_before_reading_the_files(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert main(["div", "umegaki", str(empty), str(empty), "--alpha", "2"]) == 3
    assert capsys.readouterr().err == "usage error: umegaki takes no --alpha\n"
    # alpha is checked with the tag, so it wins over a bad file
    assert main(["div", "sandwiched", str(empty), str(empty), "--alpha", "1"]) == 2
    assert capsys.readouterr().err == \
        "invalid input: alpha must lie in (0,1) or (1,inf), got 1.0\n"


@pytest.mark.parametrize("argv,path", [
    (["sample", "density", "--dim", "2", "--out", "missing/x.json"], "missing/x.json"),
    (["check", "prop1", "--out", "missing/r.json"], "missing/r.json"),
    (["div", "umegaki", "a.json", "a.json", "--out", "outdir"], "outdir"),
    (["reconstruct", "--images", "missing"], "missing"),
    (["reconstruct", "--simulate", "u.json", "--report", "missing/r.json"],
     "missing/r.json"),
])
def test_a_path_that_cannot_be_read_or_written_is_invalid_input(argv, path, tmp_path,
                                                               monkeypatch, capsys):
    # each once raised out of main: a traceback and exit 1, the code of a failed suite
    monkeypatch.chdir(tmp_path)
    save_operator("a.json", np.diag([0.5, 0.5]), role="density")
    save_operator("u.json", haar_unitary(2, SeededRng(1)), role="unitary")
    (tmp_path / "outdir").mkdir()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and f"'{path}'" in err


# ----------------------------------------------------------------- sample

def test_sample_density_rank_one(tmp_path):
    out_path = tmp_path / "d.json"
    res = run_cli("sample", "density", "--dim", "2", "--rank", "1",
                  "--seed", "9", "--out", str(out_path))
    assert res.returncode == 0
    m, role = load_operator(out_path)
    assert role == "density"
    assert np.linalg.norm(m @ m - m) < 1e-10  # rank-one projection


def test_sample_determinism_bytes(tmp_path):
    p1 = tmp_path / "u1.json"
    p2 = tmp_path / "u2.json"
    assert run_cli("sample", "unitary", "--dim", "4", "--seed", "1",
                   "--out", str(p1)).returncode == 0
    assert run_cli("sample", "unitary", "--dim", "4", "--seed", "1",
                   "--out", str(p2)).returncode == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_sample_pd_kappa_one(tmp_path):
    path = tmp_path / "pd.json"
    res = run_cli("sample", "pd", "--dim", "3", "--kappa", "1",
                  "--seed", "2", "--out", str(path))
    assert res.returncode == 0
    m, role = load_operator(path)
    assert role == "positive"
    assert np.allclose(m, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("kappa", ["nan", "inf", "0.5"])
def test_sample_pd_bad_kappa_is_a_usage_error(tmp_path, kappa):
    res = run_cli("sample", "pd", "--dim", "2", "--kappa", kappa,
                  "--out", str(tmp_path / "pd.json"))
    assert res.returncode == 3
    assert "--kappa" in res.stderr
    assert not (tmp_path / "pd.json").exists()


def test_sample_bad_rank(tmp_path):
    res = run_cli("sample", "density", "--dim", "2", "--rank", "5",
                  "--out", str(tmp_path / "x.json"))
    assert res.returncode == 3


# ------------------------------------------------------------------ check

def test_check_invariance_passes():
    res = run_cli("check", "invariance", "--dim", "2", "--samples", "20",
                  "--seed", "7")
    assert res.returncode == 0
    assert "suite passed" in res.stdout


def test_check_prop1_reports_witness(tmp_path):
    report = tmp_path / "r.json"
    res = run_cli("check", "prop1", "--alpha", "2", "--out", str(report))
    assert res.returncode == 0
    doc = json.loads(report.read_text())
    wit = doc["results"]["assertions"][0]["witness"]
    assert abs(wit["lhs"] - wit["rhs"]) > 1e-3


def test_check_lemmas(tmp_path):
    res = run_cli("check", "lemmas", "--dim", "2", "--seed", "1",
                  "--samples", "30")
    assert res.returncode == 0


def test_check_prop2_limits():
    res = run_cli("check", "prop2-limits", "--dim", "3", "--samples", "10",
                  "--seed", "2")
    assert res.returncode == 0


def test_check_wigner():
    res = run_cli("check", "wigner", "--dim", "3", "--seed", "5")
    assert res.returncode == 0
    assert "kind recovered" in res.stdout


@pytest.mark.parametrize("suite", SUITES)
def test_check_report_is_stable_modulo_wall_time(suite, tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    run_cli("check", suite, "--samples", "3", "--out", str(r1))
    run_cli("check", suite, "--samples", "3", "--out", str(r2))
    d1, d2 = json.loads(r1.read_text()), json.loads(r2.read_text())
    del d1["wall_time_s"], d2["wall_time_s"]
    assert d1 == d2


# -------------------------------------------------------------- reconstruct

def test_reconstruct_simulated_unitary(tmp_path):
    u_path = tmp_path / "u.json"
    save_operator(u_path, haar_unitary(3, SeededRng(5)), role="unitary")
    out_path = tmp_path / "rec.json"
    res = run_cli("reconstruct", "--simulate", str(u_path), "--out", str(out_path))
    assert res.returncode == 0
    assert "kind: unitary" in res.stdout
    rec, role = load_operator(out_path)
    assert role == "unitary"
    u0, _ = load_operator(u_path)
    # recovered unitary implements the same conjugation
    p = np.diag([1.0, 0.0, 0.0]).astype(complex)
    assert np.allclose(rec @ p @ rec.conj().T, u0 @ p @ u0.conj().T, atol=1e-8)


def test_reconstruct_transpose_map(tmp_path):
    u_path = tmp_path / "u.json"
    save_operator(u_path, np.eye(3), role="unitary")
    res = run_cli("reconstruct", "--simulate", str(u_path),
                  "--map-kind", "transpose")
    assert res.returncode == 0
    assert "kind: antiunitary" in res.stdout


def test_reconstruct_from_image_directory(tmp_path):
    from qdiv.maps import StateMap
    from qdiv.preserver import wigner_probe_projections

    u0 = haar_unitary(2, SeededRng(8))
    m = StateMap.unitary_conjugation(u0)
    img_dir = tmp_path / "images"
    img_dir.mkdir()
    for i, probe in enumerate(wigner_probe_projections(2)):
        save_operator(img_dir / f"img_{i:03d}.json", m.apply(probe))
    res = run_cli("reconstruct", "--images", str(img_dir))
    assert res.returncode == 0
    assert "kind: unitary" in res.stdout


def test_reconstruct_tampered_images_exit_one(tmp_path):
    from qdiv.maps import StateMap
    from qdiv.preserver import wigner_probe_projections

    u0 = haar_unitary(2, SeededRng(8))
    m = StateMap.unitary_conjugation(u0)
    images = [m.apply(p) for p in wigner_probe_projections(2)]
    images[1] = images[0]  # duplicated projection breaks the overlaps
    img_dir = tmp_path / "images"
    img_dir.mkdir()
    for i, img in enumerate(images):
        save_operator(img_dir / f"img_{i:03d}.json", img)
    res = run_cli("reconstruct", "--images", str(img_dir))
    assert res.returncode == 1
    assert "probes" in res.stderr
