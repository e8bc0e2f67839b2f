import math
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from qdiv.cli import main
from qdiv.files import load_operator, parse_report, save_operator, strip_wall_time
from qdiv.sampling import SeededRng, haar_unitary


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
    doc = parse_report(report.read_text())
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
    doc = parse_report(report.read_text())
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


def test_check_report_is_stable_modulo_wall_time(tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    run_cli("check", "thm4", "--dim", "2", "--alpha", "2", "--out", str(r1))
    run_cli("check", "thm4", "--dim", "2", "--alpha", "2", "--out", str(r2))
    assert strip_wall_time(r1.read_text()) == strip_wall_time(r2.read_text())


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
