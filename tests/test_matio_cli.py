"""Matrix file I/O and command-line interface tests."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from compound_kit import MatrixIOError, adjugate, compound, inverse_compound
from compound_kit.cli import SEED_ENV_VAR, main, run_bench
from compound_kit.matio import parse_matrix, render_matrix, write_matrix
from compound_kit.testkit import load_fixtures, random_rank_r


# ---------------------------------------------------------------------------
# matio: round trips


def _awkward_matrix() -> np.ndarray:
    return np.array(
        [
            [1.0, -2.5, 1e300],
            [1e-300, -1.2345678901234567e-5, 3.141592653589793],
            [-0.0, 7.0, -9.87654321e12],
        ]
    )


def test_csv_round_trip_is_bit_identical(tmp_path):
    X = _awkward_matrix()
    path = tmp_path / "m.csv"
    write_matrix(path, X)
    Y = parse_matrix(path)
    assert X.shape == Y.shape
    assert np.array_equal(X, Y)  # every float64 reproduced exactly


def test_json_round_trip_is_bit_identical(tmp_path):
    X = _awkward_matrix()
    path = tmp_path / "m.json"
    write_matrix(path, X)
    Y = parse_matrix(path)
    assert np.array_equal(X, Y)


def test_random_round_trips_both_formats(tmp_path):
    rng = np.random.default_rng(5)
    for i in range(5):
        X = rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-8, 9)
        for suffix in ("csv", "json"):
            path = tmp_path / f"r{i}.{suffix}"
            write_matrix(path, X)
            assert np.array_equal(parse_matrix(path), X)


def test_write_vector_becomes_row_matrix(tmp_path):
    path = tmp_path / "v.csv"
    write_matrix(path, np.array([1.0, 2.0, 3.0]))
    assert parse_matrix(path).shape == (1, 3)


def test_fmt_override_beats_suffix(tmp_path):
    X = np.array([[1.0, 2.0]])
    path = tmp_path / "data.U"  # no recognized suffix
    write_matrix(path, X, fmt="json")
    assert json.loads(path.read_text())["rows"] == 1
    with pytest.raises(MatrixIOError):
        write_matrix(path, X, fmt="yaml")


def test_render_matrix_matches_written_file(tmp_path):
    X = _awkward_matrix()
    path = tmp_path / "m.csv"
    write_matrix(path, X)
    assert path.read_text() == render_matrix(X, "csv")


# ---------------------------------------------------------------------------
# matio: CSV diagnostics


def test_csv_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n\n3,4\n\n")
    assert_allclose(parse_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


def test_csv_bad_token_reports_line_and_column(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2,3\n4,oops,6\n")
    with pytest.raises(MatrixIOError, match=r"m\.csv:2:2: not a number: 'oops'"):
        parse_matrix(path)


def test_csv_ragged_rows_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(MatrixIOError, match=r"m\.csv:2: row has 2 entries, expected 3"):
        parse_matrix(path)


def test_csv_empty_file_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("\n\n")
    with pytest.raises(MatrixIOError, match="no rows"):
        parse_matrix(path)


def test_csv_non_finite_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,inf\n")
    with pytest.raises(MatrixIOError, match=r"m\.csv:1:2: non-finite"):
        parse_matrix(path)
    path.write_text("nan\n")
    with pytest.raises(MatrixIOError, match="non-finite"):
        parse_matrix(path)


def test_missing_file_reports_path(tmp_path):
    with pytest.raises(MatrixIOError, match="nope.csv"):
        parse_matrix(tmp_path / "nope.csv")


# ---------------------------------------------------------------------------
# matio: JSON diagnostics


@pytest.mark.parametrize(
    "text,pattern",
    [
        ("{not json", "invalid JSON"),
        ("[1,2]", "top level must be an object"),
        ('{"rows": 2, "cols": 2}', "missing key 'data'"),
        ('{"rows": 0, "cols": 2, "data": []}', "positive integers"),
        ('{"rows": 2, "cols": 2, "data": [1,2,3]}', "length rows \\* cols = 4"),
        ('{"rows": 1, "cols": 2, "data": [1, "x"]}', "non-numeric entry"),
        ('{"rows": 1, "cols": 1, "data": [Infinity]}', "non-finite"),
        ('{"rows": true, "cols": 2, "data": [1, 2]}', "positive integers"),
        pytest.param("[" * 100_000 + "]" * 100_000, "nested too deeply", id="deeply-nested"),
    ],
)
def test_json_schema_errors(tmp_path, text, pattern):
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(MatrixIOError, match=pattern):
        parse_matrix(path)


# ---------------------------------------------------------------------------
# CLI: happy paths


def _write(tmp_path, name, X):
    path = tmp_path / name
    write_matrix(path, X)
    return str(path)


def test_cli_compound_file_to_file(tmp_path):
    A = np.array([[2.0, 0.0, 1.0], [1.0, 3.0, 0.0], [0.0, 1.0, 4.0]])
    infile = _write(tmp_path, "a.csv", A)
    out = tmp_path / "c.csv"
    assert main(["compound", "--in", infile, "--k", "2", "--out", str(out)]) == 0
    assert np.array_equal(parse_matrix(out), compound(A, 2))


def test_cli_compound_stdout(tmp_path, capsys):
    A = np.eye(3)
    infile = _write(tmp_path, "a.csv", A)
    assert main(["compound", "--in", infile, "--k", "2"]) == 0
    printed = capsys.readouterr().out
    assert printed == render_matrix(compound(A, 2), "csv")


def test_cli_inverse_round_trip_with_report(tmp_path):
    A = random_rank_r(4, 4, 4, seed=21)
    M = compound(A, 2)
    infile = _write(tmp_path, "m.csv", M)
    out = tmp_path / "a_rec.csv"
    report_path = tmp_path / "report.json"
    code = main(
        [
            "inverse",
            "--in", infile,
            "--n", "4",
            "--m", "4",
            "--k", "2",
            "--out", str(out),
            "--json-report", str(report_path),
        ]
    )
    assert code == 0
    A_rec = parse_matrix(out)
    assert np.linalg.norm(compound(A_rec, 2) - M) <= 1e-8 * np.linalg.norm(M)

    report = json.loads(report_path.read_text())
    assert report["outcome"] == "unique"
    assert report["sign_ambiguous"] is True  # k = 2 is even
    assert report["inferred_r"] == 4
    assert report["residual"] <= 1e-8
    assert isinstance(report["resamples"], int)
    assert report["timings_ms"] and all(v >= 0 for v in report["timings_ms"].values())


def test_cli_inverse_rank_one_family_files(tmp_path):
    M = load_fixtures()["rank-one-3x3"].inputs["M"]
    infile = _write(tmp_path, "m.csv", M)
    out = tmp_path / "family.csv"
    assert main(["inverse", "--in", infile, "--n", "3", "--m", "3", "--k", "2", "--out", str(out)]) == 0
    U = parse_matrix(str(out) + ".U")
    S = parse_matrix(str(out) + ".S")
    V = parse_matrix(str(out) + ".V")
    rep = U @ S @ V.T
    assert np.linalg.norm(compound(rep, 2) - M) <= 1e-8 * np.linalg.norm(M)


def test_cli_inverse_family_write_failure_leaves_no_part_behind(tmp_path, capsys):
    M = load_fixtures()["rank-one-3x3"].inputs["M"]
    infile = _write(tmp_path, "m.csv", M)
    out = tmp_path / "fam.csv"
    (tmp_path / "fam.csv.S").mkdir()  # U is written, then S cannot be
    argv = ["inverse", "--in", infile, "--n", "3", "--m", "3", "--k", "2", "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error: io-error:")
    assert not (tmp_path / "fam.csv.U").exists()
    assert not (tmp_path / "fam.csv.V").exists()


def test_cli_inverse_rank_one_family_stdout(tmp_path, capsys):
    M = load_fixtures()["rank-one-3x3"].inputs["M"]
    infile = _write(tmp_path, "m.csv", M)
    assert main(["inverse", "--in", infile, "--n", "3", "--m", "3", "--k", "2"]) == 0
    printed = capsys.readouterr().out
    assert "U:" in printed and "S:" in printed and "V:" in printed


def test_cli_inverse_zero_compound_reports_rank_deficient(tmp_path):
    infile = _write(tmp_path, "m.csv", np.zeros((6, 6)))
    report_path = tmp_path / "report.json"
    out = tmp_path / "rep.csv"
    code = main(
        [
            "inverse",
            "--in", infile,
            "--n", "4",
            "--m", "4",
            "--k", "2",
            "--out", str(out),
            "--json-report", str(report_path),
        ]
    )
    assert code == 0
    assert json.loads(report_path.read_text())["outcome"] == "rank_deficient"
    rep = parse_matrix(out)
    assert np.linalg.matrix_rank(rep) < 2
    assert np.array_equal(compound(rep, 2), np.zeros((6, 6)))


def test_cli_verify_accepts_true_pair_and_prints_residual(tmp_path, capsys):
    A = random_rank_r(4, 4, 4, seed=3)
    a_file = _write(tmp_path, "a.csv", A)
    m_file = _write(tmp_path, "m.csv", compound(A, 2))
    assert main(["verify", "--a", a_file, "--m", m_file, "--k", "2"]) == 0
    assert "residual:" in capsys.readouterr().out


def test_cli_verify_rejects_wrong_pair(tmp_path, capsys):
    A = random_rank_r(4, 4, 4, seed=3)
    B = random_rank_r(4, 4, 4, seed=4)
    a_file = _write(tmp_path, "a.csv", B)
    m_file = _write(tmp_path, "m.csv", compound(A, 2))
    assert main(["verify", "--a", a_file, "--m", m_file, "--k", "2"]) == 1
    # only the given A failed, which says nothing of M's other preimages
    assert "error: verification-failed: reconstruction residual" in capsys.readouterr().err


def test_cli_verify_fails_closed_on_overflowing_candidate(tmp_path, capsys):
    # compound(A, 3) of entries near 1e110 overflows to inf and nan, so the
    # residual is nan; nan must not pass as verified
    A = 1e110 * np.random.default_rng(0).standard_normal((6, 6))
    a_file = _write(tmp_path, "a.csv", A)
    m_file = _write(tmp_path, "m.csv", compound(A / 1e110, 3))
    with np.errstate(all="ignore"):
        code = main(["verify", "--a", a_file, "--m", m_file, "--k", "3"])
    captured = capsys.readouterr()
    assert "residual: nan" in captured.out
    assert code == 1
    assert "error: verification-failed:" in captured.err


def test_cli_verify_rejects_m_of_the_wrong_shape(tmp_path, capsys):
    # compound(A, 2) of a 4 x 4 A is 6 x 6
    a_file = _write(tmp_path, "a.csv", random_rank_r(4, 4, 4, seed=3))
    m_file = _write(tmp_path, "m.csv", np.ones((3, 3)))
    assert main(["verify", "--a", a_file, "--m", m_file, "--k", "2"]) == 3
    assert "error: invalid-argument:" in capsys.readouterr().err


def test_cli_inverse_report_carries_preprocessing_and_resamples(tmp_path):
    # M = I forces preprocessing
    infile = _write(tmp_path, "m.csv", np.eye(6))
    report_path = tmp_path / "report.json"
    args = ["inverse", "--in", infile, "--n", "4", "--m", "4", "--k", "2",
            "--out", str(tmp_path / "a.csv"), "--json-report", str(report_path)]
    assert main(args) == 0
    report = json.loads(report_path.read_text())
    want = inverse_compound(np.eye(6), 4, 4, 2).report
    assert report["preprocessing_used"] is True and want.preprocessing_used
    assert report["resamples"] == want.resample_count >= 1


@pytest.mark.parametrize(
    "M,n,k,route",
    [
        (compound(random_rank_r(4, 4, 4, seed=21), 2), 4, 2, "contraction"),
        (load_fixtures()["rank-one-3x3"].inputs["M"], 3, 2, "rank-one"),
        (np.zeros((6, 6)), 4, 2, "zero"),
        # k = r - 1 at cond 1e8: the contraction of M itself cannot separate
        # the two leading singular values, so the SVD route answers
        (compound(random_rank_r(5, 5, 3, seed=70, spectrum=[1.0, 1e-4, 1e-8]), 2), 5, 2, "svd"),
    ],
    ids=["contraction", "rank-one", "zero", "svd"],
)
def test_cli_inverse_report_names_the_route(tmp_path, M, n, k, route):
    infile = _write(tmp_path, "m.csv", M)
    report_path = tmp_path / "report.json"
    args = ["inverse", "--in", infile, "--n", str(n), "--m", str(n), "--k", str(k),
            "--out", str(tmp_path / "a.csv"), "--json-report", str(report_path)]
    assert main(args) == 0
    report = json.loads(report_path.read_text())
    assert report["route"] == route == inverse_compound(M, n, n, k).report.route


def test_cli_adjugate_both_routes_agree(tmp_path):
    rng = np.random.default_rng(8)
    A = rng.standard_normal((4, 4))
    infile = _write(tmp_path, "a.csv", A)
    out1 = tmp_path / "adj1.csv"
    out2 = tmp_path / "adj2.csv"
    assert main(["adjugate", "--in", infile, "--out", str(out1)]) == 0
    assert main(["adjugate", "--in", infile, "--via-compound", "--out", str(out2)]) == 0
    assert_allclose(parse_matrix(out1), adjugate(A), rtol=1e-12, atol=1e-12)
    assert_allclose(parse_matrix(out2), parse_matrix(out1), rtol=1e-9, atol=1e-9)


def test_cli_fixtures_all_pass(capsys):
    assert main(["fixtures"]) == 0
    out = capsys.readouterr().out
    assert "8/8 fixture checks passed" in out


def test_cli_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "compound-kit" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# CLI: failure paths and exit codes


def test_cli_missing_input_file_exits_3(tmp_path, capsys):
    assert main(["compound", "--in", str(tmp_path / "nope.csv"), "--k", "2"]) == 3
    assert "error: io-error:" in capsys.readouterr().err


def test_cli_report_to_a_missing_directory_exits_3(tmp_path, capsys):
    infile = _write(tmp_path, "m.csv", compound(random_rank_r(4, 4, 4, seed=21), 2))
    report = tmp_path / "absent" / "r.json"
    argv = ["inverse", "--in", infile, "--n", "4", "--m", "4", "--k", "2", "--json-report"]
    assert main(argv + [str(report)]) == 3
    out, err = capsys.readouterr()
    assert err.startswith(f"error: io-error: {report}: ") and "Traceback" not in err
    assert out == ""  # the report is written first, so no answer goes out before the error
    answer = tmp_path / "a.csv"
    assert main(argv + [str(report), "--out", str(answer)]) == 3
    assert capsys.readouterr().out == ""
    assert not answer.exists()


@pytest.mark.parametrize(
    "command", [["compound", "--k", "2"], ["inverse", "--n", "3", "--m", "3", "--k", "2"]]
)
def test_cli_non_utf8_input_exits_3(tmp_path, capsys, command):
    infile = tmp_path / "m.csv"
    infile.write_bytes(b"1,2,3\n4,\xff,6\n")
    assert main(command + ["--in", str(infile)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: io-error: {infile}: not UTF-8 text") and "Traceback" not in err


def test_cli_usage_error_exits_3(capsys):
    assert main(["compound", "--k", "2"]) == 3  # --in missing
    assert "error: invalid-argument:" in capsys.readouterr().err


def test_cli_bad_grade_exits_3(tmp_path, capsys):
    infile = _write(tmp_path, "a.csv", np.eye(3))
    assert main(["compound", "--in", infile, "--k", "9"]) == 3
    assert "error: invalid-argument:" in capsys.readouterr().err


def test_cli_non_binomial_rank_exits_1(tmp_path, capsys):
    # a 15x6 compound image at n = 6, m = 4 must have rank binom(r, 2);
    # rank 5 never matches, and rung 1 refuses it on its contraction rank
    X = random_rank_r(15, 6, 5, seed=12)
    infile = _write(tmp_path, "m.csv", X)
    assert main(["inverse", "--in", infile, "--n", "6", "--m", "4", "--k", "2"]) == 1
    assert "error: not-compound-decomposable: rank 5 is not binom" in capsys.readouterr().err


def test_cli_non_binomial_rank_refused_by_verify_exits_1(tmp_path, capsys):
    # rank 5 of a 6x6 image at n = m = 4 is no binom(r, 2) either, but rung
    # 1 composes a candidate for it, and verify's refusal ends the run
    X = random_rank_r(6, 6, 5, seed=12)
    infile = _write(tmp_path, "m.csv", X)
    assert main(["inverse", "--in", infile, "--n", "4", "--m", "4", "--k", "2"]) == 1
    assert capsys.readouterr().err.startswith("error: verification-failed:")


def test_cli_non_compound_full_rank_exits_1(tmp_path, capsys):
    # full rank 6 infers r = 4 but the columns are not wedges, so the
    # composed candidate misses M and verify refuses it
    rng = np.random.default_rng(31)
    X = rng.standard_normal((6, 6))
    M = X @ X.T + 6.0 * np.eye(6)
    infile = _write(tmp_path, "m.csv", M)
    assert main(["inverse", "--in", infile, "--n", "4", "--m", "4", "--k", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: verification-failed:")


def test_cli_seed_env_var_is_used(tmp_path, monkeypatch):
    # identity compound needs preprocessing, which draws from the seeded rng
    infile = _write(tmp_path, "m.csv", np.eye(6))
    report_path = tmp_path / "rep.json"
    monkeypatch.setenv(SEED_ENV_VAR, "7")
    code = main(
        ["inverse", "--in", infile, "--n", "4", "--m", "4", "--k", "2",
         "--out", str(tmp_path / "a.csv"), "--json-report", str(report_path)]
    )
    assert code == 0
    assert json.loads(report_path.read_text())["resamples"] >= 1


def test_cli_seed_env_var_must_be_integer(tmp_path, monkeypatch, capsys):
    infile = _write(tmp_path, "m.csv", np.eye(6))
    monkeypatch.setenv(SEED_ENV_VAR, "banana")
    assert main(["inverse", "--in", infile, "--n", "4", "--m", "4", "--k", "2"]) == 3
    assert SEED_ENV_VAR in capsys.readouterr().err


def test_cli_explicit_seed_beats_env(tmp_path, monkeypatch):
    infile = _write(tmp_path, "m.csv", np.eye(6))
    monkeypatch.setenv(SEED_ENV_VAR, "banana")  # would exit 3 if consulted
    code = main(
        ["inverse", "--in", infile, "--n", "4", "--m", "4", "--k", "2",
         "--seed", "0", "--out", str(tmp_path / "a.csv")]
    )
    assert code == 0


# ---------------------------------------------------------------------------
# CLI: bench


def test_run_bench_produces_one_record_per_size_and_rep():
    records = run_bench([3, 4], k=2, reps=2, seed=0)
    assert [(rec.n, rec.rep) for rec in records] == [(3, 0), (3, 1), (4, 0), (4, 1)]
    for rec in records:
        assert rec.total_s > 0
        assert rec.stage_timings  # pipeline stages were recorded


def test_cli_bench_smoke_with_csv(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    code = main(["bench", "--max-n", "4", "--k", "2", "--reps", "1", "--csv", str(csv_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "total_ms" in out
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("n,rep,total_ms")
    assert len(lines) == 3  # header + n=3 + n=4


def test_cli_bench_csv_to_a_missing_directory_exits_3(tmp_path, capsys):
    csv_path = tmp_path / "absent" / "b.csv"
    argv = ["bench", "--max-n", "3", "--k", "2", "--reps", "1", "--csv", str(csv_path)]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert err.startswith(f"error: io-error: {csv_path}: ")
    assert out == ""  # the CSV is written before the table is printed


def test_cli_bench_rejects_bad_sizes(capsys):
    assert main(["bench", "--max-n", "2", "--k", "2", "--reps", "1"]) == 3
    assert "error: invalid-argument:" in capsys.readouterr().err
