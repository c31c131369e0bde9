import csv
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import incutime.cli
from incutime import (
    BootstrapFailureError,
    Dataset,
    DatasetValidationError,
    DegenerateFitError,
    IncutimeError,
    InfeasiblePointError,
    InfeasibleRecordError,
    LineSearchError,
    NonConvergenceError,
    RankDeficiencyError,
    SingularMatrixError,
    build_weight_matrix,
    candidate_grid,
    fenchel_residuals,
    validate_dataset,
)
from incutime.cli import main, parse_points, read_dataset_csv, write_dataset_csv
from incutime.simulate import ExposureSpec, TruthSpec, draw_singly

SRC = Path(incutime.cli.__file__).resolve().parents[1]


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write_singly(path, pairs):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["e", "s"])
        writer.writerows(pairs)


def test_parse_points_range_and_list():
    assert parse_points("3:10") == [3, 4, 5, 6, 7, 8, 9, 10]
    assert parse_points("1,5,9") == [1, 5, 9]
    assert parse_points("7:7") == [7]
    with pytest.raises(ValueError):
        parse_points("10:3")
    with pytest.raises(ValueError):
        parse_points(",")


def test_dataset_csv_round_trip(tmp_path):
    data = validate_dataset(Dataset.doubly([3, 2, 5], [0, 1, 2], [2, 3, 6]))
    path = str(tmp_path / "d.csv")
    write_dataset_csv(path, data)
    again = read_dataset_csv(path, "double")
    assert again == data


def test_read_dataset_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("onset,exposure\n1,2\n")
    with pytest.raises(DatasetValidationError):
        read_dataset_csv(str(path), "single")


# (file text, mode, expected): expected is a Dataset for a file that reads,
# else (exception class, record_index); record_index counts records, so
# blank lines are not counted
READER_CASES = {
    "header only": ("e,s\n", "single", (DatasetValidationError, None)),
    "blank lines only": ("e,s\n\n\n", "single", (DatasetValidationError, None)),
    "short row": ("e,s\n1,2\n3\n", "single", (DatasetValidationError, 1)),
    "long row": ("e,s\n1,2\n3,4,5\n", "single", (DatasetValidationError, 1)),
    "long first row": ("e,s\n1,2,3\n4,5\n", "single", (DatasetValidationError, 0)),
    "trailing comma": ("e,s\n1,2,\n", "single", (DatasetValidationError, 0)),
    "two fields in double mode": (
        "e,sl,sr\n1,0\n2,1\n", "double", (DatasetValidationError, 0)
    ),
    "short row after a blank line": (
        "e,s\n1,2\n\n3\n", "single", (DatasetValidationError, 1)
    ),
    "non-numeric cell": ("e,s\n1,2\n1,x\n", "single", (ValueError, None)),
    "fractional cell": ("e,s\n1,2\n2,3.5\n", "single", (DatasetValidationError, 1)),
    "infinite cell": ("e,s\n1,2\n1,inf\n", "single", (DatasetValidationError, 1)),
    "negative infinite cell": ("e,s\n-inf,2\n", "single", (DatasetValidationError, 0)),
    "cell beyond int64": (
        "e,sl,sr\n1,0,2\n1,0,1e300\n", "double", (DatasetValidationError, 1)
    ),
    "quoted cells": (
        '"e","s"\n"1","2"\n"3","4"\n', "single", Dataset.singly([1, 3], [2, 4])
    ),
    "crlf line endings": (
        "e,sl,sr\r\n1,0,2\r\n3,1,4\r\n", "double",
        Dataset.doubly([1, 3], [0, 1], [2, 4]),
    ),
    "blank lines": (
        "e,s\n\n1,2\n\n3,4\n\n", "single", Dataset.singly([1, 3], [2, 4])
    ),
    "upper-case spaced header": (
        "E, SL , Sr\n1,0,2\n", "double", Dataset.doubly([1], [0], [2])
    ),
}


@pytest.mark.parametrize("text, mode, expected", READER_CASES.values(),
                         ids=list(READER_CASES))
def test_read_dataset_csv_cases(tmp_path, text, mode, expected):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(expected, Dataset):
            assert read_dataset_csv(str(path), mode) == validate_dataset(expected)
            return
        error, record_index = expected
        with pytest.raises(error) as caught:
            read_dataset_csv(str(path), mode)
    assert type(caught.value) is error
    assert getattr(caught.value, "record_index", None) == record_index


def test_simulate_writes_expected_shapes(tmp_path):
    out = str(tmp_path / "single.csv")
    truth_out = str(tmp_path / "truth.csv")
    code = main(
        [
            "simulate", "--mode", "single", "--model", "weibull",
            "--n", "40", "--seed", "7", "--out", out, "--truth-out", truth_out,
        ]
    )
    assert code == 0
    rows = _read_rows(out)
    assert rows[0] == ["e", "s"] and len(rows) == 41
    truth_rows = _read_rows(truth_out)
    assert truth_rows[0] == ["day", "fbar"] and len(truth_rows) == 16
    # day-averaged truth at the horizon integrates over (m1-1, m1], so it
    # sits just under 1 rather than exactly at it
    assert 0.999 < float(truth_rows[-1][1]) <= 1.0

    out2 = str(tmp_path / "double.csv")
    assert main(
        ["simulate", "--mode", "double", "--n", "40", "--seed", "7", "--out", out2]
    ) == 0
    rows2 = _read_rows(out2)
    assert rows2[0] == ["e", "sl", "sr"] and all(len(r) == 3 for r in rows2)


def test_simulate_is_reproducible(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        main(["simulate", "--mode", "single", "--n", "60", "--seed", "3",
              "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_fit_trivial_dataset(tmp_path):
    data_path = str(tmp_path / "d.csv")
    _write_singly(data_path, [(1, 1)] * 3)
    out = str(tmp_path / "fit.csv")
    code = main(["fit", "--mode", "single", "--data", data_path, "--out", out])
    assert code == 0
    rows = _read_rows(out)
    assert rows[0] == ["day", "mass", "fbar"]
    assert rows[1][0] == "1" and float(rows[1][1]) == 1.0


def test_fit_writes_trace(tmp_path):
    data_path = str(tmp_path / "d.csv")
    out = str(tmp_path / "fit.csv")
    trace_path = str(tmp_path / "trace.csv")
    data = draw_singly(
        120, TruthSpec(family="truncexp", a=6.0, m1=15), ExposureSpec(m2=15), seed=11
    )
    write_dataset_csv(data_path, data)
    code = main(
        ["fit", "--mode", "single", "--data", data_path, "--m1", "15",
         "--out", out, "--trace-out", trace_path]
    )
    assert code == 0
    rows = _read_rows(trace_path)
    assert rows[0] == ["iter", "criterion", "min_grad", "complementarity",
                       "support_size"]
    assert len(rows) > 1


def test_ci_wald_row_per_requested_day(tmp_path):
    data_path = str(tmp_path / "d.csv")
    out = str(tmp_path / "ci.csv")
    main(["simulate", "--mode", "single", "--n", "300", "--seed", "5",
          "--out", data_path])
    code = main(
        ["ci", "--mode", "single", "--data", data_path, "--method", "wald",
         "--m1", "15", "--points", "3:10", "--out", out]
    )
    assert code == 0
    rows = _read_rows(out)
    assert rows[0] == ["day", "estimate", "lower", "upper", "method", "variance"]
    assert [r[0] for r in rows[1:]] == [str(d) for d in range(3, 11)]
    assert all(r[4] == "wald" for r in rows[1:])


def test_ci_bootstrap_is_reproducible(tmp_path):
    data_path = str(tmp_path / "d.csv")
    main(["simulate", "--mode", "single", "--n", "200", "--seed", "5",
          "--out", data_path])
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        code = main(
            ["ci", "--mode", "single", "--data", data_path, "--method",
             "bootstrap", "--b", "50", "--seed", "1", "--m1", "15",
             "--points", "4:8", "--out", str(out)]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_exit_code_non_convergence(tmp_path):
    data_path = str(tmp_path / "d.csv")
    out = str(tmp_path / "fit.csv")
    trace_out = tmp_path / "trace.csv"
    main(["simulate", "--mode", "single", "--n", "200", "--seed", "5",
          "--out", data_path])
    code = main(
        ["fit", "--mode", "single", "--data", data_path, "--m1", "15",
         "--max-outer", "1", "--out", out, "--trace-out", str(trace_out)]
    )
    assert code == 2
    # the partial trace is still written: the header and the one iteration
    rows = _read_rows(trace_out)
    assert rows[0] == ["iter", "criterion", "min_grad", "complementarity",
                       "support_size"]
    assert [r[0] for r in rows[1:]] == ["1"]


def test_exit_code_inner_loop_failure(tmp_path, monkeypatch):
    import incutime.solver as solver_module

    from test_solver import AddThenRefuseModel

    data_path = str(tmp_path / "d.csv")
    main(["simulate", "--mode", "single", "--n", "100", "--seed", "5",
          "--out", data_path])
    monkeypatch.setattr(solver_module, "_QuadraticModel", AddThenRefuseModel)
    code = main(["fit", "--mode", "single", "--data", data_path, "--m1", "15",
                 "--out", str(tmp_path / "fit.csv")])
    assert code == 2


def test_fit_starts_on_a_day_some_record_can_explain(tmp_path):
    # day 2 carries no weight for either record, so its weight column is
    # zero; a support holding it would make the normal matrix singular
    path = tmp_path / "d.csv"
    path.write_text("e,sl,sr\n3,0,1\n1,3,6\n")
    out = tmp_path / "fit.csv"
    code = main(["fit", "--mode", "double", "--data", str(path), "--out", str(out)])
    assert code == 0
    data = read_dataset_csv(str(path), "double")
    grid = candidate_grid(data)
    masses = np.array([float(row[1]) for row in _read_rows(out)[1:]])
    min_grad, comp = fenchel_residuals(masses, build_weight_matrix(data, grid))
    assert min_grad >= -1e-10
    assert comp <= 1e-10


@pytest.mark.parametrize("record", ["4,0,4", "5,2,7"])
def test_fit_single_double_record_with_dependent_columns(tmp_path, record):
    # one pattern makes every weight column a multiple of the others, so the
    # inner loop adds a column that depends on the support without
    # duplicating any support column; it gets zero mass instead of failing
    path = tmp_path / "d.csv"
    path.write_text(f"e,sl,sr\n{record}\n")
    out = tmp_path / "fit.csv"
    code = main(["fit", "--mode", "double", "--data", str(path), "--out", str(out)])
    assert code == 0
    data = read_dataset_csv(str(path), "double")
    masses = np.array([float(row[1]) for row in _read_rows(out)[1:]])
    min_grad, comp = fenchel_residuals(
        masses, build_weight_matrix(data, candidate_grid(data))
    )
    assert min_grad >= -1e-10
    assert comp <= 1e-10


@pytest.mark.parametrize(
    "extra",
    [
        ["--level", "1.5"],
        ["--level", "0"],
        ["--points", "0:5"],
        ["--points", "1:40", "--m1", "15"],
        ["--method", "bootstrap", "--b", "1"],
    ],
    ids=["level-above-1", "level-0", "day-0", "day-above-m1", "bootstrap-b-1"],
)
@pytest.mark.parametrize("command", ["ci", "coverage"])
def test_bad_interval_args_fail_before_reading_data(
    tmp_path, monkeypatch, command, extra
):
    calls = []
    monkeypatch.setattr(incutime.cli, "read_dataset_csv",
                        lambda *a: calls.append(a))
    monkeypatch.setattr(incutime.cli, "draw_doubly", lambda *a: calls.append(a))
    if command == "ci":
        argv = ["ci", "--data", str(tmp_path / "d.csv")]
    else:
        argv = ["coverage", "--n", "100", "--reps", "1"]
    argv += ["--mode", "double", "--method", "wald", *extra,
             "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 3
    assert calls == []


def test_exit_code_invalid_input(tmp_path):
    out = str(tmp_path / "x.csv")
    assert main(["fit", "--mode", "single", "--data",
                 str(tmp_path / "missing.csv"), "--out", out]) == 3

    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["fit", "--mode", "single", "--data", str(bad),
                 "--out", out]) == 3

    data_path = str(tmp_path / "d.csv")
    main(["simulate", "--mode", "single", "--n", "50", "--seed", "5",
          "--out", data_path])
    assert main(
        ["ci", "--mode", "single", "--data", data_path, "--method", "wald",
         "--fisher-averaged", "--out", out]
    ) == 3
    assert main(
        ["ci", "--mode", "single", "--data", data_path, "--method", "wald",
         "--level", "1.5", "--out", out]
    ) == 3
    assert main(["fit", "--no-such-flag"]) == 3


# the documented exit code of every package error, by class
EXIT_CODES = [
    (NonConvergenceError("forced"), 2),
    (LineSearchError("forced"), 2),
    (DatasetValidationError("forced"), 3),
    (InfeasibleRecordError(0), 4),
    (InfeasiblePointError(0), 4),
    (SingularMatrixError(0), 4),
    (RankDeficiencyError([1, 2]), 4),
    (DegenerateFitError("forced"), 4),
    (BootstrapFailureError("forced", failed=1, total=2), 4),
    (IncutimeError("forced"), 4),
]


def test_exit_codes_cover_every_package_error():
    listed = {type(exc) for exc, _ in EXIT_CODES}
    assert listed == {IncutimeError, *IncutimeError.__subclasses__()}


@pytest.mark.parametrize(
    "error, code", EXIT_CODES, ids=[type(exc).__name__ for exc, _ in EXIT_CODES]
)
def test_exit_code_for_every_package_error(tmp_path, monkeypatch, capsys, error, code):
    def raises(weights, config=None):
        raise error

    path = tmp_path / "d.csv"
    _write_singly(path, [(1, 1), (2, 3)])
    monkeypatch.setattr(incutime.cli, "fit_weights", raises)
    assert main(["fit", "--mode", "single", "--data", str(path),
                 "--out", str(tmp_path / "fit.csv")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats adds about half a second to every command's start-up, and
    # scipy.special, scipy.integrate and scipy.optimize a quarter more; each
    # command imports what it uses when it uses it
    unused = ["scipy.stats", "scipy.special", "scipy.integrate", "scipy.optimize"]
    code = (
        "import incutime.cli, sys; "
        f"loaded = [m for m in {unused!r} if m in sys.modules]; "
        "assert not loaded, loaded"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_exit_code_infeasible_record(tmp_path):
    # an m1 far below the observed windows leaves the late record with no
    # grid day to place mass on
    path = tmp_path / "d.csv"
    path.write_text("e,sl,sr\n2,0,3\n1,10,12\n")
    out = str(tmp_path / "fit.csv")
    code = main(["fit", "--mode", "double", "--data", str(path), "--m1", "2",
                 "--out", out])
    assert code == 4


def test_exit_code_degenerate_fit(tmp_path):
    # every record pins day 1, so the fit has a single mass point and no
    # information matrix
    path = tmp_path / "d.csv"
    _write_singly(path, [(1, 1)] * 5)
    out = str(tmp_path / "ci.csv")
    code = main(["ci", "--mode", "single", "--data", str(path), "--method",
                 "wald", "--out", out])
    assert code == 4


def test_coverage_smoke(tmp_path):
    out = str(tmp_path / "cov.csv")
    code = main(
        ["coverage", "--mode", "single", "--method", "wald", "--n", "150",
         "--reps", "1", "--points", "4:6", "--seed", "2", "--out", out]
    )
    assert code == 0
    rows = _read_rows(out)
    assert rows[0] == ["day", "coverage", "mean_width", "failures"]
    assert [r[0] for r in rows[1:]] == ["4", "5", "6"]
    for r in rows[1:]:
        assert float(r[1]) in (0.0, 1.0)
        assert float(r[2]) > 0
        assert r[3] == "0"


def test_exit_code_fisher_averaging_failures(tmp_path, monkeypatch):
    import incutime.bootstrap as bootstrap_module

    refit_rows = bootstrap_module._refit_rows
    calls = []

    def first_three_stall(W, idx, config, start):
        # 3 of 20 is above the 10 percent the bootstrap also tolerates
        calls.append(idx)
        if len(calls) <= 3:
            raise NonConvergenceError("forced failure")
        return refit_rows(W, idx, config, start)

    data_path = str(tmp_path / "d.csv")
    main(["simulate", "--mode", "double", "--n", "200", "--seed", "5",
          "--out", data_path])
    monkeypatch.setattr(bootstrap_module, "_refit_rows", first_three_stall)
    code = main(["ci", "--mode", "double", "--data", data_path, "--method",
                 "wald", "--fisher-averaged", "--b", "20", "--m1", "15",
                 "--out", str(tmp_path / "ci.csv")])
    assert code == 4
    assert len(calls) == 20


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["ci", "--mode", "single", "--method", "wald"], 1),
        (["ci", "--mode", "double", "--method", "wald"], 1),
        (["ci", "--mode", "double", "--method", "wald", "--fisher-averaged",
          "--b", "5"], 1),
        (["ci", "--mode", "single", "--method", "bootstrap", "--b", "5"], 1),
        (["coverage", "--mode", "double", "--method", "wald", "--n", "150",
          "--reps", "2", "--points", "4:6"], 2),
    ],
)
def test_one_weight_build_per_fit(tmp_path, monkeypatch, argv, builds):
    # the fit's weight matrix feeds the information matrix, Fisher averaging
    # and the bootstrap; none of them groups the records again
    import incutime.bootstrap
    import incutime.cli
    import incutime.inference
    import incutime.solver
    import incutime.weights

    calls = []

    def counted(data, grid):
        calls.append(data.n)
        return incutime.weights.build_weight_matrix(data, grid)

    for module in (incutime.solver, incutime.inference, incutime.bootstrap,
                   incutime.cli):
        monkeypatch.setattr(module, "build_weight_matrix", counted, raising=False)
    out = str(tmp_path / "out.csv")
    if argv[0] == "ci":
        data_path = str(tmp_path / "d.csv")
        main(["simulate", "--mode", argv[2], "--n", "150", "--seed", "5",
              "--out", data_path])
        argv = [*argv, "--data", data_path, "--m1", "15", "--points", "4:6"]
    assert main([*argv, "--seed", "1", "--out", out]) == 0
    assert len(calls) == builds
