import csv
import os
import re
import subprocess
import sys
import tracemalloc
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
    NonConvergenceError,
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


def _csv_writer_reference(path, data):
    """The dataset CSV as one csv.writer row per record writes it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if data.mode == "single":
            writer.writerow(["e", "s"])
            for e, s in zip(data.e, data.s):
                writer.writerow([int(e), int(s)])
        else:
            writer.writerow(["e", "sl", "sr"])
            for e, lo, hi in zip(data.e, data.s_l, data.s_r):
                writer.writerow([int(e), int(lo), int(hi)])


@pytest.mark.parametrize("data", [
    Dataset.singly(np.arange(1, 10001), np.arange(10001, 20001)),
    Dataset.singly([3.0, 12.0, 1e20], [5.0, 2.0, 7.0]),
    Dataset.doubly([1, 3, 2**62], [0, 1, 5], [2, 4, 9]),
    Dataset.doubly([1.0, 3.0], [0.0, 10.0], [2.0, 41.0]),
    Dataset.singly([], []),
    Dataset.doubly(np.empty(0, np.int64), [], []),
], ids=["single int", "single float", "double int", "double float",
        "single empty", "double empty"])
def test_write_dataset_csv_matches_csv_writer(tmp_path, data):
    write_dataset_csv(str(tmp_path / "d.csv"), data)
    _csv_writer_reference(str(tmp_path / "ref.csv"), data)
    assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
def test_write_dataset_csv_raises_on_a_non_finite_cell(tmp_path, cell):
    data = Dataset.doubly(np.arange(1.0, 5001.0), np.zeros(5000), np.full(5000, 9.0))
    data.s_r[4500] = cell
    with pytest.raises((ValueError, OverflowError)) as expected:
        _csv_writer_reference(str(tmp_path / "ref.csv"), data)
    with pytest.raises(expected.type, match=re.escape(str(expected.value))):
        write_dataset_csv(str(tmp_path / "d.csv"), data)


def test_read_dataset_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("onset,exposure\n1,2\n")
    with pytest.raises(DatasetValidationError):
        read_dataset_csv(str(path), "single")


def test_read_dataset_rejects_an_unknown_mode_before_reading(tmp_path):
    # the file does not exist, so opening it would raise OSError instead
    with pytest.raises(DatasetValidationError, match="unknown mode 'Single'"):
        read_dataset_csv(str(tmp_path / "missing.csv"), "Single")


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
    "fractional cell beside integer cells": (
        "e,sl,sr\n1,0,2\n2.5,1,4\n", "double", (DatasetValidationError, 1)
    ),
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
    "float-spelled integers": (
        "e,s\n3.0,+5\n 4,6\n", "single", Dataset.singly([3, 4], [5, 6])
    ),
    "signed and spaced integers": (
        "e,s\n+3, 5\n 4 ,+6\n", "single", Dataset.singly([3, 4], [5, 6])
    ),
    # validation rejects every day value of magnitude 2**53 or more
    "integer above 2**53": (
        "e,s\n1,9007199254740993\n", "single", (DatasetValidationError, 0)
    ),
    "largest int64": (
        "e,s\n1,2\n1,9223372036854775807\n", "single", (DatasetValidationError, 1)
    ),
    "least int64 beyond 2**63 - 512": (
        "e,sl,sr\n1,-9223372036854775296,2\n", "double", (DatasetValidationError, 0)
    ),
    "largest integer below 2**63 - 512": (
        "e,s\n1,9223372036854775295\n", "single", (DatasetValidationError, 0)
    ),
    # -2**63 is its own absolute value in int64
    "least int64": (
        "e,sl,sr\n1,-9223372036854775808,2\n", "double", (DatasetValidationError, 0)
    ),
    # boundaries of the one-pass reader for canonical files
    "last record without a line end": (
        "e,s\n1,2\n3,4", "single", Dataset.singly([1, 3], [2, 4])
    ),
    "crlf, last record without a line end": (
        "e,s\r\n1,2\r\n3,4", "single", Dataset.singly([1, 3], [2, 4])
    ),
    "mixed lf and crlf line ends": (
        "e,s\n1,2\r\n3,4\n", "single", Dataset.singly([1, 3], [2, 4])
    ),
    "lone carriage return": (
        "e,s\n1,2\r3,4\n", "single", Dataset.singly([1, 3], [2, 4])
    ),
    "crlf header over an lf body": (
        "e,sl,sr\r\n1,0,2\n3,1,4\n", "double",
        Dataset.doubly([1, 3], [0, 1], [2, 4]),
    ),
    "leading zeros": ("e,s\n007,12\n", "single", Dataset.singly([7], [12])),
    "18-digit integer": (
        "e,s\n1,123456789012345678\n", "single", (DatasetValidationError, 0)
    ),
    "19-digit integer": (
        "e,s\n1,1234567890123456789\n", "single", (DatasetValidationError, 0)
    ),
    "19-digit integer beyond int64": (
        "e,s\n1,9999999999999999999\n", "single", (DatasetValidationError, 0)
    ),
    "empty cell": ("e,sl,sr\n1,,2\n", "double", (ValueError, None)),
    "empty cell, then a digit between cr and lf": (
        "e,s\r\n1,\r5\n2,3\r\n", "single", (DatasetValidationError, 1)
    ),
    "trailing comma without a line end": (
        "e,s\n1,2\n3,4,", "single", (DatasetValidationError, 1)
    ),
    "leading minus": ("e,s\n1,2\n-1,2\n", "single", (DatasetValidationError, 1)),
    "utf-8 byte order mark": (
        "\ufeffe,s\n1,2\n", "single", (DatasetValidationError, None)
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


def _outcome(path, mode):
    """The Dataset read from ``path``, or the type, message and record index
    of the error raised."""
    try:
        return read_dataset_csv(path, mode)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "record_index", None)


@pytest.mark.parametrize("text, mode, expected", READER_CASES.values(),
                         ids=list(READER_CASES))
def test_reader_cases_match_the_general_path(
    tmp_path, monkeypatch, text, mode, expected
):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    fast = _outcome(str(path), mode)
    monkeypatch.setattr(incutime.cli, "_read_canonical", lambda raw, header: None)
    assert _outcome(str(path), mode) == fast


def test_integer_file_is_parsed_once(tmp_path, monkeypatch):
    loadtxt = np.loadtxt
    dtypes = []

    def counted(*args, **kwargs):
        dtypes.append(kwargs["dtype"])
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    path = tmp_path / "d.csv"
    expected = validate_dataset(Dataset.doubly([1, 3], [0, 1], [2, 4]))
    for body, calls in [
        # a canonical file takes the one-pass reader, not np.loadtxt
        ("1,0,2\n3,1,4\n", []),
        ("1, 0,2\n3,1,4\n", [np.int64]),
        ('1,"0",2\n3,1,4\n', [np.int64]),
        ("1,0,2\n3,1,4.0\n", [np.int64, float]),
    ]:
        dtypes.clear()
        path.write_text("e,sl,sr\n" + body)
        assert read_dataset_csv(str(path), "double") == expected
        assert dtypes == calls, body


def test_canonical_reader_declines_a_line_longer_than_a_record(monkeypatch):
    # a chunk runs at most one record past its mark, so a body without line
    # ends is declined before any chunk-sized temporary is made
    monkeypatch.setattr(incutime.cli, "_CHUNK_BYTES", 1024)
    raw = b"e,s\n" + b"1," * 50_000 + b"1\n"
    tracemalloc.start()
    try:
        assert incutime.cli._read_canonical(raw, ["e", "s"]) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000


def _truncating_loadtxt(monkeypatch):
    """Make np.loadtxt behave as on numpy releases from 1.23 that still have
    the integer-via-float deprecation: under an integer dtype a cell that is
    not spelled as an integer is read through float and truncated, with only
    a DeprecationWarning."""
    loadtxt = np.loadtxt

    def truncating(fh, *args, dtype=float, **kwargs):
        if dtype is not np.int64:
            return loadtxt(fh, *args, dtype=dtype, **kwargs)
        start = fh.tell()
        try:
            return loadtxt(fh, *args, dtype=dtype, **kwargs)
        except ValueError:
            fh.seek(start)
            values = loadtxt(fh, *args, dtype=float, **kwargs)
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        with np.errstate(invalid="ignore"):
            return values.astype(np.int64)

    monkeypatch.setattr(np, "loadtxt", truncating)


@pytest.mark.parametrize("text, mode, expected", READER_CASES.values(),
                         ids=list(READER_CASES))
def test_reader_cases_hold_where_integer_parse_truncates(
    tmp_path, monkeypatch, text, mode, expected
):
    _truncating_loadtxt(monkeypatch)
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        # the default outside __main__: the deprecation warning is not shown
        warnings.simplefilter("ignore", DeprecationWarning)
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


def test_exit_code_non_convergence(tmp_path, monkeypatch):
    import incutime.solver as solver_module

    data_path = str(tmp_path / "d.csv")
    out = str(tmp_path / "fit.csv")
    trace_out = tmp_path / "trace.csv"
    main(["simulate", "--mode", "single", "--n", "200", "--seed", "5",
          "--out", data_path])
    monkeypatch.setattr(solver_module, "MAX_OUTER", 1)
    code = main(
        ["fit", "--mode", "single", "--data", data_path, "--m1", "15",
         "--out", out, "--trace-out", str(trace_out)]
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
    # the solver takes no settings: every fit is certified at one tolerance
    assert main(["fit", "--mode", "single", "--data", data_path,
                 "--tol", "inf", "--out", out]) == 3
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--data", "{data}", "--m1", "0"],
        ["ci", "--data", "{data}", "--method", "wald", "--m1", "0"],
        ["coverage", "--method", "wald", "--n", "30", "--reps", "0"],
        ["coverage", "--method", "wald", "--n", "0", "--reps", "2"],
    ],
    ids=["fit-m1-0", "ci-m1-0", "coverage-reps-0", "coverage-n-0"],
)
def test_counts_below_1_exit_3_with_one_error_line(
    tmp_path, monkeypatch, capsys, argv
):
    data_path = str(tmp_path / "d.csv")
    out = tmp_path / "out.csv"
    main(["simulate", "--mode", "single", "--n", "50", "--seed", "5",
          "--out", data_path])
    draws = []
    monkeypatch.setattr(incutime.cli, "draw_singly", lambda *a: draws.append(a))
    capsys.readouterr()
    argv = [arg.format(data=data_path) for arg in argv]
    assert main([*argv, "--mode", "single", "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()
    assert draws == []


# the documented exit code of every package error, by class
EXIT_CODES = [
    (NonConvergenceError("forced"), 2),
    (DatasetValidationError("forced"), 3),
    (InfeasibleRecordError(0), 4),
    (InfeasiblePointError(0), 4),
    (SingularMatrixError(0), 4),
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
    def raises(weights):
        raise error

    path = tmp_path / "d.csv"
    _write_singly(path, [(1, 1), (2, 3)])
    monkeypatch.setattr(incutime.cli, "fit_weights", raises)
    assert main(["fit", "--mode", "single", "--data", str(path),
                 "--out", str(tmp_path / "fit.csv")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_cli_import_and_wald_ci_load_no_scipy(tmp_path):
    # importing scipy costs more start-up than numpy itself; every command
    # runs on numpy alone, so each still succeeds with scipy blocked, which
    # makes any import of it fail
    single = str(tmp_path / "single.csv")
    double = str(tmp_path / "double.csv")
    out = str(tmp_path / "out.csv")
    runs = [
        ["simulate", "--mode", "single", "--model", "weibull", "--n", "300",
         "--seed", "5", "--out", single, "--truth-out", out],
        ["simulate", "--mode", "double", "--model", "truncexp", "--n", "300",
         "--seed", "5", "--out", double, "--truth-out", out],
        ["fit", "--mode", "single", "--data", single, "--out", out],
        ["ci", "--mode", "single", "--data", single, "--method", "wald",
         "--m1", "15", "--out", out],
        ["ci", "--mode", "single", "--data", single, "--method", "bootstrap",
         "--b", "5", "--m1", "15", "--out", out],
        ["ci", "--mode", "double", "--data", double, "--method", "wald",
         "--fisher-averaged", "--b", "5", "--m1", "15", "--out", out],
        ["coverage", "--mode", "single", "--method", "wald", "--n", "30",
         "--reps", "2", "--out", out],
    ]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import incutime.cli\n"
        f"for argv in {runs!r}:\n"
        "    assert incutime.cli.main(argv) == 0, argv\n"
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


def test_onset_bound_of_2_53_is_invalid_input(tmp_path, capsys):
    # beyond 2**53 the float64 double-mode kernel cancels to 0, which would
    # make this record look like one no grid day can explain (exit 4)
    path = tmp_path / "d.csv"
    path.write_text("e,sl,sr\n1,0,10000000000000000\n2,0,3\n")
    assert main(["fit", "--mode", "double", "--m1", "15", "--data", str(path),
                 "--out", str(tmp_path / "fit.csv")]) == 3
    assert capsys.readouterr().err.startswith("error: record 0: s_r = ")


def test_grid_too_wide_to_allocate_exits_4(tmp_path, capsys):
    # s = 2**52 passes validation, but its grid of 2**52 days asks for
    # 32 PiB, which fails at once whatever the overcommit setting
    path = tmp_path / "d.csv"
    _write_singly(path, [(1, 2**52), (2, 3)])
    assert main(["fit", "--mode", "single", "--data", str(path),
                 "--out", str(tmp_path / "fit.csv")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory")
    assert "Traceback" not in err


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
    import incutime.solver as solver_module

    inner_loop = solver_module._inner_loop
    attempted = set()

    def first_three_stall(model, on, inner_tol):
        targets, on, errors = inner_loop(model, on, inner_tol)
        # the batch of 20 replicates, not the point fit's batch of one; its
        # first model has a row per replicate, in replicate order
        if len(model.b) == 20:
            attempted.update(range(20))
            # 3 of 20 is above the 10 percent the bootstrap also tolerates
            errors[:3] = [NonConvergenceError("forced failure")] * 3
        return targets, on, errors

    data_path = str(tmp_path / "d.csv")
    main(["simulate", "--mode", "double", "--n", "200", "--seed", "5",
          "--out", data_path])
    monkeypatch.setattr(solver_module, "_inner_loop", first_three_stall)
    code = main(["ci", "--mode", "double", "--data", data_path, "--method",
                 "wald", "--fisher-averaged", "--b", "20", "--m1", "15",
                 "--out", str(tmp_path / "ci.csv")])
    assert code == 4
    assert attempted == set(range(20))


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
