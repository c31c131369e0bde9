"""Command line interface.

Subcommands
-----------
simulate   draw a synthetic dataset (and optionally the truth curve)
fit        estimate the day-averaged distribution from a dataset CSV
ci         fit plus confidence intervals (wald or bootstrap)
coverage   Monte Carlo coverage study of the interval methods

Exit codes, by exception class: 0 success, 2 solver did not converge
(NonConvergenceError), 3 invalid input or arguments (DatasetValidationError,
ValueError, OSError), 4 any other IncutimeError (infeasible or degenerate
data, too many failed replicates) or MemoryError (a grid or matrix too large
to allocate).
"""

from __future__ import annotations

import argparse
import csv
import sys
import warnings

import numpy as np

from .bootstrap import bootstrap_ci
from .errors import (
    DatasetValidationError,
    DegenerateFitError,
    IncutimeError,
    NonConvergenceError,
)
from .inference import fisher_result, wald_intervals
from .model import (
    DOUBLE,
    SINGLE,
    Dataset,
    _check_level_and_days,
    candidate_grid,
    cdf_from_mass,
    validate_dataset,
)
from .simulate import (
    WEIBULL_A,
    WEIBULL_B,
    ExposureSpec,
    TruthSpec,
    draw_doubly,
    draw_singly,
    true_fbar,
)
from .solver import fit_weights
from .weights import build_weight_matrix


def parse_points(text: str) -> list:
    """Evaluation days, either "lo:hi" (inclusive) or "d1,d2,..."."""
    text = text.strip()
    if ":" in text:
        lo, hi = text.split(":", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty day range {lo}:{hi}")
        return list(range(lo, hi + 1))
    days = [int(part) for part in text.split(",") if part.strip()]
    if not days:
        raise ValueError("no evaluation days given")
    return days


def _check_field_counts(path: str, lines, width: int) -> None:
    """Raise for the first record whose field count is not ``width``.

    Runs only after the body failed to parse, to name the record; blank
    lines are not records.
    """
    records = (row for row in csv.reader(lines) if row)
    for i, row in enumerate(records):
        if len(row) != width:
            raise DatasetValidationError(
                f"{path}: row has {len(row)} fields, expected {width}",
                record_index=i,
            )


def _load_body(fh, dtype) -> np.ndarray:
    """The rest of ``fh`` as a 2-d array of ``dtype``; raises ValueError on
    a cell it cannot parse or a record with a different field count."""
    with warnings.catch_warnings():
        # a header-only file is reported by the caller as an empty dataset
        warnings.filterwarnings(
            "ignore", "loadtxt: input contained no data", UserWarning
        )
        # numpy releases from 1.23 read a cell that is not an integer under
        # an integer dtype through float and truncate it (3.5 -> 3), with
        # only this deprecation warning; as an error it fails the parse, as
        # on releases where the deprecation has expired
        warnings.filterwarnings(
            "error", ".*parsing an integer via a float", DeprecationWarning
        )
        return np.loadtxt(
            fh, delimiter=",", quotechar='"', comments=None, ndmin=2, dtype=dtype
        )


def _parse_body(fh, path: str, width: int) -> np.ndarray:
    """The records after the header: int64 when every cell is an int64
    integer, else float."""
    body = fh.tell()
    try:
        return _load_body(fh, np.int64)
    except (ValueError, DeprecationWarning):
        fh.seek(body)
    try:
        return _load_body(fh, float)
    except ValueError:
        fh.seek(body)
        _check_field_counts(path, fh, width)
        raise


# Dataset CSV header names by mode, as write_dataset_csv writes them.
_HEADERS = {SINGLE: ["e", "s"], DOUBLE: ["e", "sl", "sr"]}
# A canonical file is spelled as write_dataset_csv writes it: the header
# as given, then records of unsigned decimal integers of at most 18 digits
# (so each fits int64), "," between fields and the header's line end
# ("\n" or "\r\n") after every record, the last one's optional.
_CANONICAL_DIGITS = 18
_CHUNK_BYTES = 1 << 15
_ZERO, _NINE = ord("0"), ord("9")


def _parse_canonical_block(chunk: np.ndarray, stop_bytes: bytes, block) -> bool:
    """Parse ``chunk``, bytes that end in a line end, into ``block``, one
    row a record; False, with ``block`` part written, if not canonical.

    ``stop_bytes`` is the non-digit bytes of one record in order.
    """
    rows, width = block.shape
    per = len(stop_bytes)
    if chunk.max() > _NINE:
        return False
    stop = chunk < _ZERO
    stops = np.flatnonzero(stop)
    if stops.size != rows * per or chunk[stops].tobytes() != stop_bytes * rows:
        return False
    # digits before each stop; the chunk starts just after a line end
    lengths = np.empty_like(stops)
    lengths[0] = stops[0] + 1
    np.subtract(stops[1:], stops[:-1], out=lengths[1:])
    lengths -= 1
    # the "\n" of a "\r\n" follows its "\r" at once, and no field is empty
    if per > width and lengths[width::per].any():
        return False
    if np.count_nonzero(lengths) != rows * width:
        return False
    longest = int(lengths.max())
    if longest > _CANONICAL_DIGITS:
        return False
    digits = chunk - _ZERO
    digits *= ~stop
    kind = np.min_scalar_type(10**longest - 1)
    values = digits[stops - 1].astype(kind, copy=False)
    for place in range(1, longest):
        digit = digits[stops - 1 - place].astype(kind)
        if place > 1:
            # a byte that far back may belong to the field before
            digit *= lengths > place
        digit *= kind.type(10**place)
        values += digit
    for j in range(width):
        block[:, j] = values[j::per]
    return True


def _read_canonical(raw: bytes, header: list) -> np.ndarray | None:
    """The records of a canonical file as an int64 (records, width) array,
    or None for any other file.  The array is column-major, so each
    record column that validation reads is contiguous.

    Goes through the body in chunks of whole records of about
    ``_CHUNK_BYTES`` bytes; their line ends are counted first, so the result
    is allocated once at its exact size.
    """
    width = len(header)
    names = ",".join(header).encode()
    for line_end in (b"\n", b"\r\n"):
        if raw.startswith(names + line_end):
            break
    else:
        return None
    start = len(names) + len(line_end)
    # no chunk of a canonical body runs more than one record past the mark
    longest_record = width * (_CANONICAL_DIGITS + 1) + 1
    data = np.frombuffer(raw, np.uint8)
    spans = []
    while start < len(raw):
        end = raw.find(b"\n", start + _CHUNK_BYTES - 1) + 1 or len(raw)
        if end - start > _CHUNK_BYTES + longest_record:
            return None
        spans.append((start, end, np.count_nonzero(data[start:end] == 10)))
        start = end
    if not spans:
        return None
    missing = not raw.endswith(line_end)  # the last record's line end
    total = sum(rows for *_, rows in spans) + missing
    out = np.empty((total, width), np.int64, order="F")
    stop_bytes = b"," * (width - 1) + line_end
    row = 0
    for start, end, rows in spans:
        chunk = data[start:end]
        if missing and end == len(raw):
            chunk = np.frombuffer(raw[start:] + line_end, np.uint8)
            rows += 1
        if not _parse_canonical_block(chunk, stop_bytes, out[row : row + rows]):
            return None
        row += rows
    return out


def _read_general(path: str, expected: list) -> np.ndarray:
    """The records of any dataset CSV, int64 or float, through ``np.loadtxt``."""
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]), None)
        if header is None or [h.strip().lower() for h in header] != expected:
            raise DatasetValidationError(
                f"{path}: expected header {','.join(expected)}"
            )
        return _parse_body(fh, path, len(expected))


def read_dataset_csv(path: str, mode: str) -> Dataset:
    """Read a dataset CSV: header ``e,s`` or ``e,sl,sr``, one record a line.

    A canonical file, as ``write_dataset_csv`` writes it, is read in one
    vectorized pass over its bytes (``_read_canonical``).  Every other file
    takes the general path: cells spelled as integers are read as exact
    int64 values, and only a file with some other cell (``3.0``, ``1e3``,
    ``inf``, text, an integer beyond the int64 range) or a wrong field count
    is parsed again as float, which reads it or fails as a float parse
    always did.  Both paths give the same int64 array for a canonical file.
    Validation then rejects any value of magnitude 2**53 or more.

    Raises DatasetValidationError for a wrong header, a record with the
    wrong number of fields (``record_index`` counts records, so blank lines
    are skipped) or no records, and ValueError for a cell that is not a
    number.  Raises DatasetValidationError for a ``mode`` other than
    ``single`` or ``double`` before anything is read.
    """
    if mode not in _HEADERS:
        raise DatasetValidationError(f"unknown mode {mode!r}")
    expected = _HEADERS[mode]
    width = len(expected)
    with open(path, "rb") as fh:
        raw = fh.read()
    values = _read_canonical(raw, expected)
    del raw
    if values is None:
        values = _read_general(path, expected)
    if values.size == 0:
        raise DatasetValidationError("empty dataset")
    if values.shape[1] != width:
        raise DatasetValidationError(
            f"{path}: row has {values.shape[1]} fields, expected {width}",
            record_index=0,
        )
    return validate_dataset(Dataset.from_columns(mode, values.T))


_WRITE_ROWS = 4096


def write_dataset_csv(path: str, data: Dataset) -> None:
    """Write ``data``: the header, then one record a line, each cell
    spelled by ``%d`` (as ``int()`` spells it) and each line ended by CRLF,
    the bytes that ``csv.writer`` writes for them.  Lines are joined and
    written ``_WRITE_ROWS`` at a time.
    """
    columns = data.columns
    line = ",".join(["%d"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_HEADERS[data.mode]) + "\r\n")
        for start in range(0, data.n, _WRITE_ROWS):
            rows = zip(*(c[start : start + _WRITE_ROWS].tolist() for c in columns))
            fh.write("".join(line % row for row in rows))


def _write_estimate_csv(path, mass, fhat, grid) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day", "mass", "fbar"])
        for day, p, f in zip(grid.points.tolist(), mass.as_vector(grid), fhat.values):
            writer.writerow([day, f"{p:.12g}", f"{f:.12g}"])


def _truth_spec(args) -> TruthSpec:
    if args.model == "weibull":
        a = WEIBULL_A if args.a is None else args.a
        b = WEIBULL_B if args.truth_b is None else args.truth_b
        return TruthSpec(family="weibull", a=a, b=b, m1=args.m1)
    a = 6.0 if args.a is None else args.a
    return TruthSpec(family="truncexp", a=a, m1=args.m1)


def cmd_simulate(args) -> int:
    truth = _truth_spec(args)
    exposure = ExposureSpec(m2=args.m2)
    draw = draw_singly if args.mode == SINGLE else draw_doubly
    data = draw(args.n, truth, exposure, args.seed)
    write_dataset_csv(args.out, data)
    if args.truth_out:
        with open(args.truth_out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["day", "fbar"])
            for day in range(1, truth.m1 + 1):
                writer.writerow([day, f"{true_fbar(truth, day):.12g}"])
    return 0


def _fit(data: Dataset, m1):
    """(weights, mass, trace) of the fit of ``data`` on its candidate grid."""
    weights = build_weight_matrix(data, candidate_grid(data, m1))
    mass, trace = fit_weights(weights)
    return weights, mass, trace


def cmd_fit(args) -> int:
    data = read_dataset_csv(args.data, args.mode)
    try:
        weights, mass, trace = _fit(data, args.m1)
    except NonConvergenceError as exc:
        # keep the partial trace; main maps the error to its exit code
        if args.trace_out and exc.trace is not None:
            exc.trace.write(args.trace_out)
        raise
    fhat = cdf_from_mass(mass, weights.grid)
    _write_estimate_csv(args.out, mass, fhat, weights.grid)
    if args.trace_out:
        trace.write(args.trace_out)
    return 0


def _check_interval_args(args) -> None:
    """Reject bad interval arguments before any data is read or fitted.

    Without ``--m1`` the horizon comes from the data, so only a day below 1
    fails here; the grid's horizon is checked once the data is read.
    """
    points = args.points or []
    horizon = args.m1 if args.m1 is not None else max(points, default=1)
    _check_level_and_days(args.level, points, horizon)
    if args.method == "bootstrap" and args.b < 2:
        raise ValueError("--method bootstrap needs --b >= 2")
    if args.fisher_averaged:
        if args.mode != DOUBLE or args.method != "wald":
            raise ValueError(
                "--fisher-averaged applies only to --mode double --method wald"
            )
        if args.b < 1:
            raise ValueError("--fisher-averaged needs --b >= 1")


def _interval_table(weights, mass, args, points):
    if args.method == "wald":
        result = fisher_result(
            weights,
            mass,
            averaging=args.b if args.fisher_averaged else None,
            seed=args.seed,
        )
        fhat = cdf_from_mass(mass, weights.grid)
        return wald_intervals(fhat, result.variances, weights.n, points, args.level)
    return bootstrap_ci(weights, mass, args.b, args.seed, points, args.level)


def cmd_ci(args) -> int:
    _check_interval_args(args)
    data = read_dataset_csv(args.data, args.mode)
    weights, mass, _ = _fit(data, args.m1)
    horizon = weights.grid.horizon
    points = args.points if args.points is not None else list(range(1, horizon + 1))
    _interval_table(weights, mass, args, points).to_csv(args.out)
    return 0


def cmd_coverage(args) -> int:
    _check_interval_args(args)
    if min(args.reps, args.n) < 1:
        raise ValueError("--reps and --n must be >= 1")
    truth = _truth_spec(args)
    exposure = ExposureSpec(m2=args.m2)
    points = args.points if args.points is not None else list(range(1, truth.m1 + 1))
    target = {day: true_fbar(truth, day) for day in points}
    draw = draw_singly if args.mode == SINGLE else draw_doubly
    hits = {day: 0 for day in points}
    widths = {day: 0.0 for day in points}
    used = 0
    failures = 0
    for rep in range(args.reps):
        try:
            data = draw(args.n, truth, exposure, [args.seed, rep])
            weights, mass, _ = _fit(data, truth.m1)
            table = _interval_table(weights, mass, args, points)
        except IncutimeError:
            failures += 1
            continue
        used += 1
        for row in table.rows:
            if row.lower <= target[row.day] <= row.upper:
                hits[row.day] += 1
            widths[row.day] += row.upper - row.lower
    if used == 0:
        raise DegenerateFitError("every coverage replicate failed")
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day", "coverage", "mean_width", "failures"])
        for day in points:
            writer.writerow(
                [
                    day,
                    f"{hits[day] / used:.12g}",
                    f"{widths[day] / used:.12g}",
                    failures,
                ]
            )
    return 0


def _add_truth_args(sub, b_flag: str = "--b") -> None:
    # coverage passes b_flag="--truth-b" because there --b is the replicate
    # count; the dest is truth_b either way.
    sub.add_argument(
        "--model", choices=["weibull", "truncexp"], default="weibull",
        help="truth model (default weibull)",
    )
    sub.add_argument("--a", type=float, default=None, help="truth parameter a")
    sub.add_argument(
        b_flag, type=float, default=None, dest="truth_b",
        help="weibull truth parameter b",
    )
    sub.add_argument(
        "--m1", type=int, default=15, help="incubation support bound (default 15)"
    )
    sub.add_argument(
        "--m2", type=int, default=15,
        help="largest exposure window length (default 15)",
    )


def _add_interval_args(sub) -> None:
    sub.add_argument("--level", type=float, default=0.95)
    sub.add_argument(
        "--points", type=parse_points, default=None,
        help='evaluation days, "lo:hi" or "d1,d2,..." (default: 1..m1)',
    )
    sub.add_argument(
        "--b", type=int, default=1000,
        help="replicates for bootstrap or Fisher averaging (default 1000)",
    )
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--fisher-averaged", action="store_true",
        help="use the mean inverse information over --b resampled refits "
        "(double mode wald only)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incutime",
        description="Day-resolution incubation time estimation from "
        "interval censored observations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a synthetic dataset")
    p.add_argument("--mode", choices=[SINGLE, DOUBLE], required=True)
    p.add_argument("--n", type=int, required=True, help="number of records")
    _add_truth_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="dataset CSV path")
    p.add_argument(
        "--truth-out", default=None, help="optional truth curve CSV path"
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="estimate the day-averaged distribution")
    p.add_argument("--mode", choices=[SINGLE, DOUBLE], required=True)
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument(
        "--m1", type=int, default=None,
        help="incubation support bound (default: inferred from the data)",
    )
    p.add_argument("--out", required=True, help="estimate CSV path")
    p.add_argument("--trace-out", default=None, help="iteration trace path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("ci", help="fit and build confidence intervals")
    p.add_argument("--mode", choices=[SINGLE, DOUBLE], required=True)
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument("--method", choices=["wald", "bootstrap"], required=True)
    p.add_argument("--m1", type=int, default=None)
    _add_interval_args(p)
    p.add_argument("--out", required=True, help="intervals CSV path")
    p.set_defaults(func=cmd_ci)

    p = sub.add_parser("coverage", help="Monte Carlo coverage study")
    p.add_argument("--mode", choices=[SINGLE, DOUBLE], required=True)
    p.add_argument("--method", choices=["wald", "bootstrap"], required=True)
    p.add_argument("--n", type=int, required=True, help="records per replicate")
    p.add_argument("--reps", type=int, required=True, help="number of replicates")
    _add_truth_args(p, b_flag="--truth-b")
    _add_interval_args(p)
    p.add_argument("--out", required=True, help="coverage CSV path")
    p.set_defaults(func=cmd_coverage)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 3 is this tool's invalid-input code
        return 0 if exc.code == 0 else 3
    try:
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DatasetValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except IncutimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
