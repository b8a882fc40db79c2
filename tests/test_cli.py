import errno
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from depolqfi import correlated, evaluate
from depolqfi.cli import PROTOCOLS, _parse_grid, _verify_report_dict, main
from depolqfi.correlated import correlated_qfi
from depolqfi.errors import DomainError
from depolqfi.evaluate import evaluate_grid
from depolqfi.oracle import verify
from depolqfi.protocols import ProtocolParams, sequential_qfi, sqsc_qfi
from table_helpers import point, written

# the header of eval and sweep CSV output, which evaluate_grid's keys fix
CSV_HEADER = (
    "protocol,n,m,r,lambda,qfi,qfi_per_channel,"
    "gain_vs_sqsc,gain_vs_seq,crb_variance_bound,method"
)


class TestEvaluatePoint:
    def test_sqsc_row(self):
        row = point("sqsc", 1, 1, 0.5, 0.8)
        assert (row["n"], row["m"]) == (1, 1)
        assert row["qfi"] == pytest.approx(sqsc_qfi(0.5, 0.8), rel=1e-14)
        assert row["qfi_per_channel"] == row["qfi"]
        assert row["gain_vs_sqsc"] == pytest.approx(1.0, rel=1e-14)
        assert row["crb_variance_bound"] == pytest.approx(1.0 / row["qfi"], rel=1e-14)

    def test_correlated_row(self):
        row = point("correlated", 4, 2, 0.5, 0.7)
        qfi = correlated_qfi(ProtocolParams(4, 2, 0.5, 0.7))
        assert row["qfi"] == pytest.approx(qfi, rel=1e-14)
        seq = sequential_qfi(2, 0.5, 0.7) / 2
        assert row["gain_vs_seq"] == pytest.approx(qfi / 2 / seq, rel=1e-13)

    def test_gains_empty_at_r_zero(self):
        row = point("sequential", 1, 3, 0.0, 0.5)
        assert row["gain_vs_sqsc"] is None
        assert row["gain_vs_seq"] is None
        assert row["qfi"] == 0.0
        assert math.isinf(row["crb_variance_bound"])

    def test_gains_empty_at_zero_reference_and_lambda_one(self):
        # the sequential reference vanishes at lambda = 0 for m >= 2
        row = point("correlated", 3, 2, 0.5, 0.0)
        assert row["gain_vs_seq"] is None
        assert row["gain_vs_sqsc"] is not None
        row = point("correlated", 3, 2, 0.5, 1.0, include_limit=True)
        assert row["gain_vs_sqsc"] is None
        assert row["gain_vs_seq"] is None

    def test_protocol_forces_shape(self):
        row = point("sequential", 7, 3, 0.5, 0.5)
        assert row["n"] == 1
        row = point("independent", 1, 4, 0.5, 0.5)
        assert row["n"] == 4

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_axes_give_their_outer_product(self, protocol):
        # an r axis of 2 and a lambda axis of 3: 6 points in (r, lambda) order
        table = evaluate_grid(protocol, [3], [2], np.array([0.5, 0.6]),
                              np.array([0.1, 0.2, 0.3]))
        assert len(table) == 11
        assert {len(column) for column in table.values()} == {6}
        assert table["r"] == [0.5, 0.5, 0.5, 0.6, 0.6, 0.6]
        assert table["lambda"] == [0.1, 0.2, 0.3] * 2
        # a number is a one-value axis, beside an array or another number
        table = evaluate_grid(protocol, [3], [2], 0.5, np.array([0.1, 0.2]))
        assert (table["r"], table["lambda"]) == ([0.5, 0.5], [0.1, 0.2])
        table = evaluate_grid(protocol, [3], [2], np.array([0.6, 0.5]), 0.1)
        assert (table["r"], table["lambda"]) == ([0.5, 0.6], [0.1, 0.1])
        # unsorted axes come back sorted; equal keys keep the axes' order:
        # the repeated 0.5, and -0.0 (axis position 3) after 0.0 (position 1)
        table = evaluate_grid(protocol, [3], [2], np.array([0.6, 0.0, 0.5, -0.0, 0.5]),
                              np.array([0.3, 0.1]))
        assert table["r"] == [0.0] * 4 + [0.5] * 4 + [0.6] * 2
        assert [math.copysign(1.0, r) for r in table["r"][:4]] == [1.0, -1.0] * 2
        assert table["lambda"] == [0.1, 0.1, 0.3, 0.3] * 2 + [0.1, 0.3]
        # every row is the row of its own point
        assert written(table).splitlines()[1:] == [
            written(evaluate_grid(protocol, [3], [2], r, lam)).splitlines()[1]
            for r, lam in zip(table["r"], table["lambda"])
        ]


class TestCsvFormat:
    def test_header_exact(self):
        assert CSV_HEADER == (
            "protocol,n,m,r,lambda,qfi,qfi_per_channel,"
            "gain_vs_sqsc,gain_vs_seq,crb_variance_bound,method"
        )
        header = written(evaluate_grid("sqsc", [1], [1], 0.5, 0.8)).splitlines()[0]
        assert header == CSV_HEADER

    def test_columns_in_key_order(self):
        # any table, in the order of its keys: the header is the keys, and a
        # JSON record keeps them in order, with n, m, r and lambda as numbers
        table = {"z": [1, None], "lambda": [0.5, 0.25], "a": ["x", "y"], "m": [2, 3]}
        assert written(table).splitlines() == [
            "z,lambda,a,m",
            "1,5.000000000e-01,x,2",
            ",2.500000000e-01,y,3",
        ]
        records = json.loads(written(table, "json"))
        assert [list(record.items()) for record in records] == [
            [("z", "1"), ("lambda", 0.5), ("a", "x"), ("m", 2)],
            [("z", ""), ("lambda", 0.25), ("a", "y"), ("m", 3)],
        ]

    def test_row_rendering(self):
        text = written(evaluate_grid("sqsc", [1], [1], 0.5, 0.8)).splitlines()[1]
        fields = text.split(",")
        assert fields[0] == "sqsc"
        assert fields[1] == "1" and fields[2] == "1"
        assert fields[3] == "5.000000000e-01"
        assert fields[-1] == "closed_form"

    def test_inf_and_empty_tokens(self):
        text = written(evaluate_grid("sqsc", [1], [1], 0.0, 0.8)).splitlines()[1]
        fields = text.split(",")
        header = CSV_HEADER.split(",")
        assert fields[header.index("gain_vs_sqsc")] == ""
        assert fields[header.index("gain_vs_seq")] == ""
        assert fields[header.index("crb_variance_bound")] == "inf"

    def test_dict_holds_the_csv_fields(self):
        # a correlated row, then a row with empty gains and an infinite bound
        parts = [
            evaluate_grid("correlated", [3], [2], 0.5, 0.7),
            evaluate_grid("sequential", [1], [3], 0.0, 0.5),
        ]
        table = {column: parts[0][column] + parts[1][column] for column in parts[0]}
        records = json.loads(written(table, "json"))
        lines = written(table).splitlines()
        assert lines[0] == CSV_HEADER
        assert [list(data) for data in records] == [CSV_HEADER.split(",")] * 2
        data = records[0]
        assert (data["n"], data["m"], data["r"], data["lambda"]) == (3, 2, 0.5, 0.7)
        assert (records[1]["gain_vs_seq"], records[1]["crb_variance_bound"]) == ("", "inf")
        numbers = ("n", "m", "r", "lambda")
        for i, (data, line) in enumerate(zip(records, lines[1:], strict=True)):
            for key, field in zip(data, line.split(","), strict=True):
                assert data[key] == (table[key][i] if key in numbers else field)


class TestSweep:
    def test_sorted_and_complete(self):
        for r_grid, lam_grid in (
            (np.linspace(0.2, 0.8, 3), np.linspace(0.1, 0.9, 3)),
            (np.linspace(0.8, 0.2, 3), np.linspace(0.9, 0.1, 3)),  # descending
            (np.array([0.5, 0.2, 0.5]), np.array([0.3, 0.1, 0.3])),  # repeated
            (np.array([-0.0, 0.0]), np.array([0.5, 0.1])),  # equal keys, unequal bits
        ):
            table = evaluate_grid("correlated", [2, 3], [1, 2], r_grid, lam_grid)
            assert len(table["n"]) == 2 * 2 * r_grid.size * lam_grid.size
            keys = list(zip(table["n"], table["m"], table["r"], table["lambda"]))
            assert keys == sorted(keys)
            # each grid point's own line, stably sorted by (n, m, r, lambda)
            unsorted = [
                ((n, m, r, lam),
                 written(evaluate_grid("correlated", [n], [m], r, lam)).splitlines()[1])
                for n, m in ((3, 2), (3, 1), (2, 2), (2, 1))
                for r in r_grid
                for lam in lam_grid
            ]
            unsorted.sort(key=lambda pair: pair[0])
            assert written(table).splitlines()[1:] == [line for _, line in unsorted]

    def test_closed_form_runs_on_flat_chunks(self, monkeypatch):
        # a grid above PLAIN_WORK: the correlated form gets its points on
        # one flat, r-major axis, cut into chunks of at most CHUNK_ELEMENTS
        # (point, profile) entries: each call 1-D r and lambda of one length
        seen = []
        blocks = correlated._blocks

        def spy_blocks(n, m, r, lam):
            seen.append(((n, m), np.ndim(r), np.ndim(lam), r.copy(), lam.copy()))
            return blocks(n, m, r, lam)

        monkeypatch.setattr(correlated, "_blocks", spy_blocks)
        work = 5 * sum(evaluate._point_work("correlated", 12, m) for m in (3, 6))
        count = evaluate.PLAIN_WORK // work + 1
        r_grid, lam_grid = np.linspace(0.9, 0.1, 5), np.linspace(0.2, 0.8, count)
        evaluate_grid("correlated", [12], [3, 6], r_grid, lam_grid)
        for n, m in [(12, 3), (12, 6)]:
            calls = [call[1:] for call in seen if call[0] == (n, m)]
            chunk = max(1, correlated.CHUNK_ELEMENTS // ((n - m + 1) * (m + 1)))
            assert len(calls) == -(-r_grid.size * lam_grid.size // chunk) > 1
            for r_ndim, lam_ndim, r, lam in calls:
                assert r_ndim == lam_ndim == 1
                assert 1 <= len(r) == len(lam) <= chunk
            r_points, lam_points = (np.concatenate(x) for x in list(zip(*calls))[2:])
            np.testing.assert_array_equal(r_points, np.repeat(r_grid, lam_grid.size))
            np.testing.assert_array_equal(lam_points, np.tile(lam_grid, r_grid.size))

    def test_rows_sorted_after_protocol_overrides_n(self):
        # sequential rows all carry n = 1, so the two requested n values give
        # one set of rows, which the sort puts in ascending r
        table = evaluate_grid(
            "sequential", [2, 1], [1], np.linspace(0.6, 0.5, 2), np.array([0.5])
        )
        assert list(zip(table["n"], table["r"])) == [(1, 0.5), (1, 0.6)]

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_rows_match_evaluate_point(self, protocol):
        # only the correlated protocols take lambda = 1, as a limit
        limit = protocol in ("correlated", "corr_vs_seq")
        ns, ms = [3, 4], [1, 3]
        r_grid = np.array([0.0, 0.4, 1.0])
        lam_grid = np.array([0.0, 0.5, 1.0 if limit else 0.9])
        table = evaluate_grid(protocol, ns, ms, r_grid, lam_grid, include_limit=limit)
        # a sweep evaluates each (n, m) that its rows carry once
        points = {}
        for n in ns:
            for m in ms:
                for r in r_grid:
                    for lam in lam_grid:
                        one = evaluate_grid(protocol, [n], [m], r, lam, limit)
                        key = tuple(one[c][0] for c in ("n", "m", "r", "lambda"))
                        points[key] = written(one).splitlines()[1]
        assert written(table).splitlines()[1:] == [points[k] for k in sorted(points)]
        if not limit:
            with pytest.raises(DomainError):
                evaluate_grid(protocol, ns, ms, r_grid, np.array([1.0]), True)
            with pytest.raises(DomainError):
                evaluate_grid(protocol, [3], [1], 0.4, 1.0, include_limit=True)

    def test_single_point_sweep_equals_eval(self):
        table = evaluate_grid(
            "sequential", [1], [3], np.array([0.5]), np.array([0.8])
        )
        one = evaluate_grid("sequential", [1], [3], 0.5, 0.8)
        assert written(table) == written(one)

    @pytest.mark.parametrize("args, include_limit, message", [
        # the counts before the closed form's domain checks
        (("sqsc", [0], [1], 2.0, 0.5), False, "n must be an integer >= 1, got 0"),
        # the correlated lambda check is closed with include_limit; the
        # single-qubit forms ignore include_limit and keep lambda < 1
        (("correlated", [3], [2], 0.5, -0.5), True, "lambda must lie in [0, 1], got -0.5"),
        (("sqsc", [1], [1], 0.5, 1.0), True, "lambda must lie in [0, 1), got 1.0"),
        # r and lambda before m <= n
        (("correlated", [2], [3], 1.5, 0.5), False, "r must lie in [0, 1], got 1.5"),
        # the protocol name before everything
        (("nope", [0], [1], 0.5, 0.5), False, "unknown protocol 'nope'"),
        # then m <= n and the closed form's cap, in ascending carried (n, m):
        # m > n on a later shape, m > n before the cap on one shape, and the
        # cap after a valid shape
        (("correlated", [2, 3], [1, 3], 0.5, 0.5), False,
         "correlated protocol requires m <= n, got m=3, n=2"),
        (("corr_vs_seq", [61], [62], 0.5, 0.5), False,
         "correlated protocol requires m <= n, got m=62, n=61"),
        (("correlated", [10, 61], [1], 0.5, 0.5), False,
         "n = 61 exceeds closed-form cap 60"),
    ])
    def test_first_fault_is_reported(self, args, include_limit, message):
        with pytest.raises(DomainError) as raised:
            evaluate_grid(*args, include_limit=include_limit)
        assert str(raised.value) == message


    @pytest.mark.parametrize("work", [0, 10**18])  # numpy arrays, math floats
    def test_checks_once_per_carried_shape(self, work, monkeypatch):
        # a correlated grid is checked once per carried (n, m), whatever its
        # size: one ProtocolParams of numbers each, then one kernel call on
        # the axes, and no correlated_qfi call per point
        calls, points = [], []

        def spy(name, form):
            def call(*args, **kwargs):
                calls.append(name)
                return form(*args, **kwargs)
            return call

        def params(*args, **kwargs):
            points.append(ProtocolParams(*args, **kwargs))
            return points[-1]

        monkeypatch.setattr(evaluate, "PLAIN_WORK", work)
        monkeypatch.setattr(evaluate, "ProtocolParams", spy("params", params))
        monkeypatch.setattr(correlated, "array_qfi", spy("array", correlated.array_qfi))
        monkeypatch.setattr(correlated, "correlated_qfi", spy("qfi", correlated_qfi))
        counts = []
        for size in (2, 20):
            calls.clear()
            r, lam = np.linspace(0.0, 1.0, size), np.linspace(0.0, 0.95, size)
            evaluate_grid("corr_vs_seq", [12], [3, 6], r, lam)
            counts.append({key: calls.count(key) for key in calls})
        assert counts == [{"params": 2} if work else {"params": 2, "array": 2}] * 2
        assert all(type(x) is float for p in points for x in (p.r, p.lam)), points


class TestTwoSides:
    """evaluate_grid runs a grid of at most PLAIN_WORK in math floats and a
    larger one on numpy arrays; forced onto either side, it writes the same
    bytes and reports the same first fault."""

    @staticmethod
    def sides(monkeypatch, *args, **kwargs):
        """evaluate_grid(*args, **kwargs) on numpy arrays, then in math
        floats: each side's CSV and JSON text or DomainError message, and
        the (r, lam) of each sqsc_qfi call there."""
        calls = []

        def spy(r, lam):
            calls[-1].append((r, lam))
            return sqsc_qfi(r, lam)

        monkeypatch.setattr(evaluate, "sqsc_qfi", spy)
        outputs = []
        for limit in (0, 10**18):
            monkeypatch.setattr(evaluate, "PLAIN_WORK", limit)
            calls.append([])
            try:
                table = evaluate_grid(*args, **kwargs)
            except DomainError as exc:
                outputs.append(str(exc))
            else:
                outputs.append((written(table), written(table, "json")))
        return outputs, calls

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_same_bytes(self, protocol, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        limit = protocol in ("correlated", "corr_vs_seq")  # lambda = 1 as a limit
        r = np.concatenate([[0.0, -0.0, 1.0], rng.uniform(0.0, 1.0, 3)])
        lam = np.concatenate([[0.0, -0.0], rng.uniform(0.0, 1.0, 3), [1.0] * limit])
        for r_axis, lam_axis in [
            (r, lam),
            (list(r), list(lam)),  # the command line's axes
            (np.append(r, r[::-1]), lam[::-1]),  # repeated and descending
            (float(r[4]), lam),  # a number beside an axis
            (r, float(lam[3])),
        ]:
            outputs, calls = self.sides(
                monkeypatch, protocol, [3, 5], [1, 2, 3], r_axis, lam_axis, limit
            )
            assert outputs[0] == outputs[1]
            # one sqsc pass a side, on the r axis and the reference lambda
            # axis, whose lambda = 1 is 0
            r_list, lam_list = (np.atleast_1d(x).tolist() for x in (r_axis, lam_axis))
            lam_ref = [0.0 if lam == 1.0 else lam for lam in lam_list]
            assert calls == [[(r_list, lam_ref)]] * 2

    @pytest.mark.parametrize("ns, ms", [([3, 5], [1, 2, 3]), ([10, 12], [3, 5])])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_one_reference_pass_per_grid(self, protocol, ns, ms, monkeypatch):
        # sqsc_qfi once per grid and sequential_qfi once per carried m > 1,
        # also where two n share an m; a carried m = 1 takes the sqsc pass.
        # A pass is one call on the grid's axes, on either side of PLAIN_WORK
        calls = []

        def sqsc_spy(r, lam):
            calls.append("sqsc")
            return sqsc_qfi(r, lam)

        def sequential_spy(m, r, lam):
            calls.append(m)
            return sequential_qfi(m, r, lam)

        monkeypatch.setattr(evaluate, "sqsc_qfi", sqsc_spy)
        monkeypatch.setattr(evaluate, "sequential_qfi", sequential_spy)
        limit = protocol in ("correlated", "corr_vs_seq")  # lambda = 1 as a limit
        r, lam = [0.0, 0.5, 1.0], [0.0, 0.5, 1.0 if limit else 0.9]
        carried = [1] if protocol == "sqsc" else ms
        for work in (0, 10**18):
            monkeypatch.setattr(evaluate, "PLAIN_WORK", work)
            calls.clear()
            evaluate_grid(protocol, ns, ms, r, lam, limit)
            passes = {key: calls.count(key) for key in calls}
            expected = ["sqsc", *(m for m in carried if m > 1)]
            assert passes == dict.fromkeys(expected, 1)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_same_first_fault(self, protocol, monkeypatch):
        limit = protocol in ("correlated", "corr_vs_seq")
        for r_axis, lam_axis, include_limit, message in [
            # the first bad r in axis order, before any bad lambda
            ([0.5, 1.5, -0.5], [-0.1], False, "r must lie in [0, 1], got 1.5"),
            ([0.5, math.nan], [0.3], False, "r must lie in [0, 1], got nan"),
            ([0.5, 0.2], [0.3, 1.0, -0.1], False, "lambda must lie in [0, 1), got 1.0"),
            # include_limit closes lambda's range for the correlated forms only
            ([0.5], [0.3, 1.0, 1.5], True,
             "lambda must lie in [0, 1], got 1.5" if limit
             else "lambda must lie in [0, 1), got 1.0"),
        ]:
            outputs, _ = self.sides(
                monkeypatch, protocol, [3], [2], r_axis, np.array(lam_axis), include_limit
            )
            assert outputs == [message] * 2


class TestParseGrid:
    @pytest.mark.parametrize("raw", [
        # one value: linspace's 0 * delta + start, whose sign can differ
        # from start's
        "0.5:7:1", "-0:3:1", "-0:-2:1", "0:-0:1",
        # start = stop, and signed zeros at either end
        "0.3:0.3:4", "-0:-0:3", "0:-0:3", "-0:0:3", "-0:1:21", "1:-0:4",
        "0.9:0.1:5",  # descending
        # steps that round to 0, where linspace divides by the count first
        "0:5e-324:3", "5e-324:-0:4", "0:1e-320:7",
        # large magnitudes
        "-1e300:1e300:9", "1e308:1.7e308:11", "-1.7e308:-1e308:6",
        "0:1:101", "0:0.99:100", "0.05:0.95:19",
    ])
    def test_equals_linspace_to_the_bit(self, raw):
        start, stop, count = raw.split(":")
        grid = _parse_grid(raw)
        assert type(grid) is list and {type(x) for x in grid} == {float}
        expected = np.linspace(float(start), float(stop), int(count))
        assert np.array(grid).tobytes() == expected.tobytes()  # -0.0 too

    @pytest.mark.parametrize("raw", ["0:inf:3", "-1e308:1e308:3", "-inf:0:1", "nan:0:2"])
    def test_non_finite_exits_2(self, raw, capsys):
        assert main(["sweep", "--protocol", "sqsc", f"--r-grid={raw}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: grid values must be finite, got {raw!r}\n"


# one command of each kind that writes to stdout
STDOUT_COMMANDS = [
    ["table", "spectator"],
    ["figure", "cutoff"],
    ["eval", "--protocol", "sqsc", "--r", "0.5", "--lambda", "0.7"],
    ["eval", "--protocol", "correlated", "--n", "4", "--m", "2", "--r", "0.5",
     "--lambda", "0.7"],
    ["sweep", "--protocol", "correlated", "--n", "3", "--m", "2"],
    ["correlations", "--m", "2", "--r", "0.5", "--lambda", "0.5"],
    ["verify", "--n", "3", "--m", "2", "--r", "0.5", "--lambda", "0.7"],
]


class _FailingStdout(io.StringIO):
    """A stdout on a full disk: its write or its flush raises OSError."""

    def __init__(self, failing: str):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(errno.ENOSPC, "No space left on device")


class TestMain:
    def test_eval_csv(self, capsys):
        code = main(
            ["eval", "--protocol", "sqsc", "--r", "0.5", "--lambda", "0.8"]
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out[0] == CSV_HEADER
        assert out[1].startswith("sqsc,1,1,")

    def test_eval_json(self, capsys):
        code = main(
            [
                "eval", "--protocol", "correlated", "--n", "3", "--m", "2",
                "--r", "0.5", "--lambda", "0.7", "--format", "json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["protocol"] == "correlated"
        assert data["n"] == 3

    def test_eval_all_qubits_hit_at_lambda_zero(self, capsys):
        # m = n >= 2 at lambda = 0: the QFI prints as exactly 0 and its
        # variance bound as inf, where round-off once printed about 1e-35
        rng = np.random.default_rng(1313)
        for n in range(2, 61):
            r = repr(float(rng.uniform(0.0, 1.0)))
            argv = ["eval", "--protocol", "correlated", "--n", str(n), "--m", str(n),
                    "--r", r, "--lambda", "0", "--format", "json"]
            assert main(argv) == 0
            data = json.loads(capsys.readouterr().out)
            assert float(data["qfi"]) == 0.0, (n, r)
            assert float(data["gain_vs_sqsc"]) == 0.0, (n, r)
            assert data["crb_variance_bound"] == "inf", (n, r)

    def test_sweep_to_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "--protocol", "sequential", "--m", "1,2",
                "--r-grid", "0:1:3", "--lambda-grid", "0:0.9:3",
                "--output", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 3 * 3

    @pytest.mark.parametrize(
        "protocol, shapes", [("sqsc", 1), ("independent", 2), ("sequential", 2)]
    )
    def test_sweep_prints_each_row_once(self, protocol, shapes, capsys):
        # these protocols override the requested n (sqsc also m), so the four
        # requested (n, m) pairs carry only `shapes` distinct ones; a value
        # repeated in a grid still gives one row per entry
        code = main(
            [
                "sweep", "--protocol", protocol, "--n", "3,4", "--m", "1,2",
                "--r-grid", "0.5:0.5:2", "--lambda-grid", "0.5:0.5:1",
            ]
        )
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 2 * shapes
        assert len(set(rows)) == shapes

    def test_table_spectator(self, capsys):
        code = main(["table", "spectator"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out[0] == "lambda,m_opt,tie_partner,gain"
        rows = [line.split(",") for line in out[1:]]
        assert [int(r[1]) for r in rows] == [1, 2, 5, 10, 50, 100]

    def test_table_aliases_match(self, capsys):
        main(["table", "II"])
        alias_out = capsys.readouterr().out
        main(["table", "all_qubits"])
        assert capsys.readouterr().out == alias_out

    def test_verify_single_point(self, capsys):
        code = main(
            ["verify", "--n", "3", "--m", "2", "--r", "0.5", "--lambda", "0.7"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["pass"] is True

    def test_verify_one_sided_inf_is_valid_json(self, capsys):
        # the oracle drops a rank-deficient pair here and reports inf, while
        # the closed form stays finite
        code = main(
            ["verify", "--n", "6", "--m", "5", "--r", "0.9999999", "--lambda", "0.9999999"]
        )
        assert code == 1

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        data = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert "inf" in (data[0]["closed_form_qfi"], data[0]["oracle_qfi"])
        assert (data[0]["abs_err"], data[0]["rel_err"]) == ("inf", "inf")
        assert data[0]["pass"] is False

    def test_correlated_n1_m1_near_pure_weak_noise_matches_sqsc(self, capsys):
        # one qubit used once is the sqsc protocol; its tiny block eigenvalue
        # (1 - lambda r)/2 is not a rank drop
        point = ["--n", "1", "--m", "1", "--r", "1", "--lambda", "0.99999999999997"]
        qfi = []
        for protocol in ("correlated", "sqsc"):
            assert main(["eval", "--protocol", protocol, *point, "--format", "json"]) == 0
            qfi.append(json.loads(capsys.readouterr().out)["qfi"])
        assert qfi[0] == qfi[1] != "inf"

    def test_correlations_json(self, capsys):
        code = main(["correlations", "--m", "1", "--r", "0.8", "--lambda", "0.6"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["separable"] is False

    @pytest.mark.parametrize("m, lam", [("2", "1e-200"), ("3", "1e-120")])
    def test_correlations_underflowing_lambda_power(self, m, lam, capsys):
        code = main(["correlations", "--m", m, "--r", "0", "--lambda", lam])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["separability_threshold_r"] == 1.0
        assert data["separable"] is True

    def test_figure_cutoff(self, capsys):
        code = main(["figure", "cutoff"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out[0] == "m,cutoff,squared_cutoff"
        assert len(out) == 41
        first = out[1].split(",")
        assert float(first[1]) == pytest.approx(math.exp(-0.5), rel=1e-9)

    def test_figure_preset(self, capsys):
        code = main(["figure", "corr-gain-n2-m1"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out[0] == CSV_HEADER
        assert len(out) == 1 + 19 * 19

    def test_domain_violation_exit_2(self, capsys):
        code = main(
            ["eval", "--protocol", "sqsc", "--r", "1.5", "--lambda", "0.5"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_lambda_one_without_limit_flag_exit_2(self):
        code = main(
            [
                "eval", "--protocol", "correlated", "--n", "2", "--m", "1",
                "--r", "0.5", "--lambda", "1.0",
            ]
        )
        assert code == 2

    def test_capacity_exit_4(self, capsys):
        code = main(
            [
                "verify", "--n", "13", "--m", "1", "--r", "0.5",
                "--lambda", "0.5",
            ]
        )
        assert code == 4
        assert capsys.readouterr().err == "error: dimension 2**13 exceeds cap 4096\n"

    def test_out_of_memory_exit_4(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr("depolqfi.evaluate.evaluate_grid", exhausted)
        code = main(["sweep", "--protocol", "correlated", "--n", "4", "--m", "2"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == "error: Unable to allocate 74.5 GiB\n"

    def test_io_failure_exit_3(self, tmp_path):
        code = main(
            [
                "sweep", "--protocol", "sqsc", "--r-grid", "0:1:2",
                "--lambda-grid", "0:0.5:2",
                "--output", str(tmp_path / "missing" / "out.csv"),
            ]
        )
        assert code == 3

    @pytest.mark.parametrize("argv", STDOUT_COMMANDS)
    @pytest.mark.parametrize("failing", ["write", "flush", "closed"])
    def test_unwritable_stdout_exit_3(self, argv, failing, monkeypatch, capsys):
        stdout = None if failing == "closed" else _FailingStdout(failing)
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(argv)
        monkeypatch.undo()  # give capsys its own stdout back before it stops
        assert code == 3
        assert capsys.readouterr().err.startswith("error: [Errno ")

    def test_bad_grid_exit_2(self, capsys):
        for flags in (
            ["--r-grid", "0:1"],
            ["--r-grid", "0:1:x"],
            ["--r-grid", "a:1:3"],
            ["--lambda-grid", "0:0.5:2.5"],
            ["--n", "abc"],
            ["--m", "1,b"],
            ["--n", ""],
            ["--m", ","],
            # sqsc, independent and sequential fix n or m, but only after
            # the given ones are checked
            ["--m", "0"],
            ["--n", "0"],
            # grids whose values are not all finite, formed without a
            # numpy warning
            ["--r-grid", "0:inf:3", "--lambda-grid", "0:0.5:2"],
            ["--r-grid=-inf:0:1"],
            ["--r-grid=-1e308:1e308:3"],
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["sweep", "--protocol", "sqsc", *flags])
            assert code == 2, flags
            err = capsys.readouterr().err
            assert err.count("error:") == 1 and err.startswith("error:"), flags
        # a one-value grid is its start, whatever its stop
        assert main(["sweep", "--protocol", "sqsc", "--r-grid", "0.5:7:1"]) == 0
        capsys.readouterr()
        for protocol in ("sqsc", "independent", "sequential"):
            code = main(
                ["eval", "--protocol", protocol, "--n", "0", "--r", ".5", "--lambda", ".5"]
            )
            assert code == 2, protocol
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--protocol", "correlated"],
            ["eval", "--protocol", "corr_vs_seq"],
            ["verify"],
        ],
    )
    def test_m_above_n_exit_2(self, argv, capsys):
        code = main([*argv, "--n", "2", "--m", "3", "--r", "0.5", "--lambda", "0.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: correlated protocol requires m <= n, got m=3, n=2\n"
        )

    def test_sequential_takes_m_above_default_n(self, capsys):
        code = main(
            ["eval", "--protocol", "sequential", "--m", "3", "--r", ".5", "--lambda", ".5"]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("sequential,1,3,")

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_verify_tol_exit_2(self, tol, capsys):
        code = main(
            [
                "verify", "--n", "2", "--m", "1", "--r", "0.5", "--lambda", "0.5",
                "--tol", tol,
            ]
        )
        assert code == 2
        assert "error: tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("max_n", ["0", "-2"])
    def test_verify_grid_bad_max_n_exit_2(self, max_n, capsys):
        code = main(["verify", "--grid", "--max-n", max_n])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            # past the float range: float(k) itself overflows
            ["eval", "--protocol", "sqsc", "--n", str(10**400), "--r", "0.5",
             "--lambda", "0.5"],
            ["correlations", "--m", str(10**400), "--r", "0.5", "--lambda", "0.5"],
            ["verify", "--grid", "--max-n", str(10**400)],
            # a float, but m * m and lambda^(2m) are not
            *(["eval", "--protocol", p, "--m", str(10**300), "--r", "0.5",
               "--lambda", "0.5"] for p in ("sequential", "independent")),
            ["sweep", "--protocol", "sequential", "--m", str(10**300)],
        ],
    )
    def test_count_past_2_53_exit_2(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_count_up_to_2_53_is_evaluated(self, capsys):
        for m in (10**12, 2**53):
            code = main(["eval", "--protocol", "sequential", "--m", str(m),
                         "--r", "0.5", "--lambda", "0.5"])
            assert code == 0
            row = capsys.readouterr().out.splitlines()[1]
            assert row.startswith(f"sequential,1,{m},5.000000000e-01,5.000000000e-01,")

    def test_verify_grid_checks_cap_before_verifying(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(
            "depolqfi.oracle.initial_product_state", lambda *a, **kw: calls.append(a)
        )
        code = main(["verify", "--grid", "--max-n", "13"])
        assert code == 4
        assert calls == []
        assert capsys.readouterr().err == "error: dimension 2**13 exceeds cap 4096\n"

    @pytest.mark.parametrize(
        "max_n, exit_code, message",
        [
            ("0", 2, "n must be an integer >= 1, got 0"),
            ("13", 4, "dimension 2**13 exceeds cap 4096"),
            ("2", 2, "tolerance must be finite and >= 0, got nan"),
        ],
    )
    def test_verify_grid_first_fault(self, max_n, exit_code, message, capsys):
        # --max-n is checked first, then the cap, then --tol
        code = main(["verify", "--grid", "--max-n", max_n, "--tol", "nan"])
        captured = capsys.readouterr()
        assert code == exit_code
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_verify_grid_small(self, capsys):
        code = main(["verify", "--grid", "--max-n", "2"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 3 * 5 * 4
        assert all(item["pass"] for item in data)

    def test_verify_grid_records_equal_one_point_verify(self, capsys):
        # one walk per (n, r, lambda) reports what verify reports at each
        # (n, m, r, lambda), to the bit, in (n, m, r, lambda) order
        def bits(value):
            if isinstance(value, dict):
                return {key: bits(item) for key, item in value.items()}
            return value.hex() if isinstance(value, float) else value

        assert main(["verify", "--grid", "--max-n", "5"]) == 0
        got = json.loads(capsys.readouterr().out)
        want = [
            _verify_report_dict(verify(ProtocolParams(n, m, r, lam)))
            for n in range(1, 6)
            for m in range(1, n + 1)
            for r in (0.0, 0.1, 0.5, 0.9, 1.0)
            for lam in (0.0, 0.3, 0.7, 0.99)
        ]
        assert len(got) == len(want) == 15 * 20
        for record, expected in zip(got, want):
            assert bits(record) == bits(expected)


class TestStartupImports:
    @staticmethod
    def _run(script: str):
        """What script prints as JSON, run in a fresh interpreter."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        return json.loads(proc.stdout)

    def test_cli_loads_only_what_its_commands_share(self):
        script = (
            "import json, sys\n"
            "import depolqfi\n"
            "bare = [m for m in sys.modules if m.startswith('depolqfi.')]\n"
            "import depolqfi.cli\n"
            "print(json.dumps([bare, sorted(sys.modules)]))\n"
        )
        bare, loaded = self._run(script)
        assert bare == []
        assert "depolqfi.cli" in loaded
        assert "depolqfi.oracle" not in loaded
        assert "depolqfi.correlations" not in loaded
        assert "depolqfi.asymptotics" not in loaded

    def test_only_array_commands_load_numpy(self):
        # whether numpy and depolqfi.oracle are loaded after the import and
        # after each command in turn; every eval, a figure preset, a small
        # sweep and a single-qubit sweep of any size compute their points
        # with math. A correlated sweep whose work is above PLAIN_WORK comes
        # last and must load numpy, so this cannot pass vacuously, but not
        # the dense oracle, which only verify uses
        script = (
            "import contextlib, io, json, math, sys\n"
            "import depolqfi.cli\n"
            "from depolqfi.evaluate import PLAIN_WORK, _point_work\n"
            "def loaded():\n"
            "    return [m in sys.modules for m in ('numpy', 'depolqfi.oracle')]\n"
            "point = ['--n', '4', '--m', '3', '--r', '0.5', '--lambda', '0.8']\n"
            "# count x count points at (60, 30) hold more work than PLAIN_WORK\n"
            "count = math.isqrt(PLAIN_WORK // _point_work('correlated', 60, 30)) + 1\n"
            "steps = [loaded()]\n"
            "for argv in (\n"
            "    ['table', 'spectator'], ['table', 'all-qubits'], ['figure', 'cutoff'],\n"
            "    ['correlations', '--m', '2', '--r', '0.5', '--lambda', '0.5'],\n"
            "    *(['eval', '--protocol', p, *point, *f]\n"
            "      for p in ('sqsc', 'independent', 'sequential', 'correlated',\n"
            "                'corr_vs_seq')\n"
            "      for f in ([], ['--format', 'json'])),\n"
            "    ['figure', 'corr-vs-seq-n4'],\n"
            "    ['sweep', '--protocol', 'correlated', '--n', '4', '--m', '3',\n"
            "     '--r-grid', '0:1:3', '--lambda-grid', '0:0.8:2'],\n"
            "    ['sweep', '--protocol', 'sequential', '--m', '1,3,5',\n"
            "     '--r-grid', '0:1:90', '--lambda-grid', '0:0.99:90'],\n"
            "    ['sweep', '--protocol', 'correlated', '--n', '60', '--m', '30',\n"
            "     '--r-grid', f'0:1:{count}', '--lambda-grid', f'0:0.9:{count}'],\n"
            "):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert depolqfi.cli.main(argv) == 0\n"
            "    steps.append(loaded())\n"
            "print(json.dumps(steps))\n"
        )
        assert self._run(script) == [[False, False]] * 18 + [[True, False]]

    def test_only_json_output_loads_json(self):
        # whether json is loaded after the import and after each command in
        # turn; the script imports json itself only to print, after the last
        # check, and the JSON eval at the end must load it
        script = (
            "import contextlib, io, sys\n"
            "import depolqfi.cli\n"
            "point = ['--m', '3', '--r', '0.5', '--lambda', '0.8']\n"
            "steps = ['json' in sys.modules]\n"
            "for argv in (\n"
            "    ['table', 'spectator'], ['table', 'I'], ['figure', 'cutoff'],\n"
            "    *(['eval', '--protocol', p, *point]\n"
            "      for p in ('sqsc', 'independent', 'sequential')),\n"
            "    ['eval', '--protocol', 'correlated', '--n', '4', *point],\n"
            "    ['sweep', '--protocol', 'sqsc', '--r-grid', '0:1:2'],\n"
            "    ['eval', '--protocol', 'sqsc', *point, '--format', 'json'],\n"
            "):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert depolqfi.cli.main(argv) == 0\n"
            "    steps.append('json' in sys.modules)\n"
            "import json\n"
            "print(json.dumps(steps))\n"
        )
        assert self._run(script) == [False] * 9 + [True]


def _depolqfi(argv, cwd, env, **kwargs):
    """`python -m depolqfi.cli argv` in a fresh interpreter."""
    src = str(Path(__file__).parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-m", "depolqfi.cli", *argv],
        cwd=cwd, env=dict(env, PYTHONPATH=src), timeout=120, **kwargs,
    )


# a sweep whose CSV (about 200 KB) is larger than a 64 KiB pipe buffer
BIG_SWEEP = ["sweep", "--protocol", "correlated", "--n", "10", "--m", "1,5",
             "--r-grid", "0:1:30", "--lambda-grid", "0:0.95:30"]


class TestEntryPoint:
    """The `depolqfi` process ends without interpreter teardown; it must
    still write what main writes and exit with main's code."""

    @pytest.mark.parametrize(
        "argv, seconds, code",
        [
            (BIG_SWEEP, None, 0),
            (BIG_SWEEP + ["-o", "out.csv"], None, 0),
            (["verify", "--n", "7", "--m", "7", "--r", "1", "--lambda", "0.99996"],
             None, 1),
            (["eval", "--protocol", "sqsc", "--r", "1.5", "--lambda", "0.5"], None, 2),
            (["sweep", "--protocol", "sqsc", "-o", "missing/out.csv"], None, 3),
            (["verify", "--n", "13", "--m", "1", "--r", "0.5", "--lambda", "0.5"],
             None, 4),
            (["--help"], None, 0),
            (["eval", "--protocol", "sqsc", "--lambda", "0.5"], None, 2),
            # refused on n alone, where 2**n would be a 250 MB integer
            (["verify", "--n", "2000000000", "--m", "1", "--r", "0.5",
              "--lambda", "0.5"], 5, 4),
        ],
    )
    def test_process_matches_main(
        self, argv, seconds, code, tmp_path, monkeypatch, capsys
    ):
        """seconds, where given, bounds the process's wall time, interpreter
        start included."""
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to this width
        for side in ("process", "main"):
            (tmp_path / side).mkdir()
        start = time.perf_counter()
        proc = _depolqfi(argv, tmp_path / "process", os.environ, capture_output=True)
        if seconds is not None:
            assert time.perf_counter() - start < seconds
        monkeypatch.chdir(tmp_path / "main")
        try:
            returned = main(argv)
        except SystemExit as exc:  # argparse: --help and usage errors
            returned = exc.code
        captured = capsys.readouterr()
        assert proc.returncode == returned == code
        assert proc.stdout.decode() == captured.out
        assert proc.stderr.decode() == captured.err
        if argv == BIG_SWEEP:
            assert len(proc.stdout) > 65536
        files = [tmp_path / side / "out.csv" for side in ("process", "main")]
        if "-o" in argv and code == 0:
            assert files[0].read_bytes() == files[1].read_bytes()
            assert len(files[0].read_bytes()) > 65536

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", STDOUT_COMMANDS + [["--help"]])
    def test_full_stdout_exit_3(self, argv, tmp_path):
        # buffered stdout, so that the last write fails only when flushed
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        with open("/dev/full", "w") as full:
            proc = _depolqfi(
                argv, tmp_path, env, stdout=full, stderr=subprocess.PIPE, text=True
            )
        assert proc.returncode == 3
        assert proc.stderr == "error: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize(
        "argv, code, stderr",
        [
            (argv, code, stderr)
            for argv, code in (
                (["eval", "--protocol", "sqsc", "--r", "1.5", "--lambda", "0.5"], 2),
                (["sweep", "--protocol", "sqsc", "-o", "missing/out.csv"], 3),
                # argparse's usage error: --r is missing
                (["eval", "--protocol", "sqsc", "--lambda", "0.5"], 2),
            )
            for stderr in ("full", "closed")
        ],
    )
    def test_broken_stderr_keeps_exit_code(self, argv, code, stderr, tmp_path):
        # the error line cannot be written; it must change neither the exit
        # code nor stdout. A full stderr is line-buffered, so a failed line
        # stays buffered; stdout is unbuffered when stderr is closed, so that
        # a line sent there would show.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        with open("/dev/full", "w") as full:
            if stderr == "full":
                redirect = dict(stderr=full)
            else:
                env["PYTHONUNBUFFERED"] = "1"
                redirect = dict(preexec_fn=lambda: os.close(2))
            proc = _depolqfi(argv, tmp_path, env, stdout=subprocess.PIPE, **redirect)
        assert proc.returncode == code
        assert proc.stdout == b""
