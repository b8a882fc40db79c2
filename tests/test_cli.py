import json
import math

import numpy as np
import pytest

from depolqfi import cli
from depolqfi.cli import (
    CSV_HEADER,
    PROTOCOLS,
    evaluate_point,
    main,
    row_to_csv,
    row_to_dict,
    sweep_rows,
)
from depolqfi.correlated import correlated_qfi
from depolqfi.errors import DomainError
from depolqfi.protocols import ProtocolParams, sequential_qfi, sqsc_qfi


class TestEvaluatePoint:
    def test_sqsc_row(self):
        row = evaluate_point("sqsc", 1, 1, 0.5, 0.8)
        assert (row.n, row.m) == (1, 1)
        assert row.qfi == pytest.approx(sqsc_qfi(0.5, 0.8), rel=1e-14)
        assert row.qfi_per_channel == row.qfi
        assert row.gain_vs_sqsc == pytest.approx(1.0, rel=1e-14)
        assert row.crb_variance_bound == pytest.approx(1.0 / row.qfi, rel=1e-14)

    def test_correlated_row(self):
        row = evaluate_point("correlated", 4, 2, 0.5, 0.7)
        qfi = correlated_qfi(ProtocolParams(4, 2, 0.5, 0.7))
        assert row.qfi == pytest.approx(qfi, rel=1e-14)
        seq = sequential_qfi(2, 0.5, 0.7) / 2
        assert row.gain_vs_seq == pytest.approx(qfi / 2 / seq, rel=1e-13)

    def test_gains_empty_at_r_zero(self):
        row = evaluate_point("sequential", 1, 3, 0.0, 0.5)
        assert row.gain_vs_sqsc is None
        assert row.gain_vs_seq is None
        assert row.qfi == 0.0
        assert math.isinf(row.crb_variance_bound)

    def test_gains_empty_at_zero_reference_and_lambda_one(self):
        # the sequential reference vanishes at lambda = 0 for m >= 2
        row = evaluate_point("correlated", 3, 2, 0.5, 0.0)
        assert row.gain_vs_seq is None
        assert row.gain_vs_sqsc is not None
        row = evaluate_point("correlated", 3, 2, 0.5, 1.0, include_limit=True)
        assert row.gain_vs_sqsc is None
        assert row.gain_vs_seq is None

    def test_protocol_forces_shape(self):
        row = evaluate_point("sequential", 7, 3, 0.5, 0.5)
        assert row.n == 1
        row = evaluate_point("independent", 1, 4, 0.5, 0.5)
        assert row.n == 4


class TestCsvFormat:
    def test_header_exact(self):
        assert CSV_HEADER == (
            "protocol,n,m,r,lambda,qfi,qfi_per_channel,"
            "gain_vs_sqsc,gain_vs_seq,crb_variance_bound,method"
        )

    def test_row_rendering(self):
        row = evaluate_point("sqsc", 1, 1, 0.5, 0.8)
        text = row_to_csv(row)
        fields = text.split(",")
        assert fields[0] == "sqsc"
        assert fields[1] == "1" and fields[2] == "1"
        assert fields[3] == "5.000000000e-01"
        assert fields[-1] == "closed_form"

    def test_inf_and_empty_tokens(self):
        row = evaluate_point("sqsc", 1, 1, 0.0, 0.8)
        fields = row_to_csv(row).split(",")
        header = CSV_HEADER.split(",")
        assert fields[header.index("gain_vs_sqsc")] == ""
        assert fields[header.index("gain_vs_seq")] == ""
        assert fields[header.index("crb_variance_bound")] == "inf"

    def test_dict_holds_the_csv_fields(self):
        row = evaluate_point("correlated", 3, 2, 0.5, 0.7)
        data = row_to_dict(row)
        assert list(data) == CSV_HEADER.split(",")
        assert (data["n"], data["m"], data["r"], data["lambda"]) == (3, 2, 0.5, 0.7)
        numbers = ("n", "m", "r", "lambda")
        for key, field in zip(data, row_to_csv(row).split(",")):
            assert key in numbers or data[key] == field


class TestSweep:
    def test_sorted_and_complete(self):
        rows = sweep_rows(
            "correlated", [2, 3], [1, 2], np.linspace(0.2, 0.8, 3),
            np.linspace(0.1, 0.9, 3),
        )
        assert len(rows) == 2 * 2 * 3 * 3
        keys = [(r.n, r.m, r.r, r.lam) for r in rows]
        assert keys == sorted(keys)

    def test_rows_sorted_after_protocol_overrides_n(self):
        # sequential rows all carry n = 1, so only the sort interleaves the
        # two requested n values by r
        rows = sweep_rows(
            "sequential", [2, 1], [1], np.linspace(0.5, 0.6, 2), np.array([0.5])
        )
        assert [(row.n, row.r) for row in rows] == [
            (1, 0.5), (1, 0.5), (1, 0.6), (1, 0.6)
        ]

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_rows_match_evaluate_point(self, protocol):
        # only the correlated protocols take lambda = 1, as a limit
        limit = protocol in ("correlated", "corr_vs_seq")
        ns, ms = [3, 4], [1, 3]
        r_grid = np.array([0.0, 0.4, 1.0])
        lam_grid = np.array([0.0, 0.5, 1.0 if limit else 0.9])
        rows = sweep_rows(protocol, ns, ms, r_grid, lam_grid, include_limit=limit)
        points = [
            evaluate_point(protocol, n, m, r, lam, include_limit=limit)
            for n in ns for m in ms for r in r_grid for lam in lam_grid
        ]
        points.sort(key=lambda row: (row.n, row.m, row.r, row.lam))
        assert list(map(row_to_csv, rows)) == list(map(row_to_csv, points))
        if not limit:
            with pytest.raises(DomainError):
                sweep_rows(protocol, ns, ms, r_grid, np.array([1.0]), True)
            with pytest.raises(DomainError):
                evaluate_point(protocol, 3, 1, 0.4, 1.0, include_limit=True)

    def test_single_point_sweep_equals_eval(self):
        rows = sweep_rows(
            "sequential", [1], [3], np.array([0.5]), np.array([0.8])
        )
        assert row_to_csv(rows[0]) == row_to_csv(
            evaluate_point("sequential", 1, 3, 0.5, 0.8)
        )


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

    def test_correlations_json(self, capsys):
        code = main(["correlations", "--m", "1", "--r", "0.8", "--lambda", "0.6"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["separable"] is False

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

    def test_capacity_exit_4(self, monkeypatch):
        monkeypatch.setenv("DEPOLQFI_MAX_DIM", str(2**12))
        code = main(
            [
                "verify", "--n", "13", "--m", "1", "--r", "0.5",
                "--lambda", "0.5",
            ]
        )
        assert code == 4

    def test_out_of_memory_exit_4(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(cli, "sweep_rows", exhausted)
        code = main(["sweep", "--protocol", "correlated", "--n", "4", "--m", "2"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == "error: Unable to allocate 74.5 GiB\n"

    def test_malformed_dim_cap_exit_2(self, monkeypatch, capsys):
        monkeypatch.setenv("DEPOLQFI_MAX_DIM", "abc")
        code = main(
            ["verify", "--n", "2", "--m", "1", "--r", "0.5", "--lambda", "0.5"]
        )
        assert code == 2
        assert "error: DEPOLQFI_MAX_DIM" in capsys.readouterr().err

    def test_io_failure_exit_3(self, tmp_path):
        code = main(
            [
                "sweep", "--protocol", "sqsc", "--r-grid", "0:1:2",
                "--lambda-grid", "0:0.5:2",
                "--output", str(tmp_path / "missing" / "out.csv"),
            ]
        )
        assert code == 3

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
        ):
            code = main(["sweep", "--protocol", "sqsc", *flags])
            assert code == 2, flags
            assert "error:" in capsys.readouterr().err
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

    def test_verify_grid_checks_cap_before_verifying(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "verify", lambda *a, **kw: calls.append(a))
        monkeypatch.setenv("DEPOLQFI_MAX_DIM", "16")
        code = main(["verify", "--grid", "--max-n", "5"])
        assert code == 4
        assert calls == []
        assert "error: dimension 2**5" in capsys.readouterr().err

    def test_verify_grid_small(self, capsys):
        code = main(["verify", "--grid", "--max-n", "2"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 3 * 5 * 4
        assert all(item["pass"] for item in data)
