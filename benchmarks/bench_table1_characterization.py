"""Table 1 — OPS and RPS of every Edge TPU instruction (paper §3.2).

Runs the paper's two-phase measurement loop (Eqs. 1–3) against the
simulated device and compares every row with the published Table 1.
The NN extension's pool and softmax instructions are not in the paper;
they get their own table against their calibrated rates.  Also
reproduces the §3.2 data-exchange measurements (1 MB ≈ 6 ms, 8 MB ≈
48 ms).
"""

import pytest

from repro.bench import (
    characterize_all,
    characterize_extensions,
    format_table,
    measure_data_exchange,
)


def test_table1_ops_and_rps(benchmark, report):
    rows = benchmark.pedantic(characterize_all, rounds=1, iterations=1)

    report(
        format_table(
            ["operator", "OPS (meas)", "OPS (paper)", "RPS (meas)", "RPS (paper)", "description"],
            [
                (
                    r.opname,
                    f"{r.ops:.2f}",
                    f"{r.paper_ops:.2f}",
                    f"{r.rps:.2f}",
                    f"{r.paper_rps:.2f}",
                    r.description,
                )
                for r in rows
            ],
            title="Table 1: Edge TPU instruction characterization (Eqs. 1-2)",
        )
    )

    assert len(rows) == 11
    for row in rows:
        assert row.ops_error_percent < 1.0, row.opname
        assert row.rps_error_percent < 1.0, row.opname

    # Qualitative observations the paper draws from Table 1:
    by_name = {r.opname: r for r in rows}
    # (1) conv2D's RPS dwarfs FullyConnected's ("25x").
    ratio = by_name["conv2D"].rps / by_name["FullyConnected"].rps
    assert 20 < ratio < 30
    # (2) OPS and RPS are not strongly correlated (sub vs FullyConnected).
    assert by_name["sub"].ops < by_name["FullyConnected"].ops
    assert by_name["sub"].rps > by_name["FullyConnected"].rps


def test_extension_ops_and_rps(benchmark, report):
    rows = benchmark.pedantic(characterize_extensions, rounds=1, iterations=1)
    report(
        format_table(
            ["operator", "OPS (meas)", "OPS (calib)", "RPS (meas)", "RPS (calib)", "description"],
            [
                (
                    r.opname,
                    f"{r.ops:.2f}",
                    f"{r.paper_ops:.2f}",
                    f"{r.rps:.2f}",
                    f"{r.paper_rps:.2f}",
                    r.description,
                )
                for r in rows
            ],
            title="NN extension instructions (not in the paper's Table 1; calibrated rates)",
        )
    )
    assert [r.opname for r in rows] == ["pool", "softmax"]
    for row in rows:
        assert row.ops_error_percent < 1.0, row.opname
        assert row.rps_error_percent < 1.0, row.opname


def test_data_exchange_rate(benchmark, report):
    points = benchmark.pedantic(measure_data_exchange, rounds=1, iterations=1)
    mb = 1024 * 1024
    report(
        format_table(
            ["bytes", "seconds"],
            [(size, f"{sec * 1e3:.2f} ms") for size, sec in points],
            title="§3.2 data exchange: latency vs transfer size",
        )
    )
    by_size = dict(points)
    assert by_size[mb] == pytest.approx(6e-3, rel=0.05)
    assert by_size[8 * mb] == pytest.approx(48e-3, rel=0.05)
    # Rate is flat: 8x the data takes ~8x the time.
    assert by_size[8 * mb] / by_size[mb] == pytest.approx(8.0, rel=0.05)
