"""Byte parity of the trajectory CSV and plotdata writers.

The writers format each distinct float64 bit pattern of a column once
(``harness._fmt_column``). These tests pin that to one ``repr`` per value:
the formatter on edge-case and random bit patterns, and the written files
against the per-value reference writers in ``tests/oracles.py``.
"""

import json

import numpy as np
import pytest

from cpcert import harness
from cpcert.harness import _fmt_column, main

from oracles import emit_plotdata_per_value, write_trajectory_csv_per_value


def per_value(col):
    return [repr(float(v)) for v in col]


def floats_from_bits(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


# Signed zeros, infinities, NaNs with different payloads and sign bits,
# subnormals (5e-324 is the smallest), the smallest normal, and the largest
# finite value.
EDGE_BITS = np.array([
    0x0000000000000000, 0x8000000000000000,
    0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
    0x7FF4000000000000, 0xFFFFFFFFFFFFFFFF,
    0x0000000000000001, 0x8000000000000001, 0x000FFFFFFFFFFFFF,
    0x0010000000000000, 0x7FEFFFFFFFFFFFFF,
], dtype=np.uint64)


def test_fmt_column_edge_values():
    rng = np.random.default_rng(0)
    col = floats_from_bits(rng.permutation(np.tile(EDGE_BITS, 3)))
    out = _fmt_column(col)
    assert out == per_value(col)
    # -0.0 and 0.0 compare equal but must keep their own text
    assert {"0.0", "-0.0", "5e-324", "-5e-324", "nan", "inf", "-inf"} <= set(out)


def random_bits(rng, size):
    return rng.integers(0, 2**64, size=size, dtype=np.uint64, endpoint=False)


@pytest.mark.parametrize("kind", ["all equal", "all distinct", "mixed", "empty"])
def test_fmt_column_random_bit_patterns(kind):
    rng = np.random.default_rng(7)
    if kind == "all equal":
        bits = np.full(300, random_bits(rng, 1)[0])
    elif kind == "all distinct":
        bits = np.unique(random_bits(rng, 300))
    elif kind == "mixed":
        bits = rng.choice(np.concatenate([random_bits(rng, 40), EDGE_BITS]), 1000)
    else:
        bits = np.array([], dtype=np.uint64)
    col = floats_from_bits(bits)
    assert _fmt_column(col) == per_value(col)


def test_fmt_column_strided_views():
    rng = np.random.default_rng(3)
    pool = floats_from_bits(np.concatenate([random_bits(rng, 20), EDGE_BITS]))
    table = rng.choice(pool, size=(500, 4))
    for col in (table[:, 2], table[::-3, 1], table.T[0], table[:, 3][::2]):
        assert abs(col.strides[0]) > col.itemsize
        assert _fmt_column(col) == per_value(col)


# --- written files against the per-value reference writers ----------------

def solve_and_capture_tables(tmp_path, monkeypatch, cfg):
    """Run ``solve`` on ``cfg`` and return its output dir and segment tables."""
    captured = []
    write = harness.write_trajectory_csv

    def capture(path, tables):
        captured.extend(tables)
        write(path, tables)

    monkeypatch.setattr(harness, "write_trajectory_csv", capture)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 0
    return out, captured


def assert_plotdata_matches_per_value(csv_path, tmp_path):
    plots, ref = tmp_path / "plots", tmp_path / "ref_plots"
    assert main(["plotdata", str(csv_path), "--out", str(plots)]) == 0
    emit_plotdata_per_value(csv_path, ref)
    names = sorted(p.name for p in ref.iterdir())
    assert len(names) == 18
    assert sorted(p.name for p in plots.iterdir()) == sorted(names + ["plots.gp"])
    for name in names:
        assert (plots / name).read_bytes() == (ref / name).read_bytes(), name
    return plots


@pytest.mark.parametrize("case", ["converged quadratic", "unconverged lasso"])
def test_outputs_match_per_value_writers(tmp_path, monkeypatch, case):
    if case == "converged quadratic":  # certificate values settle and repeat
        problem = {"generator": "quadratic", "params": {"rows": 6, "cols": 4, "seed": 1}}
        cfg = {"problem": problem, "theta": 1.0, "iters": 1500}
    else:  # values mostly distinct
        problem = {"generator": "lasso",
                   "params": {"rows": 30, "cols": 20, "lam": 0.2, "seed": 3}}
        cfg = {"problem": problem, "theta": 0.5, "iters": 300, "oracle_iters": 5000}
    out, tables = solve_and_capture_tables(tmp_path, monkeypatch, cfg)
    lyapunov = np.concatenate([t.lyapunov for t in tables])
    distinct = len(np.unique(lyapunov.view(np.int64))) / len(lyapunov)
    assert distinct < 0.1 if case == "converged quadratic" else distinct == 1.0
    ref = tmp_path / "ref.csv"
    write_trajectory_csv_per_value(ref, tables)
    assert (out / "trajectory.csv").read_bytes() == ref.read_bytes()
    assert_plotdata_matches_per_value(out / "trajectory.csv", tmp_path)


def test_plotdata_writes_canonical_text_from_noncanonical_csv(tmp_path):
    rows = ["0,1.50,nan,1E-5,-0.0,0.0,0.25,0.25,2.0,0.0",
            "1,-0.0,1.50,1e-05,NaN,-1E+2,0.25,0.25,1.0,1.5",
            "2,1E-5,0.75,inf,2.50e0,-inf,0.25,0.25,0.5,1.50001"]
    csv_path = tmp_path / "trajectory.csv"
    csv_path.write_text(",".join(harness.CSV_COLUMNS) + "\n" + "\n".join(rows) + "\n")
    plots = assert_plotdata_matches_per_value(csv_path, tmp_path)
    assert (plots / "gap.dat").read_text() == "0 1.5\n1 -0.0\n2 1e-05\n"
    assert (plots / "gap_loglog.dat").read_text() == "0 1.5\n1 \n2 1e-05\n"
    assert (plots / "lyapunov.dat").read_text() == "0 1e-05\n1 1e-05\n2 \n"
    assert (plots / "descent_residual.dat").read_text() == "0 -0.0\n1 \n2 2.5\n"


@pytest.mark.parametrize("bad_row", ["2,1.0,x,1,1,1,1,1,1,1", "2,1.0,1.0",
                                     "2,1,1,1,1,1,1,1,1,1,1"])
def test_plotdata_on_malformed_csv_exits_2_and_writes_nothing(tmp_path, capsys, bad_row):
    csv_path = tmp_path / "trajectory.csv"
    csv_path.write_text(",".join(harness.CSV_COLUMNS) + "\n"
                        + "0,1,1,1,1,1,1,1,1,1\n" + bad_row + "\n")
    plots = tmp_path / "plots"
    assert main(["plotdata", str(csv_path), "--out", str(plots)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not plots.exists()
