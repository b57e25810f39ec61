"""Golden output hashes of the example configs.

`solve` on configs/quadratic.json and configs/lasso.json and `sweep` on
configs/tv_sweep.json must write these exact bytes. The lasso config covers
the dense-gemm operator images and the per-row conjugate value map. A change that moves any output bit has to say so
and update the hashes.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from cpcert.harness import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOLDEN = {
    ("solve", "lasso.json"): {
        "trajectory.csv": "9b4d68e7c12447940327b0a5e5c32af6bd5d6fad990d34be2e8d6699c2fae19c",
        "summary.json": "9ef1ed91a55babb372e0e260ee2194c12cd7d6d22c14814eb1ec5a28704e75e9",
    },
    ("solve", "quadratic.json"): {
        "trajectory.csv": "8a60b36e6e5d81ec1d4b2b83a0c4c62115d87b047dae6e45c3da01163a773133",
        "summary.json": "b44e1a8fbe0a9ebd7cc624257fe513eca8d9814b6b30c3435e144336cdb9be3c",
    },
    ("sweep", "tv_sweep.json"): {
        "sweep_summary.csv": "0fb8c7dfc40b5db8df020eb124c0c14b248c66405ac58e83f8396c6d5d85160d",
        "sweep_summary.json": "67deffc6ada0b19d4e2ee39a167ec4f2435f78e4fd3a9d93db5efe8032fa1fd6",
    },
}


@pytest.mark.skipif(np.__version__ != "2.4.6",
                    reason="hashes were taken with numpy 2.4.6; gemv summation "
                           "order depends on the bundled BLAS")
@pytest.mark.parametrize("command, config", sorted(GOLDEN))
def test_golden_output_hashes(tmp_path, command, config):
    out = tmp_path / "out"
    assert main([command, "--config", str(CONFIGS / config), "--out", str(out)]) == 0
    for name, digest in GOLDEN[(command, config)].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
