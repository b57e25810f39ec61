"""Golden output hashes of the example configs.

`solve` on configs/quadratic.json and configs/lasso.json and `sweep` on
configs/tv_sweep.json must write these exact bytes. The lasso config covers
the dense-gemm operator images and the stacked lasso conjugate value map. A
change that moves any output bit has to say so and update the hashes.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from cpcert.harness import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOLDEN = {
    ("solve", "lasso.json"): {
        "trajectory.csv": "bd7656b2a01cf1d4d15296bc28cd22fb7d1fc84942fcc1117141d67d48111a6c",
        "summary.json": "bd03810afb2f15911d9771d8452d061f779e285473c054adc7ce82219c58abf0",
    },
    ("solve", "quadratic.json"): {
        "trajectory.csv": "037a7d08b393dd336374a56ea33356fc697c5ba4b45ff65e72ef7d184907b240",
        "summary.json": "9fd66eeb6ea65856f94e08ca9a7e5db671418433b1578a3b9f61409dff66cf5b",
    },
    ("sweep", "tv_sweep.json"): {
        "sweep_summary.csv": "0ab15d1ef9bf8c5b34778c068ad0b923cef5c7cad8161726c0c5173ee59e0996",
        "sweep_summary.json": "4c29e31185354641c053ed3463803d531f72e2016923d3c6d92bdbd80d6cf167",
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
