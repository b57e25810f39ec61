"""Golden output hashes of the example configs.

`solve` on configs/quadratic.json and configs/lasso.json and `sweep` on
configs/tv_sweep.json must write these exact bytes. The lasso config covers
the dense-gemm operator images and the stacked lasso conjugate value map. A
change that moves any output bit has to say so and update the hashes.

Last regenerated when the lasso oracle began polishing its point on the
active set and TV-1D began taking z* from Condat's direct algorithm: z*
moved by about 1e-14, which moves the lasso and tv_sweep certificate values
in their last bits. Every summary also gained the oracle's provenance
(``kkt_oracle_kind``, ``kkt_oracle_iterations``) and each sweep row an
``error`` field; the quadratic trajectory.csv did not change.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from cpcert.harness import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOLDEN = {
    ("solve", "lasso.json"): {
        "trajectory.csv": "bd2015a8352ae024ac08e99cd2bd7ebc47136c9c2668fb7c9e7d27dca866c486",
        "summary.json": "c33811eb89b5d1a9bc84c2012eb89128e67c864898c8beda044ba97dfb5c76b0",
    },
    ("solve", "quadratic.json"): {
        "trajectory.csv": "037a7d08b393dd336374a56ea33356fc697c5ba4b45ff65e72ef7d184907b240",
        "summary.json": "bffa6dc951e841701ea4b9067f565f41dcef483ef0c42580e929afe0d83826e7",
    },
    ("sweep", "tv_sweep.json"): {
        "sweep_summary.csv": "a63c067e80871444a026bb6fe13df87071cfb2bff270ec6fcd22171d99cb069c",
        "sweep_summary.json": "c1859e63c3a3a060371d5603fdbabaecd3f07b8e9952f130ebbc0129c0a3ac22",
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
