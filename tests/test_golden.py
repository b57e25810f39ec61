"""Golden output hashes of the example configs.

`solve` on configs/quadratic.json and configs/lasso.json and `sweep` on
configs/tv_sweep.json must write these exact bytes. The lasso config covers
the dense-gemm operator images and the stacked lasso conjugate value map. A
change that moves any output bit has to say so and update the hashes.

The quadratic and lasso hashes were last regenerated when
``estimate_norm`` moved from power iteration on L*L to Golub-Kahan-Lanczos
bidiagonalization. The ``MatrixOperator`` norm bound rose by 4.8e-11
(quadratic) and 4.6e-10 (lasso) relative, to within rounding of ||A||_2
times 1 + 1e-8, so tau and sigma fell by as much and every iterate moved;
the lasso's z* is still the start point's polish, its check now reaching
a residual of 6.5e-14 after 1 solver step as before. The tv_sweep hashes
did not move: TV-1D has the analytic bound 2. Before that, the lasso
hashes were regenerated when the polish's active-set
passes began stopping their conjugate gradients at a relative residual of
1e-6, solving to rounding level (1e-15) only the pass that confirms the
active set. z* is the same start-point polish reached along other
iterates, so it moved in its last bits (x* by at most 1.5e-15, y* by
3.9e-15), which moves the lasso certificate values in theirs; its check
now stops after 1 solver step where it took 2 (``kkt_oracle_iterations``),
and its residual went from 4.5e-14 to 6.5e-14. Before that, they were
regenerated when the polish became an active-set solve tried on the
oracle's start point, checked after 2 solver steps where it was the polish
of the point after 512 steps (513 steps in all). The tv_sweep hashes
were last regenerated, and the quadratic ones the time before, when the
lasso oracle began polishing its point and TV-1D began taking z* from
Condat's direct algorithm, which moved the tv_sweep certificate values
in their last bits; every summary then gained the oracle's provenance
(``kkt_oracle_kind``, ``kkt_oracle_iterations``) and each sweep row an
``error`` field.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from cpcert.harness import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOLDEN = {
    ("solve", "lasso.json"): {
        "trajectory.csv": "b9465f63c369dcabeaeb9136e752c320a161ff0cf83484a1f7ac9c4f99c71ecf",
        "summary.json": "4d228d55f36151b486d5acb7157374a58ba5b74000df0e17929cc19f2b23b3e7",
    },
    ("solve", "quadratic.json"): {
        "trajectory.csv": "8faaaa958891100635fb7a62c841380380379712d24458232b01cb3a1fbe7faf",
        "summary.json": "5a49d2495c2f6efde610b05a95986aa4b4ee1ed462b7131b92aff12a5277369c",
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
