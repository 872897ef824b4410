"""What one default training step costs and computes, pinned.

The step's bits: 50 default steps from ``generate(seed=7)``, run in a fresh
process with one BLAS thread, must leave the parameters and both Adam
moments with the pinned digest; a change that moves it must say why.  Its
hops: the calls a warm default ``train_step`` makes into numpy's own
Python modules (the wrappers ``np.sum``, ``np.clip``, ``np.linalg.norm``
and the like run there; ufuncs run in C) stay within a budget, so that
wrappers do not creep back onto the step.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypalign import synthdata, trainer

SRC = Path(trainer.__file__).resolve().parents[1]

TRAJECTORY_SHA256 = "8824865e3a30a51fe5742348c5505f27cb956da4e796054c28782099572270bf"

# numpy-layer calls of one warm default train_step: budget 118, measured
# 118 with numpy 2.4.6.  The count repeats exactly for one numpy version
# but moves between versions, so the budget holds for that version only.
HOP_BUDGET = {"2.4.6": 118}


def test_default_trajectory_is_pinned():
    script = """
import hashlib
import numpy as np
from hypalign import synthdata, trainer as tr
corpus, cfg = synthdata.generate(seed=7), tr.TrainConfig()
store = tr.init_parameters(corpus, cfg)
opt = tr.AdamW(store, cfg)
with np.errstate(all="ignore"):
    for step in range(50):
        idx = tr.sample_batch(corpus, cfg.batch_size, [cfg.seed, step])
        tr.train_step(store, opt, tr.materialize_batch(store, idx), cfg,
                      tr.learning_rate(step, cfg))
digest = hashlib.sha256()
for array in (store.flat, opt._m, opt._v):
    digest.update(array.tobytes())
print(digest.hexdigest())
"""
    threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                             "NUMEXPR_NUM_THREADS"), "1")
    env = {**os.environ, **threads,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert done.stdout.strip() == TRAJECTORY_SHA256


@pytest.mark.skipif(np.__version__ not in HOP_BUDGET,
                    reason=f"the hop budget was measured with numpy "
                           f"{', '.join(HOP_BUDGET)}; this is numpy {np.__version__}")
def test_numpy_python_calls_of_a_warm_step_within_budget():
    numpy_dir = os.path.dirname(np.__file__) + os.sep
    corpus, cfg = synthdata.generate(seed=7), trainer.TrainConfig()
    store = trainer.init_parameters(corpus, cfg)
    opt = trainer.AdamW(store, cfg)
    calls = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
            calls.append(frame.f_code.co_name)

    with np.errstate(all="ignore"):
        for step in range(6):       # the first steps import and cache
            idx = trainer.sample_batch(corpus, cfg.batch_size, [cfg.seed, step])
            batch = trainer.materialize_batch(store, idx)
            if step == 5:
                sys.setprofile(count)
            try:
                trainer.train_step(store, opt, batch, cfg, trainer.learning_rate(step, cfg))
            finally:
                sys.setprofile(None)
    assert len(calls) <= HOP_BUDGET[np.__version__], sorted(set(calls))
