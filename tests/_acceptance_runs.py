"""The acceptance suite's 5000-step trainings, as its worker processes run them.

A training is deterministic within its process, so a run in a worker writes
the bytes the same run writes in the test process.
"""

import time

from hypalign.losses import LossConfig
from hypalign.trainer import TrainConfig, train


def train_run(corpus, seed: int, lambda_cal: float | None, out_dir) -> dict:
    """Train the default schedule at ``seed`` (with ``lambda_cal`` in place
    of its default when given) into ``out_dir``.  Returns the run directory,
    the summary without its parameter store, and the time ``train`` took in
    this process."""
    cfg = TrainConfig(seed=seed)
    if lambda_cal is not None:
        cfg = TrainConfig(seed=seed, loss=LossConfig(lambda_cal=lambda_cal))
    t0 = time.perf_counter()
    summary = train(corpus, cfg, out_dir)
    elapsed = time.perf_counter() - t0
    del summary["store"]
    return {"summary": summary, "elapsed": elapsed, "dir": out_dir}
