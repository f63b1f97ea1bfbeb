"""Output checks.  Every failed check counts one failed operation.

Training: an operation is one student fit.  It fails if the harness call
raised, if its logits are not all finite, if it ran fewer epochs than its
budget, or if a repeated harness call on the same seed disagrees with the
first (the harness is deterministic per seed).

Serving: an operation is one request.  It fails on a non-200 reply, a
transport error, or a label that differs from the one an in-process
``PredictionEngine`` computes on the same artifact and engine seed.
"""

from __future__ import annotations

import numpy as np


def check_training(results, num_seeds, num_models, max_epochs, reference=None):
    """Failed student fits of one harness call.

    ``results`` is the list ``run_over_seeds`` returned, or ``None`` when
    the call raised.  ``reference`` is the outcome of the first call (see
    :func:`outcome`); a seed whose outcome differs fails all its fits.
    """
    if results is None or len(results) != num_seeds:
        return num_seeds * num_models
    failed = 0
    for index, result in enumerate(results):
        fits = result.base_results
        failed += max(num_models - len(fits), 0)
        for fit in fits[:num_models]:
            logits = fit.predictions
            if logits is None or not np.all(np.isfinite(logits)) or fit.epochs_run < max_epochs:
                failed += 1
        if reference is not None and outcome(result) != reference[index]:
            failed += len(fits[:num_models])
    return failed


def outcome(result):
    """What must repeat exactly across harness calls on one seed."""
    return (result.ensemble_test_accuracy, tuple(result.base_test_accuracies))


def check_lookup(status, reply, expected_labels):
    """Whether one transductive reply is wrong (non-200 or wrong labels)."""
    return status != 200 or reply.get("labels") != list(expected_labels)


def check_inductive(status, reply, expected_label):
    """Whether one inductive reply is wrong (non-200 or wrong label)."""
    return status != 200 or reply.get("label") != int(expected_label)
