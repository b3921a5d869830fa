"""Output checks and failure accounting.

Predictions are checked against a plain ``x @ W + b`` forward written here,
run on a snapshot of the model that served them.  It uses matmul, whose
summation order differs from the package's einsum, so logits agree only to
rounding; requests whose top-2 reference logits tie to within that rounding
are exempt from the prediction check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from latecut.serving import MODEL_FULL, MODEL_PRUNED, Phase

TIE_TOLERANCE = 1e-9
MAX_PROBLEMS = 20


@dataclass(frozen=True)
class Snapshot:
    """Copied parameters of a network with its skipped blocks left out."""

    stem: tuple
    blocks: tuple
    classifier: tuple

    @classmethod
    def of(cls, network, skip=frozenset()) -> "Snapshot":
        return cls(
            (network.stem_weight.copy(), network.stem_bias.copy()),
            tuple(
                (b.weight1.copy(), b.bias1.copy(), b.weight2.copy(), b.bias2.copy())
                for b in network.blocks
                if b.block_id not in skip
            ),
            (network.classifier_weight.copy(), network.classifier_bias.copy()),
        )

    def features(self, x) -> np.ndarray:
        h = np.asarray(x, dtype=np.float64) @ self.stem[0] + self.stem[1]
        for w1, b1, w2, b2 in self.blocks:
            h = h + np.maximum(h @ w1 + b1, 0.0) @ w2 + b2
        return h

    def logits(self, x) -> np.ndarray:
        return self.features(x) @ self.classifier[0] + self.classifier[1]

    def same_as(self, other: "Snapshot") -> bool:
        mine = [self.stem, *self.blocks, self.classifier]
        theirs = [other.stem, *other.blocks, other.classifier]
        return len(mine) == len(theirs) and all(
            len(a) == len(b) and all(np.array_equal(p, q) for p, q in zip(a, b))
            for a, b in zip(mine, theirs)
        )


def wrong_predictions(snapshot: Snapshot, x, predicted) -> np.ndarray:
    """Boolean mask of predictions that differ from the reference argmax,
    ties within rounding excepted."""
    predicted = np.asarray(predicted)
    if len(predicted) == 0:
        return np.zeros(0, dtype=bool)
    logits = snapshot.logits(x)
    top2 = np.sort(logits, axis=1)[:, -2:]
    tie = top2[:, 1] - top2[:, 0] <= TIE_TOLERANCE * (1.0 + np.abs(logits).max(axis=1))
    return (predicted != logits.argmax(axis=1)) & ~tie


class Tally:
    """Operations attempted and failed, with the first few failures named."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, message: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.note(f"{message} ({failed} of {attempted})")

    def note(self, message: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def check(self, ok: bool, message: str) -> None:
        self.add(1, 0 if ok else 1, message)


def check_answers(ticks, samples, snapshots: dict, tally: Tally) -> np.ndarray:
    """Check a serving run request by request.

    ``ticks`` lists, in serving order, ``(first_id, count, records)`` for
    each tick that was handed arrivals ``first_id .. first_id + count - 1``.
    A request fails unless it was answered exactly once, in arrival order,
    by the model its phase calls for (M before switchover, Mbar after, and
    never M again once Mbar has served), with the reference prediction of
    that model's snapshot in ``snapshots``.  Returns the failure mask.
    """
    n = len(samples)
    failed = np.zeros(n, dtype=bool)
    answered = np.zeros(n, dtype=bool)
    predicted = np.full(n, -1)
    model = np.full(n, "", dtype=object)
    switched = False
    for first, count, records in ticks:
        if len(records) != count:
            failed[first : first + count] = True
            answered[first : first + count] = True
            tally.note(f"tick given requests {first}..{first + count - 1} "
                       f"returned {len(records)} records")
            tally.add(0, max(0, len(records) - count), "records for requests never sent")
            continue
        for rid, rec in enumerate(records, start=first):
            expected = MODEL_PRUNED if rec.phase is Phase.SERVING else MODEL_FULL
            ok = (
                rec.sample_index == rid
                and rec.model_id == expected
                and not (switched and rec.model_id == MODEL_FULL)
                and not answered[rid]
            )
            switched = switched or rec.model_id == MODEL_PRUNED
            answered[rid] = True
            if ok:
                predicted[rid] = rec.predicted_class
                model[rid] = rec.model_id
            else:
                failed[rid] = True
    ordering = failed.copy()
    failed |= ~answered
    tally.add(n, int(failed.sum()), "requests dropped, duplicated, out of order or "
                                    "answered by the wrong model")
    wrong_total = 0
    for model_id, snapshot in snapshots.items():
        chosen = np.flatnonzero((model == model_id) & ~ordering)
        wrong = chosen[wrong_predictions(snapshot, samples[chosen], predicted[chosen])]
        failed[wrong] = True
        wrong_total += len(wrong)
    tally.add(0, wrong_total, "predictions differ from the reference forward")
    return failed
