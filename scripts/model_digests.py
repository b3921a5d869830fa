"""Digests of the models a benchmark workload produces, for checking that a
change keeps the trained models bitwise the same.

    PYTHONPATH=src python3 scripts/model_digests.py --workload stream-burst --seed 0

Builds the workload's inputs with ``bench/inputs.py`` (read only, as the
benchmark builds them), saves M with ``save_checkpoint`` and loads it back
with ``load_checkpoint``, as the benchmark does before it serves, then
trains Mbar twice from the loaded M at the workload's shape, untimed:

* offline: ``build_cache`` -> ``rank_and_prune`` -> ``distill`` ->
  ``compact``, with the first ``prune_batch`` samples as the prune batch and
  the next ``cache`` samples as the cache;
* serving: ``serve`` over the same samples, one arrival per tick; it then
  ticks without arrivals until the loop serves with Mbar;
* serving in bursts: the same, with stream-burst's burst of arrivals (64)
  per tick.

Prints one JSON line: the ``network_fingerprint`` of M, of the loaded M
and of the three Mbars, as 16 hex digits, and Mbar's held-out accuracy.
Exits 1 if the loaded M differs from M or the three Mbars differ.  ``--expect FILE``
takes such a line, printed by another checkout, and also exits 1 when any
of its fields differs here, naming each one:

    PYTHONPATH=<parent>/src python3 scripts/model_digests.py \
        --workload offline-pf --seed 0 > parent.json
    python3 scripts/model_digests.py --workload offline-pf --seed 0 --expect parent.json

latecut is
imported from ``PYTHONPATH`` when it is there, else from ``src/`` next to
this directory, so the same script can digest another checkout's package:
``PYTHONPATH=<checkout>/src``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.path.append(os.path.join(ROOT, "src"))

import latecut  # noqa: E402
from inputs import WORKLOADS, make_inputs  # noqa: E402
from latecut.data import evaluate_accuracy  # noqa: E402
from latecut.distill import DistillConfig, build_cache, distill  # noqa: E402
from latecut.formats import load_checkpoint, network_fingerprint, save_checkpoint  # noqa: E402
from latecut.network import clone_network, compact  # noqa: E402
from latecut.profiling import profile  # noqa: E402
from latecut.pruning import rank_and_prune  # noqa: E402
from latecut.serving import ServeConfig, serve  # noqa: E402


def offline_mbar(net, samples, shape, config: DistillConfig):
    prune_x = samples[: shape.prune_batch]
    cache_x = samples[shape.prune_batch : shape.prune_batch + shape.cache]
    cache = build_cache(net, cache_x)
    prof = profile(net, shape.prune_batch, mode="modeled")
    decision = rank_and_prune(net, prune_x, prof, shape.n_p)
    student, _ = distill(clone_network(net), decision.pruned, cache, config)
    return compact(student, decision.pruned)


def serving_mbar(net, samples, shape, config: DistillConfig, arrivals_per_tick=1):
    serve_config = ServeConfig(n_p=shape.n_p, prune_batch_size=shape.prune_batch,
                               cache_size=shape.cache, distill=config)
    mbar, _, _ = serve(iter(samples[: shape.prune_batch + shape.cache]), net, serve_config,
                       arrivals_per_tick)
    return mbar


def differing_fields(expected: dict, digests: dict) -> list[str]:
    """The fields of ``expected`` whose value ``digests`` does not repeat,
    in ``expected``'s order."""
    return [key for key in expected if digests.get(key) != expected[key]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--expect", metavar="FILE",
                        help="a JSON line this script printed elsewhere; exit 1 unless "
                             "every one of its fields is the same here")
    args = parser.parse_args(argv)
    print(f"latecut from {os.path.dirname(latecut.__file__)}", file=sys.stderr)

    shape = WORKLOADS[args.workload]
    inputs = make_inputs(args.workload, args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(inputs.pretrained, os.path.join(tmp, "pretrained.ckpt"))
        net = load_checkpoint(os.path.join(tmp, "pretrained.ckpt"))
    config = DistillConfig(steps=shape.steps, batch_size=64, lr0=shape.lr)
    offline = offline_mbar(net, inputs.samples, shape, config)
    served = serving_mbar(net, inputs.samples, shape, config)
    burst = serving_mbar(net, inputs.samples, shape, config, WORKLOADS["stream-burst"].burst)
    digests = {
        "workload": args.workload,
        "seed": args.seed,
        "M": f"{network_fingerprint(inputs.pretrained):016x}",
        "M_loaded": f"{network_fingerprint(net):016x}",
        "offline_mbar": f"{network_fingerprint(offline):016x}",
        "serving_mbar": f"{network_fingerprint(served):016x}",
        "serving_mbar_burst": f"{network_fingerprint(burst):016x}",
        "mbar_heldout_accuracy": evaluate_accuracy(offline, inputs.heldout_x, inputs.heldout_y),
    }
    print(json.dumps(digests))
    if digests["M_loaded"] != digests["M"]:
        print("M loaded from its checkpoint differs from M", file=sys.stderr)
        return 1
    if digests["offline_mbar"] != digests["serving_mbar"]:
        print("offline and serving Mbar differ", file=sys.stderr)
        return 1
    if digests["serving_mbar_burst"] != digests["serving_mbar"]:
        print("serving Mbar differs between 1 and a burst of arrivals per tick", file=sys.stderr)
        return 1
    if args.expect:
        with open(args.expect) as fh:
            differing = differing_fields(json.load(fh), digests)
        if differing:
            print(f"differs from {args.expect}: {', '.join(differing)}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
