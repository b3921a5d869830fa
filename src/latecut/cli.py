"""Command-line entry point.

Subcommands: profile, prune, distill, serve, experiment, report.  Exit
codes: 0 success, 1 usage error, 2 data/config error, 3 numeric failure.
Errors print one machine-parseable line on stderr.  Every run writes its
resolved configuration into the output directory, and all file outputs are
written atomically (temp file + rename).  The LATECUT_SEED environment
variable overrides any configured seed.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace

from . import formats
from .distill import DistillConfig, PseudoLabelCache, build_cache, distill, distill_live
from .errors import (
    ConfigError,
    DegenerateBlockError,
    DimensionError,
    FormatError,
    InvalidBlockError,
    LatecutError,
    NumericError,
    PartialRunError,
    TrainingDivergedError,
)
from .experiment import (
    ExperimentReport,
    compare_methods,
    experiment_config_from_dict,
    reports_to_csv,
    run_experiment,
)
from .profiling import profile, profile_from_dict, profile_to_dict
from .pruning import METHODS, prune_by_method
from .serving import ServeConfig, serve

log = logging.getLogger("latecut")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_NUMERIC_ERRORS = (NumericError, DegenerateBlockError, TrainingDivergedError)
_DATA_ERRORS = (
    ConfigError,
    DimensionError,
    FormatError,
    InvalidBlockError,
    PartialRunError,
    OSError,
    json.JSONDecodeError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        _print_error("usage", message)
        raise SystemExit(EXIT_USAGE)


def _print_error(kind: str, message: str) -> None:
    message = " ".join(str(message).split())
    print(f'latecut: error kind={kind} message="{message}"', file=sys.stderr)


def _write_json(path, payload) -> None:
    formats.atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _output_dir_for(args: argparse.Namespace) -> str:
    if args.output_dir:
        return args.output_dir
    if args.command == "experiment":
        return args.out  # already a directory
    hint = getattr(args, "out", None) or getattr(args, "timeline", None)
    if not hint:
        return "."
    return os.path.dirname(os.fspath(hint)) or "."


def _log_resolved_config(args: argparse.Namespace) -> None:
    output_dir = _output_dir_for(args)
    os.makedirs(output_dir, exist_ok=True)
    resolved = {k: v for k, v in vars(args).items() if k != "func" and not callable(v)}
    _write_json(os.path.join(output_dir, f"{args.command}_config.json"), resolved)


def _resolve_seed(seed: int) -> int:
    """``seed``, or the LATECUT_SEED environment variable when it is set."""
    env = os.environ.get("LATECUT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"LATECUT_SEED must be an integer, got {env!r}") from exc
    return seed


def _decision_to_dict(decision) -> dict:
    return {
        "method": decision.method,
        "n_p": decision.n_p,
        "ranked": [
            {
                "block_id": row.block_id,
                "epsilon": row.epsilon_ini,
                "G": row.capacity_gap,
                "delta_t": row.delta_t,
                "importance": row.importance,
            }
            for row in decision.ranked
        ],
        "pruned": sorted(decision.pruned),
    }


def _load_decision_skip(path) -> frozenset[int]:
    with open(path) as fh:
        payload = json.load(fh)
    try:
        return frozenset(int(j) for j in payload["pruned"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed decision file: {exc}") from exc


# -- subcommand handlers ---------------------------------------------------


def _cmd_profile(args) -> int:
    network = formats.load_checkpoint(args.checkpoint)
    prof = profile(
        network, args.batch, mode=args.mode, warmup_runs=args.warmup,
        timed_runs=args.runs, seed=_resolve_seed(args.seed),
    )
    _write_json(args.out, profile_to_dict(prof))
    log.info("profiled %d blocks in %s mode -> %s", network.n_blocks, args.mode, args.out)
    return EXIT_OK


def _cmd_prune(args) -> int:
    network = formats.load_checkpoint(args.checkpoint)
    with open(args.profile) as fh:
        prof = profile_from_dict(json.load(fh))
    seed = _resolve_seed(args.seed)
    prune_batch = None
    if args.method != "random":
        if args.samples is None:
            raise ConfigError(f"method {args.method!r} needs --samples for its prune batch")
        inputs, _ = formats.load_samples(args.samples)
        if args.prune_batch > inputs.shape[0]:
            raise ConfigError(
                f"--prune-batch {args.prune_batch} exceeds {inputs.shape[0]} samples"
            )
        prune_batch = inputs[: args.prune_batch]
    cache = None
    if args.method == "oracle":
        if args.cache is None:
            raise ConfigError("method 'oracle' needs --cache to distill candidates against")
        cache = PseudoLabelCache.load(args.cache)
    decision = prune_by_method(
        args.method, network, prune_batch, prof, args.np, cache, args.k_steps, seed
    )
    _write_json(args.out, _decision_to_dict(decision))
    log.info("%s pruned blocks %s -> %s", args.method, sorted(decision.pruned), args.out)
    return EXIT_OK


def _cmd_distill(args) -> int:
    student = formats.load_checkpoint(args.student)
    skip = _load_decision_skip(args.decision)
    seed = _resolve_seed(args.seed)
    config = DistillConfig(steps=args.steps, batch_size=args.batch, lr0=args.lr, seed=seed)
    if args.mode == "cached":
        if args.cache is not None:
            cache = PseudoLabelCache.load(args.cache)
            if args.teacher is not None:
                expected = formats.network_fingerprint(formats.load_checkpoint(args.teacher))
                if cache.teacher_fingerprint != expected:
                    raise ConfigError(
                        f"cache {args.cache} was built from teacher fingerprint "
                        f"{cache.teacher_fingerprint:016x}, not {args.teacher}'s {expected:016x}"
                    )
        elif args.teacher is not None and args.samples is not None:
            teacher = formats.load_checkpoint(args.teacher)
            inputs, _ = formats.load_samples(args.samples)
            cache = build_cache(teacher, inputs)
        else:
            raise ConfigError("cached mode needs --cache, or --teacher with --samples")
        if args.save_cache:
            cache.save(args.save_cache)
        student, report = distill(student, skip, cache, config)
    else:
        if args.teacher is None or args.samples is None:
            raise ConfigError("live mode needs --teacher and --samples")
        teacher = formats.load_checkpoint(args.teacher)
        inputs, _ = formats.load_samples(args.samples)
        student, report = distill_live(student, skip, teacher, inputs, config)
    formats.save_checkpoint(student, args.out)
    if args.report:
        _write_json(
            args.report,
            {
                "mode": args.mode,
                "steps": config.steps,
                "final_loss": report.final_loss,
                "wall_time": report.wall_time,
                "teacher_query_count": report.teacher_query_count,
                "loss_trace": report.loss_trace,
            },
        )
    log.info("distilled %d steps (%s), final loss %.6g", config.steps, args.mode, report.final_loss)
    return EXIT_OK


def _cmd_serve(args) -> int:
    network = formats.load_checkpoint(args.checkpoint)
    inputs, labels = formats.load_samples(args.stream)
    seed = _resolve_seed(args.seed)
    stream = (
        (inputs[i], int(labels[i])) if labels is not None else inputs[i]
        for i in range(inputs.shape[0])
    )
    config = ServeConfig(
        n_p=args.np,
        prune_batch_size=args.prune_batch,
        cache_size=args.cache_size,
        distill=DistillConfig(steps=args.steps, batch_size=args.batch, lr0=args.lr, seed=seed),
        budget_per_tick=args.budget,
    )
    final_model, timeline, timings = serve(stream, network, config, args.arrivals_per_tick)
    formats.save_checkpoint(final_model, args.out)
    _write_json(args.timeline, timeline.to_rows())
    log.info(
        "served %d samples over %d ticks (prune done tick %s, distill done tick %s)",
        timings.inference_count, timings.total_ticks,
        timings.prune_done_tick, timings.distill_done_tick,
    )
    return EXIT_OK


def _cmd_experiment(args) -> int:
    with open(args.config) as fh:
        payload = json.load(fh)
    grid = payload.pop("grid", None)
    config = experiment_config_from_dict(payload)
    config = replace(config, seed=_resolve_seed(config.seed))
    os.makedirs(args.out, exist_ok=True)
    if grid is not None:
        reports = compare_methods(
            config,
            methods=tuple(grid.get("methods", ["proposed"])),
            n_p_values=tuple(grid.get("n_p_values", [config.n_p])),
            seeds=tuple(grid.get("seeds", [config.seed])),
        )
        for i, report in enumerate(reports):
            _write_json(os.path.join(args.out, f"report_{i:03d}.json"), report.to_dict())
    else:
        reports = [run_experiment(config)]
        _write_json(os.path.join(args.out, "report.json"), reports[0].to_dict())
    formats.atomic_write_text(os.path.join(args.out, "results.csv"), reports_to_csv(reports))
    for report in reports:
        log.info(
            "method=%s n_p=%d seed=%d accuracy=%.2f%% ls=%.2f%% pf=%.3fs",
            report.method, report.n_p, report.seed,
            report.accuracy, report.latency_saving, report.pf_seconds,
        )
    return EXIT_OK


def _cmd_report(args) -> int:
    reports = []
    try:
        for root, _, files in os.walk(args.results):
            for name in sorted(files):
                if name == "report.json" or (name.startswith("report_") and name.endswith(".json")):
                    with open(os.path.join(root, name)) as fh:
                        reports.append(ExperimentReport(**json.load(fh)))
        # The experiment's own writer, so the table matches its results.csv.
        text = reports_to_csv(reports)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed report under {args.results}: {exc}") from exc
    if not reports:
        raise ConfigError(f"no report JSON files found under {args.results}")
    if args.out:
        formats.atomic_write_text(args.out, text)
    else:
        print(text, end="")
    return EXIT_OK


# -- parser ---------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="latecut", description=__doc__)
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])
    parser.add_argument("--output-dir", default=None,
                        help="where the resolved run config is logged "
                             "(default: the primary output's directory)")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("profile", help="measure or model per-block latency")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", choices=["measured", "modeled"], default="modeled")
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--runs", type=int, default=9)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("prune", help="rank blocks and emit a prune decision")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--method", choices=METHODS, default="proposed")
    p.add_argument("--np", type=int, required=True)
    p.add_argument("--prune-batch", type=int, default=64)
    p.add_argument("--samples", default=None,
                   help="sample file providing the prune batch (all methods except random)")
    p.add_argument("--cache", default=None, help="pseudo-label cache (oracle method)")
    p.add_argument("--k-steps", type=int, default=50, help="oracle fine-tune steps per block")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("distill", help="fine-tune a pruned student")
    p.add_argument("--student", required=True)
    p.add_argument("--decision", required=True)
    p.add_argument("--cache", default=None)
    p.add_argument("--teacher", default=None,
                   help="teacher checkpoint: labels --samples, or must match --cache's fingerprint")
    p.add_argument("--samples", default=None)
    p.add_argument("--save-cache", default=None,
                   help="also write the built pseudo-label cache here (cached mode)")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.02)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["cached", "live"], default="cached")
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_distill)

    p = sub.add_parser("serve", help="run the streaming prune/distill/serve loop")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--stream", required=True)
    p.add_argument("--np", type=int, default=1)
    p.add_argument("--prune-batch", type=int, default=64)
    p.add_argument("--cache-size", type=int, default=64)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.02)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--budget", type=int, default=4)
    p.add_argument("--arrivals-per-tick", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeline", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("experiment", help="run a configured end-to-end experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("report", help="aggregate run reports into one CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help; normalize usage errors to exit 1
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        _print_error("usage", "a subcommand is required")
        return EXIT_USAGE
    logging.basicConfig(level=args.log_level.upper(), format="%(levelname)s %(message)s")
    try:
        _log_resolved_config(args)
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        _print_error("numeric", exc)
        return EXIT_NUMERIC
    except PartialRunError as exc:
        # A serving run whose background work failed exits as its cause.
        numeric = isinstance(exc.__cause__, _NUMERIC_ERRORS)
        _print_error("numeric" if numeric else "data", exc)
        return EXIT_NUMERIC if numeric else EXIT_DATA
    except _DATA_ERRORS as exc:
        _print_error("data", exc)
        return EXIT_DATA
    except LatecutError as exc:
        _print_error("data", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
