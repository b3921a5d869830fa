"""Command-line entry point.

Subcommands: profile, prune, distill, serve, experiment, report.  Exit
codes: 0 success, 1 usage error, 2 data/config error, 3 numeric failure.
Errors print one machine-parseable line on stderr.  A run that succeeds
logs its resolved configuration as ``<command>_config.json`` beside its
``--out`` (inside it for ``experiment``), or into ``--output-dir``; ``report``
printing its table logs nothing.  A run that stops with an error writes no
log and no outputs: each output is written once the work is done.  The
exception is a ``serve`` run that fails after answering: it still writes
its ``--timeline``, every answer it gave.  Every file is written
atomically (temp file + rename), creating its directory.
The LATECUT_SEED environment variable overrides the seed of a run that
reads one, a grid's ``seed`` axis included (a run that reads none ignores
it), and the logged configuration shows the seed that ran: ``experiment``
logs its resolved base config and grid beside the command line.
``profile``, ``prune`` and ``distill`` settle every flag before they read a
file: one the method or mode reads takes its default or is required, and
one it does not read is refused (and logged as null when absent).  Only
``prune --profile`` is accepted unread (by random, l2ratio and curl).

``experiment`` runs every config as a grid (one without a grid is a grid of
one run) and writes ``report_NNN.json`` per run plus ``results.csv``;
``report`` gathers the ``report_NNN.json`` files under a tree into that table.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
from dataclasses import asdict, replace

from . import formats
from .distill import DistillConfig, PseudoLabelCache, build_cache, distill, distill_live
from .errors import ConfigError, LatecutError, NumericError, PartialRunError, check_count
from .experiment import (
    ExperimentReport,
    experiment_config_from_dict,
    experiment_grid_from_dict,
    reports_to_csv,
    run_grid,
)
from .network import KERNEL_PAIR, compact
from .profiling import MODE_MEASURED, profile, profile_from_dict, profile_to_dict
from .pruning import METHODS, ORACLE_K_STEPS, check_n_p, prune_by_method
from .serving import ServeConfig, serve

log = logging.getLogger("latecut")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


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


def _log_resolved_config(args: argparse.Namespace) -> None:
    """Write ``<command>_config.json`` into ``--output-dir``, else beside
    ``--out`` (inside it for ``experiment``); with neither, log nothing."""
    output_dir = args.output_dir
    if output_dir is None:
        if args.out is None:  # report printing its table
            return
        output_dir = args.out if args.command == "experiment" else os.path.dirname(args.out)
    resolved = {k: v for k, v in vars(args).items() if k != "func" and not callable(v)}
    _write_json(os.path.join(output_dir, f"{args.command}_config.json"), resolved)


def _resolve_seed(seed: int) -> int:
    """``seed``, or the LATECUT_SEED environment variable when it is set;
    ConfigError unless the result is a non-negative integer."""
    env = os.environ.get("LATECUT_SEED")
    if env is None:
        return check_count("seed", seed, 0)
    try:
        return check_count("LATECUT_SEED", int(env), 0)
    except ValueError as exc:
        raise ConfigError(f"LATECUT_SEED must be an integer, got {env!r}") from exc


def _distill_config(args) -> DistillConfig:
    args.seed = _resolve_seed(args.seed)  # logged as the seed that ran
    return DistillConfig(steps=args.steps, batch_size=args.batch, lr0=args.lr, seed=args.seed)


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
    pruned = payload.get("pruned") if isinstance(payload, dict) else None
    # bool is an int subclass, but true is no block id
    if not (isinstance(pruned, list) and all(type(j) is int for j in pruned)):
        raise ConfigError(f"{path}: malformed decision file: 'pruned' must be a list of "
                          f"integer block ids, got {pruned!r}")
    return frozenset(pruned)


def _check_cache_teacher(cache, cache_path, teacher, teacher_path) -> None:
    """ConfigError unless ``cache`` (read from ``cache_path``) was built from
    ``teacher`` (the checkpoint at ``teacher_path``)."""
    expected = formats.network_fingerprint(teacher)
    if cache.teacher_fingerprint != expected:
        raise ConfigError(
            f"cache {cache_path} was built from teacher fingerprint "
            f"{cache.teacher_fingerprint:016x}, not {teacher_path}'s {expected:016x}"
        )


# -- subcommand handlers ---------------------------------------------------


def _settle(args, reader, flags) -> None:
    """Settle each ``(flag, read, default)`` before any file is read: a flag
    ``reader`` (the run's method or mode) reads takes its default or, having
    none, is required; one it does not read is refused.  Then LATECUT_SEED
    applies if the run reads a seed."""
    for flag, read, default in flags:
        dest = flag[2:].replace("-", "_")
        value = getattr(args, dest)
        if value is not None and not read:
            raise ConfigError(f"{reader} does not read {flag}")
        if value is None and read:
            if default is None:
                raise ConfigError(f"{reader} needs {flag}")
            setattr(args, dest, default)
    if args.seed is not None:
        args.seed = _resolve_seed(args.seed)


def _cmd_profile(args) -> None:
    measured = args.mode == MODE_MEASURED
    _settle(args, f"mode {args.mode!r}",
            (("--warmup", measured, 3), ("--runs", measured, 9), ("--seed", measured, 0)))
    timing = {} if not measured else dict(warmup_runs=args.warmup, timed_runs=args.runs,
                                          seed=args.seed)
    check_count("--batch", args.batch, 1)
    network = formats.load_checkpoint(args.checkpoint)
    prof = profile(network, args.batch, mode=args.mode, **timing)
    _write_json(args.out, profile_to_dict(prof))
    log.info("profiled %d blocks in %s mode -> %s", network.n_blocks, args.mode, args.out)


def _cmd_prune(args) -> None:
    batched, oracle = args.method != "random", args.method == "oracle"
    _settle(args, f"method {args.method!r}",
            (("--samples", batched, None),
             ("--prune-batch", batched, ServeConfig.prune_batch_size),
             ("--cache", oracle, None),
             ("--k-steps", oracle, ORACLE_K_STEPS),
             ("--seed", args.method in ("random", "oracle"), 0)))
    if batched:  # at most the number of samples, once they are read
        check_count("--prune-batch", args.prune_batch, 1)
    network = formats.load_checkpoint(args.checkpoint)
    with open(args.profile) as fh:
        prof = profile_from_dict(json.load(fh))
    prune_batch = cache = None
    if batched:
        inputs, _ = formats.load_samples(args.samples)
        check_count("--prune-batch", args.prune_batch, 1, inputs.shape[0])
        prune_batch = inputs[: args.prune_batch]
    if oracle:
        cache = PseudoLabelCache.load(args.cache)
        _check_cache_teacher(cache, args.cache, network, args.checkpoint)
    decision = prune_by_method(args.method, network, prune_batch, prof, args.np, cache,
                               args.k_steps, args.seed)
    _write_json(args.out, _decision_to_dict(decision))
    log.info("%s pruned blocks %s -> %s", args.method, sorted(decision.pruned), args.out)


def _cmd_distill(args) -> None:
    cached = args.mode == "cached"
    if not cached and (args.cache is not None or args.save_cache is not None):
        raise ConfigError("live mode queries the teacher every step: --cache and --save-cache "
                          "apply only to cached mode")
    if args.cache is not None and args.samples is not None:
        raise ConfigError("--cache holds the labelled samples: --samples does not apply beside it")
    if args.cache is None and (args.teacher is None or args.samples is None):
        raise ConfigError("cached mode needs --cache, or --teacher with --samples" if cached
                          else "live mode needs --teacher and --samples")
    config = _distill_config(args)
    student = formats.load_checkpoint(args.student)
    skip = _load_decision_skip(args.decision)
    teacher = None if args.teacher is None else formats.load_checkpoint(args.teacher)
    inputs = None if args.samples is None else formats.load_samples(args.samples)[0]
    if cached:
        if args.cache is None:
            cache = build_cache(teacher, inputs)
        else:
            cache = PseudoLabelCache.load(args.cache)
            if teacher is not None:
                _check_cache_teacher(cache, args.cache, teacher, args.teacher)
        if args.save_cache:
            cache.save(args.save_cache)
        student, report = distill(student, skip, cache, config)
    else:
        student, report = distill_live(student, skip, teacher, inputs, config)
    formats.save_checkpoint(compact(student, skip), args.out)
    if args.report:
        _write_json(args.report, {
            "mode": args.mode,
            "steps": config.steps,
            "final_loss": report.final_loss,
            "wall_time": report.wall_time,
            "teacher_query_count": report.teacher_query_count,
            "loss_trace": report.loss_trace,
        })
    log.info("distilled %d steps (%s), final loss %.6g", config.steps, args.mode, report.final_loss)


def _cmd_serve(args) -> None:
    check_count("--arrivals-per-tick", args.arrivals_per_tick, 1)
    config = ServeConfig(
        n_p=args.np,
        prune_batch_size=args.prune_batch,
        cache_size=args.cache_size,
        distill=_distill_config(args),
        budget_per_tick=args.budget,
    )
    network = formats.load_checkpoint(args.checkpoint)
    check_n_p(network, config.n_p)
    inputs, labels = formats.load_samples(args.stream)
    stream = iter(inputs) if labels is None else zip(inputs, labels.tolist())
    try:
        final_model, timeline, timings = serve(stream, network, config, args.arrivals_per_tick)
    except PartialRunError as exc:
        # The answers are the run's output: a failed run still hands them over.
        _write_json(args.timeline, exc.timeline.to_rows())
        raise
    formats.save_checkpoint(final_model, args.out)
    _write_json(args.timeline, timeline.to_rows())
    log.info(
        "served %d samples over %d ticks (prune done tick %s, distill done tick %s)",
        len(timeline.records), timings.total_ticks,
        timings.prune_done_tick, timings.distill_done_tick,
    )


def _cmd_experiment(args) -> None:
    with open(args.config) as fh:
        payload = json.load(fh)
    config = experiment_config_from_dict(payload)
    config = replace(config, seed=_resolve_seed(config.seed))
    grid = experiment_grid_from_dict(payload)
    if "LATECUT_SEED" in os.environ:  # overrides the grid's seed axis too
        grid["seed"] = (config.seed,)
    reports = run_grid(config, grid)
    for i, report in enumerate(reports):
        _write_json(os.path.join(args.out, f"report_{i:03d}.json"), report.to_dict())
        log.info("report_%03d: %s", i, report.csv_row())
    formats.atomic_write_text(os.path.join(args.out, "results.csv"), reports_to_csv(reports))
    # Logged with the command line: the config and grid that ran, seeds resolved.
    args.base_config = asdict(config)
    del args.base_config["distill"]["seed"]  # the run's seed seeds distillation
    args.grid = grid


def _cmd_report(args) -> None:
    reports = []
    try:
        for root, _, files in os.walk(args.results):
            for name in sorted(files):
                # report_NNN.json as experiment names them, not report_config.json
                if re.fullmatch(r"report_\d+\.json", name):
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


# -- parser ---------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="latecut", description=__doc__)
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])
    parser.add_argument("--output-dir", default=None,
                        help="where a successful run logs its resolved config "
                             "(default: beside --out; inside it for experiment)")
    sub = parser.add_subparsers(dest="command", metavar="command")
    # distill and serve share DistillConfig's flags and defaults
    distill_flags = argparse.ArgumentParser(add_help=False)
    distill_flags.add_argument("--steps", type=int, default=DistillConfig.steps)
    distill_flags.add_argument("--lr", type=float, default=DistillConfig.lr0)
    distill_flags.add_argument("--batch", type=int, default=DistillConfig.batch_size)
    distill_flags.add_argument("--seed", type=int, default=DistillConfig.seed)

    p = sub.add_parser("profile", help="measure or model per-block latency")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", choices=["measured", "modeled"], default="modeled")
    p.add_argument("--warmup", type=int, help="warmup passes (measured mode; default 3)")
    p.add_argument("--runs", type=int, help="timed rounds (measured mode; default 9)")
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--seed", type=int, help="timed batch seed (measured mode; default 0)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("prune", help="rank blocks and emit a prune decision")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--method", choices=METHODS, default="proposed")
    p.add_argument("--np", type=int, required=True)
    p.add_argument("--prune-batch", type=int, default=None,
                   help="rows of --samples to rank on (all methods except random; "
                        f"default {ServeConfig.prune_batch_size})")
    p.add_argument("--samples", default=None,
                   help="sample file providing the prune batch (all methods except random)")
    p.add_argument("--cache", default=None,
                   help="pseudo-label cache built from --checkpoint (oracle method)")
    p.add_argument("--k-steps", type=int, default=None,
                   help=f"oracle fine-tune steps per block (default {ORACLE_K_STEPS})")
    p.add_argument("--seed", type=int, help="random and oracle methods (default 0)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("distill", help="fine-tune a pruned student", parents=[distill_flags])
    p.add_argument("--student", required=True)
    p.add_argument("--decision", required=True)
    p.add_argument("--cache", default=None)
    p.add_argument("--teacher", default=None,
                   help="teacher checkpoint: labels --samples, or must match --cache's fingerprint")
    p.add_argument("--samples", default=None)
    p.add_argument("--save-cache", default=None,
                   help="also write the built pseudo-label cache here (cached mode)")
    p.add_argument("--mode", choices=["cached", "live"], default="cached")
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_distill)

    p = sub.add_parser("serve", help="run the streaming prune/distill/serve loop",
                       parents=[distill_flags])
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--stream", required=True)
    p.add_argument("--np", type=int, default=ServeConfig.n_p)
    p.add_argument("--prune-batch", type=int, default=ServeConfig.prune_batch_size)
    p.add_argument("--cache-size", type=int, default=ServeConfig.cache_size)
    p.add_argument("--budget", type=int, default=ServeConfig.budget_per_tick)
    p.add_argument("--arrivals-per-tick", type=int, default=1)
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
    # The einsum fallback runs batches several times slower; say which ran.
    log.info("forward kernels: %s", KERNEL_PAIR)
    try:
        args.func(args)
        _log_resolved_config(args)
    except NumericError as exc:
        _print_error("numeric", exc)
        return EXIT_NUMERIC
    except PartialRunError as exc:
        # A serving run whose background work failed exits as its cause.
        numeric = isinstance(exc.__cause__, NumericError)
        _print_error("numeric" if numeric else "data", exc)
        return EXIT_NUMERIC if numeric else EXIT_DATA
    except (LatecutError, OSError, json.JSONDecodeError) as exc:
        _print_error("data", exc)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
