"""Command-line interface: train, deploy, evaluate, and run experiments.

Usage (after ``pip install -e .``):

.. code-block:: bash

    python -m repro train --workload lenet --preset quick
    python -m repro deploy --workload lenet --method "vawo*+pwt" \
        --sigma 0.5 --granularity 16 --trials 5 --jobs 4 --profile
    python -m repro serve --workload lenet --port 0 \
        --port-file serve.port --max-batch 8 --profile
    python -m repro experiment --name fig5a
    python -m repro obs summarize obs/deploy-manifest.json
    python -m repro obs critical-path obs/
    python -m repro obs flame obs/ --out deploy.folded
    python -m repro obs diff baseline-obs/ current-obs/
    python -m repro overhead --granularity 16 128
    python -m repro info

Workloads are trained once and every noise-independent pipeline stage
(LUTs, quantization, calibration, gradients, VAWO solves) is memoized
in the content-addressed artifact cache (``.cache/repro`` by default),
so repeated deploy/experiment invocations are fast. ``--cache-dir DIR``
relocates the store, ``--no-cache`` disables reuse entirely (results
are bit-identical either way); both export ``REPRO_CACHE`` so ``--jobs``
workers follow the same policy.

``--jobs/-j`` (on ``deploy``/``experiment``) shards the independent
programming-cycle trials across worker processes (``0`` = one per
core); results are bit-identical to a serial run at the same seed.

``--scenarios`` (on ``deploy``/``serve``/``experiment``) stacks
composable non-idealities on the simulated crossbar arrays
(``repro.array``): stuck-at faults, temperature coefficients,
conductance drift, extra program noise. With no scenarios, programming
is exactly the device model's.

``serve`` starts a long-lived inference server over a programmed
deployment (see ``repro.serve``): requests are micro-batched through
the library's kernels with responses bitwise identical to serving
each request alone, programmed states warm-start from the artifact
cache, and a bounded queue sheds overload with 429-style errors.

``--profile`` (on ``train``/``deploy``/``serve``/``experiment``)
enables the
observability layer for the run and writes a spans JSONL plus a
structured run manifest under ``--obs-dir`` (default ``obs/``). The
``repro obs`` toolkit reads those artifacts back: ``summarize``
(per-stage time/metric tables, works on manifests, raw span streams and
obs directories alike), ``critical-path`` (longest chain per root with
self-time attribution), ``flame`` (folded stacks for flamegraph tools)
and ``diff`` (percentile-aware two-run comparison).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Any, List, Optional

from repro import __version__


def _echo(message: str = "") -> None:
    """User-facing CLI output (stdout) — the one place it is emitted.

    The library itself must never ``print`` (lint rule R6): modules log
    through ``repro.utils.logging`` and report numbers through the obs
    exporters; only this front end talks to the terminal.
    """
    sys.stdout.write(message + "\n")


def _add_profile_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profile", action="store_true",
                   help="record spans/metrics and write a run manifest")
    p.add_argument("--obs-dir", default="obs",
                   help="directory for --profile artifacts (default: obs/)")


def _add_jobs_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", "-j", type=int, default=0, metavar="N",
                   help="parallel trial workers: 0 = auto (one per core, "
                        "capped by the trial count), 1 = serial. Results "
                        "are bit-identical either way (default: 0)")


def _add_scenarios_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenarios", default=None, metavar="SPEC",
                   help="non-ideality scenario stack, e.g. "
                        "'stuck_at:sa0_rate=0.05,sa1_rate=0.01;"
                        "drift:t_seconds=1e4' (semicolon-separated "
                        "name:param=value scenarios, applied in order)")


def _add_cache_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="artifact cache location (default: $REPRO_CACHE or "
                        ".cache/repro). Cached and recomputed runs are "
                        "bit-identical")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the artifact cache: recompute every "
                        "pipeline stage (same results, no reuse)")


def _add_train(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("train", help="train (and cache) a workload")
    p.add_argument("--workload", default="lenet",
                   choices=["lenet", "resnet18", "vgg16"])
    p.add_argument("--preset", default="quick", choices=["quick", "full"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dva-sigma", type=float, default=None,
                   help="train with DVA variation injection at this sigma")
    _add_cache_args(p)
    _add_profile_args(p)


def _add_deploy(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("deploy",
                       help="deploy a workload onto the simulated crossbar")
    p.add_argument("--workload", default="lenet",
                   choices=["lenet", "resnet18", "vgg16"])
    p.add_argument("--preset", default="quick", choices=["quick", "full"])
    p.add_argument("--method", default="vawo*+pwt",
                   choices=["plain", "vawo", "vawo*", "pwt", "vawo*+pwt"])
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--granularity", "-m", type=int, default=16)
    p.add_argument("--cell-bits", type=int, default=1, choices=[1, 2],
                   help="1 = SLC, 2 = 2-bit MLC")
    p.add_argument("--trials", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--saf", type=float, nargs=2, metavar=("SA0", "SA1"),
                   default=None, help="stuck-at fault rates")
    _add_jobs_arg(p)
    _add_scenarios_arg(p)
    _add_cache_args(p)
    _add_profile_args(p)


def _add_serve(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve", help="serve inference requests over a programmed "
                      "crossbar deployment")
    p.add_argument("--workload", default="lenet",
                   choices=["lenet", "resnet18", "vgg16"])
    p.add_argument("--preset", default="quick", choices=["quick", "full"])
    p.add_argument("--method", default="vawo*+pwt",
                   choices=["plain", "vawo", "vawo*", "pwt", "vawo*+pwt"])
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--granularity", "-m", type=int, default=16)
    p.add_argument("--cell-bits", type=int, default=1, choices=[1, 2],
                   help="1 = SLC, 2 = 2-bit MLC")
    p.add_argument("--seed", type=int, default=0,
                   help="responses bitwise-match trial 0 of `repro deploy "
                        "--seed N` (default: 0)")
    p.add_argument("--saf", type=float, nargs=2, metavar=("SA0", "SA1"),
                   default=None, help="stuck-at fault rates")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7453,
                   help="TCP port; 0 picks an ephemeral port "
                        "(default: 7453)")
    p.add_argument("--port-file", default=None, metavar="FILE",
                   help="write host:port here once bound (for --port 0)")
    p.add_argument("--max-batch", type=int, default=8,
                   help="micro-batch size; every dispatch is padded to "
                        "exactly this many samples (default: 8)")
    p.add_argument("--max-wait-ms", type=float, default=2.0,
                   help="batching window from the oldest queued request "
                        "(default: 2.0)")
    p.add_argument("--queue-limit", type=int, default=64,
                   help="bounded-queue depth; requests past it are shed "
                        "with a 429-style error (default: 64)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="default per-request deadline; expired requests "
                        "get a 504-style error (default: none)")
    _add_scenarios_arg(p)
    _add_cache_args(p)
    _add_profile_args(p)


def _add_experiment(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("experiment", help="run a named paper experiment")
    p.add_argument("--name", required=True,
                   choices=["fig5a", "fig5b", "fig5c", "table1", "table2",
                            "table3", "scenarios"])
    p.add_argument("--preset", default="quick", choices=["quick", "full"])
    p.add_argument("--trials", type=int, default=2)
    _add_jobs_arg(p)
    _add_scenarios_arg(p)
    _add_cache_args(p)
    _add_profile_args(p)


def _add_overhead(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("overhead",
                       help="ISAAC tile overhead of the offset hardware")
    p.add_argument("--granularity", "-m", type=int, nargs="+",
                   default=[16, 128])


def _add_obs(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("obs", help="inspect observability artifacts")
    obs_sub = p.add_subparsers(dest="obs_action", required=True)

    s = obs_sub.add_parser(
        "summarize", help="render a run as per-stage time/metric tables")
    s.add_argument("path",
                   help="manifest JSON, spans JSONL, or --obs-dir directory")

    c = obs_sub.add_parser(
        "critical-path",
        help="longest child chain per root span, with self-time")
    c.add_argument("path",
                   help="manifest JSON, spans JSONL, or --obs-dir directory")

    f = obs_sub.add_parser(
        "flame", help="folded-stack output for flamegraph tools")
    f.add_argument("path",
                   help="manifest JSON, spans JSONL, or --obs-dir directory")
    f.add_argument("--out", default=None, metavar="FILE",
                   help="write folded stacks to FILE instead of stdout")

    d = obs_sub.add_parser(
        "diff", help="per-span-name delta table between two runs "
                     "(percentile-aware)")
    d.add_argument("path_a", help="baseline manifest JSON or obs directory")
    d.add_argument("path_b", help="candidate manifest JSON or obs directory")


# ----------------------------------------------------------------------
# profiling plumbing
# ----------------------------------------------------------------------
def _profile_begin(args: argparse.Namespace, command: str) -> bool:
    """Enable the obs layer for a ``--profile`` run.

    Sets ``REPRO_OBS`` *before* the heavy modules are imported (the
    command handlers import lazily), so decorator-form spans on the hot
    kernels activate too, then turns the dynamic switch on. Spans
    stream straight to ``<obs-dir>/<command>-spans.jsonl`` as they
    close, so a long ``full``-preset run never buffers its trace in
    memory (and a crash still leaves the trace on disk).

    Opens a ``run.<command>`` root span held until :func:`_profile_end`
    — every span the run records (including worker subtrees re-rooted
    on merge) nests under it, so the manifest's spans always form one
    rooted tree.
    """
    if not getattr(args, "profile", False):
        return False
    os.environ.setdefault("REPRO_OBS", "1")
    import repro.obs as obs
    args._obs_was_active = obs.enabled()
    obs.enable()
    obs.reset()
    obs.trace.TRACER.stream_to(
        Path(args.obs_dir) / f"{command}-spans.jsonl")
    # The run-root span deliberately outlives this frame: _profile_end
    # closes it before export, and a crash in between still streams
    # every closed child to disk.
    args._obs_root = obs.span(f"run.{command}")  # span-ok — closed in _profile_end
    args._obs_root.__enter__()
    return True


def _profile_end(args: argparse.Namespace, command: str,
                 extra: Optional[dict] = None) -> None:
    """Export manifest + spans for a ``--profile`` run and say where."""
    import repro.obs as obs

    root = getattr(args, "_obs_root", None)
    if root is not None:
        root.__exit__(None, None, None)
        args._obs_root = None
    paths = obs.export_run(
        args.obs_dir, command, argv=sys.argv[1:],
        preset=getattr(args, "preset", None),
        seed=getattr(args, "seed", None), extra=extra, stem=command,
        reset=True)
    if not getattr(args, "_obs_was_active", False):
        obs.disable()           # leave the process as --profile found it
    _echo(f"obs:       manifest {paths['manifest']}  spans {paths['spans']}")


# ----------------------------------------------------------------------
# command handlers
# ----------------------------------------------------------------------
def _cmd_train(args: argparse.Namespace) -> int:
    profiling = _profile_begin(args, "train")
    from repro.eval.experiments import build_workload

    override = None
    if args.dva_sigma is not None:
        from repro.baselines.dva import DVAConfig, train_dva

        def override(model: Any, data: Any, spec: Any, rng: Any) -> None:
            cfg = DVAConfig(sigma=args.dva_sigma, epochs=spec.epochs,
                            batch_size=spec.batch_size, lr=spec.lr)
            train_dva(model, data, cfg, rng=rng)
        override.__name__ = f"dva{args.dva_sigma}"

    wl = build_workload(args.workload, args.preset, args.seed,
                        train_override=override)
    _echo(f"{args.workload} ({args.preset}, seed {args.seed}): "
          f"float accuracy {wl.float_accuracy:.2%}")
    if profiling:
        _profile_end(args, "train",
                     extra={"workload": args.workload,
                            "float_accuracy": wl.float_accuracy})
    return 0


def _cmd_deploy(args: argparse.Namespace) -> int:
    profiling = _profile_begin(args, "deploy")
    from repro.core import DeployConfig, Deployer
    from repro.device.cell import MLC2, SLC
    from repro.eval import evaluate_deployment, ideal_accuracy
    from repro.eval.experiments import _default_pwt, build_workload

    wl = build_workload(args.workload, args.preset, args.seed)
    cell = SLC if args.cell_bits == 1 else MLC2
    config = DeployConfig.from_method(
        args.method, sigma=args.sigma, granularity=args.granularity,
        cell=cell, pwt=_default_pwt(args.preset), bn_recalibrate=True,
        saf_rates=tuple(args.saf) if args.saf else None,
        scenarios=args.scenarios)
    deployer = Deployer(wl.model, wl.train, config, rng=args.seed + 10)
    ideal = ideal_accuracy(deployer, wl.test)
    result = evaluate_deployment(deployer, wl.test, n_trials=args.trials,
                                 rng=args.seed + 20, jobs=args.jobs)
    _echo(f"workload:  {args.workload} (float {wl.float_accuracy:.2%}, "
          f"ideal quantized {ideal:.2%})")
    _echo(f"method:    {args.method}  sigma={args.sigma}  "
          f"m={args.granularity}  cell={args.cell_bits}-bit")
    _echo(f"deployed:  {result}")
    _echo(f"registers: {deployer.total_registers()}   "
          f"crossbars: {deployer.crossbar_count()}")
    if profiling:
        _profile_end(args, "deploy",
                     extra={"workload": args.workload, "method": args.method,
                            "sigma": args.sigma,
                            "granularity": args.granularity,
                            "jobs": args.jobs, "trials": args.trials,
                            "mean_accuracy": result.mean,
                            "accuracies": result.accuracies,
                            "ideal_accuracy": ideal})
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    profiling = _profile_begin(args, "serve")
    import asyncio

    from repro.serve import InferenceService, ServeConfig, ServeServer

    config = ServeConfig(
        workload=args.workload, preset=args.preset, method=args.method,
        sigma=args.sigma, granularity=args.granularity,
        cell_bits=args.cell_bits, seed=args.seed,
        saf_rates=tuple(args.saf) if args.saf else None,
        scenarios=args.scenarios,
        max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
        queue_limit=args.queue_limit, deadline_ms=args.deadline_ms)
    service = InferenceService(config)
    prepared = service.prepare()
    _echo(f"model:    {config.describe()}")
    _echo(f"state:    {'warm start' if prepared.warm_start else 'programmed'}"
          f"  key {prepared.model_key[:16]}…")
    _echo(f"batching: max_batch={config.max_batch} "
          f"max_wait_ms={config.max_wait_ms} "
          f"queue_limit={config.queue_limit}")

    def on_ready(host: str, port: int) -> None:
        if args.port_file:
            path = Path(args.port_file)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(f"{host}:{port}\n")
        _echo(f"listening: {host}:{port}  (op: ping|infer|stats|shutdown; "
              f"newline-delimited JSON)")

    server = ServeServer(service, host=args.host, port=args.port,
                         on_ready=on_ready)
    asyncio.run(server.run())
    stats = server.stats()
    _echo(f"drained:  {stats['requests']} request(s) in "
          f"{stats['batches']} batch(es), {stats['shed']} shed, "
          f"{stats['expired']} expired")
    if profiling:
        _profile_end(args, "serve",
                     extra={"workload": args.workload, "method": args.method,
                            "seed": args.seed, "model_key": stats["model_key"],
                            "warm_start": stats["warm_start"],
                            "max_batch": args.max_batch,
                            "requests": stats["requests"],
                            "batches": stats["batches"],
                            "shed": stats["shed"]})
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    profiling = _profile_begin(args, f"experiment-{args.name}")
    from repro.eval import experiments as ex

    def finish(code: int = 0) -> int:
        if profiling:
            _profile_end(args, f"experiment-{args.name}",
                         extra={"experiment": args.name, "jobs": args.jobs})
        return code

    if args.name == "fig5a":
        rows = ex.run_fig5_accuracy("lenet", args.preset,
                                    n_trials=args.trials, jobs=args.jobs)
    elif args.name == "fig5b":
        rows = ex.run_fig5_accuracy("resnet18", args.preset,
                                    n_trials=args.trials, jobs=args.jobs)
    elif args.name == "fig5c":
        rows = ex.run_fig5c(args.preset, n_trials=args.trials,
                            jobs=args.jobs)
    elif args.name == "scenarios":
        for s_row in ex.run_scenario_matrix(
                preset=args.preset, n_trials=args.trials, jobs=args.jobs,
                scenarios=args.scenarios):
            _echo(f"{s_row.method:<10} scenario={s_row.scenario:<12} "
                  f"acc {s_row.mean_accuracy:.2%} "
                  f"(drop {s_row.accuracy_drop:+.2%} vs clean)")
        return finish()
    elif args.name == "table1":
        for wl, per_m in ex.run_table1(args.preset).items():
            for m, v in per_m.items():
                _echo(f"{wl:<10} m={m:<4} relative reading power {v:.2%}")
        return finish()
    elif args.name == "table2":
        for row in ex.run_table2():
            _echo(f"m={row['granularity']:<4} area {row['total_area_mm2']:.3f} mm^2 "
                  f"({row['area_overhead']:.1%})  power "
                  f"{row['total_power_mw']:.2f} mW ({row['power_overhead']:.1%})")
        return finish()
    else:
        for row in ex.run_table3(args.preset, n_trials=args.trials,
                                 jobs=args.jobs):
            _echo(f"{row.method:<10} sigma={row.sigma} "
                  f"loss {row.accuracy_loss:.2%} "
                  f"crossbars {row.crossbar_number}")
        return finish()
    for r in rows:
        _echo(f"{r.method:<10} m={r.granularity:<4} sigma={r.sigma} "
              f"acc {r.mean_accuracy:.2%} (ideal {r.ideal_accuracy:.2%})")
    return finish()


def _cmd_overhead(args: argparse.Namespace) -> int:
    from repro.arch import tile_overhead

    for m in args.granularity:
        o = tile_overhead(m)
        _echo(f"m={m:<4} area {o.total_area_mm2:.3f} mm^2 "
              f"({o.area_overhead_fraction:.1%})  power "
              f"{o.total_power_mw:.2f} mW ({o.power_overhead_fraction:.1%})")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import analysis
    from repro.obs.summary import summarize_path
    from repro.utils.serialization import load_json

    try:
        if args.obs_action == "summarize":
            _echo(summarize_path(args.path))
        elif args.obs_action == "critical-path":
            spans = analysis.load_trace(analysis.resolve_spans_path(args.path))
            _echo(analysis.render_critical_path(analysis.critical_path(spans)))
        elif args.obs_action == "flame":
            spans = analysis.load_trace(analysis.resolve_spans_path(args.path))
            folded = analysis.render_folded(analysis.fold_stacks(spans))
            if args.out:
                out = Path(args.out)
                out.parent.mkdir(parents=True, exist_ok=True)
                out.write_text(folded + "\n")
                _echo(f"folded stacks: {out} "
                      f"({len(folded.splitlines())} stack(s))")
            else:
                _echo(folded)
        else:                                       # diff
            manifest_a = analysis.resolve_manifest_path(args.path_a)
            manifest_b = analysis.resolve_manifest_path(args.path_b)
            stage_rows, hist_rows = analysis.diff_manifests(
                load_json(manifest_a), load_json(manifest_b))
            _echo(analysis.render_diff(stage_rows, hist_rows,
                                       label_a=str(manifest_a),
                                       label_b=str(manifest_b)))
    except FileNotFoundError as exc:
        _echo(f"repro obs: {exc}")
        return 2
    return 0


def _cmd_info(_args: argparse.Namespace) -> int:
    import numpy
    import scipy
    _echo(f"repro {__version__} — DATE 2021 digital-offset reproduction")
    _echo(f"numpy {numpy.__version__}, scipy {scipy.__version__}")
    _echo("workloads: lenet, resnet18 (slim), vgg16 (slim)")
    _echo("methods:   plain, vawo, vawo*, pwt, vawo*+pwt")
    _echo("observability: REPRO_OBS=1 / --profile, REPRO_LOG_LEVEL, "
          "repro obs summarize|critical-path|flame|diff")
    _echo("parallelism:   --jobs/-j on deploy/experiment "
          "(repro.parallel, bit-identical to serial)")
    _echo("serving:       repro serve (micro-batched, bitwise-"
          "reproducible; registry warm starts via the artifact cache)")
    from repro.array.scenarios import available_scenarios
    _echo(f"scenarios:     {', '.join(available_scenarios())} "
          "(--scenarios 'name:param=value;…' on deploy/serve)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Digital Offset for RRAM-based Neuromorphic Computing "
                    "(DATE 2021) — reproduction toolkit")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_train(sub)
    _add_deploy(sub)
    _add_serve(sub)
    _add_experiment(sub)
    _add_overhead(sub)
    _add_obs(sub)
    sub.add_parser("info", help="library and environment information")

    args = parser.parse_args(argv)
    scenarios = getattr(args, "scenarios", None)
    if scenarios is not None:
        from repro.array.scenarios import parse_scenario_spec
        try:
            parse_scenario_spec(scenarios)
        except ValueError as exc:
            parser.error(f"bad --scenarios spec: {exc}")
    if getattr(args, "no_cache", False) and getattr(args, "cache_dir", None):
        parser.error("--no-cache and --cache-dir are mutually exclusive")
    if getattr(args, "no_cache", False):
        # Exported through the environment so --jobs worker processes
        # and every library layer see one consistent cache policy.
        os.environ["REPRO_CACHE"] = "0"
    elif getattr(args, "cache_dir", None):
        os.environ["REPRO_CACHE"] = str(args.cache_dir)
    handlers = {
        "train": _cmd_train,
        "deploy": _cmd_deploy,
        "serve": _cmd_serve,
        "experiment": _cmd_experiment,
        "overhead": _cmd_overhead,
        "obs": _cmd_obs,
        "info": _cmd_info,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
