"""Command-line interface.

Verbs: endstate, incremental, wug, prune, split, inspect.  Every verb
takes --config (flat key=value file) plus repeatable --set overrides;
outputs land in the configured output directory.  Failures print one
machine-readable JSON line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import experiments


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to a flat key=value config file")
    p.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ldlkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("endstate", "incremental", "split", "inspect"):
        _add_common(sub.add_parser(name))

    wug = sub.add_parser("wug")
    _add_common(wug)
    wug.add_argument("--nonce", required=True, help="file with one nonce word per line")

    pr = sub.add_parser("prune")
    _add_common(pr)
    pr.add_argument(
        "--thresholds", default=None,
        help="comma-separated pruning thresholds (default: |W| quantiles)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = experiments.load_config(args.config, args.overrides)
        if args.command == "endstate":
            report = experiments.run_endstate(cfg)
            summary = {"output": cfg.output, "comprehension": report["comprehension"]}
        elif args.command == "incremental":
            report = experiments.run_incremental(cfg)
            summary = {
                "output": cfg.output,
                "n_tokens": report["n_tokens"],
                "incremental": report["incremental"],
            }
        elif args.command == "wug":
            with open(args.nonce, encoding="utf-8-sig") as fh:
                nonce = [line.strip() for line in fh if line.strip()]
            report = experiments.run_wug(cfg, nonce)
            summary = {"output": cfg.output, "marker_summary": report["marker_summary"]}
        elif args.command == "prune":
            thresholds = None
            if args.thresholds:
                thresholds = [float(t) for t in args.thresholds.split(",")]
            report = experiments.run_pruning(cfg, thresholds)
            summary = {"output": cfg.output, "points": len(report["curve"])}
        elif args.command == "split":
            summary = experiments.run_split(cfg)
        elif args.command == "inspect":
            summary = experiments.run_inspect(cfg)
        else:  # unreachable, argparse enforces the choices
            raise ValueError(f"unknown command {args.command!r}")
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        return 2
    print(experiments.json_text(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
