"""Command-line front end for sharded fault-injection campaigns.

``python -m repro.campaign`` sweeps a benchmark × variant × target grid
of SEU campaigns through the orchestrator: trials shard across worker
processes, every completed trial streams to a per-campaign JSONL journal
(``--journal DIR``), and ``--resume`` continues a killed sweep without
re-running finished trials.  The summary prints as a markdown table or a
JSON document (``--format``).

Examples::

    python -m repro.campaign --scale small --benchmarks FWT,R \
        --variants intra+lds,inter --targets vgpr,sgpr --trials 32 \
        --workers 4 --journal .campaigns --progress

    python -m repro.campaign --scale small --benchmarks FWT \
        --trials 64 --workers 0 --format json --out sweep.json
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import List, Optional

from ..compiler.pipeline import RMT_VARIANTS
from ..faults.campaign import (
    OUTCOMES,
    CampaignResult,
    campaign_report,
    run_campaign,
)
from ..faults.injector import TARGETS
from ..kernels.suite import SMALL_SUITE, SUITE
from .journal import JournalError
from .pool import default_workers
from .telemetry import Telemetry

DEFAULT_VARIANTS = "intra+lds,intra-lds,inter"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Sharded SEU fault-injection campaigns "
                    "(benchmark × RMT variant × fault target).",
    )
    parser.add_argument("--benchmarks", default="FWT",
                        help="comma-separated figure abbreviations "
                             f"(choose from {','.join(SUITE)})")
    parser.add_argument("--variants", default=DEFAULT_VARIANTS,
                        help=f"comma-separated RMT variants "
                             f"(choose from {','.join(RMT_VARIANTS)})")
    parser.add_argument("--targets", default="vgpr,sgpr,lds",
                        help=f"comma-separated fault targets "
                             f"(choose from {','.join(TARGETS)})")
    parser.add_argument("--trials", type=int, default=32,
                        help="trials per campaign cell (default 32)")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--max-wave", type=int, default=8)
    parser.add_argument("--max-instr", type=int, default=24)
    parser.add_argument("--scale", choices=("paper", "small"), default="small",
                        help="benchmark problem sizes (default small)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes per campaign; 0 = one per CPU")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-trial wall-clock limit in seconds")
    parser.add_argument("--max-retries", type=int, default=1,
                        help="re-attempts before a trial becomes infra_error")
    parser.add_argument("--journal", default=None, metavar="DIR",
                        help="directory receiving one JSONL journal per "
                             "campaign cell")
    parser.add_argument("--resume", action="store_true",
                        help="skip trials already present in the journals")
    parser.add_argument("--format", choices=("markdown", "json"),
                        default="markdown", dest="fmt")
    parser.add_argument("--json", action="store_const", const="json",
                        dest="fmt",
                        help="shorthand for --format json (the shared "
                             "report schema the serve daemon also emits)")
    parser.add_argument("--out", default=None,
                        help="write the summary to a file instead of stdout")
    parser.add_argument("--progress", action="store_true",
                        help="paint a live progress line to stderr")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero if any trial ended in infra_error")
    parser.add_argument("--list", action="store_true",
                        help="list benchmarks/variants/targets and exit")
    return parser


def _csv(text: str, valid, label: str) -> List[str]:
    items = [item.strip() for item in text.split(",") if item.strip()]
    for item in items:
        if item not in valid:
            raise SystemExit(
                f"error: unknown {label} {item!r}; choose from {', '.join(valid)}")
    if not items:
        raise SystemExit(f"error: no {label} selected")
    return items


def _journal_path(root: Path, abbrev: str, variant: str, target: str) -> Path:
    stem = re.sub(r"[^A-Za-z0-9_.+-]", "_", f"{abbrev}_{variant}_{target}")
    return root / f"{stem}.jsonl"


def _markdown(results: List[CampaignResult], telemetries: List[Telemetry]) -> str:
    lines = [
        "| benchmark | variant | target | trials | fired | "
        + " | ".join(OUTCOMES) + " | coverage |",
        "|---|---|---|---:|---:|" + "---:|" * len(OUTCOMES) + "---:|",
    ]
    for res in results:
        lines.append(
            f"| {res.benchmark} | {res.variant} | {res.target} "
            f"| {res.trials} | {res.fired} | "
            + " | ".join(str(res.outcomes.get(o, 0)) for o in OUTCOMES)
            + f" | {res.coverage:.2f} |"
        )
    elapsed = sum(t.summary()["elapsed_s"] for t in telemetries)
    trials = sum(r.trials for r in results)
    retries = sum(t.retries for t in telemetries)
    skipped = sum(t.skipped for t in telemetries)
    lines.append("")
    simulated = sum(r.simulated_launches for r in results)
    replayed = sum(r.replayed_launches for r in results)
    lines.append(
        f"{len(results)} campaigns, {trials} trials "
        f"({skipped} resumed from journal, {retries} retries) "
        f"in {elapsed:.1f}s; launches: {simulated} simulated, "
        f"{replayed} replayed from the golden run"
    )
    return "\n".join(lines)


def _json_doc(args, results: List[CampaignResult],
              telemetries: List[Telemetry]) -> str:
    doc = {
        "config": {
            "trials": args.trials, "seed": args.seed, "scale": args.scale,
            "workers": args.workers, "max_wave": args.max_wave,
            "max_instr": args.max_instr,
        },
        # One report schema across surfaces: each campaign entry is the
        # same document a serve-daemon campaign job returns (plus the
        # wall-clock telemetry digest), with infra_error trials rendered
        # through the shared Diagnostic serializer.
        "campaigns": [
            campaign_report(res, tel)
            for res, tel in zip(results, telemetries)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        print("benchmarks:", ", ".join(SUITE))
        print("variants:  ", ", ".join(RMT_VARIANTS))
        print("targets:   ", ", ".join(TARGETS))
        return 0

    benchmarks = _csv(args.benchmarks, SUITE, "benchmark")
    variants = _csv(args.variants, RMT_VARIANTS, "variant")
    targets = _csv(args.targets, TARGETS, "target")
    workers = args.workers if args.workers > 0 else default_workers()
    suite = SUITE if args.scale == "paper" else SMALL_SUITE
    journal_root = Path(args.journal) if args.journal else None
    if journal_root:
        journal_root.mkdir(parents=True, exist_ok=True)

    results: List[CampaignResult] = []
    telemetries: List[Telemetry] = []
    for abbrev in benchmarks:
        for variant in variants:
            for target in targets:
                tel = Telemetry(label=f"{abbrev}/{variant}/{target}",
                                progress=args.progress)
                journal = (
                    str(_journal_path(journal_root, abbrev, variant, target))
                    if journal_root else None
                )
                try:
                    results.append(run_campaign(
                        suite[abbrev], variant, target,
                        scale=args.scale,
                        trials=args.trials, seed=args.seed,
                        max_wave=args.max_wave, max_instr=args.max_instr,
                        workers=workers, timeout_s=args.timeout,
                        max_retries=args.max_retries,
                        journal=journal, resume=args.resume, telemetry=tel,
                    ))
                except JournalError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
                telemetries.append(tel)

    text = (_markdown(results, telemetries) if args.fmt == "markdown"
            else _json_doc(args, results, telemetries))
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)

    infra = sum(r.outcomes.get("infra_error", 0) for r in results)
    if infra:
        print(f"warning: {infra} trials ended in infra_error",
              file=sys.stderr)
        if args.strict:
            return 1
    return 0
