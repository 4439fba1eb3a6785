"""The three workloads, as units of work checked against the goldens.

A run executes whole *units* until ``--seconds`` have elapsed, so every
run of a workload holds the same mix of work:

* ``campaign`` — one unit is three fresh fault campaigns (one per cell of
  :data:`CAMPAIGN_CELLS`), each journaled to a temp file, with its
  campaign seed taken from the next entry of the golden pool;
* ``fuzz`` — one unit is one block of differential-oracle checks over
  the golden program pool (blocks are packed to equal work);
* ``tables`` — one unit is one regeneration of the EXPERIMENTS document
  over :data:`TABLE_KERNELS` with a fresh harness and compile cache.

The benchmark seed picks the pool order; the golden pools were drawn once
with the reference interpreter (see ``regenerate.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List

import numpy as np

GOLDENS = Path(__file__).resolve().parent / "goldens"

#: (benchmark, variant, target, trials per campaign).  DWT/intra+lds is the
#: engine-bound baseline (every upset fires), FWT/intra-lds/lds exercises
#: no-fire elision (half its plans provably never fire), and DWT/inter hits
#: multi-launch wave ordinals plus one watchdog hang per campaign.  Of the
#: 32 fired trials a unit holds, the 11 non-hanging DWT/inter ones are
#: ranks 13-23 by latency, so ``op_p50_ms`` sits inside one homogeneous
#: group instead of on the edge between two.
CAMPAIGN_CELLS = (
    ("DWT", "intra+lds", "vgpr", 12),
    ("FWT", "intra-lds", "lds", 16),
    ("DWT", "inter", "vgpr", 12),
)

#: Kernels the ``tables`` workload regenerates.  BinS and SF are
#: memory-bound, PS and BlkSch compute/LDS-bound, DWT and FW carry
#: inter-group lock traffic; Figure 5 adds BO (compute-bound) itself.
TABLE_KERNELS = ("BinS", "BlkSch", "DWT", "FW", "PS", "SF")

SMALL = "small"


def memory_digest(memory: Dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(memory):
        h.update(name.encode())
        h.update(memory[name].tobytes())
    return h.hexdigest()[:16]


def fresh_compile_cache(totals: Dict[str, int]) -> None:
    """Empty the process compile cache, folding its stats into ``totals``."""
    from repro.compiler.cache import default_cache

    cache = default_cache()
    if cache is None:
        return
    for key, value in cache.stats.as_dict().items():
        totals[key] = totals.get(key, 0) + value
    cache.clear()


def trim_tables() -> None:
    """Restrict the EXPERIMENTS grid to :data:`TABLE_KERNELS`."""
    import repro.eval.experiments as experiments
    import repro.eval.experiments_md as experiments_md

    experiments.FIGURE_ORDER = list(TABLE_KERNELS)
    experiments_md.INTER_QUOTED = {
        k: v for k, v in experiments_md.INTER_QUOTED.items()
        if k in TABLE_KERNELS}


def trial_key(entry: dict) -> list:
    return [entry["outcome"], bool(entry["fired"]), entry["description"],
            float(entry["cycles"]), int(entry.get("bucket", -1))]


def run_key(run) -> list:
    digest = memory_digest(run.memory) if run.memory is not None else ""
    return [run.label, run.status, float(run.cycles), digest, run.detections]


class Workload:
    """Shared bookkeeping: failed/attempted ops and golden mismatches."""

    name = ""

    def __init__(self, seed: int, root: Path, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        self.cache_stats: Dict[str, int] = {}
        self.golden = json.loads((GOLDENS / f"{self.name}.json").read_text())

    def mismatch(self, what: str) -> None:
        if len(self.mismatches) < 20:
            self.mismatches.append(what)
        else:
            self.mismatches[-1] = "... (further mismatches elided)"

    def run_unit(self, k: int) -> None:
        raise NotImplementedError

    def close(self) -> None:
        fresh_compile_cache(self.cache_stats)


class CampaignWorkload(Workload):
    name = "campaign"

    def __init__(self, seed: int, root: Path, tracer):
        super().__init__(seed, root, tracer)
        from repro.faults.campaign import run_campaign
        from repro.kernels.suite import make_benchmark
        from repro.orchestrator import read_journal

        self._run_campaign = run_campaign
        self._make = make_benchmark
        self._read = read_journal
        pool = self.golden["pool"]
        self.order = [int(i) for i in np.random.default_rng(seed).permutation(len(pool))]
        out = root / ".bench_e2e"
        out.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=out)

    def run_unit(self, k: int) -> None:
        j = self.order[k % len(self.order)]
        entry = self.golden["pool"][j]
        for i, ((ab, variant, target, trials), cell) in enumerate(
                zip(CAMPAIGN_CELLS, entry["cells"])):
            fresh_compile_cache(self.cache_stats)
            path = os.path.join(self._tmp.name, f"u{k}-{i}.jsonl")
            self._run_campaign(
                lambda ab=ab: self._make(ab, SMALL), variant, target,
                trials=trials, seed=cell["seed"], scale=SMALL, workers=1,
                journal=path)
            _meta, entries = self._read(path)
            os.unlink(path)
            got = sorted((e for e in entries if e["kind"] == "trial"),
                         key=lambda e: e["index"])
            self.attempted += trials
            self.failed += sum(e["outcome"] == "infra_error" for e in got)
            label = f"pool[{j}] {ab}/{variant}/{target} seed={cell['seed']}"
            if len(got) != trials:
                self.mismatch(f"{label}: {len(got)} trials journaled, want {trials}")
            for e, want in zip(got, cell["trials"]):
                if trial_key(e) != want:
                    self.mismatch(f"{label} trial {e['index']}: "
                                  f"got {trial_key(e)} want {want}")

    def close(self) -> None:
        super().close()
        self._tmp.cleanup()


class FuzzWorkload(Workload):
    name = "fuzz"

    def __init__(self, seed: int, root: Path, tracer):
        super().__init__(seed, root, tracer)
        from repro.fuzz import check_program, generate_program

        self._check = check_program
        self._generate = generate_program
        rng = np.random.default_rng(seed)
        blocks = self.golden["blocks"]
        self.blocks = [[blocks[int(b)][int(i)]
                        for i in rng.permutation(len(blocks[int(b)]))]
                       for b in rng.permutation(len(blocks))]

    def run_unit(self, k: int) -> None:
        fresh_compile_cache(self.cache_stats)
        for pseed in self.blocks[k % len(self.blocks)]:
            want = self.golden["programs"][str(pseed)]
            report = self._check(self._generate(pseed))
            self.attempted += len(report.runs)
            bad = {f.run for f in report.errors}
            bad |= {r.label for r in report.runs if r.status != "ok"}
            self.failed += len(bad)
            for f in report.errors:
                self.mismatch(f"program {pseed}: {f.kind} @ {f.run}: {f.detail}")
            if report.digest != want["digest"]:
                self.mismatch(f"program {pseed}: digest {report.digest} "
                              f"want {want['digest']}")
            got = [run_key(r) for r in report.runs]
            if got != want["runs"]:
                self.mismatch(f"program {pseed}: runs {got} want {want['runs']}")


class TablesWorkload(Workload):
    name = "tables"

    def __init__(self, seed: int, root: Path, tracer):
        super().__init__(seed, root, tracer)
        from repro.eval.experiments_md import generate
        from repro.eval.harness import Harness

        trim_tables()
        self._generate = generate
        self._harness = Harness
        self.document = (GOLDENS / "tables.md").read_text()

    def run_unit(self, k: int) -> None:
        fresh_compile_cache(self.cache_stats)
        first = len(self.tracer.ops)
        doc = self._generate(self._harness(scale=SMALL, cache_path="",
                                           workers=1))
        records = [rec for _kind, _dt, rec in self.tracer.ops[first:]]
        self.attempted += len(records)
        if len(records) != self.golden["cells"]:
            self.mismatch(f"pass {k}: {len(records)} cells, "
                          f"want {self.golden['cells']}")
        for rec in records:
            if not rec.verified or rec.detections:
                self.failed += 1
                self.mismatch(f"pass {k}: {rec.key()} verified={rec.verified} "
                              f"detections={rec.detections}")
        if doc != self.document:
            self.mismatch(f"pass {k}: rendered document differs from "
                          "goldens/tables.md")


WORKLOADS = {w.name: w for w in (CampaignWorkload, FuzzWorkload, TablesWorkload)}
