"""Fault-injection campaigns over benchmark kernels.

A campaign replays one benchmark many times, each run with a single
random SEU, and tallies the outcome distribution.  The headline check —
used by the property tests — is the paper's SoR contract:

* a structure *inside* a flavor's sphere of replication never produces
  silent data corruption (every upset is masked or detected);
* structures *outside* the SoR can (and do) produce SDCs, which is why
  the paper is careful to enumerate them in Tables 2 and 3.

Campaigns are embarrassingly parallel and route through the
``repro.orchestrator`` subsystem: every trial's fault plan is drawn from
its own ``SeedSequence`` child stream (so ``workers=1`` and ``workers=8``
produce bit-identical histograms), completed trials stream into an
optional JSONL journal (``resume=True`` skips them on a re-run), and a
worker crash or per-trial timeout is recorded as an ``infra_error``
outcome instead of losing the campaign.

Five fast paths keep the per-trial cost low without changing a single
outcome bit (all gated on :func:`repro.gpu.fused.fault_window_enabled`
so the reference configuration remains one toggle away):

* *fault-window execution* — window-capable hooks run the fused
  engines, dropping to per-instruction stepping only around the victim
  wave's trigger (see :mod:`repro.gpu.fused`);
* *no-fire elision* — the golden run's per-wave dynamic instruction
  totals (the :class:`FaultEnvelope`) prove that a plan whose victim
  ordinal was never created, or whose trigger exceeds the victim's
  lifetime instruction count, can never fire; such a trial is
  bit-identical to the golden run by induction, so its record is
  synthesized from the envelope without simulating anything;
* *launch replay* — the golden run records each launch's exact
  pre-launch device state and result on a
  :class:`~repro.gpu.device.LaunchTape`; a trial launch that starts from
  that exact state while its hook cannot fire returns the recorded
  result instead of re-simulating it (DESIGN.md §16).  In multi-launch
  benchmarks this covers the launches before the victim's and, once
  a masked upset's state re-converges, the launches after it;
* *livelock proof* — a fault-window launch whose upset wedged every
  live wave in a spin loop that can never exit ends as soon as that is
  proven, instead of at the watchdog (DESIGN.md §17).  Either way the
  trial is a ``hang``;
* *dead-upset finishing* — a victim launch that starts from the golden
  state is stopped once its upset lands in a register no instruction
  reads again, and finished from the recorded launch (DESIGN.md §20).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..gpu.device import LaunchTape
from ..gpu.engine import SimulationError
from ..gpu.fused import fault_window_enabled
from ..kernels.base import Benchmark, BenchResult
from ..runtime.api import Session
from .injector import FaultHook, FaultPlan

#: Trial classifications.  The first four are architectural outcomes of
#: the simulated upset; ``infra_error`` marks a trial the orchestration
#: layer could not complete (worker crash / timeout after retries).
OUTCOMES = ("masked", "detected", "sdc", "hang", "infra_error")

#: Default in-memory cap on per-trial records kept by a CampaignResult.
DEFAULT_RECORD_CAP = 256


@dataclass
class TrialRecord:
    """One trial's structured outcome (journaled and tallied)."""

    index: int
    outcome: str
    plan: Optional[FaultPlan] = None
    fired: bool = False
    description: str = ""
    cycles: float = 0.0
    error: str = ""
    #: Static protection-priority bucket of the flipped register (-1 when
    #: unknown: no bucket map, LDS faults, or pre-bucket journals).
    bucket: int = -1
    #: Execution-path metadata: which engine simulated the trial's last
    #: simulated launch ("standard" | "vectorized", or "dead-upset" when
    #: that launch was stopped at a dead upset and finished from the
    #: golden tape), "replayed" when every launch was replayed from the
    #: tape, or "elided" when the fault envelope proved the plan could
    #: never fire.  Never part of outcome identity — nor are the launch
    #: counts below: two records that differ only in these fields
    #: describe the same trial.
    engine: str = ""
    #: Launches the engine simulated (a hang's aborted launch and a
    #: dead-upset launch stopped at the fire included) / replayed from
    #: the tape.
    simulated: int = 0
    replayed: int = 0

    def to_json(self) -> Dict:
        return {
            "index": self.index,
            "outcome": self.outcome,
            "plan": asdict(self.plan) if self.plan is not None else None,
            "fired": self.fired,
            "description": self.description,
            "cycles": self.cycles,
            "error": self.error,
            "bucket": self.bucket,
            "engine": self.engine,
            "simulated": self.simulated,
            "replayed": self.replayed,
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "TrialRecord":
        plan = payload.get("plan")
        return cls(
            index=int(payload["index"]),
            outcome=payload["outcome"],
            plan=FaultPlan(**plan) if plan else None,
            fired=bool(payload.get("fired", False)),
            description=payload.get("description", ""),
            cycles=float(payload.get("cycles", 0.0)),
            error=payload.get("error", ""),
            bucket=int(payload.get("bucket", -1)),
            engine=payload.get("engine", ""),
            simulated=int(payload.get("simulated", 0)),
            replayed=int(payload.get("replayed", 0)),
        )


@dataclass
class CampaignResult:
    """Outcome histogram of one campaign (or one merged set of shards)."""

    benchmark: str
    variant: str
    target: str
    outcomes: Dict[str, int] = field(default_factory=lambda: {o: 0 for o in OUTCOMES})
    trials: int = 0
    fired: int = 0
    records: List[TrialRecord] = field(default_factory=list)
    infra: List[TrialRecord] = field(default_factory=list)
    record_cap: int = DEFAULT_RECORD_CAP
    dropped_records: int = 0
    #: Outcome histogram per static priority bucket (fired trials with a
    #: known bucket only) — the join the vulnerability-validation harness
    #: correlates against static predictions.
    bucket_outcomes: Dict[int, Dict[str, int]] = field(default_factory=dict)
    #: Launches simulated by an engine vs replayed from the golden tape,
    #: over every trial (routing metadata, not outcomes).
    simulated_launches: int = 0
    replayed_launches: int = 0

    @property
    def sdc_count(self) -> int:
        return self.outcomes["sdc"]

    @property
    def detected_count(self) -> int:
        return self.outcomes["detected"]

    @property
    def coverage(self) -> float:
        """Fraction of *visible* faults that were detected."""
        visible = self.outcomes["detected"] + self.outcomes["sdc"]
        return self.outcomes["detected"] / visible if visible else 1.0

    def add(self, record: TrialRecord) -> None:
        """Tally one trial; keep fired records up to ``record_cap``."""
        self.outcomes[record.outcome] = self.outcomes.get(record.outcome, 0) + 1
        self.trials += 1
        self.simulated_launches += record.simulated
        self.replayed_launches += record.replayed
        if record.outcome == "infra_error" and len(self.infra) < self.record_cap:
            self.infra.append(record)
        if record.fired:
            self.fired += 1
            if record.bucket >= 0:
                hist = self.bucket_outcomes.setdefault(record.bucket, {})
                hist[record.outcome] = hist.get(record.outcome, 0) + 1
            if len(self.records) < self.record_cap:
                self.records.append(record)
            else:
                self.dropped_records += 1

    @classmethod
    def merged(cls, parts: Sequence["CampaignResult"]) -> "CampaignResult":
        """Merge shard results of one campaign into a single histogram."""
        if not parts:
            raise ValueError("nothing to merge")
        first = parts[0]
        out = cls(benchmark=first.benchmark, variant=first.variant,
                  target=first.target, record_cap=first.record_cap)
        for part in parts:
            identity = (part.benchmark, part.variant, part.target)
            if identity != (first.benchmark, first.variant, first.target):
                raise ValueError(
                    f"cannot merge shards of different campaigns: "
                    f"{identity} vs {(first.benchmark, first.variant, first.target)}"
                )
            for outcome, count in part.outcomes.items():
                out.outcomes[outcome] = out.outcomes.get(outcome, 0) + count
            out.trials += part.trials
            out.fired += part.fired
            out.simulated_launches += part.simulated_launches
            out.replayed_launches += part.replayed_launches
            out.dropped_records += part.dropped_records
            for b, hist in part.bucket_outcomes.items():
                merged_hist = out.bucket_outcomes.setdefault(b, {})
                for outcome, count in hist.items():
                    merged_hist[outcome] = merged_hist.get(outcome, 0) + count
            for rec in part.records:
                if len(out.records) < out.record_cap:
                    out.records.append(rec)
                else:
                    out.dropped_records += 1
            for rec in part.infra:
                if len(out.infra) < out.record_cap:
                    out.infra.append(rec)
        return out

    def to_json(self) -> Dict:
        """Deterministic report payload (no wall-clock fields).

        This is the one campaign-report schema: ``repro.campaign
        --json`` and the serve daemon's ``campaign`` job responses both
        serialise through it, so a daemon result is comparable
        bit-for-bit with a batch run of the same spec.
        """
        doc = {
            "benchmark": self.benchmark,
            "variant": self.variant,
            "target": self.target,
            "trials": self.trials,
            "fired": self.fired,
            "outcomes": dict(self.outcomes),
            "coverage": round(self.coverage, 4),
            "launches": {"simulated": self.simulated_launches,
                         "replayed": self.replayed_launches},
        }
        if self.bucket_outcomes:
            doc["bucket_outcomes"] = {
                str(b): dict(sorted(self.bucket_outcomes[b].items()))
                for b in sorted(self.bucket_outcomes)
            }
        return doc

    def summary(self) -> str:
        return (
            f"{self.benchmark}/{self.variant}/{self.target}: "
            f"{self.trials} trials ({self.fired} fired) -> "
            + ", ".join(f"{k}={v}" for k, v in self.outcomes.items())
        )


def campaign_report(result: CampaignResult, telemetry=None) -> Dict:
    """One report schema for batch CLI and daemon campaign responses.

    The deterministic histogram comes from :meth:`CampaignResult.to_json`;
    infrastructure failures (worker crashes / deadline kills after
    retries) are rendered through the shared
    :meth:`~repro.compiler.lint.diagnostics.Diagnostic.to_json`
    serializer — the same record shape ``repro.lint``, ``repro.tv`` and
    ``repro.mc`` emit — so every surface reports problems identically.
    ``telemetry`` optionally attaches the run's wall-clock digest, which
    is *not* part of the deterministic payload.
    """
    from ..compiler.lint.diagnostics import WARNING, Diagnostic

    diagnostics = [
        Diagnostic(
            checker="campaign",
            severity=WARNING,
            kernel=result.benchmark,
            loc=f"trial[{rec.index}]",
            message=rec.error or "infra_error",
        ).to_json()
        for rec in result.infra
    ]
    doc = result.to_json()
    doc["diagnostics"] = diagnostics
    if telemetry is not None:
        doc["telemetry"] = telemetry.summary()
    return doc


# -- single-trial execution (shared by serial path, workers, tests) -------


@dataclass
class FaultEnvelope:
    """What the golden (fault-free) run proves about every trial.

    ``wave_instrs[o]`` is the lifetime dynamic instruction count of the
    wave with execution-start ordinal ``o``, concatenated across the
    benchmark's launches.  The fault hook fires on the first call where
    the victim's post-increment count reaches the trigger, and it is
    called for every count ``1..wave_instrs[o]`` — so a plan *can* fire
    iff its ordinal exists and ``trigger_instr <= wave_instrs[o]``.
    Until the instant a hook fires, a trial's execution is bit-identical
    to the golden run (the hook is pure observation); by induction a
    trial that can never fire *is* the golden run, and its record can be
    synthesized without simulating.

    ``budget`` is the trials' watchdog horizon, ``reference`` the host
    model's golden outputs every trial is checked against, and ``tape``
    the golden run's recorded launches, which trial launches replay once
    their device state re-converges (see :meth:`Device.replay_from
    <repro.gpu.device.Device.replay_from>`).  Build one with
    :func:`golden_run`.
    """

    wave_instrs: List[int]
    outcome: str
    cycles: float
    budget: float
    reference: Dict
    tape: LaunchTape

    def can_fire(self, plan: FaultPlan) -> bool:
        o = plan.wave_ordinal
        return (0 <= o < len(self.wave_instrs)
                and plan.trigger_instr <= self.wave_instrs[o])


def golden_run(probe: Benchmark, compiled) -> FaultEnvelope:
    """Run ``probe`` fault-free once and return what it proves.

    The golden run sets a watchdog budget so corrupted spin locks or loop
    bounds end as ``hang`` instead of running to the horizon; its host
    reference outputs are reused by every trial's oracle check
    (benchmark inputs are deterministic per instance seed); its per-wave
    instruction totals drive no-fire elision and its launch tape drives
    launch replay.
    """
    session = Session()
    tape = session.device.record_tape()
    golden = probe.run(session, compiled)
    reference = probe.reference()
    return FaultEnvelope(
        wave_instrs=[n for r in session.device.stats.launch_results
                     for n in r.wave_instrs],
        outcome=classify_trial(probe, golden, reference),
        cycles=golden.cycles,
        budget=25.0 * max(golden.cycles, 1.0) + 2_000_000,
        reference=reference,
        tape=tape,
    )


def classify_trial(bench: Benchmark, run: BenchResult,
                   reference=None) -> str:
    """Classify one *completed* fault run against the benchmark oracle.

    ``reference`` optionally supplies precomputed golden outputs so a
    deterministic benchmark's host model is evaluated once per campaign
    instead of once per trial.
    """
    if run.detections:
        return "detected"
    if bench.check(run, ref=reference):
        return "masked"
    return "sdc"


def execute_trial(
    bench: Benchmark,
    compiled,
    plan: FaultPlan,
    cycle_budget: Optional[float] = None,
    index: int = -1,
    reference=None,
    priority_buckets: Optional[Dict[int, int]] = None,
    envelope: Optional[FaultEnvelope] = None,
) -> TrialRecord:
    """Run one benchmark once with one injected fault; record the outcome.

    ``priority_buckets`` (``id(reg)`` → static priority bucket, from
    :func:`repro.compiler.analysis.vulnerability.register_buckets` over
    the *compiled* kernel) lets the hook stamp each fired record with
    the victim's predicted vulnerability bucket.

    ``envelope`` enables no-fire elision: a plan the golden run proves
    can never fire returns the golden outcome directly (marked
    ``engine="elided"``).  It also lets the trial's launches replay the
    golden tape wherever the trial's device state equals the golden's
    and the upset cannot fire.  Both are skipped when fault-window
    execution is globally disabled, so the reference configuration
    simulates every launch of every trial.
    """
    if (envelope is not None and not envelope.can_fire(plan)
            and fault_window_enabled()):
        return TrialRecord(
            index=index, outcome=envelope.outcome, plan=plan,
            cycles=envelope.cycles, engine="elided",
        )
    hook = FaultHook(plan, scalar_reg_ids=compiled.uniformity.uniform_regs,
                     priority_buckets=priority_buckets)
    session = Session.with_cycle_budget(cycle_budget)
    if envelope is not None:
        session.device.replay_from(envelope.tape)
    aborted = []
    try:
        run = bench.run(session, compiled, fault_hook=hook)
    except SimulationError as err:
        # A corrupted loop bound or lock word wedged the kernel: a
        # detectable-unrecoverable event (watchdog timeout or livelock
        # proof), not an SDC.  The aborted launch was simulated too.
        outcome, cycles = "hang", 0.0
        aborted = [err.engine_kind]
    else:
        outcome, cycles = classify_trial(bench, run, reference), run.cycles
    kinds = [r.engine_kind
             for r in session.device.stats.launch_results] + aborted
    simulated = [k for k in kinds if k != "replayed"]
    return TrialRecord(
        index=index, outcome=outcome, plan=plan,
        fired=hook.record.fired, description=hook.record.description,
        cycles=cycles, bucket=hook.record.bucket,
        engine=simulated[-1] if simulated else (kinds[-1] if kinds else ""),
        simulated=len(simulated), replayed=len(kinds) - len(simulated),
    )


def run_single_fault(
    bench: Benchmark,
    variant: str,
    plan: FaultPlan,
    cycle_budget: Optional[float] = None,
) -> str:
    """Run one benchmark once with one injected fault; classify it."""
    return execute_trial(bench, bench.compile(variant), plan, cycle_budget).outcome


# -- plan derivation -------------------------------------------------------


def draw_plans(
    seed: int,
    trials: int,
    target: str,
    max_wave: int = 8,
    max_instr: int = 100,
) -> List[FaultPlan]:
    """Draw every trial's fault plan from its own child seed stream.

    Plan *i* depends only on ``(seed, i)`` — not on how many plans were
    drawn before it or which shard executes it — which is what makes
    serial and sharded campaigns bit-identical.  The draws are batched
    through :func:`repro.faults.planner.draw_plan_batch`, a vectorized
    reimplementation of the per-trial child-stream derivation that is
    bit-identical to instantiating ``trial_rng(seed, i)`` per trial
    (and self-validates against it at runtime).
    """
    from .planner import draw_plan_batch

    return draw_plan_batch(seed, trials, target,
                           max_wave=max_wave, max_instr=max_instr)


# -- campaign driver -------------------------------------------------------


def run_campaign(
    make_bench: Callable[[], Benchmark],
    variant: str,
    target: str,
    trials: int = 32,
    seed: int = 1234,
    max_wave: int = 8,
    max_instr: int = 100,
    *,
    scale: Optional[str] = None,
    workers: int = 1,
    timeout_s: Optional[float] = None,
    max_retries: int = 1,
    journal: Union[str, "Journal", None] = None,
    resume: bool = False,
    telemetry=None,
    record_cap: int = DEFAULT_RECORD_CAP,
    should_stop: Optional[Callable[[], bool]] = None,
) -> CampaignResult:
    """Inject ``trials`` independent random SEUs and tally outcomes.

    ``workers > 1`` shards trials across forked worker processes with
    identical results.  ``journal`` names a JSONL file — or passes an
    already-open :class:`~repro.orchestrator.Journal` (the serve daemon
    injects one with a streaming ``on_append`` sink) — that receives
    every completed trial; with ``resume=True`` an existing journal's
    trials are skipped, so a killed campaign continues where it died.
    ``scale`` (``"small"``/``"paper"``) records which suite table built
    the kernel in the journal identity, so a resume at the wrong scale
    is rejected instead of silently mixing trials.
    ``timeout_s`` bounds each trial's wall clock (parallel mode only);
    a trial that keeps crashing or deadlining its shard is recorded as
    ``infra_error`` after ``max_retries`` re-attempts.

    ``should_stop`` is polled between trial dispatches; once true the
    campaign checkpoints: in-flight trials finish and are journaled,
    undispatched ones are abandoned, and the partial result returns with
    ``result.trials < trials`` — re-running with ``resume=True``
    completes it.  The journal is closed on *every* exit path, including
    KeyboardInterrupt, so an interrupted campaign is always resumable.
    """
    from ..orchestrator import Journal, Telemetry, run_tasks

    probe = make_bench()
    result = CampaignResult(
        benchmark=probe.abbrev, variant=variant, target=target,
        record_cap=record_cap,
    )
    # Open the journal first so an identity mismatch fails before any
    # simulation work is spent.
    meta = {
        "kind": "fault-campaign",
        "benchmark": probe.abbrev, "variant": variant, "target": target,
        "trials": trials, "seed": seed,
        "max_wave": max_wave, "max_instr": max_instr,
    }
    # ``scale`` names which suite table built the kernel (small vs paper
    # differ structurally, so their trials must never mix).  Optional for
    # callers with a bespoke make_bench; the identity checks only compare
    # keys present on both sides, so older journals stay resumable.
    if scale is not None:
        meta["scale"] = scale
    done: Dict[int, TrialRecord] = {}
    if isinstance(journal, Journal):
        jnl = journal
        mismatch = {k: (jnl.meta.get(k), v) for k, v in meta.items()
                    if k in jnl.meta and jnl.meta[k] != v}
        if mismatch:
            raise ValueError(
                f"injected journal belongs to a different campaign: {mismatch}")
    elif journal is not None:
        jnl = Journal(journal, resume=resume, meta=meta)
    else:
        jnl = None
    try:
        if jnl is not None:
            for entry in jnl.entries("trial"):
                rec = TrialRecord.from_json(entry)
                if 0 <= rec.index < trials:
                    done[rec.index] = rec

        # Compile exactly once, before fan-out: every trial reuses this
        # artifact (workers inherit it through the fork), so the lint + TV
        # certification cost is paid once per campaign, not once per trial.
        compiled = probe.compile(variant)

        # Static priority buckets are keyed by id(reg) of the compiled
        # kernel, which forked workers inherit — the analysis runs once
        # per campaign and every trial record joins to it for free.
        from ..compiler.analysis.vulnerability import register_buckets

        buckets = register_buckets(compiled.kernel)

        # Forked workers inherit the envelope (and its launch tape)
        # copy-on-write.
        envelope = golden_run(probe, compiled)

        plans = draw_plans(seed, trials, target, max_wave=max_wave,
                           max_instr=max_instr)

        tel = telemetry if telemetry is not None else Telemetry(
            label=f"{probe.abbrev}/{variant}/{target}")
        tel.start(trials, skipped=len(done))

        def run_one(index: int) -> TrialRecord:
            # Fresh benchmark instance per trial (deterministic input rng);
            # the compiled artifact and golden reference are shared.
            bench = make_bench()
            return execute_trial(bench, compiled, plans[index],
                                 envelope.budget, index=index,
                                 reference=envelope.reference,
                                 priority_buckets=buckets, envelope=envelope)

        def on_result(task_result) -> None:
            if task_result.ok:
                rec = task_result.value
            else:
                rec = TrialRecord(
                    index=task_result.task_id, outcome="infra_error",
                    plan=plans[task_result.task_id],
                    error=f"{task_result.status}: {task_result.error}",
                )
            done[rec.index] = rec
            tel.note_outcome(rec.outcome, shard=task_result.shard)
            if jnl is not None:
                jnl.append("trial", **rec.to_json())

        tasks = [(i, i) for i in range(trials) if i not in done]
        run_tasks(tasks, run_one, workers=workers, timeout_s=timeout_s,
                  max_retries=max_retries, telemetry=tel, on_result=on_result,
                  should_stop=should_stop)
        tel.finish()

        for index in sorted(done):
            result.add(done[index])
        if jnl is not None and result.trials >= trials:
            jnl.append("campaign", outcomes=dict(result.outcomes),
                       trials=result.trials, fired=result.fired,
                       telemetry=tel.summary())
    finally:
        if jnl is not None:
            jnl.close()
    return result
