"""Transient-fault injection: SEU models and campaigns."""

from .campaign import (
    DEFAULT_RECORD_CAP,
    OUTCOMES,
    CampaignResult,
    TrialRecord,
    campaign_report,
    classify_trial,
    draw_plans,
    execute_trial,
    golden_run,
    run_campaign,
    run_single_fault,
)
from .injector import TARGETS, FaultHook, FaultPlan, InjectionRecord, random_plan
from .validation import (
    ValidationReport,
    bucket_sdc_rates,
    merge_bucket_outcomes,
    spearman,
    validate_predictions,
)

__all__ = [
    "CampaignResult",
    "DEFAULT_RECORD_CAP",
    "FaultHook",
    "FaultPlan",
    "InjectionRecord",
    "OUTCOMES",
    "TARGETS",
    "TrialRecord",
    "ValidationReport",
    "bucket_sdc_rates",
    "campaign_report",
    "classify_trial",
    "draw_plans",
    "execute_trial",
    "golden_run",
    "merge_bucket_outcomes",
    "random_plan",
    "run_campaign",
    "run_single_fault",
    "spearman",
    "validate_predictions",
]
