"""Workload generation: requests, programs, traces and their statistics."""

from .conversation import ConversationConfig, ConversationWorkload, UserProfile, arena_config
from .diurnal import COUNTRY_PROFILES, DiurnalPattern, generate_daily_trace
from .lengths import (
    ARENA_LIKE,
    TOT_LIKE,
    WILDCHAT_LIKE,
    LengthDistribution,
    LengthSampler,
    WorkloadLengths,
)
from .program import Program
from .request import Request, RequestStatus, TokenSeq
from .streams import DiurnalRequestStream
from .tokens import TokenFactory
from .traces import RegionalTrace
from .tree_of_thoughts import TreeOfThoughtsConfig, TreeOfThoughtsWorkload

__all__ = [
    "Request",
    "RequestStatus",
    "TokenSeq",
    "Program",
    "TokenFactory",
    "LengthDistribution",
    "LengthSampler",
    "WorkloadLengths",
    "WILDCHAT_LIKE",
    "ARENA_LIKE",
    "TOT_LIKE",
    "ConversationConfig",
    "ConversationWorkload",
    "UserProfile",
    "arena_config",
    "TreeOfThoughtsConfig",
    "TreeOfThoughtsWorkload",
    "DiurnalPattern",
    "COUNTRY_PROFILES",
    "generate_daily_trace",
    "RegionalTrace",
    "DiurnalRequestStream",
]
