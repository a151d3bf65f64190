"""Simulation-as-a-service: HTTP job server + content-addressed cache.

``python -m repro.serve serve <root>`` boots the service; clients
submit (config, trace-spec) jobs and get cached, deduplicated answers.
See :mod:`repro.serve.server` for the durability contract and
:mod:`repro.serve.jobs` for how jobs are keyed.
"""

from repro.serve.cache import (
    CACHE_KIND,
    CACHE_SCHEMA,
    CacheEntry,
    ResultCache,
    cache_address,
)
from repro.serve.client import (
    ServeClient,
    ServeRequestError,
    ServeUnavailable,
)
from repro.serve.executor import JobResult, run_job
from repro.serve.jobs import (
    JOB_FIELDS,
    JOB_STATES,
    JOBS_FORMAT,
    JOBS_VERSION,
    JobError,
    JobJournal,
    JobSpec,
    parse_job,
)
from repro.serve.server import ServeServer, ServeState

__all__ = [
    "CACHE_KIND",
    "CACHE_SCHEMA",
    "CacheEntry",
    "JOB_FIELDS",
    "JOB_STATES",
    "JOBS_FORMAT",
    "JOBS_VERSION",
    "JobError",
    "JobJournal",
    "JobResult",
    "JobSpec",
    "ResultCache",
    "ServeClient",
    "ServeRequestError",
    "ServeServer",
    "ServeState",
    "ServeUnavailable",
    "cache_address",
    "parse_job",
    "run_job",
]
