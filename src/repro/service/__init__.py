"""The compile-service layer (compiler-as-a-service).

The paper's pipeline — align (§3), distribute (§4), DP over
redistribution chains — is a pure function of ``(program, machine,
alpha/tf/tc, N, env)``.  This package makes that purity pay:

* :mod:`repro.service.normalize` — canonicalization of the loop-nest IR
  (alpha-renaming, commutative sorting) into a stable text form, hashed
  together with the machine parameters into a content-addressed digest;
* :mod:`repro.service.cache` — :class:`PlanCache`, a two-tier
  (in-memory LRU + on-disk) store from digest to pickled compile
  artifacts, with hit/miss/eviction counters;
* :mod:`repro.service.guests` — the front-end registry: the Fortran
  style DSL is the ``dsl`` guest, decorated Python loop nests are the
  ``python-ast`` guest, and tool-facing JSON documents are the
  ``json-ir`` guest; all three lower into the same :class:`Program` IR
  and therefore share cache entries;
* :mod:`repro.service.compiler` — :class:`CompileService` (also
  :class:`repro.api.Session`): single requests, ``compile_batch``
  (alignment/DP sub-results shared across programs hashing to common
  sub-keys) and a job queue on a thread-pool executor, each request
  wrapped in a wall-clock span on the compiler Perfetto lane;
* :mod:`repro.service.supervisor` — :class:`WorkerSupervisor`, the
  supervised subprocess pool behind ``workers``: crash detection,
  capped-backoff respawn, bounded retries, per-request deadlines, and
  deterministic chaos injection for the crash drills (see
  docs/RESILIENCE.md).  Its knobs are its own parameters; a service
  takes a built one as ``workers``.

:mod:`repro.api` re-exports this package's public classes under the
user-facing names; see docs/API.md.
"""

from __future__ import annotations

from repro.service.cache import PlanCache
from repro.service.compiler import CompileService
from repro.service.supervisor import WorkerSupervisor
from repro.service.guests import lower, program_to_json, register_guest
from repro.service.normalize import canonicalize, program_digest, solve_digest

__all__ = [
    "canonicalize",
    "program_digest",
    "solve_digest",
    "PlanCache",
    "register_guest",
    "lower",
    "program_to_json",
    "CompileService",
    "WorkerSupervisor",
]
