"""TMI configuration knobs.

Defaults correspond to the paper's evaluated configuration: perf sample
period 100, huge pages enabled with the optimized commit path, targeted
page protection, and code-centric consistency on (sections 4.1, 4.4).

Time base: the paper's detector analyzes accumulated HITM records "once
per second" on minute-long native inputs.  Our simulated inputs are
scaled down ~1000x, so one *detection interval* plays the role of one
second; rate-like quantities (repair threshold, Table 3's commits/s and
unrepaired seconds) are expressed per interval and reported in
interval-seconds.  EXPERIMENTS.md documents this substitution.
"""

from dataclasses import dataclass

from repro.errors import DetectIntervalError
from repro.sim.costs import PAGE_2M, PAGE_4K


@dataclass
class TmiConfig:
    """Tunable parameters of the TMI runtime."""

    #: perf sample period (HITM events per PEBS record), Figure 4.
    period: int = 100
    #: Detection-interval length in cycles (the "once per second" analog).
    detect_interval_cycles: int = 150_000
    #: Estimated HITM events per interval on one cache line above which
    #: the line is considered *significant* sharing (the paper repairs
    #: structures producing >100k HITM events/second).
    repair_threshold_events: int = 100
    #: Use 2 MB huge pages for the process-shared application region
    #: (the paper's default; Figure 10 compares against 4 KB).
    huge_pages: bool = True
    #: memcmp-prefilter optimization for huge-page commits (section 4.4).
    huge_commit_optimization: bool = True
    #: Targeted page protection (False = PTSB-everywhere ablation).
    targeted: bool = True
    #: When the application region uses huge pages, remap a targeted
    #: 2 MB page as 4 KB pages before protecting it, so diff/commit
    #: work at 4 KB granularity (the paper notes 4 KB pages cut commit
    #: costs ~5x, section 4.4; at our ~1000x-scaled inputs whole-huge-
    #: page commits would dominate runs).  False = paper-literal 2 MB
    #: protection, used by the huge-commit ablation.
    repair_page_split: bool = True
    #: Code-centric consistency callbacks honored (False = ablation;
    #: UNSAFE: reproduces Sheriff-style corruption).
    code_centric: bool = True
    #: Enable the repair mechanism at all (False = tmi-detect).
    enable_repair: bool = True
    #: Hard cap on pages protected per repair episode.
    max_repair_pages: int = 64
    #: Retries granted to a faulting repair action (ptrace attach
    #: rounds, per-thread fork) before the episode counts as failed.
    fault_retry_limit: int = 3
    #: Consecutive failed repair episodes before the ladder degrades
    #: ``protect`` -> ``detect``.
    episode_failure_budget: int = 3
    #: Lost PEBS records (drops + overflows) tolerated before the
    #: ladder degrades one level (detection data untrustworthy).
    perf_fault_budget: int = 2_048
    #: Detection intervals a degraded ladder waits before re-arming
    #: one level up.
    ladder_cooldown_intervals: int = 8
    #: Flush the PTSB on relaxed atomics too (False = code-centric
    #: consistency's relaxed fast path; True = the conservative policy
    #: the code-centric ablation compares against).
    flush_relaxed: bool = False

    @property
    def app_page_size(self):
        return PAGE_2M if self.huge_pages else PAGE_4K


def check_detect_interval(interval, costs):
    """Raise :class:`~repro.errors.DetectIntervalError` unless a
    detection interval of ``interval`` cycles is above ``costs``'
    fixed analysis cost per interval (``detect_fixed``), the least
    each tick charges the service core."""
    if not interval > costs.detect_fixed:
        raise DetectIntervalError(interval, costs.detect_fixed)
