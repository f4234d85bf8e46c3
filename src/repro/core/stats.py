"""Statistics collected by the TMI runtime (Table 3, Figures 4/7/8)."""

from dataclasses import dataclass, field


@dataclass
class TmiStats:
    """Everything the evaluation reads out of one TMI run."""

    intervals: int = 0
    records_seen: int = 0
    #: First interval whose analysis produced repair targets (1-based);
    #: Table 3's "Unrepaired (s)" in interval-seconds.
    repair_trigger_interval: int = 0
    repair_trigger_cycle: int = 0
    conversions: list = field(default_factory=list)
    commits: int = 0
    commit_pages: int = 0
    commit_bytes: int = 0
    commit_cycles: int = 0
    protected_pages: int = 0
    ptsb_flushes: int = 0
    relaxed_fast_path: int = 0
    twin_bytes_peak: int = 0
    #: Per-commit merged byte counts (feeds the commit-size histogram
    #: on the metrics surface).
    commit_sizes: list = field(default_factory=list)
    #: PEBS records lost to overflow/injection (satellite: bounded
    #: perf buffers surface their drops instead of hiding them).
    records_dropped: int = 0
    #: Repair episodes that completed / that failed and were retried.
    repair_episodes: int = 0
    repair_episode_failures: int = 0
    #: Injected PTSB commit conflicts observed.
    commit_conflicts: int = 0
    #: Pages demoted and blacklisted as unrepairable.
    pages_blacklisted: int = 0
    #: Degradation-ladder transition log (dicts; see core/ladder.py).
    degradations: list = field(default_factory=list)

    # ------------------------------------------------------------------
    def note_commit(self, info):
        self.commits += 1
        self.commit_pages += info.get("pages", 0)
        self.commit_bytes += info.get("bytes", 0)
        self.commit_sizes.append(info.get("bytes", 0))

    def t2p_microseconds(self, costs):
        """Mean thread->process conversion latency (Table 3, T2P us)."""
        if not self.conversions:
            return 0.0
        return sum(r.t2p_microseconds(costs) for r in self.conversions) \
            / len(self.conversions)

    def commits_per_interval(self):
        """Commit rate in the paper's commits/s units (interval = 1 s)."""
        active = self.intervals - max(self.repair_trigger_interval - 1, 0)
        if active <= 0 or not self.commits:
            return 0.0
        return self.commits / active

    def report(self, costs):
        return {
            "intervals": self.intervals,
            "records_seen": self.records_seen,
            "repaired": bool(self.conversions),
            "unrepaired_intervals": self.repair_trigger_interval,
            "t2p_us": round(self.t2p_microseconds(costs), 1),
            "commits": self.commits,
            "commits_per_interval": round(self.commits_per_interval(), 2),
            "commit_pages": self.commit_pages,
            "commit_bytes": self.commit_bytes,
            "protected_pages": self.protected_pages,
            "ptsb_flushes": self.ptsb_flushes,
            "relaxed_fast_path": self.relaxed_fast_path,
            "twin_bytes_peak": self.twin_bytes_peak,
            "records_dropped": self.records_dropped,
            "repair_episodes": self.repair_episodes,
            "repair_episode_failures": self.repair_episode_failures,
            "commit_conflicts": self.commit_conflicts,
            "pages_blacklisted": self.pages_blacklisted,
            "degradations": len(self.degradations),
        }
