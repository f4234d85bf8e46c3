"""Versioned campaign specifications (``repro-campaign-spec/1``).

A :class:`CampaignSpec` is the unit of work a client submits to the
campaign service: one grid, the workload/system/config axes to cross
at one scale, and a scheduling priority.  Specs are validated eagerly
at construction — an unknown workload, a misspelled TMI config knob
or a name that is not a plain file name fails at submission time with a
:class:`~repro.errors.CampaignSpecError`, not an hour later inside a
worker process — and serialize to a stable JSON document whose digest
contributes the campaign's identity.

:meth:`CampaignSpec.cells` expands the spec into the exact keyword
dicts :func:`repro.eval.runner.run_workload` takes, which is also the
identity the content-addressed store hashes: two specs that overlap on
some (workload, system, config) tuples will derive the same
digests for those cells and share results.
"""

import itertools
import json
import re
from dataclasses import dataclass, fields as dc_fields

from repro.core.config import TmiConfig, check_detect_interval
from repro.errors import CampaignSpecError, DetectIntervalError
from repro.eval.systems import SYSTEM_NAMES
from repro.service import store
from repro.sim.costs import DEFAULT_COSTS
from repro.workloads import has as workload_exists

#: Versioned spec format tag.
SPEC_FORMAT = "repro-campaign-spec/1"

#: What a campaign name or id may be: each becomes part of a file name.
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")

#: Valid TMI config override keys (the TmiConfig field names).
CONFIG_KEYS = frozenset(f.name for f in dc_fields(TmiConfig))

#: Specs whose cell digests :meth:`CampaignSpec.cell_digests` keeps;
#: the oldest entry goes first.
DIGEST_MEMO_SPECS = 64

#: ``(engine identity, canonical spec text)`` -> the spec's cell
#: digests, in :meth:`CampaignSpec.cells` order.
_CELL_DIGESTS = {}


def _is_int(value):
    """An int that is not a bool (JSON ``true`` is not a count)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    """An int or float that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_name(value, what):
    """Raise :class:`CampaignSpecError` unless ``value`` is a string
    matching :data:`NAME_PATTERN`; ``what`` names it in the error."""
    if not (isinstance(value, str) and NAME_PATTERN.fullmatch(value)):
        raise CampaignSpecError(
            f"bad {what} {value!r} (allowed: {NAME_PATTERN.pattern})")


def _tuple(value):
    if value is None:
        return ()
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


@dataclass
class CampaignSpec:
    """One experiment-campaign request: the grid
    ``workloads x systems x configs`` at one ``scale``."""

    workloads: tuple
    systems: tuple = ("pthreads",)
    #: TMI config override dicts; one empty dict = the stock config.
    configs: tuple = ({},)
    scale: float = 0.1
    nthreads: object = None
    #: Lower runs sooner (the scheduler's heap ordering).
    priority: int = 0
    #: Campaign id stem (``grid`` when empty).
    name: str = ""

    def __post_init__(self):
        self.workloads = _tuple(self.workloads)
        self.systems = _tuple(self.systems)
        self.configs = tuple(dict(c) for c in _tuple(self.configs)) \
            or ({},)
        self.validate()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self):
        """Raise :class:`CampaignSpecError` on any malformed field."""
        if not self.workloads:
            raise CampaignSpecError("a campaign needs >= 1 workload")
        for name in self.workloads:
            if not workload_exists(name):
                raise CampaignSpecError(f"unknown workload {name!r}")
        if not self.systems:
            raise CampaignSpecError("a campaign needs >= 1 system")
        for system in self.systems:
            if system not in SYSTEM_NAMES:
                raise CampaignSpecError(
                    f"unknown system {system!r} "
                    f"(known: {list(SYSTEM_NAMES)})")
        for config in self.configs:
            unknown = set(config) - CONFIG_KEYS
            if unknown:
                raise CampaignSpecError(
                    f"unknown TMI config key(s) {sorted(unknown)}")
            for key, value in config.items():
                # every TmiConfig knob is an int, float or bool
                if not isinstance(value, (int, float)):
                    raise CampaignSpecError(
                        f"TMI config {key!r} must be a number "
                        f"(got {value!r})")
            if "detect_interval_cycles" in config:
                # campaign cells run with the default cost model
                try:
                    check_detect_interval(
                        config["detect_interval_cycles"], DEFAULT_COSTS)
                except DetectIntervalError as exc:
                    raise CampaignSpecError(str(exc)) from exc
        if not (_is_number(self.scale) and self.scale > 0):
            raise CampaignSpecError(f"bad scale {self.scale!r}")
        if self.nthreads is not None and not (
                _is_int(self.nthreads) and self.nthreads > 0):
            raise CampaignSpecError(f"bad nthreads {self.nthreads!r}")
        if not _is_int(self.priority):
            raise CampaignSpecError(f"bad priority {self.priority!r}")
        if self.name != "":
            check_name(self.name, "campaign name")

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------
    def cells(self):
        """The spec's cell list: ``run_workload`` keyword dicts.

        This expansion *is* the cache identity — the content-addressed
        store hashes exactly these dicts.
        """
        out = []
        axes = itertools.product(self.workloads, self.systems,
                                 self.configs)
        for workload, system, config in axes:
            cell = {"name": workload, "system": system,
                    "scale": self.scale}
            if self.nthreads is not None:
                cell["nthreads"] = self.nthreads
            if config:
                cell["config"] = dict(config)
            out.append(cell)
        return out

    def cell_digests(self):
        """The store digest of each of :meth:`cells`, in order.

        Memoized per process under the engine identity and the full
        :meth:`canonical_text`, which holds every field that reaches
        :meth:`cells` (the short :meth:`digest` could collide).
        """
        key = (store.engine_version(), self.canonical_text())
        digests = _CELL_DIGESTS.get(key)
        if digests is None:
            digests = tuple(store.cell_digest(cell)
                            for cell in self.cells())
            if len(_CELL_DIGESTS) >= DIGEST_MEMO_SPECS:
                del _CELL_DIGESTS[next(iter(_CELL_DIGESTS))]
            _CELL_DIGESTS[key] = digests
        return digests

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self):
        """The spec as a stable ``repro-campaign-spec/1`` document."""
        return {"format": SPEC_FORMAT,
                "workloads": list(self.workloads),
                "systems": list(self.systems),
                "configs": [dict(c) for c in self.configs],
                "scale": self.scale, "nthreads": self.nthreads,
                "priority": self.priority, "name": self.name}

    @classmethod
    def from_dict(cls, data):
        """Rebuild a spec from :meth:`to_dict` output (format-guarded)."""
        if not isinstance(data, dict) \
                or data.get("format") != SPEC_FORMAT:
            tag = data.get("format") if isinstance(data, dict) else None
            raise CampaignSpecError(
                f"unsupported campaign spec format {tag!r} "
                f"(expected {SPEC_FORMAT})")
        kwargs = {k: v for k, v in data.items() if k != "format"}
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise CampaignSpecError(f"malformed spec: {exc}") from exc

    def save(self, path):
        """Write the spec JSON to ``path`` (atomic); returns the path."""
        return store.write_json(path, self.to_dict())

    @classmethod
    def load(cls, path):
        """Read a spec JSON from ``path`` (typed errors on bad input)."""
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CampaignSpecError(
                f"spec {path}: corrupted JSON ({exc})") from exc
        except OSError as exc:
            raise CampaignSpecError(
                f"spec {path}: unreadable ({exc})") from exc
        return cls.from_dict(data)

    def canonical_text(self):
        """The spec as sorted, compact JSON (every field)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self, length=10):
        """Short stable digest of the spec (campaign-id material)."""
        import hashlib
        return hashlib.sha256(
            self.canonical_text().encode()).hexdigest()[:length]
