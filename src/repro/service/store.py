"""Content-addressed result store for campaign cells.

Every grid cell is a pure function of its keyword arguments plus the
engine version: the simulator is deterministic, so two campaigns that
name the same (workload, system, config, seed) tuple would compute the
same bytes twice.  The store makes the second computation free — a
cell's result is filed under the SHA-256 of its *canonical form*
(:func:`canonical_form`), and any campaign that derives the same digest
gets the stored result back byte-identical.

Canonicalization rules, pinned by the hypothesis property tests in
``tests/service/test_cache_key.py``:

- dict keys (the config dict above all) are sorted, so key order never
  changes the digest;
- host-side execution knobs — ``REPRO_JOBS``, shard sizes, timeouts —
  are simply *not part of the cell*, so they cannot perturb the key;
- the engine identity (:func:`engine_version`, a hash of every
  ``.py`` file of the ``repro`` package) is folded in, so any change to
  the code invalidates the whole cache instead of serving stale
  cycles;
- distinct cells serialize to distinct canonical strings (JSON of a
  sorted finite structure is injective up to value equality).

Only harness-``ok`` results are stored: a failed or timed-out cell is
worth re-attempting on the next submission, not caching.  The store is
also the campaign service's only checkpoint (see
:mod:`repro.service.scheduler`), so a stale entry would be served as a
resume as well as a cache hit; that is why the engine identity is
taken from the code rather than from a version string.
"""

import functools
import hashlib
import json
import os

from repro.eval.parallel import CELL_OK
from repro.eval.report import results_dir

#: Versioned store-entry format tag.
STORE_FORMAT = "repro-cell-result/1"


#: The ``repro`` package directory (this file is ``service/store.py``).
PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def package_identity(root):
    """SHA-256 over every ``.py`` file under ``root``: each file's
    sorted relative path plus its bytes.

    The whole package is hashed, not a list of simulator directories:
    a payload also depends on the runner, the grid's summary and the
    store's own payload format, and a list would go stale.
    """
    paths = []
    for directory, _, names in os.walk(root):
        paths.extend(os.path.relpath(os.path.join(directory, name), root)
                     for name in names if name.endswith(".py"))
    digest = hashlib.sha256()
    for rel in sorted(path.replace(os.sep, "/") for path in paths):
        with open(os.path.join(root, rel), "rb") as fh:
            data = fh.read()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def engine_version():
    """This process's engine identity: :func:`package_identity` of the
    ``repro`` package, computed once, on first use (not at import)."""
    return package_identity(PACKAGE_DIR)


def write_json(path, data):
    """Atomically write ``data`` as sorted, indented JSON (tmp +
    rename, so readers never see half a file); returns ``path``."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def _normalize(value):
    """Reduce a cell value to plain JSON-stable types (recursively)."""
    if isinstance(value, dict):
        return {str(k): _normalize(value[k]) for k in value}
    if isinstance(value, (list, tuple)):
        return [_normalize(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    # dataclass configs (TmiConfig) degrade to their field dict
    fields = getattr(value, "__dataclass_fields__", None)
    if fields is not None:
        return {name: _normalize(getattr(value, name))
                for name in sorted(fields)}
    return str(value)


def canonical_form(cell):
    """The canonical serialized identity of one cell (a JSON string).

    Sorted keys and compact separators make the serialization a pure
    function of the cell's *value*, not of dict insertion order; the
    engine identity rides along so results never outlive the code
    that computed them.
    """
    return json.dumps({"cell": _normalize(dict(cell)),
                       "engine": engine_version()},
                      sort_keys=True, separators=(",", ":"))


def cell_digest(cell):
    """SHA-256 hex digest of the cell's canonical form."""
    return hashlib.sha256(canonical_form(cell).encode()).hexdigest()


def result_payload(status, summary, error=""):
    """The JSON-stable result document cached for one cell.

    Deliberately excludes harness transients (``retried``, worker pids,
    wall-clock): the payload must be byte-identical between a cached
    cell and the same cell freshly executed through
    :func:`~repro.eval.parallel.run_cells_recorded`.
    """
    return {"status": status, "summary": summary, "error": error}


def payload_bytes(payload):
    """Canonical byte serialization of a result payload."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode()


class ResultStore:
    """Filesystem-backed content-addressed cell-result cache.

    Entries live under ``<root>/<digest[:2]>/<digest>.json`` (two-level
    fan-out keeps directories small).  Writes are atomic (tmp +
    rename) so a crashed writer can never leave a half-entry that later
    reads as a corrupt hit; an unreadable entry is treated as a miss
    and overwritten by the next put.
    """

    def __init__(self, root=None):
        self.root = root or os.path.join(results_dir(), "store")
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def path(self, digest):
        """Where the entry for ``digest`` lives."""
        return os.path.join(self.root, digest[:2], f"{digest}.json")

    def get(self, digest):
        """The cached result payload for ``digest``, or None (miss).

        Integrity is verified before serving: the entry's recorded
        digest must match the requested one and the payload must
        re-hash to the entry's ``payload_sha256`` (written by
        :meth:`put`).  A well-formed entry that fails either check —
        a file planted under the wrong name, a payload edited after
        the fact, a pre-checksum entry — is *evicted* and counted as
        a miss rather than served as a corrupt hit.
        """
        path = self.path(digest)
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        if not isinstance(data, dict) \
                or data.get("format") != STORE_FORMAT:
            self.misses += 1
            return None
        result = data.get("result")
        intact = (data.get("digest") == digest
                  and isinstance(result, dict)
                  and data.get("payload_sha256")
                  == hashlib.sha256(
                      payload_bytes(result)).hexdigest())
        if not intact:
            try:
                os.remove(path)
            except OSError:
                pass
            self.evictions += 1
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, cell, status, summary, error=""):
        """Store one cell's result; returns the entry path or None.

        Only harness-``ok`` cells are cached — failures and timeouts
        must be re-attempted, not replayed from the cache.
        """
        if status != CELL_OK:
            return None
        digest = cell_digest(cell)
        result = result_payload(status, summary, error)
        return write_json(self.path(digest), {
            "format": STORE_FORMAT, "digest": digest,
            "key": json.loads(canonical_form(cell)),
            "payload_sha256": hashlib.sha256(
                payload_bytes(result)).hexdigest(),
            "result": result})

    def stats(self):
        """Hit/miss counters plus the number of entries on disk."""
        entries = 0
        if os.path.isdir(self.root):
            for shard in os.listdir(self.root):
                shard_dir = os.path.join(self.root, shard)
                if os.path.isdir(shard_dir):
                    entries += sum(1 for f in os.listdir(shard_dir)
                                   if f.endswith(".json"))
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "entries": entries}
