"""Content-addressed result store: digests, puts, misses, atomicity."""

import hashlib
import json
import os

from helpers import package_copy
from repro.eval.parallel import CELL_FAILED, CELL_OK, CELL_TIMEOUT
from repro.service import (STORE_FORMAT, ResultStore, canonical_form,
                           cell_digest, engine_version,
                           package_identity, payload_bytes,
                           result_payload)

CELL = {"name": "histogram", "system": "pthreads", "scale": 0.05}


def store_in(tmp_path):
    return ResultStore(str(tmp_path / "store"))


def read_entry(path):
    """An entry's header (parsed) and its payload line (bytes)."""
    head, payload = open(path, "rb").read().split(b"\n", 1)
    return json.loads(head), payload


def write_entry(path, header, payload):
    """Rewrite an entry from a header dict and a payload line."""
    open(path, "wb").write(json.dumps(header).encode() + b"\n"
                           + payload)


class TestDigest:
    def test_dict_order_invariant(self):
        a = {"name": "h", "system": "p", "config": {"a": 1, "b": 2}}
        b = {"config": {"b": 2, "a": 1}, "system": "p", "name": "h"}
        assert cell_digest(a) == cell_digest(b)

    def test_value_sensitivity(self):
        assert cell_digest(CELL) != cell_digest(dict(CELL, scale=0.1))

    def test_engine_version_folded_in(self):
        engine = json.loads(canonical_form(CELL))["engine"]
        assert engine == engine_version()
        assert len(engine) == 64 and int(engine, 16) >= 0

    def test_engine_identity_tracks_the_code(self, tmp_path):
        """A copy of the package hashes like the original; editing one
        cost constant changes the identity."""
        copy = package_copy(tmp_path / "same", edit=False)
        assert package_identity(copy) == engine_version()
        edited = package_copy(tmp_path / "edited")
        assert package_identity(edited) != engine_version()

    def test_tmiconfig_dataclass_normalizes_like_its_dict(self):
        from repro.core.config import TmiConfig
        from dataclasses import asdict
        config = TmiConfig(period=50)
        as_obj = cell_digest(dict(CELL, config=config))
        as_dict = cell_digest(dict(CELL, config=asdict(config)))
        assert as_obj == as_dict


class TestPutGet:
    def test_round_trip(self, tmp_path):
        store = store_in(tmp_path)
        summary = {"status": "ok", "cycles": 123}
        path = store.put(CELL, CELL_OK, summary)
        assert path and os.path.exists(path)
        payload = store.get(cell_digest(CELL))
        assert payload == result_payload(CELL_OK, summary)

    def test_miss_returns_none(self, tmp_path):
        store = store_in(tmp_path)
        assert store.get(cell_digest(CELL)) is None
        assert store.misses == 1 and store.hits == 0

    def test_only_ok_cells_cached(self, tmp_path):
        store = store_in(tmp_path)
        assert store.put(CELL, CELL_FAILED, None, "boom") is None
        assert store.put(CELL, CELL_TIMEOUT, None, "slow") is None
        assert store.get(cell_digest(CELL)) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = store_in(tmp_path)
        path = store.put(CELL, CELL_OK, {"cycles": 1})
        open(path, "w").write('{"format": "repro-cell-result/1", tru')
        assert store.get(cell_digest(CELL)) is None
        # and a re-put repairs it
        store.put(CELL, CELL_OK, {"cycles": 1})
        assert store.get(cell_digest(CELL))["summary"] == {"cycles": 1}

    def test_wrong_format_tag_is_a_miss(self, tmp_path):
        store = store_in(tmp_path)
        path = store.put(CELL, CELL_OK, {"cycles": 1})
        header, payload = read_entry(path)
        header["format"] = "other/1"
        write_entry(path, header, payload)
        assert store.get(cell_digest(CELL)) is None

    def test_entry_carries_canonical_key(self, tmp_path):
        store = store_in(tmp_path)
        path = store.put(CELL, CELL_OK, {"cycles": 1})
        header, payload = read_entry(path)
        assert header["format"] == STORE_FORMAT
        assert header["digest"] == cell_digest(CELL)
        assert header["key"] == json.loads(canonical_form(CELL))
        # the payload line is the canonical bytes, checksummed as
        # written, newline included
        assert payload == payload_bytes(
            result_payload(CELL_OK, {"cycles": 1})) + b"\n"
        assert header["payload_sha256"] \
            == hashlib.sha256(payload).hexdigest()

    def test_sharded_layout_and_stats(self, tmp_path):
        store = store_in(tmp_path)
        store.put(CELL, CELL_OK, {})
        store.put(dict(CELL, scale=0.1), CELL_OK, {})
        digest = cell_digest(CELL)
        assert store.path(digest).startswith(
            os.path.join(store.root, digest[:2]))
        assert store.stats()["entries"] == 2

    def test_no_tmp_droppings(self, tmp_path):
        store = store_in(tmp_path)
        store.put(CELL, CELL_OK, {})
        leftovers = [f for _, _, files in os.walk(store.root)
                     for f in files if f.endswith(".tmp")]
        assert leftovers == []


class TestIntegrity:
    def test_tampered_payload_is_evicted(self, tmp_path):
        store = store_in(tmp_path)
        path = store.put(CELL, CELL_OK, {"cycles": 123})
        header, payload = read_entry(path)
        # bit-rot / edit
        write_entry(path, header, payload.replace(b"123", b"999"))

        assert store.get(cell_digest(CELL)) is None
        assert store.evictions == 1 and store.misses == 1
        assert not os.path.exists(path)  # evicted, not just skipped
        # and a re-put repairs it
        store.put(CELL, CELL_OK, {"cycles": 123})
        payload = store.get(cell_digest(CELL))
        assert payload["summary"] == {"cycles": 123}

    def test_entry_planted_under_wrong_name_is_evicted(self, tmp_path):
        store = store_in(tmp_path)
        path = store.put(CELL, CELL_OK, {"cycles": 1})
        other = cell_digest(dict(CELL, scale=0.1))
        wrong = store.path(other)
        os.makedirs(os.path.dirname(wrong), exist_ok=True)
        open(wrong, "w").write(open(path).read())

        # recorded digest disagrees with the requested one
        assert store.get(other) is None
        assert store.evictions == 1
        assert not os.path.exists(wrong)
        # the honest entry still serves
        assert store.get(cell_digest(CELL)) is not None

    def test_pre_checksum_entry_is_evicted(self, tmp_path):
        store = store_in(tmp_path)
        path = store.put(CELL, CELL_OK, {"cycles": 1})
        header, payload = read_entry(path)
        del header["payload_sha256"]
        write_entry(path, header, payload)
        assert store.get(cell_digest(CELL)) is None
        assert store.evictions == 1

    def test_same_value_in_other_bytes_is_evicted(self, tmp_path):
        """The checksum covers the bytes written, not the value they
        decode to: a payload line re-spaced to the same JSON value is
        evicted, not served."""
        store = store_in(tmp_path)
        path = store.put(CELL, CELL_OK, {"cycles": 1})
        header, payload = read_entry(path)
        respaced = json.dumps(json.loads(payload), sort_keys=True,
                              separators=(", ", ": ")).encode() + b"\n"
        assert respaced != payload
        assert json.loads(respaced) == json.loads(payload)
        write_entry(path, header, respaced)

        assert store.get(cell_digest(CELL)) is None
        assert store.evictions == 1
        assert not os.path.exists(path)

    def test_wrong_format_is_a_miss_but_not_evicted(self, tmp_path):
        # a foreign file is not ours to delete; only correctly-tagged
        # entries that fail their own integrity checks get evicted
        store = store_in(tmp_path)
        path = store.put(CELL, CELL_OK, {"cycles": 1})
        header, payload = read_entry(path)
        header["format"] = "other/1"
        write_entry(path, header, payload)
        assert store.get(cell_digest(CELL)) is None
        assert store.evictions == 0
        assert os.path.exists(path)

    def test_previous_format_entry_is_a_miss(self, tmp_path):
        """A one-document ``repro-cell-result/1`` entry, checksum and
        all, is another format: a miss, and the file stays."""
        store = store_in(tmp_path)
        digest = cell_digest(CELL)
        result = result_payload(CELL_OK, {"cycles": 1})
        path = store.path(digest)
        os.makedirs(os.path.dirname(path))
        json.dump({"format": "repro-cell-result/1", "digest": digest,
                   "key": json.loads(canonical_form(CELL)),
                   "payload_sha256": hashlib.sha256(
                       payload_bytes(result)).hexdigest(),
                   "result": result}, open(path, "w"))
        assert store.get(digest) is None
        assert store.misses == 1 and store.evictions == 0
        assert os.path.exists(path)

    def test_stats_reports_evictions(self, tmp_path):
        store = store_in(tmp_path)
        assert store.stats()["evictions"] == 0
        path = store.put(CELL, CELL_OK, {})
        header, payload = read_entry(path)  # payload fine, but
        header["payload_sha256"] = "0" * 64  # the checksum is not
        write_entry(path, header, payload)
        store.get(cell_digest(CELL))
        assert store.stats()["evictions"] == 1


class TestPayloadBytes:
    def test_canonical_and_order_free(self):
        a = payload_bytes({"status": "ok", "summary": {"x": 1}})
        b = payload_bytes({"summary": {"x": 1}, "status": "ok"})
        assert a == b and b"\n" not in a
