"""Shared-memory namespace: file-backed regions, names, exhaustion."""

import pytest

from repro.errors import (InvalidMappingError, ShmError,
                          ShmExhaustedError, ShmNameError,
                          ShmSizeMismatchError)
from repro.faults import FaultInjector
from repro.oskit.shm import SharedMemoryNamespace
from repro.sim.physmem import PhysicalMemory


class TestShm:
    def test_shm_open_creates_file_backed_region(self, physmem):
        ns = SharedMemoryNamespace(physmem)
        region = ns.shm_open("tmi-app", 1 << 20)
        assert region.file_backed
        assert region.nbytes == 1 << 20

    def test_reopen_returns_same_region(self, physmem):
        ns = SharedMemoryNamespace(physmem)
        a = ns.shm_open("x", 4096)
        b = ns.shm_open("x", 4096)
        assert a is b

    def test_reopen_with_different_size_rejected(self, physmem):
        ns = SharedMemoryNamespace(physmem)
        ns.shm_open("x", 4096)
        with pytest.raises(InvalidMappingError):
            ns.shm_open("x", 8192)

    def test_unlink_allows_fresh_region(self, physmem):
        ns = SharedMemoryNamespace(physmem)
        a = ns.shm_open("x", 4096)
        ns.shm_unlink("x")
        b = ns.shm_open("x", 4096)
        assert a is not b

    def test_names_listing(self, physmem):
        ns = SharedMemoryNamespace(physmem)
        ns.shm_open("b", 4096)
        ns.shm_open("a", 4096)
        assert ns.names() == ["a", "b"]


class TestShmErrorPaths:
    def test_size_mismatch_error_carries_context(self, physmem):
        ns = SharedMemoryNamespace(physmem)
        ns.shm_open("x", 4096)
        with pytest.raises(ShmSizeMismatchError) as excinfo:
            ns.shm_open("x", 8192)
        message = str(excinfo.value)
        assert "x" in message and "4096" in message and "8192" in message
        # back-compat: still an InvalidMappingError for old callers
        assert isinstance(excinfo.value, InvalidMappingError)

    def test_unlink_unknown_name_raises(self, physmem):
        ns = SharedMemoryNamespace(physmem)
        ns.shm_open("known", 4096)
        with pytest.raises(ShmNameError) as excinfo:
            ns.shm_unlink("ghost")
        assert "ghost" in str(excinfo.value)
        assert "known" in str(excinfo.value)   # names the live regions
        assert isinstance(excinfo.value, ShmError)

    def test_capacity_exhaustion_raises(self, physmem):
        ns = SharedMemoryNamespace(physmem, capacity=2)
        ns.shm_open("a", 4096)
        ns.shm_open("b", 4096)
        with pytest.raises(ShmExhaustedError, match="capacity"):
            ns.shm_open("c", 4096)
        # reopening an existing region still works at capacity
        assert ns.shm_open("a", 4096) is not None

    def test_injected_exhaustion_fires(self, physmem):
        faults = FaultInjector(seed=0, rates={"shm.exhausted": 1.0})
        ns = SharedMemoryNamespace(physmem, faults=faults)
        with pytest.raises(ShmExhaustedError, match="injected"):
            ns.shm_open("a", 4096)
        assert faults.fired_counts() == {"shm.exhausted": 1}

