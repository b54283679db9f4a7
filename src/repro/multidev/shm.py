"""Zero-copy array publication over ``multiprocessing.shared_memory``.

The parent packs the fused kernel's derived tables (triple-CSR candidate
structure, combined candidate pool, labels) into one shared-memory segment;
each shard worker attaches and maps read-only numpy views at the recorded
offsets.  Per round only generator states and task quotas are pickled —
never the edge arrays.  A segment can be repacked with another kernel's
tables once no view of the old ones is in use, which saves creating,
faulting in and unlinking a fresh segment per plan; workers keep their
attachment and map the new layout over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Mapping, Tuple

import numpy as np

#: Offset alignment for each packed array (cache-line sized).
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


@dataclass(frozen=True)
class PackEntry:
    """Location of one array inside the segment (picklable)."""

    name: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int


#: What a worker needs to attach: the segment name plus the entry table.
PackManifest = Tuple[str, Tuple[PackEntry, ...]]


def packed_size(arrays: Mapping[str, np.ndarray]) -> int:
    """Segment bytes :class:`SharedArrayPack` needs for ``arrays``."""
    offset = 0
    for arr in arrays.values():
        offset = _aligned(offset) + arr.nbytes
    return offset


def map_views(
    buf: memoryview, entries: Tuple[PackEntry, ...]
) -> Dict[str, np.ndarray]:
    """Read-only views of ``entries`` over a segment's buffer."""
    views: Dict[str, np.ndarray] = {}
    for entry in entries:
        view = np.ndarray(
            entry.shape,
            dtype=np.dtype(entry.dtype),
            buffer=buf,
            offset=entry.offset,
        )
        view.flags.writeable = False
        views[entry.name] = view
    return views


class SharedArrayPack:
    """Owner side: publish a mapping of numpy arrays in one segment.

    The creating process owns the segment's lifetime: :meth:`close` both
    detaches and unlinks.  Workers attach via :func:`attach_pack` with the
    picklable :attr:`manifest`.
    """

    def __init__(
        self, arrays: Mapping[str, np.ndarray], capacity: int = 0
    ) -> None:
        """Publish ``arrays`` in a new segment of at least ``capacity``
        bytes (room for a later :meth:`repack`)."""
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, packed_size(arrays), capacity)
        )
        self._closed = False
        self.repack(arrays)

    def repack(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Overwrite the segment with ``arrays`` (the caller guarantees no
        view of the previous contents is still read)."""
        if packed_size(arrays) > self.nbytes:
            raise ValueError("arrays exceed the segment's capacity")
        entries = []
        offset = 0
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            offset = _aligned(offset)
            entry = PackEntry(name, arr.dtype.str, tuple(arr.shape), offset)
            entries.append(entry)
            np.ndarray(
                entry.shape, dtype=arr.dtype, buffer=self._shm.buf,
                offset=entry.offset,
            )[...] = arr
            offset += arr.nbytes
        self._entries: Tuple[PackEntry, ...] = tuple(entries)

    @property
    def manifest(self) -> PackManifest:
        return (self._shm.name, self._entries)

    @property
    def nbytes(self) -> int:
        return self._shm.size

    def views(self) -> Dict[str, np.ndarray]:
        """Read-only views over the owner's mapping."""
        return map_views(self._shm.buf, self._entries)

    def close(self) -> None:
        """Detach and unlink (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        finally:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


def attach_pack(
    manifest: PackManifest,
) -> Tuple[shared_memory.SharedMemory, Dict[str, np.ndarray]]:
    """Worker side: attach to a published pack and map read-only views.

    Returns the segment handle (the caller must keep it alive as long as
    the views are in use, and ``close()`` it afterwards — never
    ``unlink()``, which the owner does) plus the name → view mapping.
    """
    name, entries = manifest
    shm = attach_segment(name)
    return shm, map_views(shm.buf, entries)


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to the owner's segment ``name`` without registering it.

    Python < 3.13 registers every ``SharedMemory`` attach with a resource
    tracker.  That is wrong for a non-owning attach either way: under
    *spawn* the worker's own tracker would unlink the segment when the
    worker exits, yanking it from under the owner; under *fork* the
    register/unregister messages race the owner's on the shared tracker's
    unrefcounted name set, producing spurious leak warnings.  So the
    attach below temporarily suppresses shared-memory registration — the
    owner's registration remains the single tracker entry.
    """
    try:
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register

        def _register_skip_shm(rname: str, rtype: str) -> None:
            if rtype != "shared_memory":  # pragma: no cover - defensive
                original_register(rname, rtype)

        resource_tracker.register = _register_skip_shm
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
    except ImportError:  # pragma: no cover - tracker module absent
        shm = shared_memory.SharedMemory(name=name)
    return shm
