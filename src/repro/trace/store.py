"""Trace persistence: save/load experiment bundles as ``.npz`` archives.

A bundle holds everything needed to re-run the analysis without re-running
the simulation: the transfer log, signaling intervals, host table and a
JSON metadata blob (profile name, duration, seed).  The NAPA-WINE project
distributed its traces to the community on request; this is our equivalent
exchange format.
"""

from __future__ import annotations

import hashlib
import io
import json
import warnings
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import TraceError, TraceWarning
from repro.obs.log import get_logger
from repro.trace.hosts import HOST_DTYPE, HostTable
from repro.trace.records import SIGNALING_DTYPE, TRANSFER_DTYPE, empty_transfers

_log = get_logger("trace.store")

#: Format marker; bump on incompatible layout changes.
FORMAT_VERSION = 1


@dataclass
class TraceBundle:
    """One saved experiment: raw logs + ground truth + metadata."""

    transfers: np.ndarray
    signaling: np.ndarray
    hosts: HostTable
    meta: dict

    def __post_init__(self) -> None:
        if self.transfers.dtype != TRANSFER_DTYPE:
            raise TraceError("bundle transfers have wrong dtype")
        if self.signaling.dtype != SIGNALING_DTYPE:
            raise TraceError("bundle signaling has wrong dtype")

    @classmethod
    def from_result(cls, result) -> "TraceBundle":
        """Build a bundle from a :class:`SimulationResult`."""
        meta = {
            "profile": result.profile.name,
            "duration_s": result.config.duration_s,
            "seed": result.config.seed,
            "swarm_size": result.profile.swarm_size,
            "scheduler": getattr(result.profile, "scheduler", "mesh-pull"),
            "events": result.events_processed,
            # The synthetic Internet is a pure function of its seed; storing
            # it lets analysis rebuild the exact path model (for TTLs).
            "world_seed": result.world.config.seed,
            "subnet_prefixlen": result.world.config.subnet_prefixlen,
        }
        return cls(
            transfers=result.transfers,
            signaling=result.signaling,
            hosts=result.hosts,
            meta=meta,
        )


def trace_digest(*arrays: np.ndarray) -> str:
    """SHA-256 over the exact bytes of one or more numpy arrays.

    Dtype and shape are folded into the hash so a reinterpretation of the
    same buffer cannot collide.  The engine's structured dtypes are packed
    (no padding bytes), which makes ``tobytes()`` — and therefore this
    digest — a byte-exact fingerprint of a simulation's output; the golden
    determinism suite pins :func:`repro.streaming.engine.simulate` output
    per application with it.
    """
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode("utf-8"))
        h.update(str(a.shape).encode("utf-8"))
        h.update(a.tobytes())
    return h.hexdigest()


def save_trace_bundle(path: str | Path, bundle: TraceBundle) -> Path:
    """Write a bundle to ``path`` (``.npz`` appended if missing)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    meta = dict(bundle.meta)
    meta["format_version"] = FORMAT_VERSION
    np.savez_compressed(
        path,
        transfers=bundle.transfers,
        signaling=bundle.signaling,
        hosts=bundle.hosts.rows,
        meta=np.array(json.dumps(meta)),
    )
    return path


def load_trace_bundle(
    path: str | Path, *, strict: bool = True, telemetry=None
) -> TraceBundle:
    """Read a bundle written by :func:`save_trace_bundle`.

    With ``strict=False`` a damaged archive (truncated download, disk
    full mid-write) is *salvaged*: the raw zip stream is scanned for
    member files, each member's complete row prefix is recovered, missing
    members fall back to empty arrays, and every degradation emits a
    :class:`TraceWarning` instead of raising :class:`TraceError`.

    ``telemetry`` (an optional :class:`~repro.obs.telemetry.Telemetry`)
    tallies ``trace/bundles_loaded``, ``trace/salvaged_bundles`` and a
    ``trace/salvage_warnings`` count of individual degradations.
    """
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace bundle not found: {path}")
    try:
        # Hand np.load an open file object: on a failed zip probe it
        # abandons (not closes) the handle, so owning it avoids a
        # ResourceWarning in the salvage path.
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            raw = {name: np.asarray(data[name]) for name in data.files}
    except (zipfile.BadZipFile, OSError, ValueError, EOFError) as exc:
        if strict:
            raise TraceError(f"{path}: unreadable trace bundle: {exc}") from exc
        warnings.warn(
            f"{path}: unreadable as an archive ({exc}); scanning raw zip "
            "members for salvageable prefixes",
            TraceWarning,
            stacklevel=2,
        )
        _log.warning("bundle-salvage", path=str(path), error=str(exc))
        if telemetry is not None:
            telemetry.count("trace/salvaged_bundles")
            telemetry.count("trace/salvage_warnings")
        raw = _salvage_npz_members(path.read_bytes())

    def degraded(message: str) -> None:
        if strict:
            raise TraceError(f"{path}: {message}")
        if telemetry is not None:
            telemetry.count("trace/salvage_warnings")
        _log.warning("bundle-degraded", path=str(path), detail=message)
        warnings.warn(f"{path}: {message}", TraceWarning, stacklevel=3)

    def member(name: str, dtype: np.dtype, fallback: np.ndarray) -> np.ndarray:
        if name not in raw:
            degraded(f"not a trace bundle: missing '{name}'")
            return fallback
        return np.asarray(raw[name], dtype=dtype)

    transfers = member("transfers", TRANSFER_DTYPE, empty_transfers())
    signaling = member("signaling", SIGNALING_DTYPE, np.empty(0, dtype=SIGNALING_DTYPE))
    hosts = HostTable(member("hosts", HOST_DTYPE, np.empty(0, dtype=HOST_DTYPE)))

    meta: dict = {}
    if "meta" not in raw:
        degraded("not a trace bundle: missing 'meta'")
    else:
        try:
            meta = json.loads(str(raw["meta"]))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            degraded(f"unreadable metadata ({exc}); continuing without")
    version = meta.pop("format_version", None)
    if version != FORMAT_VERSION:
        degraded(
            f"unsupported bundle format {version!r} (expected {FORMAT_VERSION})"
        )
    if telemetry is not None:
        telemetry.count("trace/bundles_loaded")
    _log.debug(
        "bundle-loaded",
        path=str(path),
        transfers=len(transfers),
        signaling=len(signaling),
        hosts=len(hosts.rows),
    )
    return TraceBundle(transfers=transfers, signaling=signaling, hosts=hosts, meta=meta)


def _salvage_npz_members(data: bytes) -> dict[str, np.ndarray]:
    """Best-effort member recovery from a damaged ``.npz`` byte stream.

    An ``.npz`` is a zip archive whose central directory sits at the end —
    exactly the part a truncation destroys.  The local file headers
    survive, so this scans for them, inflates each member's deflate
    stream as far as it goes, and decodes whatever complete ``.npy`` rows
    the inflated prefix holds.  Members whose payload is damaged beyond
    the header are simply absent from the result.
    """
    members: dict[str, np.ndarray] = {}
    offset = 0
    while True:
        idx = data.find(b"PK\x03\x04", offset)
        if idx < 0 or idx + 30 > len(data):
            break
        method = int.from_bytes(data[idx + 8 : idx + 10], "little")
        name_len = int.from_bytes(data[idx + 26 : idx + 28], "little")
        extra_len = int.from_bytes(data[idx + 28 : idx + 30], "little")
        name_start = idx + 30
        name = data[name_start : name_start + name_len].decode("utf-8", "replace")
        payload_start = name_start + name_len + extra_len
        offset = idx + 4  # default resume point: just past this marker
        if payload_start >= len(data):
            break
        payload = data[payload_start:]
        if method == 8:  # deflate (np.savez_compressed)
            inflater = zlib.decompressobj(-zlib.MAX_WBITS)
            try:
                buf = inflater.decompress(payload)
            except zlib.error:
                continue
            if inflater.eof:
                offset = payload_start + len(payload) - len(inflater.unused_data)
        elif method == 0:  # stored (np.savez)
            size = int.from_bytes(data[idx + 18 : idx + 22], "little")
            buf = payload[:size] if size else payload
            if size:
                offset = payload_start + size
        else:
            continue
        array = _npy_prefix(buf)
        if array is not None and name.endswith(".npy"):
            members[name[: -len(".npy")]] = array
    return members


def _npy_prefix(buf: bytes) -> np.ndarray | None:
    """Decode the complete-row prefix of a (possibly truncated) ``.npy``."""
    fp = io.BytesIO(buf)
    try:
        version = np.lib.format.read_magic(fp)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fp)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(fp)
        else:
            return None
    except Exception:
        return None
    if fortran or dtype.hasobject:
        return None
    body = buf[fp.tell():]
    if shape == ():  # 0-d scalar (the metadata blob): all or nothing
        if len(body) < dtype.itemsize:
            return None
        return np.frombuffer(body[: dtype.itemsize], dtype=dtype).reshape(())
    if len(shape) != 1:
        return None
    rows = min(shape[0], len(body) // dtype.itemsize)
    return np.frombuffer(body[: rows * dtype.itemsize], dtype=dtype).copy()


def rebuild_world(bundle: TraceBundle):
    """Reconstruct the synthetic Internet a bundle was captured on.

    The world (AS registry, graph wiring, path jitter) is a deterministic
    function of its seed, and the Table I testbed deployment consumes the
    world's allocators in a fixed order — so replaying both yields the
    exact path model the capture saw.
    """
    from repro.topology.testbed import build_napa_wine_testbed
    from repro.topology.world import World, WorldConfig

    try:
        config = WorldConfig(
            seed=int(bundle.meta["world_seed"]),
            subnet_prefixlen=int(bundle.meta.get("subnet_prefixlen", 24)),
        )
    except KeyError as exc:
        raise TraceError("bundle lacks world_seed; cannot rebuild paths") from exc
    world = World(config)
    build_napa_wine_testbed(world)
    return world
