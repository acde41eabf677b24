"""Predictor backends mapping a cubic intensity patch to a probability patch.

Four backends share one interface: a constant map, a ground-truth oracle, a
noisy oracle that corrupts the oracle output with seeded false positives and
deletion holes, and an external subprocess speaking a little-endian binary
protocol.

Predictors receive the patch origin alongside the intensities so oracle
backends can look up ground truth at the right location.
"""

from __future__ import annotations

import math
import os
import select
import struct
import subprocess
import time
from dataclasses import dataclass

import numpy as np

from .volume import Kind, Volume, read_box

PROTOCOL_MAGIC = b"CPRD"
PROTOCOL_VERSION = 1
POLL_SLICE_S = 60.0  # longest single poll() wait: poll takes a C int of milliseconds


class PredictorError(Exception):
    """Backend failure; carries window context when raised mid-run."""


@dataclass(frozen=True)
class NoiseSpec:
    """Corruption rates for the noisy-oracle backend.

    Rates are per patch (blobs, holes) or per voxel (flips). False-positive
    blobs and deletion holes are spheres with radius drawn uniformly from
    ``fp_blob_radius``.
    """

    fp_blob_rate: float = 0.0
    fp_blob_radius: tuple[float, float] = (3.0, 3.0)
    fn_hole_rate: float = 0.0
    per_voxel_fp: float = 0.0
    seed_offset: int = 0

    def __post_init__(self):
        object.__setattr__(self, "fp_blob_radius", tuple(self.fp_blob_radius))
        for name in ("fp_blob_rate", "fn_hole_rate", "per_voxel_fp"):
            rate = getattr(self, name)
            if not (math.isfinite(rate) and rate >= 0):
                raise ValueError(f"{name!r} must be finite and non-negative, got {rate}")
        if not self.per_voxel_fp < 1:
            raise ValueError("per_voxel_fp must be < 1")
        lo, hi = self.fp_blob_radius
        if not 0 <= lo <= hi < math.inf:  # NaN fails too
            raise ValueError(f"'fp_blob_radius' must be finite [lo, hi] with "
                             f"0 <= lo <= hi, got [{lo}, {hi}]")


def _squared_distances(box, center) -> np.ndarray:
    """Squared distance from ``center`` of each voxel of ``box`` (one
    ``(lo, hi)`` pair per axis), summed in axis order 0, 1, 2."""
    sq = [(np.arange(a, b) - c) ** 2 for (a, b), c in zip(box, center)]
    return sq[0][:, None, None] + sq[1][:, None] + sq[2]


class Predictor:
    """Base predictor: maps a w-cube intensity patch to a probability patch.

    Subclasses implement ``_predict(patch, origin)``. ``patch.data`` is
    read-only (often a view of the caller's volume) and must not be written.
    The result must be a fresh, writable array of the window's shape that no
    one else holds: ``predict`` clips it to [0, 1] in place and hands it to
    the caller. A result holding NaN is a PredictorError.
    """

    def __init__(self, id: str, window: int):
        if window <= 0:
            raise ValueError("window must be positive")
        self.id = id
        self.window = int(window)

    def predict(self, patch: Volume, origin: tuple[int, int, int]) -> Volume:
        w = self.window
        if patch.dims != (w, w, w):
            raise PredictorError(
                f"{self.id}: patch dims {patch.dims} != window ({w},{w},{w})"
            )
        out = np.asarray(self._predict(patch, tuple(int(o) for o in origin)), np.float32)
        np.clip(out, 0.0, 1.0, out=out)
        if np.isnan(out.min()):  # clip keeps NaN, which fails every threshold
            raise PredictorError(f"{self.id}: prediction holds NaN")
        return Volume(out, patch.spacing, Kind.PROBABILITY)

    def _predict(self, patch: Volume, origin) -> np.ndarray:
        raise NotImplementedError

    def close(self):
        pass


class ConstantPredictor(Predictor):
    """Returns a uniform probability; value 0 simulates a no-detection model."""

    def __init__(self, value: float, window: int, id: str = "const"):
        super().__init__(id, window)
        self.value = float(value)

    def _predict(self, patch, origin):
        return np.full(patch.dims, self.value, dtype=np.float32)


class NoisyOraclePredictor(Predictor):
    """Oracle corrupted by seeded, model-independent noise.

    Per-voxel false positives are keyed to absolute voxel coordinates (one
    precomputed flip field per handle), so overlapping windows agree on each
    voxel's noise and the per-stage FP rate stays exactly ``per_voxel_fp``.
    Blob and hole noise is keyed by (seed, model seed, patch origin), so
    outputs never depend on window evaluation order.
    """

    def __init__(self, gt: Volume, window: int, noise: NoiseSpec,
                 model_seed: int, master_seed: int = 0, id: str | None = None):
        super().__init__(id or f"noisy-{model_seed}", window)
        if gt.kind is not Kind.MASK:
            raise ValueError("oracle ground truth must be a mask volume")
        self.gt = gt
        self.noise = noise
        self.model_seed = int(model_seed)
        self.master_seed = int(master_seed)
        if noise.per_voxel_fp > 0:
            rng = np.random.default_rng(
                np.random.SeedSequence([master_seed, noise.seed_offset, model_seed, 0xF11])
            )
            self._flips = rng.random(gt.dims, dtype=np.float32) < noise.per_voxel_fp
        else:
            self._flips = None

    def _patch_rng(self, origin, tag: int):
        return np.random.default_rng(np.random.SeedSequence(
            [self.master_seed, self.noise.seed_offset, self.model_seed, tag, *origin]
        ))

    def _spheres(self, out: np.ndarray, origin, rate: float, tag: int, value: float):
        rng = self._patch_rng(origin, tag)
        w = self.window
        lo, hi = self.noise.fp_blob_radius
        for _ in range(rng.poisson(rate)):
            center = rng.uniform(0, w, size=3).tolist()
            r = rng.uniform(lo, hi)
            box = [(max(math.floor(c - r), 0), min(math.ceil(c + r) + 1, w)) for c in center]
            if any(a >= b for a, b in box):
                continue
            region = out[tuple(slice(a, b) for a, b in box)]
            region[_squared_distances(box, center) <= r * r] = value

    def _predict(self, patch, origin):
        shape = (self.window,) * 3
        out = read_box(self.gt.data, origin, shape).astype(np.float32)
        if self.noise.fp_blob_rate > 0:
            self._spheres(out, origin, self.noise.fp_blob_rate, 0xB10B, 1.0)
        if self._flips is not None:
            np.maximum(out, read_box(self._flips, origin, shape), out=out)
        if self.noise.fn_hole_rate > 0:
            self._spheres(out, origin, self.noise.fn_hole_rate, 0x401E, 0.0)
        return out


class OraclePredictor(NoisyOraclePredictor):
    """Perfect predictor returning the ground-truth mask inside the patch: the
    noisy oracle with no noise."""

    def __init__(self, gt: Volume, window: int, id: str = "oracle"):
        super().__init__(gt, window, NoiseSpec(), model_seed=0, id=id)


class ExternalPredictor(Predictor):
    """Predictor backed by a persistent child process.

    Wire protocol on the child's standard streams, little-endian:
    handshake magic "CPRD" + version u32 + window u32 in both directions
    (windows must match); then per request an origin (3 x i64) and w^3
    float32 intensities, answered by w^3 float32 probabilities. Both patches
    travel in C order: the last axis varies fastest. A request not sent and
    answered in ``timeout`` seconds (finite, positive) fails and kills the child.
    """

    def __init__(self, command: list[str], window: int, timeout: float = 30.0,
                 id: str = "external"):
        super().__init__(id, window)
        self.timeout = float(timeout)
        if not 0 < self.timeout < math.inf:
            raise ValueError(f"{id}: timeout must be finite and positive, got {timeout}")
        try:
            self._proc = subprocess.Popen(
                command, stdin=subprocess.PIPE, stdout=subprocess.PIPE
            )
        except OSError as e:
            raise PredictorError(f"{id}: cannot spawn {command}: {e}") from e
        os.set_blocking(self._proc.stdin.fileno(), False)  # see _exchange
        self._request = bytearray(24 + 4 * self.window ** 3)  # origin, patch; reused
        self._patch = np.frombuffer(self._request, "<f4", offset=24).reshape((self.window,) * 3)
        try:
            self._handshake()
        except Exception:
            self.close()
            raise

    def _handshake(self):
        msg = PROTOCOL_MAGIC + struct.pack("<II", PROTOCOL_VERSION, self.window)
        reply = self._exchange(msg, 12, context="handshake")
        magic, version, window = bytes(reply[:4]), *struct.unpack("<II", reply[4:])
        if magic != PROTOCOL_MAGIC:
            raise PredictorError(f"{self.id}: handshake magic {magic!r}")
        if version != PROTOCOL_VERSION:
            raise PredictorError(f"{self.id}: protocol version {version}, expected {PROTOCOL_VERSION}")
        if window != self.window:
            raise PredictorError(
                f"{self.id}: server window {window} does not match stage window {self.window}"
            )

    def _exchange(self, request, n: int, context: str) -> bytearray:
        """Send ``request`` to the child, then read n reply bytes, or fail once
        timeout passes. Each write or read goes to a raw fd after ``poll``
        says it is ready, and stdin does not block, so a child that stops
        reading or writing cannot hold the call past the deadline."""
        deadline = time.monotonic() + self.timeout
        fd_in, fd_out = self._proc.stdin.fileno(), self._proc.stdout.fileno()
        out, buf, sent, got = memoryview(request), bytearray(n), 0, 0
        poller = select.poll()
        poller.register(fd_in, select.POLLOUT)
        while got < n:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # kill it: a late reply would otherwise answer the next window
                self._proc.kill()
                raise PredictorError(f"{self.id}: timeout during {context}")
            if not poller.poll(min(remaining, POLL_SLICE_S) * 1000):
                continue
            if sent < len(out):
                try:
                    sent += os.write(fd_in, out[sent:])
                except OSError as e:  # the child closed its input
                    raise PredictorError(f"{self.id}: {context}: {e}") from e
                if sent == len(out):  # all sent: wait for the reply
                    poller.unregister(fd_in)
                    poller.register(fd_out, select.POLLIN)
            else:
                k = os.readv(fd_out, [memoryview(buf)[got:]])
                if not k:
                    raise PredictorError(f"{self.id}: process closed stream during {context}")
                got += k
        return buf

    def _predict(self, patch, origin):
        w = self.window
        struct.pack_into("<3q", self._request, 0, *origin)
        np.copyto(self._patch, patch.data)
        raw = self._exchange(self._request, 4 * w ** 3, context=f"window {origin}")
        return np.frombuffer(raw, dtype="<f4").reshape((w, w, w))

    def close(self):
        """End the child's input, reap it (killed after 2 s) and close both
        pipes, whether it is alive, exited or killed; a second call does nothing."""
        self._proc.stdin.close()  # nothing is buffered there: _exchange writes the raw fd
        try:
            self._proc.wait(timeout=2)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
