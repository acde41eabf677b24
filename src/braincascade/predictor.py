"""Predictor backends mapping a cubic intensity patch to a probability patch.

Four backends share one interface: a constant map, a ground-truth oracle, a
noisy oracle that corrupts the oracle output with seeded false positives and
deletion holes, and an external subprocess speaking a little-endian binary
protocol.

Predictors receive the patch origin alongside the intensities so oracle
backends can look up ground truth at the right location.
"""

from __future__ import annotations

import os
import select
import struct
import subprocess
import threading
import time
from dataclasses import dataclass

import numpy as np

from .volume import Kind, Volume, read_box

PROTOCOL_MAGIC = b"CPRD"
PROTOCOL_VERSION = 1


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
        if self.fp_blob_rate < 0 or self.fn_hole_rate < 0 or self.per_voxel_fp < 0:
            raise ValueError("noise rates must be non-negative")
        if not self.per_voxel_fp < 1:
            raise ValueError("per_voxel_fp must be < 1")


class Predictor:
    """Base predictor: maps a w-cube intensity patch to a probability patch."""

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
        out = self._predict(patch, tuple(int(o) for o in origin))
        return Volume(np.clip(out, 0.0, 1.0).astype(np.float32), patch.spacing, Kind.PROBABILITY)

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


class OraclePredictor(Predictor):
    """Perfect predictor returning the ground-truth mask inside the patch."""

    def __init__(self, gt: Volume, window: int, id: str = "oracle"):
        super().__init__(id, window)
        if gt.kind is not Kind.MASK:
            raise ValueError("oracle ground truth must be a mask volume")
        self.gt = gt

    def _predict(self, patch, origin):
        return read_box(self.gt.data, origin, (self.window,) * 3, np.float32)


class NoisyOraclePredictor(Predictor):
    """Oracle corrupted by seeded, model-independent noise.

    Per-voxel false positives are keyed to absolute voxel coordinates (one
    precomputed flip field per handle), so overlapping windows agree on each
    voxel's noise and the per-stage FP rate stays exactly ``per_voxel_fp``.
    Blob and hole noise is keyed by (seed, model seed, patch origin), so
    outputs never depend on window evaluation order or parallelism.
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
            center = rng.uniform(0, w, size=3)
            r = rng.uniform(lo, hi)
            mins = np.maximum(np.floor(center - r).astype(int), 0)
            maxs = np.minimum(np.ceil(center + r).astype(int) + 1, w)
            if (mins >= maxs).any():
                continue
            grids = np.ogrid[mins[0]:maxs[0], mins[1]:maxs[1], mins[2]:maxs[2]]
            d2 = sum((g - c) ** 2 for g, c in zip(grids, center))
            region = out[mins[0]:maxs[0], mins[1]:maxs[1], mins[2]:maxs[2]]
            region[d2 <= r * r] = value

    def _predict(self, patch, origin):
        shape = (self.window,) * 3
        out = read_box(self.gt.data, origin, shape, np.float32)
        if self.noise.fp_blob_rate > 0:
            self._spheres(out, origin, self.noise.fp_blob_rate, 0xB10B, 1.0)
        if self._flips is not None:
            out = np.maximum(out, read_box(self._flips, origin, shape, np.float32))
        if self.noise.fn_hole_rate > 0:
            self._spheres(out, origin, self.noise.fn_hole_rate, 0x401E, 0.0)
        return out


class ExternalPredictor(Predictor):
    """Predictor backed by a persistent child process.

    Wire protocol on the child's standard streams, little-endian:
    handshake magic "CPRD" + version u32 + window u32 in both directions
    (windows must match); then per request an origin (3 x i64) and w^3
    float32 intensities, answered by w^3 float32 probabilities. Both patches
    travel in C order: the last axis varies fastest. A reply that takes
    longer than ``timeout`` seconds fails the request and kills the child.
    """

    def __init__(self, command: list[str], window: int, timeout: float = 30.0,
                 id: str = "external"):
        super().__init__(id, window)
        self.timeout = float(timeout)
        self._lock = threading.Lock()
        try:
            self._proc = subprocess.Popen(
                command, stdin=subprocess.PIPE, stdout=subprocess.PIPE
            )
        except OSError as e:
            raise PredictorError(f"{id}: cannot spawn {command}: {e}") from e
        try:
            self._handshake()
        except Exception:
            self.close()
            raise

    def _handshake(self):
        msg = PROTOCOL_MAGIC + struct.pack("<II", PROTOCOL_VERSION, self.window)
        self._proc.stdin.write(msg)
        self._proc.stdin.flush()
        reply = self._read_exact(12, context="handshake")
        magic, version, window = bytes(reply[:4]), *struct.unpack("<II", reply[4:])
        if magic != PROTOCOL_MAGIC:
            raise PredictorError(f"{self.id}: handshake magic {magic!r}")
        if version != PROTOCOL_VERSION:
            raise PredictorError(f"{self.id}: protocol version {version}, expected {PROTOCOL_VERSION}")
        if window != self.window:
            raise PredictorError(
                f"{self.id}: server window {window} does not match stage window {self.window}"
            )

    def _read_exact(self, n: int, context: str) -> bytearray:
        """Read n bytes from the child's stdout, or fail once timeout passes.

        Reads go to the raw fd, each after ``poll`` says it is readable, so a
        silent child cannot block past the deadline and no byte is left in a
        Python-side buffer.
        """
        deadline = time.monotonic() + self.timeout
        fd = self._proc.stdout.fileno()
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        buf = bytearray(n)
        view = memoryview(buf)
        got = 0
        while got < n:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not poller.poll(remaining * 1000):
                # kill it: a late reply would otherwise answer the next window
                self._proc.kill()
                raise PredictorError(f"{self.id}: timeout during {context}")
            k = os.readv(fd, [view[got:]])
            if not k:
                raise PredictorError(f"{self.id}: process closed stream during {context}")
            got += k
        return buf

    def _predict(self, patch, origin):
        w = self.window
        with self._lock:
            try:
                self._proc.stdin.write(struct.pack("<3q", *origin))
                self._proc.stdin.write(
                    np.ascontiguousarray(patch.data, dtype="<f4").tobytes()
                )
                self._proc.stdin.flush()
            except (BrokenPipeError, OSError) as e:
                raise PredictorError(f"{self.id}: window {origin}: {e}") from e
            raw = self._read_exact(4 * w ** 3, context=f"window {origin}")
        return np.frombuffer(raw, dtype="<f4").reshape((w, w, w))

    def close(self):
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
