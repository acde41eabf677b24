"""External model server for the `external` workload.

Speaks the package's predictor pipe protocol (little-endian: handshake magic
"CPRD" + version u32 + window u32; then per request a 3 x i64 origin and w^3
float32 intensities, answered by w^3 float32 probabilities). It answers from
the patch alone, with no ground truth: probability 1 where the intensity is at
least TISSUE_LEVEL, else 0. It fires on maternal tissue as well as on brain,
so the region of interest stays at the full cube.

Usage: python3 model_server.py
"""

import struct
import sys

import numpy as np

MAGIC = b"CPRD"
TISSUE_LEVEL = np.float32(0.25)


def read_into(stream, buf) -> bool:
    view = memoryview(buf)
    while view:
        n = stream.readinto(view)
        if not n:
            return False
        view = view[n:]
    return True


def main() -> int:
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    handshake = bytearray(12)
    if not read_into(stdin, handshake):
        return 1
    magic, version, window = bytes(handshake[:4]), *struct.unpack("<II", handshake[4:])
    if magic != MAGIC:
        return 1
    stdout.write(MAGIC + struct.pack("<II", version, window))
    stdout.flush()

    request = bytearray(24 + 4 * window ** 3)
    while read_into(stdin, request):
        patch = np.frombuffer(request, dtype="<f4", offset=24)
        stdout.write((patch >= TISSUE_LEVEL).astype("<f4").tobytes())
        stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
