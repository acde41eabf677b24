"""Test server for the external-predictor wire protocol.

Usage: echo_server.py MODE [VALUE]
  constant   - reply to every request with a uniform probability patch
  echo       - reply to every request with its patch bytes unchanged
  window64   - advertise window 64 regardless of what the parent requests
  die        - exit right after a successful handshake
  hang       - read the first request, then sleep without replying
"""

import struct
import sys
import time

MAGIC = b"CPRD"


def read_exact(n):
    buf = b""
    while len(buf) < n:
        chunk = sys.stdin.buffer.read(n - len(buf))
        if not chunk:
            sys.exit(1)
        buf += chunk
    return buf


def main():
    mode = sys.argv[1] if len(sys.argv) > 1 else "constant"
    value = float(sys.argv[2]) if len(sys.argv) > 2 else 0.5

    hs = read_exact(12)
    magic, version, window = hs[:4], *struct.unpack("<II", hs[4:])
    assert magic == MAGIC, magic
    if mode == "window64":
        window = 64
    sys.stdout.buffer.write(MAGIC + struct.pack("<II", version, window))
    sys.stdout.buffer.flush()

    if mode == "die":
        sys.exit(0)

    n = window ** 3
    if mode == "hang":
        read_exact(24 + 4 * n)
        time.sleep(60)
        sys.exit(0)
    reply = struct.pack(f"<{n}f", *([value] * n))
    while True:
        request = read_exact(24 + 4 * n)  # origin + patch
        sys.stdout.buffer.write(request[24:] if mode == "echo" else reply)
        sys.stdout.buffer.flush()


if __name__ == "__main__":
    main()
