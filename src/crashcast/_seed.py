"""Stable sub-seed derivation, identical across platforms and runs, and the package's SHA-256.

sha256 is the interpreter's built-in one, so hashing loads no OpenSSL:
importing hashlib maps libcrypto, about 3.5 MB of a run's resident memory.
hashlib's stands in only where the interpreter was built without its own.
"""

from __future__ import annotations

try:
    from _sha2 import sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


def derive_seed(seed: int, *parts: object) -> int:
    """Derive a child seed from a root seed and a label path.

    Hash-based so that (seed, "shots", "SYS-3", 7) and (seed, "system", 12)
    never collide the way arithmetic mixing could.
    """
    text = ":".join([str(seed), *[str(p) for p in parts]])
    digest = sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
