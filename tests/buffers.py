"""Compare snapshots byte for byte, for tests.

serialize() returns a read-only memoryview, and CPython compares two
memoryviews, or a memoryview and bytes, element by element. same_bytes()
compares bytes() copies instead, which == compares with one memcmp.
"""


def same_bytes(first, *others) -> bool:
    """Whether every one of others holds exactly first's bytes; each is a bytes-like buffer."""
    want = bytes(first)
    return all(bytes(other) == want for other in others)
