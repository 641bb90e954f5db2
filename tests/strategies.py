"""Hypothesis strategies shared by the decoder fuzz tests."""

from hypothesis import strategies as st


def damaged(original: bytes) -> st.SearchStrategy:
    """Any strict truncation or single-byte flip of ``original``."""

    def flip(position_and_mask) -> bytes:
        position, mask = position_and_mask
        out = bytearray(original)
        out[position] ^= mask
        return bytes(out)

    last = len(original) - 1
    return st.one_of(
        st.integers(0, last).map(lambda n: original[:n]),
        st.tuples(st.integers(0, last), st.integers(1, 255)).map(flip),
    )
