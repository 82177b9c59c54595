"""RFC 1071 Internet checksum used by IPv4, UDP and TCP headers."""

from __future__ import annotations


def internet_checksum(data: bytes, initial: int = 0) -> int:
    """Compute the 16-bit one's-complement Internet checksum of *data*.

    The checksum is defined in RFC 1071: the data is treated as a sequence
    of 16-bit big-endian words (padded with a zero byte if the length is
    odd), the words are summed with end-around carry, and the one's
    complement of the sum is returned.

    Parameters
    ----------
    data:
        Bytes to checksum.
    initial:
        Optional starting sum, useful for incremental computation over a
        pseudo-header followed by a payload.

    Returns
    -------
    int
        The checksum as an integer in ``[0, 0xFFFF]``.
    """
    total = initial
    length = len(data)
    # Sum 16-bit words.
    for i in range(0, length - 1, 2):
        total += (data[i] << 8) | data[i + 1]
    if length % 2:
        total += data[-1] << 8
    # Fold carries.
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF

