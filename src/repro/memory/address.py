"""Address interleaving functions.

The stream cache is *address partitioned* (Section 4.2): each bank owns an
interleaved slice of the address space at cache-line granularity, so every
request for a given line always lands on the same bank.  This is what makes
per-bank scatter-add units sufficient for atomicity -- and what produces
the *hot bank effect* of Figure 7 when the index range is small.

DRAM channels are interleaved the same way at line granularity.
"""


def line_of(addr, line_words):
    """Cache-line index containing word address `addr`."""
    return addr // line_words


def line_base(addr, line_words):
    """Word address of the first word in `addr`'s line."""
    return (addr // line_words) * line_words


def bank_of(addr, banks, line_words):
    """Cache bank owning word address `addr` (line-interleaved)."""
    return (addr // line_words) % banks


def channel_of(addr, channels, line_words):
    """DRAM channel owning word address `addr` (line-interleaved)."""
    return (addr // line_words) % channels


def node_of(addr, nodes, words_per_node):
    """Home node of word address `addr` under block partitioning.

    Global memory is block-partitioned across nodes (each node owns a
    contiguous region, Section 3.1) -- remote references are those whose
    home block belongs to a different node.
    """
    return min(addr // words_per_node, nodes - 1)
