"""Reference counting data: partitions of [n] avoiding an (m+1)-nesting,
m = 1..6, n = 1..15. Single source of truth for the `table1` verify suite,
and the Bell numbers that bound every count.

The OEIS identifiers are recorded as metadata only; nothing here touches
the network.
"""

TABLE1 = {
    1: (1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012,
        742900, 2674440, 9694845),
    2: (1, 2, 5, 15, 52, 202, 859, 3930, 19095, 97566, 520257, 2877834,
        16434105, 96505490, 580864901),
    3: (1, 2, 5, 15, 52, 203, 877, 4139, 21119, 115495, 671969, 4132936,
        26723063, 180775027, 1274056792),
    4: (1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115974, 678530, 4212654,
        27627153, 190624976, 1378972826),
    5: (1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213596,
        27644383, 190897649, 1382919174),
    6: (1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597,
        27644437, 190899321, 1382958475),
}

OEIS_IDS = {
    1: "A000108",
    2: "A108304",
    3: "A108305",
    4: "A192126",
    5: "A192127",
    6: "A192128",
}


def bell_numbers(N: int) -> list[int]:
    """B_0..B_N by the Bell triangle; independent of any engine here."""
    if N < 0:
        raise ValueError("N must be >= 0")
    out = [1]
    row = [1]
    for _ in range(N):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        out.append(nxt[0])
        row = nxt
    return out
