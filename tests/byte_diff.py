"""Compare two byte or text strings and report where they first differ.

A failing ``assert got == want`` on megabyte operands makes pytest diff
them whole, which can take minutes.  assert_same reports the first
differing offset, its line and column and a short window of each side.
"""

WINDOW = 40  # characters or bytes shown either side of the difference


def assert_same(got, want) -> None:
    """Raise AssertionError unless got == want, naming their first difference.

    A difference is located when both are bytes or both str; line and
    column count from 1.
    """
    if got == want:
        return
    if type(got) is not type(want):
        raise AssertionError(f"got a {type(got).__name__}, want a {type(want).__name__}")
    # got[:i] == want[:i], and the first difference lies in [i, hi]
    i, hi = 0, min(len(got), len(want))
    while i < hi:
        mid = (i + hi + 1) // 2
        if got[i:mid] == want[i:mid]:
            i = mid
        else:
            hi = mid - 1
    newline = "\n" if isinstance(got, str) else b"\n"
    line = got.count(newline, 0, i) + 1
    column = i - got.rfind(newline, 0, i)
    start = max(0, i - WINDOW)
    raise AssertionError(
        f"first difference at offset {i} (line {line}, column {column}) "
        f"of {len(got)} got and {len(want)} wanted\n"
        f"  got:  {got[start:i + WINDOW]!r}\n"
        f"  want: {want[start:i + WINDOW]!r}"
    )
