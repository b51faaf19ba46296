"""Small shared helpers: serial mapping, number formatting, new files."""

import os


def ordered_map(fn, items):
    """Serial ``[fn(x) for x in items]``, unused in aalab; kept while
    bench/tracing.py traces it."""
    return [fn(x) for x in items]


def fmt15(x):
    """Format a float with 15 significant digits ('.' decimal separator)."""
    return format(float(x), ".15g")


def open_new(path, mode="w"):
    """Open ``path`` for writing as a new file.  A regular file there is
    unlinked first, not truncated to zero, which ext4 (``auto_da_alloc``)
    follows with writeback at close: faster and steadier saves, less crash
    safety (README, "Output artifacts").  A hard link to the old file keeps
    the old bytes; a symlink, device or FIFO is written through."""
    if os.path.isfile(path) and not os.path.islink(path):
        os.unlink(path)
    return open(path, mode, encoding=None if "b" in mode else "utf-8")
