"""Small shared helpers: serial mapping and number formatting."""


def ordered_map(fn, items):
    """Serial ``[fn(x) for x in items]``, unused in aalab; kept while
    bench/tracing.py traces it."""
    return [fn(x) for x in items]


def fmt15(x):
    """Format a float with 15 significant digits ('.' decimal separator)."""
    return format(float(x), ".15g")
