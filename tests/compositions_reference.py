"""The recursive composition generator: the reference that
``nts.itcore.compositions_array`` is compared against."""

from typing import Iterator


def compositions_iter(total: int, parts: int) -> Iterator[tuple]:
    """Lexicographic stream of all compositions of ``total`` into ``parts`` parts."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions_iter(total - first, parts - 1):
            yield (first,) + rest
