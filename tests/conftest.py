"""The tests' bridge from the dict group algebra to ``GradedVector``."""

from radialmasa.algebra import GradedVector, GroupAlgebraElement, _checked_part_size, _exact_array
from radialmasa.words import words_of_length


def graded(x: GroupAlgebraElement) -> GradedVector:
    """``x`` by word length, each occupied length's part read off
    ``words_of_length``, the enumeration that defines word positions.

    ``GradedVector.from_element`` grades only length-one elements; this reads
    any support, by enumeration, so it shares no index arithmetic with the
    graded products it is compared against.
    """
    parts = {}
    for length in x.support_lengths():
        _checked_part_size(length, x.rank, None)
        parts[length] = _exact_array([x.coeff(w) for w in words_of_length(length, x.rank)])
    return GradedVector(x.rank, parts)
