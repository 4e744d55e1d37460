"""Paper-scale runs of the package, too slow for the default suite.

Every test here is marked slow, which the default pytest options in
pyproject.toml deselect; run them with `python -m pytest -m slow`.
"""

import pytest

from lml.cosets import (
    DEFAULT_MAX_NODES,
    _least_conjugates,
    bs_quotients,
    enumerate_homs,
)
from lml.words import ResourceLimitError, bs_presentation

pytestmark = pytest.mark.slow


def least_built(m, n, k):
    """bs_quotients' classes on their least conjugates, sorted."""
    return sorted(_least_conjugates(bs_quotients(m, n, k), k,
                                    DEFAULT_MAX_NODES))


def test_bs_9_10_to_degree_nine_tries_778285_table_entries():
    # The search to degree 9 finds one class and tries exactly 778,285
    # table entries; one fewer and the cap is reached.  The construction
    # gives the same class.
    pres = bs_presentation(9, 10)
    homs = enumerate_homs(pres, 9, max_nodes=778_285)
    assert len(homs) == 1
    assert least_built(9, 10, 9) == [homs[0].forward]
    with pytest.raises(ResourceLimitError, match="max_nodes=778284"):
        enumerate_homs(pres, 9, max_nodes=778_284)


@pytest.mark.parametrize("m, n", ((2, 3), (3, 4), (3, 5), (4, 5)))
def test_bs_quotients_match_the_search_at_degree_ten(m, n):
    # 0.1-3 s each, nearly all of it the search.
    homs = enumerate_homs(bs_presentation(m, n), 10)
    assert least_built(m, n, 10) == [h.forward for h in homs]
