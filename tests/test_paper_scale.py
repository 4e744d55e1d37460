"""Paper-scale runs of the package, too slow for the default suite.

Every test here is marked slow, which the default pytest options in
pyproject.toml deselect; run them with `python -m pytest -m slow`.
"""

import pytest

from lml.cosets import enumerate_homs
from lml.words import ResourceLimitError, bs_presentation

pytestmark = pytest.mark.slow


def test_bs_9_10_to_degree_nine_tries_778285_table_entries():
    # The search to degree 9 finds one class and tries exactly 778,285
    # table entries; one fewer and the cap is reached.
    pres = bs_presentation(9, 10)
    assert len(enumerate_homs(pres, 9, max_nodes=778_285)) == 1
    with pytest.raises(ResourceLimitError, match="max_nodes=778284"):
        enumerate_homs(pres, 9, max_nodes=778_284)
