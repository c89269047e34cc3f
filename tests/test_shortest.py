import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import skinwave
from skinwave.shortest import WIDTH, _decide, _layouts, _powers_of_ten, _quads, shortest_repr

from reference import layouts_table, powers_of_ten_table, quads_table, script


@pytest.fixture(scope="module")
def check():
    """``scripts/check_shortest_repr.py``: its sample generator and comparison."""
    return script("check_shortest_repr")


def _texts(values) -> list[str]:
    return [bytes(row).rstrip(b"\0").decode() for row in shortest_repr(values)]


def test_sample_matches_repr(check):
    values = check.sample(200_000, seed=1)
    assert len(values) > 200_000
    assert check.mismatches(values) == []


def test_layouts_match_repr():
    values = [0.0, -0.0, 1.0, -2.5, 1e-05, 0.0001, 0.00012345, 1e16, 1e15, 123456789012345.6, 1e22,
              1.5e-07, 1e100, -1e-100, 1.7976931348623157e308, 0.30000000000000004, 100.0, 5e-324]
    assert _texts(values) == [repr(v) for v in values]
    assert _texts([np.nan, 1.0, np.inf, -np.inf]) == ["", "1.0", "inf", "-inf"]


def test_rows_are_as_wide_as_the_longest():
    assert shortest_repr([0.5, 0.25]).shape == (2, 4)
    assert shortest_repr([-2.2250738585072014e-308]).shape == (1, WIDTH)
    assert shortest_repr(np.zeros((3, 2))).shape == (6, 3)
    assert shortest_repr([np.nan]).shape == (1, 0)
    assert shortest_repr([]).shape == (0, 0)


def test_special_inputs_raise_no_numpy_warning(check):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for values in (check.adversarial(), np.array([]), np.full(3, np.nan), np.array([-np.inf])):
            shortest_repr(values)


def test_undecided_values_go_to_repr(check):
    """nan, inf, subnormals, powers of two and ties are not decided; ordinary values are."""
    hard = np.array([np.nan, np.inf, 5e-324, 2.0 ** -1022 / 3, 0.5, 1024.0, 1.0000076293945312,
                     8.0000152587890625])
    assert not _decide(hard)[3].any()
    assert _decide(np.array([0.1, 0.3, 1e-300, 1e300, 123.456]))[3].all()


def test_tables_match_their_entry_by_entry_construction():
    pairs = [(_powers_of_ten(), powers_of_ten_table()), (_quads(), quads_table())]
    for built, reference in pairs + list(zip(_layouts(), layouts_table())):
        assert (built.dtype, built.shape) == (reference.dtype, reference.shape)
        assert built.tobytes() == reference.tobytes()


def test_tables_are_built_on_first_use_not_at_import():
    code = ("import skinwave, skinwave.shortest as s; "
            "print([f.cache_info().currsize for f in (s._powers_of_ten, s._quads, s._layouts)])")
    env = dict(os.environ, PYTHONPATH=str(Path(skinwave.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
    assert out.strip() == "[0, 0, 0]"
