"""The brute-force walk: reference counts and the first-point split at its root."""

from homcount import kernel


def test_selected_backend_counts_correctly():
    assert kernel.count_models(3, True) == 71
    assert kernel.count_models(3, False) == 95
    assert kernel.count_surjective(3, False) == 61
    assert kernel.count_ordered_set_partitions(4) == 75


def test_root_split_parts():
    assert kernel.root_split(0, True, False) == (1, 0)
    assert kernel.root_split(1, True, False) == (2, 1)  # empty and S{1}; R1
    assert kernel.root_split(2, True, True) == (5, 2)
    assert kernel.root_split(2, False, True) == (5, 4)
    assert kernel.root_split(4, False, True, r_points=False) == (75, 0)
