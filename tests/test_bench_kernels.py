"""The A/B helper that every two-sided section of
``benchmarks/bench_kernels.py`` times its paths through."""

import dataclasses
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                       / "benchmarks"))
from bench_kernels import ab  # noqa: E402


def recording(name, log, result=0.5):
    def path(*args):
        log.append((name, args))
        return result
    return path


def test_check_runs_once_then_first_side_alternates_pair_by_pair():
    log = []
    calls = [(1,), (2,)]
    times, wins = ab({"a": recording("a", log), "b": recording("b", log)},
                     calls, pairs=4)
    # The bit check, then pairs a-b, b-a, a-b, b-a.
    sides = ["a", "b", "a", "b", "b", "a", "a", "b", "b", "a"]
    assert log == [(side, call) for side in sides for call in calls]
    assert {name: len(t) for name, t in times.items()} == {"a": 4, "b": 4}
    assert sum(wins.values()) <= 4


def test_repeat_runs_each_side_over_all_calls_in_turn():
    log = []
    ab({"a": recording("a", log), "b": recording("b", log)}, [(1,)],
       pairs=2, repeat=3)
    assert [name for name, _ in log] == list("ab" + "aaabbb" + "bbbaaa")


def test_wins_count_the_pairs_a_path_was_faster():
    times, wins = ab({"slow": lambda: time.sleep(0.002),
                      "fast": lambda: None}, [()], pairs=4)
    assert wins == {"slow": 0, "fast": 4}
    assert (times["fast"] < times["slow"]).all()


def test_equal_numbers_in_other_containers_agree():
    _, wins = ab({"array": lambda x: np.array([x, 2.0]),
                  "list": lambda x: [x, np.float64(2.0)]}, [(0.1,)], pairs=1)
    assert sum(wins.values()) <= 1


def flipped(x: float) -> float:
    """``x`` with the lowest bit of its mantissa flipped."""
    return float((np.array(x).view(np.uint64) ^ 1).view(np.float64))


@dataclasses.dataclass
class Point:
    weights: tuple
    em: float


def one_bit_apart():
    array = np.linspace(0.0, 1.0, 7)
    other = array.copy()
    other[3] = flipped(other[3])
    return [
        (array, other),
        ([(0, 5, 0.1)], [(0, 5, flipped(0.1))]),
        ([0.0], [-0.0]),
        ([Point((0.25, 0.75), 0.5)], [Point((0.25, flipped(0.75)), 0.5)]),
    ]


@pytest.mark.parametrize("left, right", one_bit_apart(),
                         ids=["array", "spans", "zero sign", "dataclass"])
def test_one_bit_difference_exits_naming_the_paths(left, right):
    with pytest.raises(SystemExit) as exc:
        ab({"left": lambda: left, "right": lambda: right}, [()])
    # A message as the exit code exits with status 1.
    assert isinstance(exc.value.code, str)
    assert exc.value.code.startswith("left and right differ")
