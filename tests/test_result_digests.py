import importlib.util
from pathlib import Path

import pytest

FIXTURE = Path(__file__).with_name("result_digests.txt")
TOOL = Path(__file__).resolve().parents[1] / "tools" / "result_digests.py"
_spec = importlib.util.spec_from_file_location("result_digests", TOOL)
result_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(result_digests)


def test_search_digest_does_not_depend_on_the_worker_count():
    assert len(result_digests.search_lines(3, None, 1)) > 1  # the report, then the witnesses
    digests = {result_digests.workloads.digest(result_digests.search_lines(3, None, jobs))
               for jobs in (1, 2)}
    assert len(digests) == 1


def test_every_set_has_its_own_name():
    names = [name for name, _, _ in result_digests.result_sets()]
    assert len(names) == len(set(names)) == 3 * 7 + 3 * 10 + 5 + 1 + 3 + 2 + 1 + 1
    assert names[0] == "run(3,None,jobs=1)"


@pytest.mark.slow
def test_every_result_set_matches_its_pinned_digest():
    """The lines `tools/result_digests.py` prints, pinned: every K row, hit list,
    oracle expansion and counterexample set, at `jobs` 1, 2 and None.  A change
    that means to move an answer updates `result_digests.txt` and says why."""
    printed = [f"{name} {result_digests.workloads.digest(lines(*args))}"
               for name, lines, args in result_digests.result_sets()]
    assert printed == FIXTURE.read_text().splitlines()
