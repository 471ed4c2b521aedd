"""Each lint rule fires on its deliberate-violation fixture (exact rule id,
path, and line) and stays silent on the near-miss shapes it must not flag."""

from __future__ import annotations

import textwrap

from repro.check.lint import check_error_codes, lint_source

PATH = "engine/fixture.py"


def findings_for(source: str, select=None, path: str = PATH):
    return lint_source(textwrap.dedent(source), path, select=select)


# --------------------------------------------------------------------------- #
# DET001 — RNG construction outside the sanctioned modules
# --------------------------------------------------------------------------- #
DET001_NUMPY = """\
import numpy as np

def sample(seed):
    rng = np.random.default_rng(seed)  # line 4: the violation
    return rng.random()
"""

DET001_STDLIB = """\
import random

def sample():
    return random.random()
"""


def test_det001_flags_numpy_default_rng():
    found = findings_for(DET001_NUMPY)
    assert [(f.rule, f.path, f.line) for f in found] == [("DET001", PATH, 4)]
    assert "counter_uniforms" in found[0].message


def test_det001_flags_stdlib_random():
    found = findings_for(DET001_STDLIB)
    assert [(f.rule, f.line) for f in found] == [("DET001", 4)]


def test_det001_clean_on_counter_uniforms():
    clean = """\
    from repro.local.randomness import counter_uniforms, derive_seed, node_keys

    def sample(seed, trials, identities):
        return counter_uniforms(node_keys(derive_seed(seed, "salt"), trials, identities), 1)
    """
    assert findings_for(clean) == []


def test_det001_allowlisted_file_is_silent():
    assert findings_for(DET001_NUMPY, path="graphs/random_graphs.py") == []


# --------------------------------------------------------------------------- #
# DET002 — wall-clock reads outside the operational layers
# --------------------------------------------------------------------------- #
DET002_TIME = """\
import time

def stamp():
    return time.time()
"""

DET002_DATETIME = """\
from datetime import datetime

def stamp():
    return datetime.now()
"""


def test_det002_flags_time_time():
    found = findings_for(DET002_TIME)
    assert [(f.rule, f.line) for f in found] == [("DET002", 4)]


def test_det002_flags_datetime_now():
    found = findings_for(DET002_DATETIME)
    assert [(f.rule, f.line) for f in found] == [("DET002", 4)]


def test_det002_perf_counter_is_fine():
    # Monotonic intervals are not wall-clock: two runs still agree on results.
    assert findings_for("import time\nelapsed = time.perf_counter()\n") == []


def test_det002_allowlisted_directory_is_silent():
    assert findings_for(DET002_TIME, path="obs/recorder.py") == []
    assert findings_for(DET002_TIME, path="service/jobs.py") == []


# --------------------------------------------------------------------------- #
# DET003 — hash-ordered iteration escaping into collections
# --------------------------------------------------------------------------- #
def test_det003_flags_comprehension_over_set_literal():
    found = findings_for("def f():\n    return [x for x in {'a', 'b'}]\n")
    assert [(f.rule, f.line) for f in found] == [("DET003", 2)]


def test_det003_flags_list_over_set_call():
    found = findings_for("def f(items):\n    return list(set(items))\n")
    assert [(f.rule, f.line) for f in found] == [("DET003", 2)]


def test_det003_flags_join_over_set():
    found = findings_for("def f(items):\n    return ', '.join(set(items))\n")
    assert [(f.rule, f.line) for f in found] == [("DET003", 2)]


def test_det003_sorted_set_and_membership_are_fine():
    clean = """\
    def f(items, probe):
        ordered = sorted(set(items))
        hit = probe in {1, 2, 3}
        for value in set(items):
            pass
        return ordered, hit
    """
    # sorted() restores a deterministic order, membership has no order at
    # all, and a bare ``for`` that never materializes an ordered result is
    # out of scope by design.
    assert findings_for(clean) == []


# --------------------------------------------------------------------------- #
# OBS001 — signal names must be registered in the taxonomy
# --------------------------------------------------------------------------- #
def test_obs001_flags_unregistered_span():
    found = findings_for(
        "def f(recorder):\n    with recorder.span('engine.bogus'):\n        pass\n"
    )
    assert [(f.rule, f.line) for f in found] == [("OBS001", 2)]
    assert "engine.bogus" in found[0].message


def test_obs001_flags_unregistered_counter():
    found = findings_for("def f(recorder):\n    recorder.counter('cache.bogus')\n")
    assert [(f.rule, f.line) for f in found] == [("OBS001", 2)]


def test_obs001_registered_and_dynamic_names_are_fine():
    clean = """\
    def f(recorder, name):
        with recorder.span("engine.compile"):
            recorder.counter("cache.hit")
            recorder.histogram("cache.lookup_seconds", 0.1)
        recorder.counter(name)  # dynamic: nothing to check statically
    """
    assert findings_for(clean) == []


def test_select_restricts_rules():
    both = DET001_NUMPY + "\nimport time\nstamp = time.time()\n"
    only_det002 = findings_for(both, select=["DET002"])
    assert {f.rule for f in only_det002} == {"DET002"}


# --------------------------------------------------------------------------- #
# ERR001 — unique wire codes over the live taxonomy
# --------------------------------------------------------------------------- #
def test_err001_clean_on_real_taxonomy():
    assert check_error_codes() == []


def test_err001_flags_duplicate_code():
    from repro.errors import ReproError

    class _DuplicateA(ReproError):
        code = "dup_code_fixture"

    class _DuplicateB(ReproError):
        code = "dup_code_fixture"

    try:
        found = [f for f in check_error_codes() if "dup_code_fixture" in f.message]
        assert len(found) == 1
        assert found[0].rule == "ERR001"
        assert "_DuplicateA" in found[0].message
        assert "_DuplicateB" in found[0].message
    finally:
        # Subclass registration is global (``__subclasses__`` holds weak
        # references); drop the fixtures so the clean-tree test stays clean
        # in either execution order.
        import gc

        del _DuplicateA, _DuplicateB
        gc.collect()
