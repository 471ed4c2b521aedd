"""Cold start: ``Session`` set-up and the quick preset load no graph
library, no HTTP client stack and no process-pool machinery.

Each check runs in a fresh interpreter, because this test process has
long since imported all of them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro

HEAVY = (
    "networkx",
    "http.client",
    "ssl",
    "urllib.request",
    "concurrent.futures.process",
    "multiprocessing",
)


def _fresh(script: str) -> dict:
    """Run ``script`` in a new interpreter on this checkout's ``src`` and
    return the JSON object it prints last."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


_LOADED = f"print(json.dumps({{name: name in sys.modules for name in {HEAVY!r}}}))\n"


def test_session_set_up_loads_none_of_them():
    loaded = _fresh(
        "import json, sys\n"
        "import numpy\n"
        "from repro.api import Session\n"
        "Session(seed=0, cache=None)\n" + _LOADED
    )
    assert loaded == dict.fromkeys(HEAVY, False)


def test_the_quick_preset_loads_no_networkx():
    loaded = _fresh(
        "import json, sys\n"
        "from repro.api import Session\n"
        "reports = Session(seed=0, cache=None).run_all(preset='quick')\n"
        "assert all(report.ok for report in reports)\n" + _LOADED
    )
    assert loaded == dict.fromkeys(HEAVY, False)


def test_client_loads_on_first_access():
    loaded = _fresh(
        "import json, sys\n"
        "import repro.api\n"
        "before = 'http.client' in sys.modules\n"
        "from repro.api import Client, RemoteJob\n"
        "from repro.api.client import Client as Loaded\n"
        "try:\n"
        "    repro.api.NoSuchName\n"
        "except AttributeError as error:\n"
        "    missing = str(error)\n"
        "print(json.dumps({'before': before, 'after': 'http.client' in sys.modules,\n"
        "    'same': Client is Loaded and RemoteJob.__module__ == 'repro.api.client',\n"
        "    'missing': missing}))\n"
    )
    assert loaded == {
        "before": False,
        "after": True,
        "same": True,
        "missing": "module 'repro.api' has no attribute 'NoSuchName'",
    }
