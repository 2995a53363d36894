"""The simulator runs on a bare CPython: no third-party runtime imports.

CI installs the ``dev`` extra (numpy included, for the benchmark's tracer),
so an accidental third-party import would pass every other test.  This one
starts an interpreter with ``-S`` (no site-packages), imports every
``repro`` module, runs the README quickstart briefly, and checks that each
loaded module comes from the standard library or from ``src/repro``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r'''
import importlib
import os
import pkgutil
import sys
import sysconfig

import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.__main__":  # runs argparse on import
        importlib.import_module(info.name)

from repro import Hook, Machine, set_a
from repro.apps import RocksDbServer
from repro.policies import ROUND_ROBIN
from repro.workload import GET_ONLY, OpenLoopGenerator

machine = Machine(set_a(), seed=1)
app = machine.register_app("rocksdb", ports=[8080])
server = RocksDbServer(machine, app, 8080, num_threads=6)
app.deploy_policy(ROUND_ROBIN, Hook.SOCKET_SELECT,
                  constants={"NUM_THREADS": 6})
gen = OpenLoopGenerator(machine, 8080, rate_rps=400_000, mix=GET_ONLY,
                        duration_us=5_000).start()
server.response_sink = gen.deliver_response
machine.run()
assert gen.latency.count > 0 and gen.latency.p99() > 0.0

paths = sysconfig.get_paths()
def real(p):
    return os.path.realpath(p) + os.sep
allowed = [real(paths["stdlib"]), real(paths["platstdlib"]),
           real(repro.__path__[0])]
denied = [real(paths["purelib"]), real(paths["platlib"])]
for name, module in sorted(sys.modules.items()):
    path = getattr(module, "__file__", None)
    if path is None:  # built-in or namespace module
        continue
    path = os.path.realpath(path)
    if (not any(path.startswith(d) for d in allowed)
            or any(path.startswith(d) for d in denied)):
        print("OUTSIDE", name, path)
'''


def test_repro_imports_and_runs_without_site_packages():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "OUTSIDE" not in proc.stdout, proc.stdout
