"""What a CLI call loads before and while it works.

Every CLI call pays for the modules ``import thicket.cli`` pulls in.
The value types are plain slotted classes, so ``dataclasses`` (with
``inspect``, ``ast`` and ``dis``) stays unloaded, and ``derive_seed``
loads ``hashlib`` on its first call, so only seeded commands set up
OpenSSL. Each check runs in a fresh isolated interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

UNNEEDED = ("dataclasses", "inspect", "hashlib", "_hashlib")

# runs each command line through cli.main and prints, after each, which
# of UNNEEDED the interpreter has loaded
SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import thicket.cli as cli
unneeded = json.loads(sys.argv[2])
loaded = [[m for m in unneeded if m in sys.modules]]
for argv in json.loads(sys.argv[3]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, (argv, code)
    loaded.append([m for m in unneeded if m in sys.modules])
print(json.dumps(loaded))
"""


def loaded_after(commands, cwd):
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SCRIPT, str(SRC), json.dumps(UNNEEDED), json.dumps(commands)],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_unseeded_commands_load_neither_dataclasses_nor_hashlib(tmp_path):
    (tmp_path / "c.json").write_text(
        '{"domain":["a","b","c"],"mu":["1/3","1/3","1/3"],'
        '"concepts":{"c0":"000","c1":"100","c2":"110","c3":"011"}}'
    )
    unseeded = [
        ["learn-exact", "--class", "c.json", "--target", "c0"],
        ["compress", "--class", "c.json", "--verify"],
        ["verify", "--class", "c.json"],
        ["ldim", "--class", "c.json"],
    ]
    seeded = ["learn", "--class", "c.json", "--target", "c1", "--trials", "3"]
    on_import, *after, last = loaded_after([*unseeded, seeded], tmp_path)
    assert on_import == []
    assert after == [[]] * len(unseeded)
    # the first seeded command loads hashlib, and nothing else listed
    assert set(last) == {"hashlib", "_hashlib"}
