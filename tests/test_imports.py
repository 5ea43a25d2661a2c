"""Which mckayq modules a process loads.

`import mckayq` loads no submodule, and each CLI subcommand loads only
the layers it uses.  Each command runs in a fresh interpreter, so the
modules it loads are not hidden by earlier imports.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import mckayq
from mckayq.catalog import dicyclic_table, natural_rep
from mckayq.chartab import table_to_json
from mckayq.mckay import McKayQuiver

TABLE = {"chartab", "cyclotomic", "linalg", "polynomials"}
QUIVER = {"galois", "linalg", "obstructions", "polynomials", "quiver"}


def loaded_by(code: str, cwd) -> set[str]:
    """The mckayq submodules loaded after `code` runs in a fresh interpreter."""
    code += ("\nimport sys\nprint(' '.join(m.split('.', 1)[1] for m in sys.modules"
             " if m.startswith('mckayq.')))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("code", ["import mckayq", "import mckayq.cli"])
def test_import_loads_no_layer(tmp_path, code):
    assert loaded_by(code, tmp_path) <= {"cli"}


@pytest.mark.parametrize("argv, modules", [
    (["table", "BD:12"], TABLE | {"catalog"}),
    (["table", "--table", "t.json"], TABLE),
    (["verify", "t.json"], TABLE),
    (["quiver", "BD:12"], TABLE | {"catalog", "mckay", "quiver"}),
    (["quiver", "--table", "t.json", "--rep", "2"], TABLE | {"mckay", "quiver"}),
    (["analyze", "q.json"], QUIVER),
    (["check-mckay", "q.json"], QUIVER),
], ids=["table", "table-file", "verify", "quiver", "quiver-file", "analyze",
        "check-mckay"])
def test_each_subcommand_loads_only_its_layers(tmp_path, argv, modules):
    t = dicyclic_table(12)
    (tmp_path / "t.json").write_text(json.dumps(table_to_json(t)))
    q = McKayQuiver(t, natural_rep(t)).to_quiver()
    (tmp_path / "q.json").write_text(json.dumps(q.to_json()))
    code = f"from mckayq.cli import main\nassert main({argv!r}) == 0"
    assert loaded_by(code, tmp_path) == modules | {"cli"}


def test_public_names_resolve_to_their_owners():
    for name in mckayq.__all__:
        module = "mckayq." + mckayq._OWNER[name]
        value = getattr(mckayq, name)
        assert value is getattr(import_module(module), name), name
        assert getattr(value, "__module__", module) == module, name
    assert set(mckayq.__all__) <= set(dir(mckayq))
    namespace = {}
    exec("from mckayq import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(mckayq.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mckayq.no_such_name
