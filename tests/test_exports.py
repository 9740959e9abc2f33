import subprocess
import sys

import opnlab


def _fresh(script: str) -> str:
    """stdout of ``script`` run in a fresh interpreter, where no opnlab module
    is loaded yet."""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_export_resolves():
    missing = [name for name in opnlab.__all__ if not hasattr(opnlab, name)]
    assert missing == []
    assert len(set(opnlab.__all__)) == len(opnlab.__all__)


def test_importing_the_package_loads_no_submodule():
    script = "import sys, opnlab\nprint(sorted(m for m in sys.modules if m.startswith('opnlab')))"
    assert _fresh(script) == "['opnlab']\n"


def test_each_export_is_the_object_of_its_home_module():
    script = (
        "import importlib, opnlab\n"
        "for name in opnlab.__all__:\n"
        "    home = importlib.import_module('opnlab.' + opnlab._HOME[name])\n"
        "    value = vars(home)[name]\n"
        "    # the first access caches the value in the package\n"
        "    if getattr(opnlab, name) is not value or vars(opnlab)[name] is not value:\n"
        "        print(name)\n"
    )
    assert _fresh(script) == ""


def test_dir_lists_every_export():
    script = "import opnlab\nprint(sorted(set(opnlab.__all__) - set(dir(opnlab))))"
    assert _fresh(script) == "[]\n"


def test_an_unknown_attribute_raises_attribute_error():
    script = (
        "import opnlab\n"
        "for name in ('no_such_name', 'cli'):\n"
        "    try:\n"
        "        getattr(opnlab, name)\n"
        "    except AttributeError as exc:\n"
        "        print(exc)\n"
    )
    # a submodule not yet imported is no attribute either
    assert _fresh(script) == "".join(
        f"module 'opnlab' has no attribute {name!r}\n" for name in ("no_such_name", "cli")
    )


def test_a_star_import_binds_every_export():
    script = (
        "import opnlab\n"
        "from opnlab import *\n"
        "print([name for name in opnlab.__all__ if globals().get(name) is not getattr(opnlab, name)])"
    )
    assert _fresh(script) == "[]\n"
