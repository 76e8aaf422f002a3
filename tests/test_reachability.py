"""The package holds what a command runs.

One fresh interpreter runs every command under `sys.setprofile` and
`threading.setprofile` (the identity suite's worker thread runs kernels too)
and records each code object that is called.  The public functions and
methods of `schrostab.*` that none of those runs reaches must be exactly the
allow-list below, so a new function that only tests call fails here, and so
does an entry that has become stale.  Methods that `dataclass` generates are
not the package's code and are not counted.

Run as a script, `python test_reachability.py OUTDIR` is that interpreter:
it writes `reachability.json` to OUTDIR, with relative outputs going there too.
"""

import functools
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import threading

import click

import schrostab
from schrostab.cli import main

# Public functions that no command calls, each with why it stays in the package.
ALLOWED_UNREACHED = {
    "spectral.eigenpairs": "the benchmark tracer binds it",
    "spectral.spectral_norm_estimate": "the benchmark tracer binds it",
    "spectral.resolvent_sweep": "the benchmark's own tests call it",
    "systems.assemble_generator": "the benchmark tracer binds it",
    "identities.boundary_multiplier_gap_y": "the benchmark tracer binds it",
    "identities.cross_term_gap": "the benchmark tracer binds it",
    "identities.claim_functionals_gap": "the benchmark tracer binds it",
    "continuous.characteristic_roots": "the benchmark's spectrum-ladder check calls it",
}

# (argv, exit code): every command, each scheme, both formats, every preset, --svg,
# --perturb and a refused resolvent input.
COMMANDS = [
    (["spectrum", "--scheme", "both", "--n-list", "1,7", "--format", "json",
      "--out", "both.json", "--svg", "both.svg"], 0),
    (["spectrum", "--scheme", "classical", "--n-list", "3", "--out", "classical.csv"], 0),
    (["spectrum", "--scheme", "order-reduction", "--n-list", "3", "--out", "or.csv"], 0),
    (["resolvent", "--scheme", "both", "--n-list", "3", "--out", "res.csv"], 0),
    (["resolvent", "--scheme", "both", "--n-list", "3", "--format", "json",
      "--out", "res.json"], 0),
    (["resolvent", "--scheme", "classical", "--n-list", "1023", "--k", "0.01",
      "--out", "refused.csv"], 2),
    (["simulate", "--scheme", "order-reduction", "--n", "15", "--t-final", "0.02",
      "--preset", "random", "--out", "random.csv"], 0),
    (["simulate", "--scheme", "classical", "--n", "15", "--t-final", "0.02",
      "--preset", "smooth", "--out", "smooth.csv"], 0),
    (["simulate", "--n", "15", "--t-final", "0.02", "--preset", "sine", "--out", "sine.csv"], 0),
    (["verify", "--samples", "4", "--json"], 0),
    (["verify", "--samples", "4", "--perturb", "1e-3"], 1),
]


def _function(member):
    """The function behind a class member, a property or a click command, else None."""
    if isinstance(member, click.Command):
        member = inspect.unwrap(member.callback)
    elif isinstance(member, property):
        member = member.fget
    elif isinstance(member, functools.cached_property):
        member = member.func
    elif isinstance(member, (classmethod, staticmethod)):
        member = member.__func__
    return member if inspect.isfunction(member) else None


def _public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def public_functions() -> dict:
    """'module.name' or 'module.Class.method' -> code, for every public function and
    method whose code sits in its module's own file (so not one `dataclass` wrote)."""
    found = {}
    for info in pkgutil.iter_modules(schrostab.__path__):
        module = importlib.import_module(f"schrostab.{info.name}")
        members = []
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            members.append((name, obj))
            if inspect.isclass(obj):
                members += [(f"{name}.{attr}", m) for attr, m in vars(obj).items() if _public(attr)]
        for qualname, member in members:
            fn = _function(member)
            if fn is not None and fn.__code__.co_filename == module.__file__:
                found[f"{info.name}.{qualname}"] = fn.__code__
    return found


def _profile_commands(outdir: str):
    seen = {}  # id -> code; holding each code keeps its id from being reused

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen[id(code)] = code

    exit_codes = []
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        for argv, _ in COMMANDS:
            try:
                main(args=argv, prog_name="schrostab")
            except SystemExit as exc:
                exit_codes.append(exc.code)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    unreached = sorted(name for name, code in public_functions().items() if id(code) not in seen)
    with open(os.path.join(outdir, "reachability.json"), "w") as fh:
        json.dump({"exit_codes": exit_codes, "unreached": unreached}, fh)


def test_only_allow_listed_public_functions_go_unreached(tmp_path):
    env = {**os.environ, "SCHROSTAB_OUTDIR": str(tmp_path)}
    result = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    with open(tmp_path / "reachability.json") as fh:
        report = json.load(fh)
    assert report["exit_codes"] == [code for _, code in COMMANDS]
    unreached = set(report["unreached"])
    dead = sorted(unreached - ALLOWED_UNREACHED.keys())
    stale = sorted(ALLOWED_UNREACHED.keys() - unreached)
    assert not dead, f"public functions that no command calls: {dead}"
    assert not stale, f"allow-listed functions that a command now calls: {stale}"


def test_public_functions_cover_methods_properties_and_commands():
    found = public_functions()
    for name in ("grid.Mesh.matrices", "grid.Mesh.state_size", "grid.Bidiagonal.__matmul__",
                 "systems.SemiDiscreteSystem.__post_init__", "cli.verify", "cli.main"):
        assert name in found
    for name in ("grid.Mesh.__init__", "grid._d_inner", "cli.simulate"):
        assert name not in found


if __name__ == "__main__":
    _profile_commands(sys.argv[1])
