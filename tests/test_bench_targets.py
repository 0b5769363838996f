"""Every function the benchmark's traced run wraps still exists, and every
task of its workloads still runs and passes its check.

perfbench/tracing.py and perfbench/workloads.py are loaded from their files,
not edited or imported as a package.  Each TARGETS entry is resolved as
Tracer.install resolves it: the module as an attribute of the dieumod
package, then the attribute path, the last name read with vars() on its
owner.  A source change that removes or renames a traced name fails here,
in well under a second; one that breaks a name the workloads call fails in
`test_small_workloads_pass_their_checks`, in about a second.
"""

import importlib.util
from pathlib import Path

import dieumod
from dieumod import verify  # noqa: F401  (Tracer.install imports it too)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load("tracing")


def test_every_target_resolves():
    targets = load_tracing().TARGETS
    assert targets
    missing = []
    for modname, path, name in targets:
        owner = getattr(dieumod, modname, None)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(name)
    assert not missing, f"traced names missing from src: {missing}"


def test_span_names_unique():
    names = [name for _, _, name in load_tracing().TARGETS]
    assert len(names) == len(set(names))


def test_small_workloads_pass_their_checks():
    workloads = load("workloads")
    failed = []
    for name in ("invariants", "verify"):
        for task in workloads.build(name, 1, "small"):
            if not task.check(task.call()):
                failed.append(f"{name}:{task.label}")
    assert not failed, f"workload checks failed: {failed}"
