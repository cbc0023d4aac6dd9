"""What a process imports before it does any work.

``scipy.optimize``'s package init and networkx each take longer to import
than most of the library; only the HiGHS binding (which loads its extension
file directly) and the Waxman generator (which imports networkx inside the
function) use them.  Every check runs in a fresh interpreter, because the
test process itself has imported both long before.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.campaign import CampaignSpec, CampaignStore

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Imported by nothing at module level (lintkit REP503).
NEVER_AT_IMPORT = ("scipy.optimize", "networkx")


def run_fresh(args):
    """``(stdout, modules imported)`` of ``python -X importtime *args``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env=env,
        check=False,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "imported package" not in line
    }
    return proc.stdout, imported


def loaded(imported, package):
    return sorted(name for name in imported if name == package or name.startswith(package + "."))


@pytest.mark.parametrize(
    "module",
    [
        "repro.experiments.runner",
        "repro.campaign",
        "repro.simulator",
        "repro.service",
        # These two load the whole stack: every solver, scheme and builder.
        "repro.scenario",
        "repro.campaign.run",
    ],
)
def test_importing_a_layer_loads_neither_scipy_optimize_nor_networkx(module):
    _, imported = run_fresh(["-c", f"import {module}"])
    assert module in imported
    for package in NEVER_AT_IMPORT:
        assert package not in imported, module


def test_campaign_status_help_loads_no_solver():
    out, imported = run_fresh(["-m", "repro.experiments", "campaign-status", "--help"])
    assert "campaign-status" in out
    for package in (*NEVER_AT_IMPORT, "repro.optim", "repro.scenario"):
        assert loaded(imported, package) == [], package


def test_the_read_commands_load_the_store_not_the_scenario_stack(tmp_path):
    """``campaign-status`` and ``campaign-report`` on a real store stop at the
    store and the report layer."""
    example = os.path.join(REPO_ROOT, "examples", "campaign_geant_grid.json")
    with open(example, encoding="utf-8") as handle:
        spec = CampaignSpec.from_dict(json.load(handle))
    store_path = str(tmp_path / "grid.sqlite")
    with CampaignStore(store_path) as store:
        store.register_campaign(spec, spec.expand())
    for command in ("campaign-status", "campaign-report"):
        out, imported = run_fresh(["-m", "repro.experiments", command, "--store", store_path])
        assert spec.name in out, command
        assert "repro.campaign.store" in imported
        for package in (*NEVER_AT_IMPORT, "repro.optim", "repro.scenario", "repro.routing"):
            assert loaded(imported, package) == [], (command, package)


def test_the_service_loads_the_scenario_stack_with_its_first_scenario_request():
    """``serve`` answers ``/healthz`` and store reads before any solver is
    loaded; the handlers that run scenarios import them."""
    script = (
        "import sys\n"
        "from repro.service import handlers\n"
        "print(any(name.startswith('repro.scenario') for name in sys.modules))\n"
        "handlers.components_payload()\n"
        "print('repro.scenario.components' in sys.modules)\n"
    )
    out, imported = run_fresh(["-c", script])
    assert out.split() == ["False", "True"]
    assert "repro.optim" in imported and "scipy.optimize" not in imported


def test_listing_the_figures_loads_no_figure():
    out, imported = run_fresh(["-m", "repro.experiments", "--list"])
    assert "fig7" in out.split()
    for package in ("numpy", "repro.scenario", "repro.experiments.fig7"):
        assert loaded(imported, package) == [], package


def test_a_package_re_export_is_imported_on_first_use():
    """``repro``, ``repro.experiments``, ``repro.campaign`` and
    ``repro.analysis`` import a re-exported name from its submodule when it
    is first asked for, and keep it."""
    script = (
        "import sys, repro.experiments\n"
        "assert 'repro.experiments.fig7' not in sys.modules\n"
        "from repro.experiments import run_fig7\n"
        "import repro.experiments.fig7 as fig7\n"
        "assert run_fig7 is fig7.run_fig7 is repro.experiments.run_fig7\n"
        "assert 'run_fig7' in vars(repro.experiments)\n"
        "from repro import Topology\n"
        "from repro.topology.base import Topology as defined\n"
        "assert Topology is defined\n"
        "try:\n"
        "    repro.experiments.run_fig99\n"
        "except AttributeError as error:\n"
        "    print(error)\n"
    )
    out, _ = run_fresh(["-c", script])
    assert out.strip() == "module 'repro.experiments' has no attribute 'run_fig99'"
