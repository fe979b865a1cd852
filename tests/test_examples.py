"""Smoke tests: every example script imports and its fast path runs.

The heavy examples (full quench, Z sweeps) are exercised in reduced form;
the point is that the documented entry points stay runnable.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestExamplesImportable:
    @pytest.mark.parametrize(
        "name",
        [
            "quickstart",
            "spitzer_resistivity",
            "thermal_quench",
            "amr_meshes",
            "multigrid_species",
            "gpu_roofline",
            "performance_tables",
            "export_vtk",
            "ensemble_quench",
        ],
    )
    def test_import(self, name):
        mod = load(name)
        assert hasattr(mod, "main")


class TestExamplesRun:
    def test_quickstart(self, capsys):
        load("quickstart").main()
        out = capsys.readouterr().out
        assert "conservation + relaxation" in out
        assert "anisotropy" in out

    def test_amr_meshes(self, capsys):
        load("amr_meshes").main()
        out = capsys.readouterr().out
        assert "Fig. 3" in out and "mesh inventory" in out

    def test_gpu_roofline(self, capsys):
        load("gpu_roofline").main()
        out = capsys.readouterr().out
        assert "Jacobian" in out and "roofline" in out.lower()

    def test_export_vtk(self, tmp_path, capsys):
        load("export_vtk").main(str(tmp_path / "vtk"))
        out = capsys.readouterr().out
        assert "mesh.vtk" in out
        assert (tmp_path / "vtk" / "driven.vtk").exists()

    def test_ensemble_quench_resumes_from_its_ledger(self, tmp_path, capsys):
        """The README's run-then-``--resume`` pair, sharing one ledger
        directory: the second run finds every member done."""
        mod = load("ensemble_quench")
        ledger = str(tmp_path / "ledger")
        first = mod.main(fast=True, checkpoint_dir=ledger)
        resumed = mod.main(fast=True, resume=True, checkpoint_dir=ledger)
        assert [r.status for r in first] == ["ok"] * 4
        assert [r.state_sha256 for r in resumed] == [r.state_sha256 for r in first]
        assert capsys.readouterr().out.count("4/4 members completed") == 2

    def test_render_mesh_helper(self):
        amr = load("amr_meshes")
        from repro.amr import landau_mesh
        from repro.core import electron

        pic = amr.render_mesh(landau_mesh([electron().thermal_velocity]), 24, 12)
        assert len(pic.splitlines()) == 12
        # refinement depth shows up near the origin rows
        assert any(c in pic for c in "12")
