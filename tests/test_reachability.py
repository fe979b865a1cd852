"""``benchmarks/reachability.py``: the AST index of ``src/`` functions,
the ``sys.setprofile`` recorder (in-process and in forked children) and
the unreached-function report, each on a tiny script of its own."""

import importlib.util
import os
import subprocess
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "benchmarks", "reachability.py")
UNITS = os.path.join(ROOT, "src", "repro", "units.py")


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reachability", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _units_index(reach) -> dict:
    """``{qualified name: file:line}`` of ``repro/units.py``'s functions."""
    import ast

    with open(UNITS) as f:
        found = reach.functions(ast.parse(f.read()), "units.py:", UNITS, {})
    return {name.split(":")[1]: key for key, name in found.items()}


def _record(tmp_path, script: str) -> str:
    path = tmp_path / "script.py"
    path.write_text(textwrap.dedent(script))
    out = str(tmp_path / "reached")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run(
        [sys.executable, TOOL, "--record", out, "--", str(path)],
        cwd=ROOT, env=env, check=True, timeout=120,
    )
    return out


class TestFunctionIndex:
    def test_qualified_names_and_decorator_lines(self, reach):
        """Methods, nested functions and async functions are named by
        their scope; a decorated one is keyed on its first decorator's
        line, where its code object starts."""
        import ast

        src = textwrap.dedent(
            """\
            def top():
                def inner():
                    pass

            class K:
                @staticmethod
                def method():
                    pass

                async def coro(self):
                    pass
            """
        )
        found = reach.functions(ast.parse(src), "m.py:", "/p/m.py", {})
        assert found == {
            "/p/m.py:1": "m.py:top",
            "/p/m.py:2": "m.py:top.inner",
            "/p/m.py:6": "m.py:K.method",
            "/p/m.py:10": "m.py:K.coro",
        }


class TestRecorder:
    def test_records_only_the_src_functions_called(self, reach, tmp_path):
        out = _record(
            tmp_path,
            """\
            from repro.units import UnitSystem

            def not_in_src():
                return UnitSystem().velocity_to_code(1.0)

            not_in_src()
            """,
        )
        lines = open(out).read().split()
        assert lines and all(w.startswith(os.path.join(ROOT, "src")) for w in lines)
        index = _units_index(reach)
        assert index["UnitSystem.velocity_to_code"] in lines
        assert index["UnitSystem.__post_init__"] in lines
        assert index["UnitSystem.time_to_code"] not in lines

    def test_a_forked_child_flushes_its_own_record(self, reach, tmp_path):
        """A child that leaves through ``os._exit`` (as process-executor
        workers do) writes ``OUT.<pid>`` with what it called."""
        out = _record(
            tmp_path,
            """\
            import os
            from repro.units import UnitSystem

            u = UnitSystem()
            pid = os.fork()
            if pid == 0:
                u.time_to_code(1.0)
                os._exit(0)
            os.waitpid(pid, 0)
            print(pid, file=open(os.path.join(os.path.dirname(__file__), "child"), "w"))
            """,
        )
        child = open(tmp_path / "child").read().strip()
        index = _units_index(reach)
        assert index["UnitSystem.time_to_code"] in open(f"{out}.{child}").read().split()
        assert index["UnitSystem.time_to_code"] not in open(out).read().split()


class TestReport:
    def test_lists_what_no_entry_point_reached(self, reach, tmp_path, monkeypatch, capsys):
        script = tmp_path / "entry.py"
        script.write_text(
            "from repro.units import UnitSystem\n"
            "UnitSystem().velocity_to_code(1.0)\n"
        )
        monkeypatch.setattr(reach, "entry_points", lambda tmp: iter([[str(script)]]))
        monkeypatch.setattr(sys, "argv", [TOOL])
        reach.main()
        text = capsys.readouterr().out
        unreached, modules = text.split("module: reached / defined")
        assert "units.py:UnitSystem.time_to_code" in unreached
        assert "units.py:UnitSystem.velocity_to_code" not in unreached
        n = len(_units_index(reach))
        assert f"  repro/units.py: 2 / {n}\n" in modules
