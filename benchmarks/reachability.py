"""``PYTHONPATH=src python benchmarks/reachability.py`` runs every example,
``pytest benchmarks --ignore=benchmarks/e2e --benchmark-disable`` and each
tracked workload's ``workload.py --quick`` run in a subprocess under a
stdlib ``sys.setprofile`` recorder (forked process-executor workers flush
their own record at exit), then prints the ``src/`` functions none of them
called and a per-module count.  It takes minutes."""
import ast, glob, json, os, runpy, subprocess, sys, tempfile, threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)

def record(out: str, argv: list) -> None:
    """Run ``argv`` (a script or ``-m module``, then its arguments) and
    write the ``file:line`` of every ``src/`` code object it called."""
    seen, dest = set(), [out]
    def flush():
        with open(dest[0], "w") as f:
            f.writelines(f"{c.co_filename}:{c.co_firstlineno}\n" for c in seen
                         if c.co_filename.startswith(SRC))
    os.register_at_fork(after_in_child=lambda: dest.__setitem__(0, f"{out}.{os.getpid()}"))
    real_exit = os._exit
    os._exit = lambda code: (sys.setprofile(None), flush(), real_exit(code))
    prof = lambda frame, event, arg: event == "call" and seen.add(frame.f_code)
    sys.argv = argv[1:] if argv[0] == "-m" else argv
    threading.setprofile(prof)
    sys.setprofile(prof)
    try:
        if argv[0] == "-m":
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.path.insert(0, os.path.dirname(argv[0]))
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit:
        pass
    finally:
        sys.setprofile(None), flush()

def entry_points(tmp: str):
    fast = {"thermal_quench.py": ["--fast"], "ensemble_quench.py": ["--fast"], "export_vtk.py": [tmp]}
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
        yield [path] + fast.get(os.path.basename(path), [])
    yield ["-m", "pytest", "benchmarks", "--ignore=benchmarks/e2e", "--benchmark-disable", "-q"]
    for w in json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["workloads"]:
        yield [os.path.join(ROOT, "benchmarks", "e2e", "workload.py"), "--workload", w["name"],
               "--seed", "11", "--seconds", "0.5", "--trace", "0", "--quick", "--root", tmp]

def functions(node, prefix: str, path: str, found: dict) -> dict:
    """``{file:line: qualified name}`` of the functions defined under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, FUNCS):  # code objects start at the first decorator
            line = min([d.lineno for d in child.decorator_list] + [child.lineno])
            found[f"{path}:{line}"] = prefix + child.name
        scoped = isinstance(child, FUNCS + (ast.ClassDef,))
        functions(child, prefix + child.name + "." if scoped else prefix, path, found)
    return found

def main() -> None:
    if sys.argv[1:2] == ["--record"]:
        return record(sys.argv[2], sys.argv[4:])  # --record OUT -- ARGV...
    reached, env = set(), dict(os.environ, PYTHONPATH=SRC)
    with tempfile.TemporaryDirectory() as tmp:
        for k, argv in enumerate(entry_points(tmp)):
            out = os.path.join(tmp, f"reached{k}")
            subprocess.run([sys.executable, __file__, "--record", out, "--", *argv], cwd=ROOT, env=env)
            reached.update(w for part in glob.glob(out + "*") for w in open(part).read().split())
    found, modules = {}, {}
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        functions(ast.parse(open(path).read()), os.path.relpath(path, SRC) + ":", path, found)
    print("unreached functions:")
    for key, name in sorted(found.items(), key=lambda kv: kv[1]):
        mod, hit = name.split(":")[0], key in reached
        modules[mod] = [a + b for a, b in zip(modules.get(mod, (0, 0)), (hit, 1))]
        if not hit:
            print(" ", name)
    print("\nmodule: reached / defined")
    print("\n".join(f"  {m}: {r} / {n}" for m, (r, n) in sorted(modules.items())))

if __name__ == "__main__":
    main()
