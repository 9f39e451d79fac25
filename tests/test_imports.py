"""scipy is imported on first use: dense work never loads it.

Each check runs in a fresh interpreter, because this one has scipy loaded.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import purple
from purple.data import write_dataset
from purple.gauss import GaussSynthConfig, generate_gauss

SRC = str(Path(purple.__file__).resolve().parent.parent)


def scipy_modules_after(code: str, *argv: str) -> list[str]:
    """The ``scipy`` modules loaded once ``code`` has run in a new interpreter."""
    script = textwrap.dedent(code) + textwrap.dedent("""
        import json, sys
        print(json.dumps(sorted(m for m in sys.modules
                                if m == "scipy" or m.startswith("scipy."))))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_dense_work_never_imports_scipy(tmp_path):
    loaded = scipy_modules_after("""
        import sys
        import purple, purple.cli
        from purple.baselines import fit_negative
        from purple.data import SplitSpec, load_dataset, split, write_dataset
        from purple.harness import SUITE_NAMES, make_suite, suite_datasets

        for name in SUITE_NAMES:
            if name != "semisynth":
                suite_datasets(make_suite(name, gauss_n=(300, 450)))
        (_, data), = suite_datasets(make_suite("label-frequency", sweep_values=(0.5,),
                                               gauss_n=(300, 450)))
        write_dataset(data, sys.argv[1])
        train, val, _ = split(load_dataset(sys.argv[1]), SplitSpec(n_repeats=1), 0)
        fit_negative(train, val)
    """, str(tmp_path / "d.csv"))
    assert loaded == []


def test_loading_a_pu_file_imports_only_scipy_sparse(tmp_path):
    path = str(tmp_path / "d.pu")
    write_dataset(generate_gauss(GaussSynthConfig(n_a=30, n_b=30), 0), path)
    loaded = scipy_modules_after("""
        import sys
        from purple.data import load_dataset

        assert load_dataset(sys.argv[1]).features.is_sparse
    """, path)
    assert "scipy.sparse" in loaded
    assert not [m for m in loaded if m.startswith("scipy.special")]


def test_dense_suite_with_t_tests_never_imports_scipy(tmp_path):
    loaded = scipy_modules_after("""
        import sys
        from purple.harness import emit_report, make_suite, run_suite
        from purple.model import TrainConfig

        report = run_suite(make_suite(
            "label-frequency", methods=("purple", "negative"), sweep_values=(0.5,),
            n_splits=2, gauss_n=(300, 450),
            train=TrainConfig(lambda_grid=(0.0,), max_epochs=100, patience=100)))
        assert report.t_tests and all("p" in t for t in report.t_tests), report.t_tests
        emit_report(report, sys.argv[1])
    """, str(tmp_path / "out"))
    assert loaded == []
