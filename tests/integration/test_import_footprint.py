"""What a fresh process loads: ``import repro`` and the everyday calls stay
off scipy, whose import costs more than the rest of the library's.

Each check runs in a new interpreter, since this test process has long
imported scipy for the reference comparisons.
"""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")


def _run(child: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_SCHEDULER", None)
    completed = subprocess.run([sys.executable, "-c", textwrap.dedent(child)],
                               env=env, capture_output=True, text=True,
                               timeout=120)
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def _loaded(prefix: str) -> str:
    return (f"print(sorted(name for name in sys.modules "
            f"if name == {prefix!r} or name.startswith({prefix + '.'!r})))")


def test_import_repro_loads_no_scipy():
    assert _run(f"""
        import sys
        import repro
        {_loaded("scipy")}
    """).strip() == "[]"


def test_in_memory_plots_and_correlations_load_no_scipy_stats():
    # Above the normality test's 20 values; "cat" has 3 categories, so it
    # is categorical and gets the uniformity test.
    assert _run(f"""
        import sys
        import numpy as np
        import repro
        rng = np.random.default_rng(0)
        df = repro.DataFrame({{
            "num": rng.normal(size=500),
            "skewed": rng.exponential(size=500),
            "cat": rng.choice(["a", "b", "c"], size=500).tolist(),
        }})
        repro.plot(df)
        repro.plot(df, "num")
        repro.plot(df, "cat")
        repro.plot_correlation(df)
        {_loaded("scipy.stats")}
    """).strip() == "[]"
