#!/usr/bin/env python3
"""Self-test of the benchmark's stack sampler and layer folding.

    python3 perfbench/tests/test_sampler.py            # sampler only
    python3 perfbench/tests/test_sampler.py --workloads

The first check runs `perfbench selftest`: one thread spins in
perfbench::selftest::spin while another sleeps, and at least 90% of the
spinning thread's samples must fold into the `selftest` layer. With
--workloads it then makes a traced run of every workload through run.py
and requires that named layers cover at least 90% of sampled busy time,
printing each run's tracing overhead.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import run  # noqa: E402


def check_known_namespace():
    exe = run.build()
    workdir = run.build_dir().parent / "perfbench-selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    p = subprocess.run([str(exe), "selftest", "--seconds", "2",
                        "--workdir", str(workdir)],
                       capture_output=True, text=True, check=True)
    result = json.loads(p.stdout.strip().splitlines()[-1])
    _, per_role, total = layers.fold(str(workdir / "samples.txt"), str(exe))
    spin = per_role["spin"]
    share = spin["selftest"] / max(1, sum(spin.values()))
    sleep_busy = sum(v for k, v in per_role["sleep"].items() if k != "idle")
    print(f"selftest: {total} samples, spin thread {dict(spin)}, "
          f"share in perfbench::selftest {share:.3f}, "
          f"sleeping thread busy samples {sleep_busy}")
    assert result["dropped"] == 0, "sample buffer overflowed"
    assert share >= 0.90, f"only {share:.1%} of the busy loop's samples"
    assert sleep_busy <= 0.05 * sum(per_role["sleep"].values()), \
        "a sleeping thread was charged busy time"


def check_workload_coverage():
    for workload in run.WORKLOADS:
        p = subprocess.run([sys.executable, str(HERE / "run.py"),
                            "--workload", workload, "--seed", "1",
                            "--seconds", "5", "--trace", "1"],
                           capture_output=True, text=True)
        assert p.returncode == 0, f"{workload}: run.py exited {p.returncode}"
        metrics = json.loads(p.stdout.strip().splitlines()[-1])["metrics"]
        coverage = metrics["trace.coverage"]["value"]
        overhead = metrics["trace.overhead"]["value"]
        print(f"{workload}: coverage {coverage:.3f}, "
              f"tracing overhead {overhead:+.3f}")
        assert coverage >= 0.90, f"{workload}: named layers cover {coverage:.1%}"


if __name__ == "__main__":
    check_known_namespace()
    if "--workloads" in sys.argv[1:]:
        check_workload_coverage()
    print("ok")
