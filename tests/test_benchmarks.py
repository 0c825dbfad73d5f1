"""The sizes script under benchmarks/: one small size per layer, end to end."""

import importlib.util
import json
import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks", "sizes.py")
SMALL = ["molecular18", "k4-star-64", "select-star-1024", "schedule-star-1024", "emit-star-1024",
         "resources", "cli-resources"]


def test_sizes_script_writes_one_document_with_a_row_per_size():
    spec = importlib.util.spec_from_file_location("sizes", SCRIPT)
    sizes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sizes)
    run = subprocess.run([sys.executable, SCRIPT, "--repeats", "1", "--sizes", ",".join(SMALL)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    doc = json.loads(run.stdout)
    assert doc["host"]["cpus"] and "revision" in doc and doc["repeats"] == 1 and doc["seeds"] == sizes.SEEDS
    rows = {row["size"]: row for row in doc["rows"]}
    assert list(rows) == SMALL
    assert {row["layer"] for row in rows.values()} == {layer for layer, _ in sizes.SIZES.values()}
    assert [json.loads(line)["size"] for line in run.stderr.splitlines()] == SMALL
    for row in rows.values():
        assert row["best_s"] <= row["first_s"] and row["peak_rss_mb"] > 0 and len(row["sha256"]) == 64
    assert rows["molecular18"]["exit"] == 0
    assert rows["molecular18"]["sha256"] == "ee052f6fca15209ed007e6c7340c428daa7d79a7d5b8327516443132adb99457"
    assert rows["k4-star-64"]["pass"] is True and rows["k4-star-64"]["words"] == 64
    # a circuit's digest is of its text, so building it and emitting it agree
    assert rows["select-star-1024"]["sha256"] == rows["emit-star-1024"]["sha256"]
    assert rows["resources"]["sha256"] == rows["cli-resources"]["sha256"]


def test_sizes_script_names_an_unknown_size():
    run = subprocess.run([sys.executable, SCRIPT, "--sizes", "molecular18,molecular19"],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and "unknown sizes: molecular19" in run.stderr and not run.stdout
