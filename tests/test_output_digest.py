"""The pipeline's JSON output on the benchmark shapes, pinned by digest.

`scripts/output_digest.py` serialises partition, witness, fixing trace and
verdicts per instance; the values below were computed by an earlier build
and are the reference, so a mismatch means some output byte changed.
"""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"

# seed 7, the first 8 instances of every workload (each planar-extend shape
# once); "rational" was computed before the LP read its rows from the frame,
# "d3-extend" before the LP membership rule moved into `hull_contains`
PINNED = {
    "planar-scale": "5b4838e1e426be097a8b4dd3349427924c9a9ef1a8d89309946e8e8a36ee2216",
    "planar-extend": "d4fbc2fd2bd75c311a78ed2cf780e64f387935055e110411c0cf597b2ccdf519",
    "bruteforce-d3": "5521a7a988d9fe873cc8465c95d376c1b4d3aa8385897553e8422856bb60fc25",
    "bruteforce-planar": "73dfa7b9cf30d6c4388f5e1aed53f7a1ead991d135ef78d3be61e855f8848997",
    "combined": "d1a58103ed16d0884b3cba41dc60bccde689472f8ba414b6483333c9dbc5fbc1",
    "rational": "7ea831ea5b962c697c3a178c9be8cc0759c7bb277a54a9272ad40f59b6fc8a35",
    "d3-extend": "d30ae295b1b78c8cc68886b9b1ad0f2aa7161a3ed8a61149172a7a607704e82c",
}


def test_output_digest_is_pinned():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.digests(7, 8) == PINNED
