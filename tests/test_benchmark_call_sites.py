import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Call sites the program no longer has; the benchmark skips them, so their
# per-layer metrics read 0. The refresh reuses the previous epoch's eval
# logits, and the labeled-set distances come from one hop_distances call.
KNOWN_MISSING = {
    ("reachmix.trainer", "predict_probs"),
    ("reachmix.diagnostics", "bfs_distances"),
}


def test_benchmark_call_sites_exist():
    """A traced name that is deleted or renamed fails here instead of
    silently zeroing a per-layer benchmark metric."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = {(module.__name__, attr) for module, attr, _, _ in tracer.CALL_SITES
               if not hasattr(module, attr)}
    assert missing == KNOWN_MISSING
