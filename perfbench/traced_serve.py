"""Launch ``repro serve`` with spans recorded around each layer.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced_serve.py SPANS.json serve --port 0 ...

Everything after the spans path goes to :func:`repro.cli.main`
unchanged.  Before the CLI runs, each public function in :data:`TARGETS`
is replaced, where its caller looks it up, by a wrapper that records a
span (:mod:`spans`) and otherwise only calls through.  The spans are
written to ``SPANS.json`` once, when the server exits; SIGTERM is turned
into a normal exit so the server's own shutdown runs first.  A target
the program no longer has is reported on stderr and skipped.
"""

from __future__ import annotations

import importlib
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import SpanRecorder  # noqa: E402


def _batch_len(_self, values, *args, **kwargs) -> int:
    try:
        return len(values)
    except TypeError:
        return 0


#: ``(module, attribute path, span name, work counter)``.  Each entry is
#: patched on the object its callers resolve it through: methods on
#: their class, module functions in the module that calls them.
TARGETS = (
    ("repro.resilience.journal", "ItemJournal.append", "journal.append", None),
    ("repro.resilience.journal", "ItemJournal.sync", "journal.sync", None),
    ("repro.resilience.journal", "ItemJournal.compact", "journal.compact", None),
    ("os", "fsync", "fsync", None),
    ("repro.resilience.store", "CheckpointStore.ingest", "store.ingest", None),
    ("repro.resilience.store", "CheckpointStore.save", "store.save", None),
    ("repro.resilience.store", "CheckpointStore.recover", "store.recover", None),
    ("repro.resilience.store", "state_dict", "checkpoint.state_dict", None),
    ("repro.resilience.store", "restore", "checkpoint.restore", None),
    ("repro.core.min_merge", "MinMergeHistogram.extend", "kernel.extend",
     _batch_len),
    ("repro.core.min_increment", "MinIncrementHistogram.extend",
     "kernel.extend", _batch_len),
    ("repro.core.pwl_min_merge", "PwlMinMergeHistogram.extend",
     "kernel.extend", _batch_len),
    ("repro.core.min_merge", "MinMergeHistogram.histogram",
     "kernel.histogram", None),
    ("repro.core.min_increment", "MinIncrementHistogram.histogram",
     "kernel.histogram", None),
    ("repro.core.pwl_min_merge", "PwlMinMergeHistogram.histogram",
     "kernel.histogram", None),
    ("repro.service.engine", "StreamEngine.append", "engine.append", None),
    ("repro.service.engine", "StreamEngine.histogram", "engine.histogram",
     None),
    ("repro.service.wire", "decode_append_payload", "wire.decode", None),
    ("repro.service.wire", "decode_values", "wire.decode", None),
    ("repro.service.wire", "encode_json_frame", "wire.encode", None),
    ("repro.core.histogram", "Histogram.to_dict", "histogram.to_dict", None),
)


def install(recorder: SpanRecorder) -> list:
    """Patch every target; returns the ``module:attr`` entries skipped."""
    missing = []
    for module_name, path, span, items in TARGETS:
        *parents, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}:{path}")
            continue
        setattr(owner, attr, recorder.wrap(span, original, items=items))
    return missing


def _terminate(_signum, _frame) -> None:
    sys.exit(0)


def main(argv) -> int:
    if len(argv) < 2:
        print(
            "usage: traced_serve.py SPANS.json serve [repro serve options]",
            file=sys.stderr,
        )
        return 2
    out_path, cli_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    missing = install(recorder)
    if missing:
        print(f"traced_serve: not found, untraced: {', '.join(missing)}",
              file=sys.stderr, flush=True)
    signal.signal(signal.SIGTERM, _terminate)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
