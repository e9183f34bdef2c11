"""Processes that run the program for the benchmark.

``run.py`` starts each of these with every ``REPRO_*`` variable removed
from the environment and ``src`` on ``PYTHONPATH``; each prints one JSON
line as its last line of output::

    python3 perfbench/child.py build --seed S --topology-seed T [--trace] [--spans FILE]
    python3 perfbench/child.py classify --seed S --scale default|small --seconds R
                               [--max-rounds N] [--trace] [--spans FILE]
    python3 perfbench/child.py daemon [--trace] [--spans FILE]

``build`` times one ``Study.run`` in a fresh process, as ``repro study``
does, with the reference computation of ``reference.py`` timed twice
before the program is imported and twice after the build.  ``classify`` builds a
passive study (set-up), then repeats cold seven-layer gradings and
temporal passes for ``--seconds``, timing the reference computation on
every CPU at once before the first round and after each.  ``daemon``
runs ``repro serve`` on an ephemeral port until SIGTERM.  With
``--trace`` the layer wrappers of ``tracing.py`` are installed around
the measured calls and the spans are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from reference import reference_on_cpus, reference_s  # noqa: E402
from tracing import LayerTracer, summarize  # noqa: E402


def digest(value) -> str:
    """Digest of a snapshot string or of JSON-able counts."""
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_program() -> float:
    """Seconds to import what ``repro study`` needs before it builds."""
    start = time.perf_counter()
    import repro.cli  # noqa: F401
    import repro.core.pipeline  # noqa: F401
    import repro.serve.protocol  # noqa: F401

    return time.perf_counter() - start


def effective_settings(results=None) -> Dict[str, object]:
    """The execution settings the program chose on its own."""
    settings: Dict[str, object] = {}
    engine = getattr(results, "engine", None)
    settings["backend"] = getattr(engine, "backend", None)
    try:
        from repro.perf.parallel import ParallelClassifier

        settings["pool_workers"] = getattr(ParallelClassifier(), "workers", None)
    except (ImportError, TypeError, ValueError):
        settings["pool_workers"] = None
    try:
        from repro.faults.storage import default_durability

        settings["durability"] = default_durability()
    except (ImportError, ValueError):
        settings["durability"] = None
    return settings


def versions() -> Dict[str, str]:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__}


def write_spans(path: Optional[str], windows: Dict[str, list]) -> None:
    if path is None:
        return
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {name: [span.as_dict() for span in spans] for name, spans in windows.items()},
            handle,
        )


def counts_of(figure1) -> Dict[str, Dict[str, int]]:
    """Figure-1 label counts in the shape ``StudyResults.figure1_counts`` uses."""
    from repro.core.classification import DecisionLabel
    from repro.core.pipeline import FIGURE1_LAYERS

    return {
        layer: {label.value: figure1[layer].counts[label] for label in DecisionLabel}
        for layer in FIGURE1_LAYERS
        if layer in figure1
    }


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------


#: Passes of the reference computation before and after a build: one
#: pass is ~0.3 s, and the build's own speed is an average over seconds.
BUILD_REFERENCE_PASSES = 2


def cmd_build(args) -> Dict[str, object]:
    refs = [reference_s() for _ in range(BUILD_REFERENCE_PASSES)]
    import_s = import_program()
    import repro.topogen.generator as topogen
    from repro.core.pipeline import Study
    from repro.serve.protocol import build_study_config

    # Layer entry points are looked up on their modules at call time,
    # so the wrappers of a traced run see these calls too.
    config = build_study_config(seed=args.seed, scale="small")
    tracer = LayerTracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    internet = topogen.generate_internet(config.topology, seed=args.topology_seed)
    results = Study(config, internet=internet).run()
    study_s = time.perf_counter() - start
    peak = peak_rss_mb()
    layers = None
    if tracer is not None:
        tracer.uninstall()
        spans, stages, receives = tracer.take()
        layers = summarize(spans, stages, receives, study_s)
        write_spans(args.spans, {"study": spans})

    from repro.check.golden import serialize, snapshot_study

    snapshot = serialize(snapshot_study(results))
    refs += [reference_s() for _ in range(BUILD_REFERENCE_PASSES)]
    return {
        "import_s": import_s,
        "study_s": study_s,
        "refs": refs,
        "snapshot": digest(snapshot),
        "peak_rss_mb": peak,
        "layers": layers,
        "missing": tracer.missing if tracer is not None else [],
        "effective": effective_settings(results),
        "versions": versions(),
    }


# ----------------------------------------------------------------------
# classify
# ----------------------------------------------------------------------


def cmd_classify(args) -> Dict[str, object]:
    import_s = import_program()
    from repro.core.gao_rexford import GaoRexfordEngine
    from repro.core.pipeline import Study, StudyConfig, figure1_layer_configs
    from repro.perf.parallel import ParallelClassifier
    from repro.serve.protocol import build_study_config
    import repro.temporal.study as temporal_study
    import repro.topogen.generator as topogen

    if args.scale == "small":
        config = build_study_config(seed=args.seed, scale="small")
    else:
        config = StudyConfig(seed=args.seed)
    config = dataclasses.replace(config, active_experiments=False)

    tracer = LayerTracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    internet = topogen.generate_internet(config.topology, seed=args.topology_seed)
    results = Study(config, internet=internet).run()
    setup_s = time.perf_counter() - start
    windows: Dict[str, list] = {}
    layers: Dict[str, float] = {}
    if tracer is not None:
        tracer.uninstall()
        spans, stages, receives = tracer.take()
        windows["setup"] = spans
        layers = summarize(spans, stages, receives, setup_s)

    expected = results.figure1_counts()
    partial = frozenset(
        (entry.provider, entry.customer)
        for entry in results.known_complex.partial_transit_entries()
    )

    def one_round():
        # Every round starts from a collected heap, so it is not charged
        # for a full collection of garbage an earlier one left.
        gc.collect()
        t0 = time.perf_counter()
        engine_simple = GaoRexfordEngine(results.inferred)
        engine_complex = GaoRexfordEngine(results.inferred, partial_transit=partial)
        layer_configs = figure1_layer_configs(
            engine_simple,
            engine_complex,
            known_complex=results.known_complex,
            siblings=results.siblings,
            first_hops_1=results.first_hops_1,
            first_hops_2=results.first_hops_2,
        )
        figure1 = ParallelClassifier().classify_layers(results.decisions, layer_configs)
        t1 = time.perf_counter()
        temporal = temporal_study.run_incremental(
            results.snapshots, temporal_study.TemporalInputs.from_study(results)
        )
        t2 = time.perf_counter()
        return counts_of(figure1), [epoch.figure1 for epoch in temporal.epochs], t1 - t0, t2 - t1

    rounds: List[Dict[str, object]] = []
    round_layers: List[Dict[str, float]] = []
    first_series = None
    # Grading keeps both CPUs busy (the precompute pool), so each point
    # is the mean of one reference pass on every CPU.
    refs = [statistics.fmean(reference_on_cpus())]
    timed_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        record: Dict[str, object] = {"traced": traced}
        try:
            figure1, series, figure1_s, temporal_s = one_round()
        except Exception as error:  # a failed operation, counted by run.py
            record.update(ok=False, error=f"{type(error).__name__}: {error}")
        else:
            if first_series is None:
                first_series = series
            problems = []
            if figure1 != expected:
                problems.append("figure1 counts differ from the study's")
            if series != first_series:
                problems.append("temporal series differs from the first round's")
            record.update(
                ok=not problems,
                error="; ".join(problems) or None,
                figure1_s=figure1_s,
                temporal_s=temporal_s,
                round_s=figure1_s + temporal_s,
                figure1=digest(figure1),
                temporal=digest(series),
            )
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            spans, stages, receives = tracer.take()
            windows[f"round{len(rounds)}"] = spans
            if record.get("ok"):
                round_layers.append(summarize(spans, stages, receives, record["round_s"]))
        rounds.append(record)
        refs.append(statistics.fmean(reference_on_cpus()))
        enough = len(rounds) >= (2 if tracer is not None else 1)
        if args.max_rounds and len(rounds) >= args.max_rounds and enough:
            break
        if time.perf_counter() - timed_start >= args.seconds and enough:
            break

    if round_layers:
        for name in round_layers[0]:
            if name.startswith(("core.", "temporal.", "trace.coverage")):
                layers[name] = statistics.median(r[name] for r in round_layers)
        plain = [r["round_s"] for r in rounds if r.get("ok") and not r["traced"]]
        wrapped = [r["round_s"] for r in rounds if r.get("ok") and r["traced"]]
        if plain and wrapped:
            layers["trace.overhead_frac"] = statistics.median(wrapped) / statistics.median(plain) - 1
    write_spans(args.spans, windows)

    scratch = verify_temporal(results, first_series)
    return {
        "import_s": import_s,
        "setup_s": setup_s,
        "rounds": rounds,
        "refs": refs,
        "scratch": scratch,
        "peak_rss_mb": peak_rss_mb(),
        "layers": layers if tracer is not None else None,
        "missing": tracer.missing if tracer is not None else [],
        "effective": effective_settings(results),
        "versions": versions(),
    }


def verify_temporal(results, series) -> Dict[str, object]:
    """Hold the temporal series to the program's from-scratch oracle."""
    try:
        from repro.temporal.study import TemporalInputs, run_scratch
    except ImportError:
        return {"ok": None, "error": "run_scratch not available"}
    if series is None:
        return {"ok": False, "error": "no round produced a temporal series"}
    try:
        reference = run_scratch(results.snapshots, TemporalInputs.from_study(results))
    except Exception as error:
        return {"ok": False, "error": f"{type(error).__name__}: {error}"}
    if reference != series:
        return {"ok": False, "error": "temporal series differs from run_scratch"}
    return {"ok": True, "error": None}


# ----------------------------------------------------------------------
# daemon
# ----------------------------------------------------------------------


def cmd_daemon(args) -> Dict[str, object]:
    """``repro serve`` on an ephemeral port; SIGUSR1 ends the warm-up
    window of a traced daemon, SIGTERM drains it."""
    tracer = None
    marks = [time.perf_counter()]
    windows: List[tuple] = []
    if args.trace:
        import_program()
        tracer = LayerTracer()
        tracer.install()

        def end_window(signum, frame):
            windows.append(tracer.take())
            marks.append(time.perf_counter())

        signal.signal(signal.SIGUSR1, end_window)

    from repro.cli import main

    main(["serve", "--port", "0"])
    layers = None
    if tracer is not None:
        tracer.uninstall()
        windows.append(tracer.take())
        marks.append(time.perf_counter())
        layers = {}
        for index, (spans, stages, receives) in enumerate(windows):
            summary = summarize(spans, stages, receives, marks[index + 1] - marks[index])
            if index == 0:
                layers.update(summary)
            elif index == 1:
                for name, value in summary.items():
                    if name.startswith(("core.", "temporal.", "trace.coverage")):
                        layers[name] = value
        write_spans(args.spans, {f"window{i}": w[0] for i, w in enumerate(windows)})
    return {
        "peak_rss_mb": peak_rss_mb(),
        "layers": layers,
        "missing": tracer.missing if tracer is not None else [],
        "effective": effective_settings(),
        "versions": versions(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    build = sub.add_parser("build")
    build.add_argument("--seed", type=int, required=True)
    build.add_argument("--topology-seed", type=int, required=True)
    classify = sub.add_parser("classify")
    classify.add_argument("--seed", type=int, required=True)
    classify.add_argument("--topology-seed", type=int, required=True)
    classify.add_argument("--scale", choices=("default", "small"), required=True)
    classify.add_argument("--seconds", type=float, required=True)
    classify.add_argument("--max-rounds", type=int, default=0)
    daemon = sub.add_parser("daemon")
    for command in (build, classify, daemon):
        command.add_argument("--trace", action="store_true")
        command.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    handler = {"build": cmd_build, "classify": cmd_classify, "daemon": cmd_daemon}[args.mode]
    result = handler(args)
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
