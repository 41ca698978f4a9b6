#!/usr/bin/env python3
"""Compare two BENCH_*.json artifacts (schema v2) and fail on regressions.

Usage:
    compare_bench_json.py BASE.json HEAD.json [--max-regression 0.20]
    compare_bench_json.py --self-test

The two artifacts must be comparable: same bench, schema version, and the
knobs docs/BENCHMARKS.md says must be held fixed (threads, cache budget,
batch mode). Mismatched knobs exit with code 2 — that is an operator
error, not a perf verdict.

Regression rules (exit 1 on any hit):
  * runtime metrics (``ns_per_iter``, ``load_ms``/``load_ms_warm``,
    ``*_ms_mean``, ``batched_cold_ms``/``sequential_cold_ms``) may not
    grow by more than ``--max-regression`` (default 20%) relative to base;
    metrics below a noise floor are skipped,
  * answer counts (``*_answers``, ``answer_count`` fields) must not
    change at all and ``answers_match`` flags must not flip — answers
    are deterministic, so any change is a correctness regression, not
    noise,
  * ``blocks_skipped`` counters must not regress to zero where the base
    skipped at least one block — skipping is deterministic for a fixed
    workload, so a collapse to zero means a change severed the max-score/
    skip path (e.g. an operator stopped consulting block headers), even
    if runtimes still look fine,
  * fault-free consistency: a head artifact produced without a
    ``fault_plan`` must report zero ``store_faults``, ``shards_failed``,
    and shed counters everywhere — a healthy run that degrades or sheds
    is broken serving, not perf noise. Artifacts also only compare when
    their ``fault_plan`` / ``degraded_reads`` knobs agree (injection
    perturbs runtimes and answer counts by design).

Metrics present in the base but absent from the head (a retired
scenario, e.g. the ``plan_race`` rows of artifacts from before plan racing
was removed) are reported as ``missing in head`` notes, never as failures.

``--self-test`` builds a synthetic artifact pair, injects a 30% runtime
regression and an answer-count drop, and asserts the comparison fails —
the CI job runs it on every push so the gate itself is exercised.
"""

import argparse
import contextlib
import copy
import io
import json
import sys

RUNTIME_KEYS = {"ns_per_iter", "load_ms", "load_ms_warm", "batched_cold_ms",
                "sequential_cold_ms", "batched_ms", "sequential_ms"}
RUNTIME_SUFFIXES = ("_ms_mean",)
# Noise floors: metrics whose base value is below the floor are too small
# to compare relatively (a single scheduler hiccup flips them).
RUNTIME_FLOORS = {"ns_per_iter": 100.0}
DEFAULT_RUNTIME_FLOOR = 0.5  # milliseconds-scale keys

ANSWER_KEYS = {"answer_count", "true_answer_count"}
ANSWER_SUFFIXES = ("_answers",)
MATCH_KEYS = {"answers_match"}

# Counters that must stay non-zero wherever the base artifact had them
# non-zero: block skipping is deterministic for a fixed workload and
# configuration, so a base that skipped blocks and a head that skips none
# means the skip path itself broke, not that the data shifted.
NONZERO_KEYS = {"blocks_skipped"}

# Knobs that must be identical for two artifacts to be comparable
# (docs/BENCHMARKS.md "knobs held fixed across runs"). `scale` is the
# dataset scale tier; `shard_count` the SQPBNDL1 bundle fan-out (an N-shard
# open pays an N-way merge, so bundle rows only compare at equal N); the
# `admission_*` knobs shape the Submit-driven batch windows — runs at
# different tiers or window shapes are different workloads, not perf
# signals.
COMPARABILITY_KEYS = ("bench", "schema_version", "threads", "cache_budget_mb",
                      "batch_mode", "scale", "shard_count",
                      "admission_max_batch", "admission_max_delay_ms",
                      "fault_plan", "degraded_reads")

# Counters that must be zero everywhere in an artifact produced WITHOUT a
# fault plan: a healthy run that reports store faults, failed shards, or
# shed requests is leaking failure handling into the fast path (or the
# store under the bench is genuinely broken) — either way the numbers are
# not perf signal.
FAULT_ARTIFACT_KEYS = {"store_faults", "shards_failed", "shed_queue_full",
                       "shed_deadline"}


def is_runtime_key(key):
    return key in RUNTIME_KEYS or key.endswith(RUNTIME_SUFFIXES)


def is_answer_key(key):
    return key in ANSWER_KEYS or key.endswith(ANSWER_SUFFIXES)


def walk(node, path, out):
    """Flattens numeric/bool leaves into {path: value}.

    Array elements carrying a "name"/"strategy"/"title" field use it as the
    path segment, so metrics match across runs even if ordering changes.
    """
    if isinstance(node, dict):
        for key, value in node.items():
            walk(value, f"{path}.{key}" if path else key, out)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            segment = str(index)
            if isinstance(value, dict):
                for tag in ("name", "strategy", "title", "group_key", "k"):
                    if tag in value and isinstance(value[tag], (str, int)):
                        segment = f"{tag}={value[tag]}"
                        break
            walk(value, f"{path}[{segment}]", out)
    elif isinstance(node, (int, float, bool)) and not isinstance(node, str):
        out[path] = node


def compare(base_doc, head_doc, max_regression):
    """Returns (errors, notes). Non-empty errors means the gate fails."""
    errors = []
    notes = []
    for key in COMPARABILITY_KEYS:
        base_value = base_doc.get(key)
        head_value = head_doc.get(key)
        # A knob absent on one side is an older artifact schema, not a
        # configuration mismatch; only present-on-both knobs must agree.
        if base_value is None or head_value is None:
            continue
        if base_value != head_value:
            return ([f"artifacts not comparable: {key} differs "
                     f"(base={base_value!r}, head={head_value!r})"], [],
                    True)

    base = {}
    head = {}
    walk(base_doc, "", base)
    walk(head_doc, "", head)

    for path, base_value in sorted(base.items()):
        if path not in head:
            notes.append(f"missing in head: {path}")
            continue
        head_value = head[path]
        key = path.rsplit(".", 1)[-1]
        if key in MATCH_KEYS:
            if base_value is True and head_value is not True:
                errors.append(f"{path}: answers_match flipped to false")
        elif is_answer_key(key):
            # Answers are deterministic: ANY change (not just a decrease)
            # is a correctness regression, never noise.
            if head_value != base_value:
                errors.append(f"{path}: answer count changed "
                              f"{base_value} -> {head_value}")
        elif key in NONZERO_KEYS:
            if base_value > 0 and head_value == 0:
                errors.append(f"{path}: block skipping regressed to zero "
                              f"(base skipped {base_value})")
        elif is_runtime_key(key):
            floor = RUNTIME_FLOORS.get(key, DEFAULT_RUNTIME_FLOOR)
            if not isinstance(base_value, (int, float)) or base_value < floor:
                continue
            ratio = head_value / base_value
            if ratio > 1.0 + max_regression:
                errors.append(f"{path}: runtime regressed {ratio:.2f}x "
                              f"({base_value:.3g} -> {head_value:.3g})")
            elif ratio < 1.0 - max_regression:
                notes.append(f"{path}: improved {1.0 / ratio:.2f}x")

    # No-fault artifacts must be fault-free: with an empty fault plan the
    # degraded-read and shedding machinery must never have engaged (a
    # head-only self-consistency check, not a base-vs-head delta).
    if not head_doc.get("fault_plan"):
        for counter in sorted(FAULT_ARTIFACT_KEYS):
            # A "fault_scenarios" subtree is a deliberate injected-failure
            # measurement (micro_store_load) — exempt by construction.
            total = sum(v for p, v in head.items()
                        if p.rsplit(".", 1)[-1] == counter
                        and "fault_scenarios" not in p)
            if total > 0:
                errors.append(f"fault-free artifact reports {counter}="
                              f"{total}; a run without a fault plan must "
                              "not degrade or shed")
    return errors, notes, False


def self_test():
    base = {
        "bench": "micro_operators",
        "schema_version": 2,
        "git_sha": "base000",
        "threads": 2,
        "cache_budget_mb": 64,
        "batch_mode": False,
        "scale": 1,
        "shard_count": 4,
        "admission_max_batch": 16,
        "admission_max_delay_ms": 2.0,
        "benchmarks": [
            {"name": "rank_join_topk/k:10", "ns_per_iter": 1000.0},
            {"name": "pattern_scan_drain", "ns_per_iter": 50.0},  # < floor
        ],
        "by_k": [{"k": 10, "groups": [
            {"group_key": 2, "trinit_ms_mean": 10.0, "spec_ms_mean": 5.0,
             "trinit_answers": 40, "spec_answers": 40},
        ]}],
        "block_skipping": {"blocks_decoded": 2, "blocks_skipped": 948},
        "fault_plan": "",
        "degraded_reads": False,
        "loads": [{"name": "bundle_mmap_lazy", "load_ms": 12.0,
                   "store_faults": 0, "shards_failed": 0,
                   "shards_total": 4}],
    }

    # Identical artifacts pass.
    errors, _, _ = compare(base, copy.deepcopy(base), 0.20)
    assert not errors, f"identical artifacts must pass: {errors}"

    # Within-tolerance jitter passes; the sub-floor metric never trips.
    jitter = copy.deepcopy(base)
    jitter["git_sha"] = "head000"
    jitter["benchmarks"][0]["ns_per_iter"] = 1100.0
    jitter["benchmarks"][1]["ns_per_iter"] = 500.0  # 10x but below floor
    errors, _, _ = compare(base, jitter, 0.20)
    assert not errors, f"10% jitter must pass: {errors}"

    # Injected 30% runtime regression fails.
    slow = copy.deepcopy(base)
    slow["benchmarks"][0]["ns_per_iter"] = 1300.0
    errors, _, _ = compare(base, slow, 0.20)
    assert any("runtime regressed" in e for e in errors), \
        f"30% regression must fail, got: {errors}"

    # Any answer-count change fails even with identical runtimes —
    # answers are deterministic, so extra (wrong) rows are as much a
    # regression as missing ones.
    for changed_count in (39, 45):
        changed = copy.deepcopy(base)
        changed["by_k"][0]["groups"][0]["spec_answers"] = changed_count
        errors, _, _ = compare(base, changed, 0.20)
        assert any("answer count changed" in e for e in errors), \
            f"answer-count change to {changed_count} must fail, got: {errors}"

    # blocks_skipped collapsing to zero fails even with identical runtimes
    # (a severed skip path costs decode work, not necessarily wall time on
    # a warm memo); a mere decrease stays a pass — skip counts shift
    # legitimately with plan changes.
    no_skip = copy.deepcopy(base)
    no_skip["block_skipping"]["blocks_skipped"] = 0
    errors, _, _ = compare(base, no_skip, 0.20)
    assert any("block skipping regressed to zero" in e for e in errors), \
        f"skip collapse must fail, got: {errors}"
    fewer_skips = copy.deepcopy(base)
    fewer_skips["block_skipping"]["blocks_skipped"] = 500
    errors, _, _ = compare(base, fewer_skips, 0.20)
    assert not errors, f"reduced-but-nonzero skips must pass: {errors}"

    # A base from before plan racing was retired (plan_race object and
    # benchmark rows) against a head without them: the vanished metrics
    # are notes and the gate exits 0.
    pre_retire = copy.deepcopy(base)
    pre_retire["plan_race"] = {"plans_raced": 80, "race_wins_by_runnerup": 0,
                               "speculative_work_wasted_rows": 1200}
    pre_retire["benchmarks"].append(
        {"name": "plan_race/speculation:on", "ns_per_iter": 5.0e6})
    errors, notes, not_comparable = compare(pre_retire, base, 0.20)
    assert not errors and not not_comparable, \
        f"retired plan_race rows must not fail the gate: {errors}"
    assert any(n.startswith("missing in head: plan_race.") for n in notes) \
        and any("plan_race/speculation:on" in n for n in notes), \
        f"retired plan_race rows must be noted as missing, got: {notes}"
    with contextlib.redirect_stdout(io.StringIO()):
        assert report(pre_retire, base, 0.20) == 0

    # Mismatched knobs are an operator error (exit 2 path) — including the
    # scale tier and the admission-window knobs.
    for knob, other_value in (("threads", 8), ("scale", 10),
                              ("shard_count", 8),
                              ("admission_max_batch", 1),
                              ("admission_max_delay_ms", 0.0),
                              ("fault_plan", "seed=7;shard.read=0.01"),
                              ("degraded_reads", True)):
        other_knobs = copy.deepcopy(base)
        other_knobs[knob] = other_value
        errors, _, not_comparable = compare(base, other_knobs, 0.20)
        assert not_comparable and errors, \
            f"{knob} mismatch must be flagged, got: {errors}"

    # A no-fault artifact that reports failure handling fails even with
    # identical runtimes and answers: degraded or shed responses in a
    # healthy run mean the serving path is broken, not slow. The same
    # numbers under a declared fault plan are expected output.
    leaky = copy.deepcopy(base)
    leaky["loads"][0]["shards_failed"] = 1
    errors, _, _ = compare(base, leaky, 0.20)
    assert any("fault-free artifact" in e for e in errors), \
        f"no-fault artifact with failed shards must fail, got: {errors}"
    shed = copy.deepcopy(base)
    shed["admission"] = {"shed_queue_full": 3}
    errors, _, _ = compare(base, shed, 0.20)
    assert any("shed_queue_full" in e for e in errors), \
        f"no-fault artifact with shed requests must fail, got: {errors}"
    fenced = copy.deepcopy(base)
    fenced["fault_scenarios"] = {
        "degraded": {"shards_failed": 1, "shards_total": 4,
                     "first_query_ms": 3.0}}
    errors, _, _ = compare(base, fenced, 0.20)
    assert not errors, \
        f"fenced fault_scenarios subtree must stay exempt: {errors}"
    chaos_base = copy.deepcopy(base)
    chaos_base["fault_plan"] = "seed=7;shard.open=1"
    chaos_head = copy.deepcopy(chaos_base)
    chaos_head["loads"][0]["shards_failed"] = 1
    chaos_head["loads"][0]["store_faults"] = 2
    errors, _, not_comparable = compare(chaos_base, chaos_head, 0.20)
    assert not errors and not not_comparable, \
        f"declared fault plan may report faults: {errors}"

    # A knob absent on one side (older artifact schema) stays comparable.
    legacy = copy.deepcopy(base)
    for knob in ("scale", "shard_count", "admission_max_batch",
                 "admission_max_delay_ms"):
        del legacy[knob]
    errors, _, not_comparable = compare(legacy, base, 0.20)
    assert not errors and not not_comparable, \
        f"absent knobs must stay comparable: {errors}"

    print("self-test OK: gate passes identical/jittered artifacts, fails on "
          "injected runtime, answer-count, skip-collapse and fault-leak "
          "regressions, notes retired plan_race rows, rejects mismatched "
          "knobs (incl. scale, shard count, admission window and fault "
          "plan)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("base", nargs="?", help="base BENCH_*.json")
    parser.add_argument("head", nargs="?", help="head BENCH_*.json")
    parser.add_argument("--max-regression", type=float, default=0.20,
                        help="allowed relative runtime growth (default 0.20)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate trips on synthetic regressions")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.base or not args.head:
        parser.error("BASE and HEAD artifacts are required (or --self-test)")

    with open(args.base, encoding="utf-8") as f:
        base_doc = json.load(f)
    with open(args.head, encoding="utf-8") as f:
        head_doc = json.load(f)
    return report(base_doc, head_doc, args.max_regression)


def report(base_doc, head_doc, max_regression):
    """Prints the comparison and returns the process exit code."""
    errors, notes, not_comparable = compare(base_doc, head_doc,
                                            max_regression)
    base_sha = base_doc.get("git_sha", "unknown")
    head_sha = head_doc.get("git_sha", "unknown")
    print(f"comparing {base_doc.get('bench')} artifacts: "
          f"base {base_sha} vs head {head_sha}")
    for note in notes:
        print(f"  note: {note}")
    if not_comparable:
        print(f"ERROR: {errors[0]}", file=sys.stderr)
        return 2
    if errors:
        for error in errors:
            print(f"REGRESSION: {error}", file=sys.stderr)
        print(f"{len(errors)} regression(s) beyond "
              f"{max_regression:.0%} tolerance", file=sys.stderr)
        return 1
    print("no regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
