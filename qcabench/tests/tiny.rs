//! A tiny-size run of every workload completes with no failed operation
//! other than the fixed known-fault ones, and reports exactly the metrics
//! `BENCHMARK.json` declares.

use qcabench::gen::KNOWN_FAULTS;
use qcabench::{run, RunConfig, Scale, Workload};
use std::time::Duration;

/// Metric names of one section (`end_to_end` or `per_layer`) of
/// `BENCHMARK.json`, in file order.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let rest = &text[start..];
    let end = rest.find(']').expect("section closes");
    rest[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> qcabench::report::Outcome {
    run(&RunConfig {
        workload,
        seed: 7,
        seconds: Duration::ZERO,
        trace,
        scale: Scale::Tiny,
    })
}

/// Asserts a clean one-round run; `known_faults` operations may fail, each
/// on the unitary check or the audit that re-checks it.
fn assert_clean(workload: Workload, trace: bool, known_faults: u64) {
    let out = tiny(workload, trace);
    assert!(out.correct, "{workload:?}");
    assert!(out.attempted > 0);
    assert_eq!(out.failed, known_faults, "{workload:?}: {:?}", out.failures);
    for failure in &out.failures {
        assert!(failure.contains("unitary"), "{failure}");
    }
    let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(names, want, "{workload:?} trace={trace}");
    for m in &out.metrics {
        assert!(m.value.is_finite() && m.value >= 0.0, "{}", m.name);
    }
}

#[test]
fn adapt_sched_tiny_run_is_clean() {
    assert_clean(Workload::AdaptSched, false, 0);
    assert_clean(Workload::AdaptSched, true, 0);
}

const FAULTS: u64 = KNOWN_FAULTS.len() as u64;

#[test]
fn adapt_verified_tiny_run_is_clean() {
    assert_clean(Workload::AdaptVerified, false, FAULTS);
    assert_clean(Workload::AdaptVerified, true, FAULTS);
}

#[test]
fn serve_zipf_tiny_run_is_clean() {
    assert_clean(Workload::ServeZipf, false, FAULTS);
    // The traced run sends each fixed entry over HTTP and again in the
    // in-process replay.
    assert_clean(Workload::ServeZipf, true, 2 * FAULTS);
}

#[test]
fn traced_serve_run_sees_hits_misses_and_the_store() {
    let out = tiny(Workload::ServeZipf, true);
    let get = |name: &str| out.get(name).unwrap();
    assert!(get("engine.cache_hits") > 0.0);
    assert!(get("engine.solves") > 0.0);
    assert!(get("store.bytes") > 0.0);
    assert!(get("serve.miss_latency_p50_ms") > get("serve.hit_latency_p50_ms"));
}
