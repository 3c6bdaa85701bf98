//! Per-layer metrics of a traced run. Every workload reports the full
//! set; a layer the workload never calls reads 0.

use crate::report::Outcome;
use qca_engine::{AdaptJob, AdaptReport, Engine};
use qca_hw::HardwareModel;
use qca_trace::report::Report;
use qca_trace::{MemorySink, TraceEvent};
use std::time::Instant;

/// Accumulated layer timings (ns) and counts over one traced run.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Solves (cold adaptations) the core/smt/omt/sat sums are spread over.
    pub solves: u64,
    pub preprocess_ns: u64,
    pub rules_ns: u64,
    pub catalog: u64,
    pub solve_model_ns: u64,
    pub extract_ns: u64,
    pub encode_ns: u64,
    pub sat_vars: u64,
    pub queries: u64,
    pub probe_ns: u64,
    pub certify_ns: u64,
    pub proven_optimal: u64,
    pub conflicts: u64,
    pub propagations: u64,
    pub decisions: u64,
    pub sat_solve_ns: u64,
    /// Audits run.
    pub audits: u64,
    pub audit_ns: u64,
    /// Certificates checked.
    pub drat_checks: u64,
    pub drat_ns: u64,
    pub drat_additions: u64,
    pub cache_keys: u64,
    pub cache_key_ns: u64,
    pub cache_hits: u64,
    pub replay_ns: u64,
    pub appends: u64,
    pub append_ns: u64,
    pub gets: u64,
    pub get_ns: u64,
    pub store_bytes: u64,
    pub parses: u64,
    pub parse_ns: u64,
    pub emits: u64,
    pub emit_ns: u64,
    pub http_parses: u64,
    pub http_parse_ns: u64,
    pub renders: u64,
    pub render_ns: u64,
    pub hit_latency_p50_ms: f64,
    pub miss_latency_p50_ms: f64,
    /// Operations timed whole, and their total wall time.
    pub jobs: u64,
    pub job_ns: u64,
    /// Part of `job_ns` outside every timed layer call.
    pub unaccounted_ns: u64,
}

/// The spans one `Engine::adapt_one` call already emits, folded per phase.
#[derive(Debug, Clone, Copy, Default)]
struct Folded {
    adapt_ns: u64,
    preprocess_ns: u64,
    rules_ns: u64,
    extract_ns: u64,
    encode_ns: u64,
    probe_ns: u64,
    certify_ns: u64,
    sat_solve_ns: u64,
    audit_ns: u64,
    audits: u64,
}

/// Folds a trace's spans into per-phase totals.
fn fold(events: &[TraceEvent]) -> Folded {
    let r = Report::from_events(events);
    let t = |name: &str| r.phase_total_ns(name).unwrap_or(0);
    Folded {
        adapt_ns: t("adapt"),
        preprocess_ns: t("preprocess"),
        rules_ns: t("rules"),
        extract_ns: t("extract"),
        encode_ns: t("smt.encode"),
        probe_ns: t("omt.probe"),
        certify_ns: t("omt.certify"),
        sat_solve_ns: t("sat.solve"),
        audit_ns: t("verify.audit"),
        audits: r.phase_count("verify.audit"),
    }
}

/// One traced solve: its report, the wall time of the `adapt_one` call,
/// and the part of it the folded spans cover (ns).
pub struct Traced {
    pub report: AdaptReport,
    pub wall_ns: u64,
    pub covered_ns: u64,
}

/// Runs `job` through `Engine::adapt_one` on an engine whose tracer writes
/// to `sink`, and folds the spans the program emits into `layers`: the
/// core phases (`solve_model` is the `adapt` span less preprocess, rules
/// and extract), the `smt`/`omt`/`sat` spans inside it, and the audit when
/// the engine verifies. No span is added.
pub fn traced_adapt(
    engine: &Engine,
    sink: &MemorySink,
    hw: &HardwareModel,
    job: &AdaptJob,
    layers: &mut Layers,
) -> Traced {
    let t = Instant::now();
    let report = engine.adapt_one(hw, job);
    let wall_ns = ns(t.elapsed());
    let f = fold(&sink.take());
    layers.preprocess_ns += f.preprocess_ns;
    layers.rules_ns += f.rules_ns;
    layers.extract_ns += f.extract_ns;
    layers.solve_model_ns += f
        .adapt_ns
        .saturating_sub(f.preprocess_ns + f.rules_ns + f.extract_ns);
    layers.encode_ns += f.encode_ns;
    layers.probe_ns += f.probe_ns;
    layers.certify_ns += f.certify_ns;
    layers.sat_solve_ns += f.sat_solve_ns;
    layers.audits += f.audits;
    layers.audit_ns += f.audit_ns;
    if let Some(a) = &report.adaptation {
        let s = &a.solver;
        layers.solves += 1;
        layers.catalog += a.catalog_size as u64;
        layers.sat_vars += s.sat_vars as u64;
        layers.queries += s.queries;
        layers.proven_optimal += u64::from(s.optimal);
        layers.conflicts += s.solver_stats.conflicts;
        layers.propagations += s.solver_stats.propagations;
        layers.decisions += s.solver_stats.decisions;
    }
    Traced {
        report,
        wall_ns,
        covered_ns: f.adapt_ns + f.audit_ns,
    }
}

impl Layers {
    /// Pushes every per-layer metric onto `out`.
    pub fn report(&self, out: &mut Outcome) {
        let per = |total: u64, n: u64, scale: f64| {
            if n == 0 {
                0.0
            } else {
                total as f64 / n as f64 / scale
            }
        };
        let ms = |total: u64, n: u64| per(total, n, 1e6);
        let us = |total: u64, n: u64| per(total, n, 1e3);
        let count = |total: u64, n: u64| per(total, n, 1.0);
        let s = self.solves;
        out.push("core.preprocess_ms", "ms", ms(self.preprocess_ns, s));
        out.push("core.rules_ms", "ms", ms(self.rules_ns, s));
        out.push("core.catalog_size", "count", count(self.catalog, s));
        out.push("core.solve_model_ms", "ms", ms(self.solve_model_ns, s));
        out.push("core.extract_ms", "ms", ms(self.extract_ns, s));
        out.push("smt.encode_ms", "ms", ms(self.encode_ns, s));
        out.push("smt.sat_vars", "count", count(self.sat_vars, s));
        out.push("omt.queries", "count", count(self.queries, s));
        out.push("omt.probe_ms", "ms", ms(self.probe_ns, s));
        out.push("omt.certify_ms", "ms", ms(self.certify_ns, s));
        out.push("omt.proven_optimal", "count", self.proven_optimal as f64);
        out.push("sat.conflicts", "count", count(self.conflicts, s));
        out.push("sat.propagations", "count", count(self.propagations, s));
        out.push("sat.decisions", "count", count(self.decisions, s));
        let rate = if self.sat_solve_ns == 0 {
            0.0
        } else {
            self.propagations as f64 / (self.sat_solve_ns as f64 / 1e9)
        };
        out.push("sat.propagations_per_s", "1/s", rate);
        out.push("verify.audit_ms", "ms", ms(self.audit_ns, self.audits));
        out.push(
            "verify.drat_check_ms",
            "ms",
            ms(self.drat_ns, self.drat_checks),
        );
        out.push(
            "verify.drat_additions",
            "count",
            count(self.drat_additions, self.drat_checks),
        );
        out.push(
            "engine.cache_key_us",
            "us",
            us(self.cache_key_ns, self.cache_keys),
        );
        out.push("engine.cache_hits", "count", self.cache_hits as f64);
        out.push("engine.solves", "count", self.solves as f64);
        out.push("store.replay_ms", "ms", self.replay_ns as f64 / 1e6);
        out.push("store.append_us", "us", us(self.append_ns, self.appends));
        out.push("store.get_us", "us", us(self.get_ns, self.gets));
        out.push("store.bytes", "bytes", self.store_bytes as f64);
        out.push("circuit.parse_us", "us", us(self.parse_ns, self.parses));
        out.push("circuit.emit_us", "us", us(self.emit_ns, self.emits));
        out.push(
            "serve.http_parse_us",
            "us",
            us(self.http_parse_ns, self.http_parses),
        );
        out.push("serve.render_us", "us", us(self.render_ns, self.renders));
        out.push("serve.hit_latency_p50_ms", "ms", self.hit_latency_p50_ms);
        out.push("serve.miss_latency_p50_ms", "ms", self.miss_latency_p50_ms);
        out.push("trace.job_ms", "ms", ms(self.job_ns, self.jobs));
        out.push(
            "trace.unaccounted_ms",
            "ms",
            ms(self.unaccounted_ns, self.jobs),
        );
    }
}

/// Nanoseconds in a duration, saturating.
pub fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
