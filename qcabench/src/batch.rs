//! The batch workloads, `adapt-sched` and `adapt-verified`: a cold batch
//! of distinct circuits adapted one after another on a one-worker engine,
//! closed loop, every job a cache miss.

use crate::check::{self, baseline_score, check_output, Expectation, Losses};
use crate::gen::{self, JobSpec};
use crate::layers::{ns, traced_adapt, Layers};
use crate::report::{Outcome, Timings};
use crate::{rounds, sys, RunConfig, Workload};
use qca_circuit::{qasm, Circuit};
use qca_engine::{AdaptJob, AdaptReport, AdaptStatus, AuditOutcome, Engine, EngineConfig};
use qca_hw::{spin_qubit_model, CouplingMap, GateTimes, HardwareModel};
use qca_trace::Tracer;
use std::time::{Duration, Instant};

/// Set-up is timed about this many times per run, spread evenly over the
/// first round so the samples see the machine as the jobs do; their p75
/// is reported.
const SETUP_SAMPLES: usize = 28;

/// One job ready to run: the parsed input and what its output must meet.
struct Prepared {
    job: AdaptJob,
    coupling: Option<CouplingMap>,
    baseline: f64,
}

fn engine_config(verify: bool) -> EngineConfig {
    EngineConfig::builder().workers(1).verify(verify).build()
}

/// The set-up `qca-engine` pays before its first solve: build the engine
/// and parse the corpus from QASM text.
fn set_up(specs: &[JobSpec], verify: bool) -> (Engine, Vec<Circuit>) {
    let engine = Engine::new(engine_config(verify));
    let circuits = specs
        .iter()
        .map(|s| qasm::parse_qasm(&s.qasm).expect("generated QASM parses"))
        .collect();
    (engine, circuits)
}

fn prepare(specs: &[JobSpec], circuits: Vec<Circuit>, hw: &HardwareModel) -> Vec<Prepared> {
    specs
        .iter()
        .zip(circuits)
        .map(|(spec, circuit)| {
            let coupling = spec.routed.then(|| CouplingMap::line(circuit.num_qubits()));
            let baseline = baseline_score(&circuit, hw, spec.objective, coupling.as_ref());
            let mut job = AdaptJob::with_objective(circuit, spec.objective);
            job.options.coupling = coupling.clone();
            Prepared {
                job,
                coupling,
                baseline,
            }
        })
        .collect()
}

/// What the checks need of a finished job; a whole report would also hold
/// the adaptation and its certificate.
struct Output {
    circuit: Circuit,
    status: AdaptStatus,
    audit: Option<AuditOutcome>,
}

impl Output {
    fn of(report: AdaptReport) -> Output {
        Output {
            circuit: report.circuit,
            status: report.status,
            audit: report.audit,
        }
    }
}

/// Checks one finished job; returns its losses.
fn verdict(p: &Prepared, hw: &HardwareModel, out: &Output, verify: bool) -> Result<Losses, String> {
    if out.status == AdaptStatus::Fallback {
        return Err("fell back to a baseline".into());
    }
    if verify {
        match &out.audit {
            Some(AuditOutcome::Passed) => {}
            Some(AuditOutcome::Failed(msg)) => return Err(format!("audit failed: {msg}")),
            None => return Err("no audit verdict".into()),
        }
    }
    let want = Expectation {
        input: &p.job.circuit,
        objective: p.job.options.objective,
        coupling: p.coupling.as_ref(),
        baseline: p.baseline,
    };
    check_output(&out.circuit, hw, &want)
}

/// Runs a batch workload.
pub fn run(config: &RunConfig) -> Outcome {
    let sizes = config.scale.sizes(config.workload);
    let (specs, verify) = match config.workload {
        Workload::AdaptSched => (gen::sched_corpus(config.seed, sizes.corpus), false),
        Workload::AdaptVerified => (gen::verified_corpus(config.seed, sizes.corpus), true),
        Workload::ServeZipf => unreachable!("not a batch workload"),
    };
    let hw = spin_qubit_model(GateTimes::D0);
    if config.trace {
        return run_traced(config, &specs, verify, &hw);
    }

    // The set-up whose engine and circuits the first round uses, untimed:
    // it also pays allocator and cache warm-up.
    let (first_engine, circuits) = set_up(&specs, verify);
    let prepared = prepare(&specs, circuits, &hw);

    // Measured phase: whole rounds over the corpus, a fresh engine per
    // round so every job is a cold miss. Outputs are checked afterwards.
    let mut first_engine = Some(first_engine);
    let mut latencies_ms = Vec::new();
    let mut outputs: Vec<Output> = Vec::new();
    let cpu0 = sys::cpu_time();
    let mut setup = Vec::with_capacity(SETUP_SAMPLES + 1);
    let mut setup_cpu = Duration::ZERO;
    let stride = (prepared.len() / SETUP_SAMPLES).max(1);
    let walls = rounds(config.seconds, |round| {
        let engine = first_engine
            .take()
            .unwrap_or_else(|| Engine::new(engine_config(verify)));
        let mut busy = Duration::ZERO;
        for (k, p) in prepared.iter().enumerate() {
            if round == 0 && k % stride == 0 {
                let (t, cpu) = (Instant::now(), sys::cpu_time());
                drop(set_up(&specs, verify));
                setup.push(t.elapsed().as_secs_f64());
                setup_cpu += sys::cpu_time() - cpu;
            }
            let t = Instant::now();
            let report = engine.adapt_one(&hw, &p.job);
            let dt = t.elapsed();
            busy += dt;
            latencies_ms.push(dt.as_secs_f64() * 1e3);
            outputs.push(Output::of(report));
        }
        busy
    });
    // CPU of the jobs alone, without the set-up samples taken between them.
    let cpu = sys::cpu_time() - cpu0 - setup_cpu;

    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let n = prepared.len();
    let mut losses = Vec::with_capacity(outputs.len());
    for (i, output) in outputs.iter().enumerate() {
        out.attempted += 1;
        if i >= n && output.circuit != outputs[i % n].circuit {
            // The solver is deterministic: a repeated job must repeat.
            out.correct = false;
        }
        match verdict(&prepared[i % n], &hw, output, verify) {
            Ok(l) => losses.push(l),
            Err(e) => out.fail(format!("job {}: {e}", i % n)),
        }
    }
    let busy: f64 = walls.iter().map(Duration::as_secs_f64).sum();
    let timings = Timings::of(&latencies_ms, busy, cpu.as_secs_f64());
    out.push_end_to_end(&setup, &timings, check::gain(&losses));
    out
}

/// The traced run: the same jobs through `Engine::adapt_one` on one
/// engine with a memory tracer and no cache, so every round solves cold;
/// the layer split comes from the spans the program emits
/// ([`traced_adapt`]). Outside the job, the certificate check is timed
/// again on its own and the QASM emit `qca-engine` does when writing
/// results is timed.
fn run_traced(config: &RunConfig, specs: &[JobSpec], verify: bool, hw: &HardwareModel) -> Outcome {
    let mut layers = Layers::default();
    let mut circuits = Vec::with_capacity(specs.len());
    for spec in specs {
        let t = Instant::now();
        circuits.push(qasm::parse_qasm(&spec.qasm).expect("generated QASM parses"));
        layers.parse_ns += ns(t.elapsed());
        layers.parses += 1;
    }
    let prepared = prepare(specs, circuits, hw);
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (tracer, sink) = Tracer::to_memory();
    let engine = Engine::new(
        EngineConfig::builder()
            .workers(1)
            .verify(verify)
            .cache_capacity(0)
            .tracer(tracer)
            .build(),
    );
    let mut proven_in_first_round = 0;
    rounds(config.seconds, |round| {
        let started = Instant::now();
        for (i, p) in prepared.iter().enumerate() {
            out.attempted += 1;
            let traced = traced_adapt(&engine, &sink, hw, &p.job, &mut layers);
            layers.jobs += 1;
            layers.job_ns += traced.wall_ns;
            layers.unaccounted_ns += traced.wall_ns.saturating_sub(traced.covered_ns);
            let report = traced.report;
            if let Some(cert) = report
                .adaptation
                .as_ref()
                .and_then(|a| a.solver.verification.as_ref())
                .and_then(|v| v.certificate.as_ref())
            {
                let t = Instant::now();
                let checked = qca_verify::check_certificate(cert);
                layers.drat_ns += ns(t.elapsed());
                layers.drat_checks += 1;
                // A rejected certificate has already failed the job's audit.
                layers.drat_additions += checked.map_or(0, |s| s.additions_checked as u64);
            }
            let t = Instant::now();
            std::hint::black_box(qasm::to_qasm(&report.circuit));
            layers.emit_ns += ns(t.elapsed());
            layers.emits += 1;
            if let Err(e) = verdict(p, hw, &Output::of(report), verify) {
                out.fail(format!("job {i}: {e}"));
            }
        }
        if round == 0 {
            proven_in_first_round = layers.proven_optimal;
        }
        started.elapsed()
    });
    // Counts of the corpus itself, not of how many rounds fit.
    layers.proven_optimal = proven_in_first_round;
    layers.report(&mut out);
    out
}
