//! serve-zipf: `qca-serve` over loopback with one solver worker, a
//! persistent store pre-filled with half the corpus, and one keep-alive
//! client connection sending Zipf-skewed `POST /v1/adapt` requests in a
//! closed loop.

use crate::check::{self, baseline_score, check_output, Expectation, Losses};
use crate::gen::{self, RequestPlan};
use crate::layers::{ns, traced_adapt, Layers};
use crate::report::{Outcome, Timings};
use crate::{rounds, stats, sys, RunConfig};
use qca_adapt::{Adaptation, Objective};
use qca_circuit::{qasm, Circuit};
use qca_engine::cache::AdaptCache;
use qca_engine::{AdaptJob, AdaptReport, AdaptStatus, Engine, EngineConfig};
use qca_hw::{spin_qubit_model, GateTimes, HardwareModel};
use qca_serve::client::Connection;
use qca_serve::{RequestParser, ServeConfig, Server};
use qca_store::{Store, StoreOptions};
use qca_trace::Tracer;
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server start-ups timed per round (the round's own and the rest just
/// before it), and per run at least; their p75 is reported.
const SETUPS_PER_ROUND: usize = 6;
const MIN_SETUPS: usize = 31;

/// A per-run scratch directory inside the benchmark's own directory,
/// removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> WorkDir {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create work directory");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create store directory");
    for entry in std::fs::read_dir(from).expect("read store directory") {
        let entry = entry.expect("store directory entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy store file");
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// FNV-1a, for comparing response circuits cheaply inside the timed loop.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The job the server builds for a default `POST /v1/adapt` body.
fn server_job(circuit: Circuit) -> AdaptJob {
    AdaptJob::with_objective(circuit, Objective::Fidelity)
}

/// The bytes [`Connection::request`] sends for a `POST /v1/adapt` of
/// `body`, for the in-process replay.
fn request_bytes(body: &[u8]) -> Vec<u8> {
    let mut bytes = format!(
        "POST /v1/adapt HTTP/1.1\r\nHost: qca-serve\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// A keep-alive client connection with a read timeout long enough for any
/// solve.
fn connect(addr: SocketAddr) -> Connection {
    Connection::connect(addr, Duration::from_secs(150)).expect("connect to qca-serve")
}

/// The raw (still JSON-escaped) value of string field `key`.
fn json_str<'a>(body: &'a [u8], key: &str) -> Option<&'a [u8]> {
    let pat = format!("\"{key}\":\"");
    let start = body.windows(pat.len()).position(|w| w == pat.as_bytes())? + pat.len();
    let mut i = start;
    while i < body.len() {
        match body[i] {
            b'\\' => i += 2,
            b'"' => return Some(&body[start..i]),
            _ => i += 1,
        }
    }
    None
}

/// Undoes the JSON string escapes `qca-serve` emits.
fn unescape(raw: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(raw).ok()?;
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            '/' => out.push('/'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// One answered request as the client saw it.
#[derive(Debug, Clone)]
struct Answer {
    entry: usize,
    latency_ms: f64,
    status: u16,
    cache_hit: bool,
    /// Hash of the escaped `circuit_qasm` value (0 when absent).
    circuit_hash: u64,
}

/// The corpus and what each entry's responses must satisfy.
struct Corpus {
    circuits: Vec<Circuit>,
    /// Request bodies: the QASM text.
    bodies: Vec<Vec<u8>>,
    baselines: Vec<f64>,
    /// Hash of the circuit the pre-fill solve stored, per pre-filled entry.
    prefill_hash: Vec<Option<u64>>,
}

impl Corpus {
    fn build(
        seed: u64,
        corpus: usize,
        plan: &RequestPlan,
        hw: &HardwareModel,
        pristine: &Path,
    ) -> Corpus {
        let specs = gen::serve_corpus(seed, corpus);
        let circuits: Vec<Circuit> = specs
            .iter()
            .map(|s| qasm::parse_qasm(&s.qasm).expect("generated QASM parses"))
            .collect();
        let bodies = specs.iter().map(|s| s.qasm.clone().into_bytes()).collect();
        let baselines = circuits
            .iter()
            .map(|c| baseline_score(c, hw, Objective::Fidelity, None))
            .collect();
        // Pre-fill, untimed: solve half the corpus into a store exactly as
        // the server would, then compact it into a snapshot. The engine
        // keeps no cache and each report is dropped once hashed, so the
        // pre-fill does not set the process's peak memory.
        let store = Arc::new(
            Store::open_with(
                pristine,
                StoreOptions {
                    fsync: false,
                    ..StoreOptions::default()
                },
            )
            .expect("open pre-fill store"),
        );
        let engine = Engine::new(
            EngineConfig::builder()
                .workers(1)
                .cache_capacity(0)
                .store(store.clone())
                .build(),
        );
        let entries: Vec<usize> = (0..circuits.len()).filter(|&i| plan.prefilled[i]).collect();
        // Two threads: the pre-fill is not measured, only waited for.
        let hashes: Vec<(usize, u64)> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..2)
                .map(|t| {
                    let (engine, circuits, entries) = (&engine, &circuits, &entries);
                    s.spawn(move || {
                        entries
                            .iter()
                            .skip(t)
                            .step_by(2)
                            .map(|&i| {
                                let report = engine.adapt_one(hw, &server_job(circuits[i].clone()));
                                assert_ne!(report.status, AdaptStatus::Fallback, "pre-fill solve");
                                let text = qasm::to_qasm(&report.circuit);
                                (i, fnv(qca_serve::json::escape(&text).as_bytes()))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().expect("pre-fill thread"))
                .collect()
        });
        let mut prefill_hash = vec![None; circuits.len()];
        for (i, hash) in hashes {
            prefill_hash[i] = Some(hash);
        }
        store.compact().expect("compact pre-fill store");
        store.flush().expect("flush pre-fill store");
        Corpus {
            circuits,
            bodies,
            baselines,
            prefill_hash,
        }
    }
}

/// A running server on a copy of the pre-filled store.
struct Running {
    shutdown: Arc<AtomicBool>,
    handle: JoinHandle<std::io::Result<()>>,
}

/// Starts the server and waits for its first answered request; returns the
/// start-up time with the server and that first connection.
fn start(store_dir: &Path) -> (Running, Connection, f64) {
    let t = Instant::now();
    let server = Server::bind(ServeConfig {
        workers: 1,
        store_dir: Some(store_dir.to_path_buf()),
        ..ServeConfig::default()
    })
    .expect("bind qca-serve");
    let addr = server.local_addr().expect("server address");
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = shutdown.clone();
    let handle = std::thread::spawn(move || server.run(&flag));
    let mut client = connect(addr);
    let status = client
        .request("GET", "/healthz", b"")
        .expect("healthz")
        .status;
    assert_eq!(status, 200, "healthz");
    let setup = t.elapsed().as_secs_f64();
    (
        Running {
            shutdown,
            handle,
        },
        client,
        setup,
    )
}

impl Running {
    fn stop(self, clients: Vec<Connection>) {
        self.shutdown.store(true, Ordering::SeqCst);
        drop(clients);
        self.handle
            .join()
            .expect("server thread")
            .expect("server drained cleanly");
    }
}

/// Equal slices of each round's request sequence, timed one by one. The
/// VM's speed changes within seconds, so the timing metrics are medians
/// over every slice of a run (about 40) rather than over its 6–7 rounds.
const SLICES: usize = 6;

/// What one HTTP round measured.
struct Round {
    answers: Vec<Answer>,
    /// First escaped circuit text seen per entry, for the output checks.
    texts: HashMap<usize, Vec<u8>>,
    setup_s: f64,
    wall: Duration,
    /// The timings of each of the [`SLICES`] slices, in sequence order.
    slices: Vec<Timings>,
}

/// One round: a fresh server on a fresh copy of the pre-filled store, the
/// whole request sequence over one keep-alive connection in a closed loop,
/// then a drain. One connection keeps one thread runnable at a time (client,
/// event loop or solver worker): two connections ran four threads on the
/// reference machine's two vCPUs, a hit could wait behind the other
/// connection's solve, and throughput spread 0.33–0.40 over ten seeds.
fn http_round(work: &Path, pristine: &Path, corpus: &Corpus, plan: &RequestPlan) -> Round {
    let dir = work.join("round");
    copy_dir(pristine, &dir);
    let (server, mut client, setup_s) = start(&dir);
    let n = plan.sequence.len();
    let mut answers = Vec::with_capacity(n);
    let mut texts = HashMap::new();
    // Wall and CPU time at the end of each slice; Timings are built after
    // the loop so that no statistics run inside it.
    let mut marks = Vec::with_capacity(SLICES);
    let mut next_mark = 1;
    let cpu0 = sys::cpu_time();
    let t = Instant::now();
    for (i, &entry) in plan.sequence.iter().enumerate() {
        let sent = Instant::now();
        let response = client
            .request("POST", "/v1/adapt", &corpus.bodies[entry])
            .expect("qca-serve answers");
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        let (status, body) = (response.status, response.body);
        let circuit = json_str(&body, "circuit_qasm");
        let cache_hit = body.windows(16).any(|w| w == b"\"cache_hit\":true");
        if let Some(raw) = circuit {
            texts.entry(entry).or_insert_with(|| raw.to_vec());
        }
        answers.push(Answer {
            entry,
            latency_ms,
            status,
            cache_hit,
            circuit_hash: circuit.map_or(0, fnv),
        });
        if i + 1 == next_mark * n / SLICES {
            marks.push((i + 1, t.elapsed(), sys::cpu_time() - cpu0));
            next_mark += 1;
        }
    }
    let wall = t.elapsed();
    server.stop(vec![client]);
    let _ = std::fs::remove_dir_all(&dir);
    let mut slices = Vec::with_capacity(SLICES);
    let (mut from, mut wall0, mut cpu_from) = (0, Duration::ZERO, Duration::ZERO);
    for (to, wall_to, cpu_to) in marks {
        if to > from {
            let latencies: Vec<f64> = answers[from..to].iter().map(|a| a.latency_ms).collect();
            slices.push(Timings::of(
                &latencies,
                (wall_to - wall0).as_secs_f64(),
                (cpu_to - cpu_from).as_secs_f64(),
            ));
        }
        (from, wall0, cpu_from) = (to, wall_to, cpu_to);
    }
    Round {
        answers,
        texts,
        setup_s,
        wall,
        slices,
    }
}

/// Per-entry verdicts of the output checks: the losses of the entry's
/// circuit and its baseline, or why it failed.
struct Verdicts {
    by_entry: BTreeMap<usize, Result<Losses, String>>,
    /// The circuit hash every response for an entry must carry.
    hash: HashMap<usize, u64>,
}

impl Verdicts {
    fn new() -> Verdicts {
        Verdicts {
            by_entry: BTreeMap::new(),
            hash: HashMap::new(),
        }
    }

    /// Checks each entry's circuit once: it parses, is native, implements
    /// the input's unitary, and is no worse than direct translation.
    fn add_texts(&mut self, texts: &HashMap<usize, Vec<u8>>, corpus: &Corpus, hw: &HardwareModel) {
        for (&entry, raw) in texts {
            if self.by_entry.contains_key(&entry) {
                continue;
            }
            self.hash.insert(
                entry,
                corpus.prefill_hash[entry].unwrap_or_else(|| fnv(raw)),
            );
            let verdict = unescape(raw)
                .ok_or_else(|| "circuit_qasm is not a JSON string".to_string())
                .and_then(|text| {
                    qasm::parse_qasm(&text).map_err(|e| format!("circuit_qasm does not parse: {e}"))
                })
                .and_then(|adapted| {
                    let want = Expectation {
                        input: &corpus.circuits[entry],
                        objective: Objective::Fidelity,
                        coupling: None,
                        baseline: corpus.baselines[entry],
                    };
                    check_output(&adapted, hw, &want)
                });
            self.by_entry.insert(entry, verdict);
        }
    }

    /// The objective gain over the distinct circuits served: a cache hit
    /// repeats an adaptation rather than making a new one, so every
    /// adapted circuit weighs the same however popular it is.
    fn gain(&self) -> f64 {
        let losses: Vec<Losses> = self
            .by_entry
            .values()
            .filter_map(|v| v.clone().ok())
            .collect();
        check::gain(&losses)
    }

    /// Checks one answer against its entry's verdict and circuit.
    fn check(&self, a: &Answer) -> Result<(), String> {
        if a.status != 200 {
            return Err(format!("entry {}: status {}", a.entry, a.status));
        }
        match self.hash.get(&a.entry) {
            None => return Err(format!("entry {}: no circuit_qasm", a.entry)),
            Some(&h) if h != a.circuit_hash => {
                return Err(format!(
                    "entry {}: circuit differs from the solve that filled the cache",
                    a.entry
                ))
            }
            Some(_) => {}
        }
        match &self.by_entry[&a.entry] {
            Ok(_) => Ok(()),
            Err(e) => Err(format!("entry {}: {e}", a.entry)),
        }
    }
}

/// Runs the serve workload.
pub fn run(config: &RunConfig) -> Outcome {
    let sizes = config.scale.sizes(config.workload);
    let plan = gen::request_plan(config.seed, sizes.corpus, sizes.requests);
    let hw = spin_qubit_model(GateTimes::D0);
    let work = WorkDir::new();
    let pristine = work.0.join("pristine");
    let corpus = Corpus::build(config.seed, sizes.corpus, &plan, &hw, &pristine);
    // Whether serving raises the peak beyond corpus build and pre-fill.
    eprintln!(
        "qcabench: peak RSS after corpus build and pre-fill: {:.1} MiB",
        sys::peak_rss_mib()
    );
    if config.trace {
        return run_traced(&work.0, &pristine, &corpus, &plan, &hw);
    }

    // Each round's answers are checked as soon as it ends (untimed). The
    // timing metrics are medians over the slices of every round, so a burst
    // of load from outside the benchmark moves one slice rather than the
    // run; start-ups are timed before every round for the same reason.
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut verdicts = Verdicts::new();
    let (mut setups, mut timings) = (Vec::new(), Vec::new());
    rounds(config.seconds, |_| {
        for _ in 1..SETUPS_PER_ROUND {
            setups.push(start_and_stop(&work.0, &pristine));
        }
        let round = http_round(&work.0, &pristine, &corpus, &plan);
        verdicts.add_texts(&round.texts, &corpus, &hw);
        for a in &round.answers {
            out.attempted += 1;
            if let Err(e) = verdicts.check(a) {
                out.fail(e);
            }
        }
        // Every request of every round was answered exactly once.
        out.correct &= round.answers.len() == plan.sequence.len();
        setups.push(round.setup_s);
        timings.extend(round.slices);
        round.wall
    });
    while setups.len() < MIN_SETUPS {
        setups.push(start_and_stop(&work.0, &pristine));
    }
    out.push_end_to_end(&setups, &Timings::median(&timings), verdicts.gain());
    out
}

/// One timed start-up on a fresh copy of the pre-filled store, then a
/// drain; returns the start-up time.
fn start_and_stop(work: &Path, pristine: &Path) -> f64 {
    let dir = work.join("setup");
    copy_dir(pristine, &dir);
    let (server, client, setup_s) = start(&dir);
    server.stop(vec![client]);
    setup_s
}

/// The traced run: one HTTP round for the hit/miss latency split, then the
/// same request sequence replayed in-process through each layer's public
/// entry point, timed call by call.
fn run_traced(
    work: &Path,
    pristine: &Path,
    corpus: &Corpus,
    plan: &RequestPlan,
    hw: &HardwareModel,
) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut layers = Layers::default();
    let round = http_round(work, pristine, corpus, plan);
    let mut verdicts = Verdicts::new();
    verdicts.add_texts(&round.texts, corpus, hw);
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    for a in &round.answers {
        out.attempted += 1;
        if let Err(e) = verdicts.check(a) {
            out.fail(e);
        }
        if a.cache_hit { &mut hits } else { &mut misses }.push(a.latency_ms);
    }
    out.correct = round.answers.len() == plan.sequence.len();
    layers.hit_latency_p50_ms = if hits.is_empty() {
        0.0
    } else {
        stats::median(&hits)
    };
    layers.miss_latency_p50_ms = if misses.is_empty() {
        0.0
    } else {
        stats::median(&misses)
    };

    let dir = work.join("replay");
    copy_dir(pristine, &dir);
    let t = Instant::now();
    let store = Store::open(&dir).expect("open store");
    let cache = AdaptCache::new(ServeConfig::default().cache_capacity);
    store.replay(|key, adaptation| cache.insert(key, adaptation));
    layers.replay_ns = ns(t.elapsed());
    let requests: Vec<Vec<u8>> = corpus.bodies.iter().map(|b| request_bytes(b)).collect();
    let (tracer, sink) = Tracer::to_memory();
    let engine = Engine::new(
        EngineConfig::builder()
            .workers(1)
            .cache_capacity(0)
            .tracer(tracer)
            .build(),
    );
    for (i, &entry) in plan.sequence.iter().enumerate() {
        out.attempted += 1;
        let job_start = Instant::now();
        let t = Instant::now();
        let request = RequestParser::new()
            .feed(&requests[entry])
            .ok()
            .flatten()
            .expect("request parses");
        let http_ns = ns(t.elapsed());
        let t = Instant::now();
        let circuit = std::str::from_utf8(&request.body)
            .ok()
            .and_then(|text| qasm::parse_qasm(text).ok())
            .expect("body parses");
        let parse_ns = ns(t.elapsed());
        let job = server_job(circuit);
        let t = Instant::now();
        let key = AdaptCache::key(&job.circuit, hw, &job.options, &job.limits);
        let mut key_ns = ns(t.elapsed());
        let t = Instant::now();
        let mut hit = cache.get(key);
        key_ns += ns(t.elapsed());
        let (mut get_ns, mut solve_ns, mut append_ns) = (0, 0, 0);
        let cache_hit = hit.is_some();
        if cache_hit {
            layers.cache_hits += 1;
        } else {
            let t = Instant::now();
            hit = store.get(key);
            get_ns = ns(t.elapsed());
            layers.gets += 1;
            if hit.is_none() {
                let traced = traced_adapt(&engine, &sink, hw, &job, &mut layers);
                // The engine's own work around the spans stays unaccounted,
                // as in the batch workloads.
                solve_ns = traced.covered_ns;
                let adaptation = traced.report.adaptation.expect("a solve, not a fallback");
                let t = Instant::now();
                store.append(key, &adaptation).expect("append to store");
                append_ns = ns(t.elapsed());
                layers.appends += 1;
                hit = Some(adaptation);
            }
            cache.insert(key, hit.clone().expect("resolved"));
        }
        let adaptation: Arc<Adaptation> = hit.expect("resolved");
        let report = served(&adaptation, cache_hit);
        let t = Instant::now();
        std::hint::black_box(qca_serve::json::report_to_json(
            &format!("req-{i}"),
            &report,
            false,
        ));
        let render_ns = ns(t.elapsed());
        let t = Instant::now();
        let text = qasm::to_qasm(&report.circuit);
        let emit_ns = ns(t.elapsed());
        let job_ns = ns(job_start.elapsed());

        let answer = Answer {
            entry,
            latency_ms: 0.0,
            status: 200,
            cache_hit,
            circuit_hash: fnv(qca_serve::json::escape(&text).as_bytes()),
        };
        if let Err(e) = verdicts.check(&answer) {
            out.fail(format!("replay: {e}"));
        }
        layers.http_parses += 1;
        layers.http_parse_ns += http_ns;
        layers.parses += 1;
        layers.parse_ns += parse_ns;
        layers.cache_keys += 1;
        layers.cache_key_ns += key_ns;
        layers.get_ns += get_ns;
        layers.append_ns += append_ns;
        layers.renders += 1;
        layers.render_ns += render_ns;
        layers.emits += 1;
        layers.emit_ns += emit_ns;
        layers.jobs += 1;
        layers.job_ns += job_ns;
        let timed =
            http_ns + parse_ns + key_ns + get_ns + solve_ns + append_ns + render_ns + emit_ns;
        layers.unaccounted_ns += job_ns.saturating_sub(timed);
    }
    store.flush().expect("flush store");
    layers.store_bytes = dir_bytes(&dir);
    layers.report(&mut out);
    out
}

/// The report the server renders for an adaptation it already holds.
fn served(adaptation: &Arc<Adaptation>, cache_hit: bool) -> AdaptReport {
    AdaptReport {
        job: 0,
        status: if adaptation.solver.optimal {
            AdaptStatus::Optimal
        } else {
            AdaptStatus::Feasible
        },
        circuit: adaptation.circuit.clone(),
        objective_value: Some(adaptation.solver.objective_value),
        cache_hit,
        wall: Duration::ZERO,
        solver_stats: Some(adaptation.solver.solver_stats.clone()),
        error: None,
        adaptation: Some(adaptation.clone()),
        audit: None,
        diagnostics: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_fields_and_escapes() {
        let body =
            br#"{"cache_hit":true,"circuit_qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"}"#;
        let raw = json_str(body, "circuit_qasm").unwrap();
        assert_eq!(
            unescape(raw).unwrap(),
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
        );
        assert!(json_str(body, "missing").is_none());
        assert_eq!(unescape(br"a\u0001b").unwrap(), "a\u{1}b");
    }
}
