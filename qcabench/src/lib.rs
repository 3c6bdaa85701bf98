//! # qcabench — the repository's end-to-end and per-layer benchmark
//!
//! Three workloads drive the adaptation stack through its public API with
//! default solver settings:
//!
//! * `adapt-sched` — a cold batch under the idle-time and combined
//!   objectives (OMT optimality probing, SAT-bound),
//! * `adapt-verified` — a cold batch under the fidelity objective with the
//!   independent audit on (rules, certification, DRAT checking),
//! * `serve-zipf` — `qca-serve` over loopback with a persistent store and
//!   Zipf-skewed request popularity (HTTP, cache and store tiers, WAL
//!   appends).
//!
//! Every output is checked apart from the solver ([`check`]). An untraced
//! run reports the end-to-end metrics; a traced run (`--trace 1`) times the
//! calls into each layer and reports the per-layer metrics. See
//! `README.md` in this directory.

pub mod batch;
pub mod check;
pub mod gen;
pub mod layers;
pub mod report;
pub mod rng;
pub mod serve;
pub mod stats;
pub mod sys;

use std::time::Duration;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold idle-time/combined batch.
    AdaptSched,
    /// Cold verified fidelity batch with routed jobs.
    AdaptVerified,
    /// Loopback serving with a Zipf-skewed request mix.
    ServeZipf,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::AdaptSched,
        Workload::AdaptVerified,
        Workload::ServeZipf,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AdaptSched => "adapt-sched",
            Workload::AdaptVerified => "adapt-verified",
            Workload::ServeZipf => "serve-zipf",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: `Full` is what the benchmark measures, `Tiny` a smoke run
/// of a few operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// A handful of operations per workload.
    Tiny,
}

impl Scale {
    /// Sizes of `workload`'s inputs at this scale.
    pub fn sizes(self, workload: Workload) -> gen::Sizes {
        let (corpus, requests) = match (self, workload) {
            (Scale::Full, Workload::AdaptSched) => (28, 0),
            (Scale::Full, Workload::AdaptVerified) => (600, 0),
            (Scale::Full, Workload::ServeZipf) => (700, 12_000),
            (Scale::Tiny, Workload::AdaptSched) => (2, 0),
            (Scale::Tiny, Workload::AdaptVerified) => (6, 0),
            (Scale::Tiny, Workload::ServeZipf) => (16, 60),
        };
        gen::Sizes { corpus, requests }
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measuring time: whole rounds run while the next is expected to end
    /// within it (at least one round).
    pub seconds: Duration,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// Runs one workload and returns its outcome.
pub fn run(config: &RunConfig) -> report::Outcome {
    match config.workload {
        Workload::AdaptSched | Workload::AdaptVerified => batch::run(config),
        Workload::ServeZipf => serve::run(config),
    }
}

/// Runs `round` repeatedly: at least once, then again while another round
/// of the last one's length still ends within `budget`. Returns the
/// per-round wall times.
pub fn rounds(budget: Duration, mut round: impl FnMut(usize) -> Duration) -> Vec<Duration> {
    let start = std::time::Instant::now();
    let mut walls = Vec::new();
    loop {
        let wall = round(walls.len());
        walls.push(wall);
        if start.elapsed() + wall > budget {
            return walls;
        }
    }
}
