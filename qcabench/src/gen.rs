//! Seeded workload inputs. Every corpus and request sequence is a function
//! of the workload seed alone; the program only ever sees the generated
//! QASM text.

use crate::rng::{derive, SplitMix64, Zipf};
use qca_adapt::Objective;
use qca_circuit::{qasm, Circuit, Gate};
use qca_num::CMat;
use qca_workloads::{quantum_volume, random_template_circuit, topology_stress};
use std::collections::HashSet;

/// One generated job: the QASM text handed to the program and how to adapt it.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Generator family and shape, e.g. `qv-5x3`.
    pub family: String,
    /// The circuit as OpenQASM 2.0 text.
    pub qasm: String,
    /// Adaptation objective.
    pub objective: Objective,
    /// Adapt against a line coupling map of the circuit's width.
    pub routed: bool,
}

/// Sizes of one workload's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Jobs (batch workloads) or distinct circuits (serve).
    pub corpus: usize,
    /// Requests per round (serve only).
    pub requests: usize,
}

// Stream tags keep the random streams of different generators apart.
const STREAM_SCHED: u64 = 1;
const STREAM_QV: u64 = 2;
const STREAM_TOPO: u64 = 3;
const STREAM_SERVE: u64 = 4;
const STREAM_ORDER: u64 = 5;

/// The phase-insensitive distance band `(lo, hi)` in which a gate range
/// is close to, but not exactly, a swap or a CNOT. The program's pattern
/// rules accept a range below 1e-9 (see [`SWAP_FAULT_QASM`]).
const NEAR_PATTERN: (f64, f64) = (1e-13, 1e-7);

/// `1 - |tr(A†B)| / 4` for 4×4 matrices: 0 when equal up to a phase.
fn distance4(a: &CMat, b: &CMat) -> f64 {
    let (mut re, mut im) = (0.0, 0.0);
    for i in 0..4 {
        for j in 0..4 {
            let (x, y) = (a[(i, j)], b[(i, j)]);
            re += x.re * y.re + x.im * y.im;
            im += x.re * y.im - x.im * y.re;
        }
    }
    1.0 - re.hypot(im) / 4.0
}

/// `true` when some range of consecutive gates on one qubit pair, with no
/// gate between them coupling either qubit elsewhere, implements a
/// unitary within [`NEAR_PATTERN`] of a swap or a CNOT (either direction).
/// These are the ranges the program's swap and CNOT rules mistake for
/// their target.
fn has_near_pattern_range(circuit: &Circuit) -> bool {
    let swap = Gate::Swap.matrix();
    let cx = Gate::Cx.matrix();
    let targets = [swap, cx.embed_qubits(&[1, 0], 2), cx];
    let near = |segment: &[(CMat, bool)]| {
        (0..segment.len()).any(|start| {
            let mut u = CMat::identity(4);
            let mut two_qubit = false;
            segment[start..].iter().any(|(g, is_two)| {
                u = g * &u;
                two_qubit |= is_two;
                two_qubit
                    && targets.iter().any(|t| {
                        let d = distance4(t, &u);
                        NEAR_PATTERN.0 < d && d < NEAR_PATTERN.1
                    })
            })
        })
    };
    let n = circuit.num_qubits();
    for a in 0..n {
        for b in a + 1..n {
            let mut segment: Vec<(CMat, bool)> = Vec::new();
            for instr in circuit.iter() {
                if !instr.qubits.iter().any(|&q| q == a || q == b) {
                    continue;
                }
                if instr.qubits.iter().all(|&q| q == a || q == b) {
                    let slots: Vec<usize> =
                        instr.qubits.iter().map(|&q| usize::from(q == b)).collect();
                    let g = instr.gate.matrix().embed_qubits(&slots, 2);
                    segment.push((g, instr.qubits.len() == 2));
                } else {
                    if near(&segment) {
                        return true;
                    }
                    segment.clear();
                }
            }
            if near(&segment) {
                return true;
            }
        }
    }
    false
}

/// Collects `count` distinct circuits from `make(i)` for `i = 0, 1, ..`,
/// skipping any whose QASM text repeats an earlier one, so that no two jobs
/// share a cache key.
///
/// Circuits with a gate range near a swap or CNOT are skipped too: the
/// program's pattern rules compare a range to their target with a distance
/// that is second order in the residual angle, so a range within about
/// 1e-4 rad of a swap or CNOT (a swap then a tiny rotation, or
/// `cp(π - ε)` then `cz`) is taken for the target and the residual is
/// dropped (see [`SWAP_FAULT_QASM`]). Random angles hit that on some
/// seeds only, so those inputs are left out and the fault is exercised by
/// a fixed job instead.
fn distinct(
    count: usize,
    mut make: impl FnMut(u64) -> (String, Circuit, Objective, bool),
) -> Vec<JobSpec> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    let mut i = 0u64;
    while out.len() < count {
        let (family, circuit, objective, routed) = make(i);
        i += 1;
        if has_near_pattern_range(&circuit) {
            continue;
        }
        let text = qasm::to_qasm(&circuit);
        if seen.insert(text.clone()) {
            out.push(JobSpec {
                family,
                qasm: text,
                objective,
                routed,
            });
        }
    }
    out
}

/// adapt-sched: random-template circuits on 4 qubits with 20–24 template
/// layers, ten idle-time jobs then ten combined ones, in turn. Shapes and
/// objectives recur in a fixed rotation; the gates come from the seed.
pub fn sched_corpus(seed: u64, count: usize) -> Vec<JobSpec> {
    distinct(count, |i| {
        let s = derive(seed, STREAM_SCHED, i);
        let qubits = 4;
        let depth = 20 + (i % 5) as usize;
        let objective = if (i / 10) % 2 == 0 {
            Objective::IdleTime
        } else {
            Objective::Combined
        };
        let c = random_template_circuit(
            qubits,
            depth,
            s,
            &qca_workloads::DEFAULT_TEMPLATE_GATES,
            true,
        );
        (format!("template-{qubits}x{depth}"), c, objective, false)
    })
}

/// A circuit the adaptation gets wrong on every run: three alternating
/// CNOTs (a swap) then `rz(5e-5)`. Under the fidelity objective the range
/// matches the swap rule, one `swap_c` replaces it, and the rotation is
/// lost; the adapted circuit does not implement the source unitary.
pub const SWAP_FAULT_QASM: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n\
cx q[0],q[1];\ncx q[1],q[0];\ncx q[0],q[1];\nrz(0.00005) q[1];\n";

/// A second circuit the adaptation gets wrong on every run, with no range
/// near a swap or CNOT: a 3-qubit random template whose fidelity
/// adaptation (a `KakCz` block and two `SwapComposite`s) comes back with
/// `u3` angles off their exact values by up to 5e-4, so the adapted
/// circuit does not implement the source unitary.
pub const KAK_FAULT_QASM: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n\
h q[0];\nrz(-1.30563508854684818) q[1];\ncx q[1],q[2];\n\
cp(0.79866274545904181) q[1],q[2];\ncz q[1],q[0];\ncx q[0],q[1];\n\
cp(-2.43489868667769516) q[0],q[1];\nswap q[0],q[1];\nh q[0];\ncx q[0],q[1];\n\
cx q[1],q[0];\ncx q[0],q[1];\nrz(2.81421997847116501) q[0];\nswap q[1],q[2];\n\
cp(0.53347166428687576) q[2],q[1];\nswap q[1],q[2];\nrz(-0.80921089758068776) q[1];\n\
h q[1];\nry(-1.53054368721558776) q[2];\n";

/// The fixed known-fault circuits, the same on every seed. adapt-verified
/// runs each as one job per round and serve-zipf requests each once per
/// round, so both fail exactly `KNOWN_FAULTS.len()` operations per round
/// until the program is fixed.
pub const KNOWN_FAULTS: [&str; 2] = [SWAP_FAULT_QASM, KAK_FAULT_QASM];

/// The fixed [`KNOWN_FAULTS`] as fidelity jobs.
fn known_fault_jobs() -> impl Iterator<Item = JobSpec> {
    KNOWN_FAULTS.into_iter().map(|text| JobSpec {
        family: "known-fault".into(),
        qasm: text.into(),
        objective: Objective::Fidelity,
        routed: false,
    })
}

/// adapt-verified: two of every three jobs are quantum-volume circuits
/// (4–6 qubits, 3–4 layers); every third is a topology-stress circuit
/// (4–6 qubits, 6–9 two-qubit gates) adapted against a line coupling map.
/// All under the fidelity objective. After the `count` seeded jobs come
/// the fixed [`KNOWN_FAULTS`] jobs.
pub fn verified_corpus(seed: u64, count: usize) -> Vec<JobSpec> {
    let mut jobs = distinct(count, |i| {
        let qubits = 4 + ((i / 3) % 3) as usize;
        if i % 3 == 2 {
            let depth = 6 + ((i / 9) % 4) as usize;
            let c = topology_stress(qubits, depth, derive(seed, STREAM_TOPO, i));
            (
                format!("topo-{qubits}x{depth}"),
                c,
                Objective::Fidelity,
                true,
            )
        } else {
            let depth = 3 + ((i / 9) % 2) as usize;
            let c = quantum_volume(qubits, depth, derive(seed, STREAM_QV, i));
            (
                format!("qv-{qubits}x{depth}"),
                c,
                Objective::Fidelity,
                false,
            )
        }
    });
    jobs.extend(known_fault_jobs());
    jobs
}

/// serve-zipf: `count` distinct quantum-volume circuits, two of every
/// three on 4 qubits and every third on 5, with 2–3 layers; fidelity
/// objective. After them come the fixed [`KNOWN_FAULTS`] entries.
/// Random-template circuits are left out: at 1200 per run they met
/// adaptation faults that depend on the seed (the two kinds the fixed
/// entries show) in about one run in five.
pub fn serve_corpus(seed: u64, count: usize) -> Vec<JobSpec> {
    let mut entries = distinct(count, |i| {
        let qubits = 4 + usize::from(i % 3 == 2);
        let depth = 2 + ((i / 3) % 2) as usize;
        let c = quantum_volume(qubits, depth, derive(seed, STREAM_SERVE, i));
        (
            format!("qv-{qubits}x{depth}"),
            c,
            Objective::Fidelity,
            false,
        )
    });
    entries.extend(known_fault_jobs());
    entries
}

/// The serve request plan: which corpus entries the store holds before
/// start-up, and the corpus index of every request in one round.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestPlan {
    /// `prefilled[i]`: corpus entry `i` is in the store at start-up.
    pub prefilled: Vec<bool>,
    /// Corpus index per request, in send order.
    pub sequence: Vec<usize>,
}

/// Zipf exponent of request popularity.
pub const ZIPF_S: f64 = 1.0;

/// Draws a seeded popularity order over the `corpus` seeded entries of
/// [`serve_corpus`] (rank → entry), a seeded half of them to pre-fill, and
/// `requests` Zipf-ranked requests. Each fixed [`KNOWN_FAULTS`] entry
/// after them is requested once, at fixed shares of the sequence, and is
/// never pre-filled.
pub fn request_plan(seed: u64, corpus: usize, requests: usize) -> RequestPlan {
    let mut rng = SplitMix64::new(derive(seed, STREAM_ORDER, 0));
    let mut by_rank: Vec<usize> = (0..corpus).collect();
    rng.shuffle(&mut by_rank);
    let mut half: Vec<usize> = (0..corpus).collect();
    rng.shuffle(&mut half);
    let mut prefilled = vec![false; corpus + KNOWN_FAULTS.len()];
    for &i in &half[..corpus / 2] {
        prefilled[i] = true;
    }
    let zipf = Zipf::new(corpus, ZIPF_S);
    let mut sequence: Vec<usize> = (0..requests)
        .map(|_| by_rank[zipf.sample(&mut rng)])
        .collect();
    for k in (0..KNOWN_FAULTS.len()).rev() {
        sequence.insert((k + 1) * requests / (KNOWN_FAULTS.len() + 1), corpus + k);
    }
    RequestPlan {
        prefilled,
        sequence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpora_are_deterministic_in_the_seed() {
        assert_eq!(sched_corpus(5, 6), sched_corpus(5, 6));
        assert_eq!(verified_corpus(5, 6), verified_corpus(5, 6));
        assert_eq!(serve_corpus(5, 6), serve_corpus(5, 6));
        assert_eq!(request_plan(5, 40, 100), request_plan(5, 40, 100));
        assert_ne!(sched_corpus(5, 6), sched_corpus(6, 6));
        assert_ne!(verified_corpus(5, 6), verified_corpus(6, 6));
        assert_ne!(serve_corpus(5, 6), serve_corpus(6, 6));
        assert_ne!(request_plan(5, 40, 100), request_plan(6, 40, 100));
    }

    #[test]
    fn corpora_are_distinct_and_parse() {
        for corpus in [
            sched_corpus(1, 20),
            verified_corpus(1, 20),
            serve_corpus(1, 20),
        ] {
            let texts: HashSet<&str> = corpus.iter().map(|j| j.qasm.as_str()).collect();
            assert_eq!(texts.len(), corpus.len());
            for job in &corpus {
                qasm::parse_qasm(&job.qasm).unwrap();
            }
        }
        let v = verified_corpus(1, 9);
        assert_eq!(v.iter().filter(|j| j.routed).count(), 3);
        assert_eq!(v.len(), 11);
        assert_eq!([v[9].qasm.as_str(), v[10].qasm.as_str()], KNOWN_FAULTS);
        assert_eq!(verified_corpus(2, 9)[9..], v[9..]);
        let z = serve_corpus(1, 9);
        assert_eq!(z.len(), 11);
        assert_eq!(serve_corpus(2, 9)[9..], z[9..]);
        let s = sched_corpus(1, 20);
        assert_eq!(
            s.iter()
                .filter(|j| j.objective == Objective::IdleTime)
                .count(),
            10
        );
    }

    #[test]
    fn near_pattern_ranges_are_recognised() {
        let near = |src: &str| has_near_pattern_range(&qasm::parse_qasm(src).unwrap());
        let head = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n";
        assert!(near(SWAP_FAULT_QASM));
        assert!(!near(KAK_FAULT_QASM));
        // cp(π - 7e-5) then cz is within 7e-5 rad of the identity, so with
        // the CNOT after it the range is nearly a CNOT.
        assert!(near(&format!(
            "{head}cp(3.14152387632887198) q[0],q[1];\ncz q[0],q[1];\ncx q[1],q[0];\n"
        )));
        // Exact patterns and clearly different ranges are kept.
        assert!(!near(&format!(
            "{head}cx q[0],q[1];\ncx q[1],q[0];\ncx q[0],q[1];\nrz(0.3) q[1];\n"
        )));
        assert!(!near(&format!(
            "{head}cp(3.141592653589793) q[0],q[1];\ncz q[0],q[1];\ncx q[1],q[0];\n"
        )));
        // An exact pattern split by a gate on another pair stays too.
        assert!(!near(&format!(
            "{head}cx q[0],q[1];\ncx q[1],q[0];\ncz q[1],q[2];\ncx q[0],q[1];\n"
        )));
        // Operand order: the tiny rotation on either qubit is found.
        assert!(near(&format!("{head}swap q[2],q[1];\nrz(0.00005) q[2];\n")));
    }

    #[test]
    fn request_plan_prefills_half_and_covers_popular_entries() {
        let plan = request_plan(9, 100, 2000);
        assert_eq!(plan.prefilled.len(), 102);
        assert_eq!(plan.prefilled.iter().filter(|&&p| p).count(), 50);
        assert!(!plan.prefilled[100] && !plan.prefilled[101]);
        assert_eq!(plan.sequence.len(), 2002);
        // The fixed entries once each, at a third and two thirds.
        assert_eq!(plan.sequence[666], 100);
        assert_eq!(plan.sequence[1334], 101);
        assert!(plan.sequence.iter().filter(|&&i| i >= 100).count() == 2);
        let distinct: HashSet<usize> = plan.sequence.iter().copied().collect();
        assert!(distinct.len() > 52 && distinct.len() <= 102);
    }
}
