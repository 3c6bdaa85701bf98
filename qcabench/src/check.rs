//! Output checks computed apart from the solver: native gates, unitary
//! equivalence, coupling, and the job's own objective against the direct
//! basis-translation baseline, all from the hardware gate tables and an
//! ASAP schedule.

use qca_adapt::Objective;
use qca_circuit::{Circuit, Gate};
use qca_hw::{CircuitSchedule, CouplingMap, HardwareModel};
use std::collections::VecDeque;

/// The job's objective in natural units, higher is better: `ln F`
/// (fidelity), `-idle/T2` (idle time) or `ln F - idle/T2` (combined), with
/// `F` the product of gate-table fidelities and `idle` the aggregate qubit
/// idle time of the circuit's ASAP schedule. `None` when a gate is not
/// priced by the hardware.
pub fn score(circuit: &Circuit, hw: &HardwareModel, objective: Objective) -> Option<f64> {
    let mut ln_f = 0.0;
    for instr in circuit.iter() {
        ln_f += hw.cost(&instr.gate)?.fidelity.ln();
    }
    let idle = || CircuitSchedule::asap(circuit, hw).map(|s| s.total_idle_time() / hw.t2());
    Some(match objective {
        Objective::Fidelity => ln_f,
        Objective::IdleTime => -idle()?,
        Objective::Combined => ln_f - idle()?,
    })
}

/// Routes every two-qubit gate onto the coupling map by shortest-path SWAP
/// insertion: the first operand walks a breadth-first shortest path until
/// it is adjacent to the second, the gate runs there, and the swaps walk
/// back, so the routed circuit implements the input's unitary exactly.
///
/// # Panics
///
/// Panics when the map is smaller than the circuit or disconnected between
/// two operands.
pub fn route(circuit: &Circuit, coupling: &CouplingMap) -> Circuit {
    let n = coupling.num_qubits();
    assert!(n >= circuit.num_qubits(), "coupling map too small");
    let mut adjacent = vec![Vec::new(); n];
    for &(a, b) in coupling.edges() {
        adjacent[a].push(b);
        adjacent[b].push(a);
    }
    for list in &mut adjacent {
        list.sort_unstable();
    }
    let mut out = Circuit::new(circuit.num_qubits());
    for instr in circuit.iter() {
        if instr.qubits.len() != 2 {
            out.push(instr.gate, &instr.qubits);
            continue;
        }
        let (a, b) = (instr.qubits[0], instr.qubits[1]);
        let path = shortest_path(&adjacent, a, b).expect("operands are connected");
        // path = [a, .., p, b]; walk a to p, apply on (p, b), walk back.
        let walk = &path[..path.len() - 1];
        for w in walk.windows(2) {
            out.push(Gate::Swap, &[w[0], w[1]]);
        }
        out.push(instr.gate, &[walk[walk.len() - 1], b]);
        for w in walk.windows(2).rev() {
            out.push(Gate::Swap, &[w[0], w[1]]);
        }
    }
    out
}

/// Breadth-first shortest path from `from` to `to`, visiting neighbours in
/// ascending order, so ties resolve to the lowest-index route.
fn shortest_path(adjacent: &[Vec<usize>], from: usize, to: usize) -> Option<Vec<usize>> {
    let mut prev = vec![usize::MAX; adjacent.len()];
    prev[from] = from;
    let mut queue = VecDeque::from([from]);
    while let Some(q) = queue.pop_front() {
        if q == to {
            let mut path = vec![to];
            let mut cur = to;
            while cur != from {
                cur = prev[cur];
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        for &next in &adjacent[q] {
            if prev[next] == usize::MAX {
                prev[next] = q;
                queue.push_back(next);
            }
        }
    }
    None
}

/// A state vector of `n` qubits, qubit 0 the most significant bit.
type State = Vec<(f64, f64)>;

/// Applies `circuit` to `state` gate by gate (big-endian operand order, as
/// in [`Gate::matrix`]).
fn simulate(circuit: &Circuit, mut state: State) -> State {
    let n = circuit.num_qubits();
    for instr in circuit.iter() {
        let m = instr.gate.matrix();
        let k = instr.qubits.len();
        let shifts: Vec<usize> = instr.qubits.iter().map(|&q| n - 1 - q).collect();
        let mask: usize = shifts.iter().map(|s| 1 << s).sum();
        let index = |base: usize, local: usize| {
            let mut i = base;
            for (j, s) in shifts.iter().enumerate() {
                i |= ((local >> (k - 1 - j)) & 1) << s;
            }
            i
        };
        for base in (0..state.len()).filter(|b| b & mask == 0) {
            let old: Vec<(f64, f64)> = (0..1 << k).map(|l| state[index(base, l)]).collect();
            for row in 0..1 << k {
                let (mut re, mut im) = (0.0, 0.0);
                for (col, &(x, y)) in old.iter().enumerate() {
                    let g = m[(row, col)];
                    re += g.re * x - g.im * y;
                    im += g.re * y + g.im * x;
                }
                state[index(base, row)] = (re, im);
            }
        }
    }
    state
}

/// `true` when the circuits implement the same unitary up to a global
/// phase. Both run on two fixed pseudo-random states: equal unitaries give
/// overlaps of modulus 1 with one common phase, and unequal ones fail this
/// for all but a measure-zero set of states.
pub fn same_unitary(a: &Circuit, b: &Circuit) -> bool {
    if a.num_qubits() != b.num_qubits() {
        return false;
    }
    let dim = 1usize << a.num_qubits();
    let mut rng = crate::rng::SplitMix64::new(0x5EED);
    let mut overlaps = Vec::new();
    for _ in 0..2 {
        let raw: State = (0..dim)
            .map(|_| (rng.unit() - 0.5, rng.unit() - 0.5))
            .collect();
        let norm = raw.iter().map(|(x, y)| x * x + y * y).sum::<f64>().sqrt();
        let psi: State = raw.iter().map(|(x, y)| (x / norm, y / norm)).collect();
        let (sa, sb) = (simulate(a, psi.clone()), simulate(b, psi));
        // <sa|sb>
        let (mut re, mut im) = (0.0, 0.0);
        for (&(x, y), &(u, v)) in sa.iter().zip(&sb) {
            re += x * u + y * v;
            im += x * v - y * u;
        }
        overlaps.push((re, im));
    }
    let unit = overlaps
        .iter()
        .all(|(re, im)| (1.0 - re.hypot(*im)).abs() <= 1e-9);
    let (p, q) = (overlaps[0], overlaps[1]);
    unit && (p.0 - q.0).hypot(p.1 - q.1) <= 1e-7
}

/// What one job's output must satisfy.
#[derive(Debug, Clone)]
pub struct Expectation<'a> {
    /// The circuit as the program received it.
    pub input: &'a Circuit,
    /// The job's objective.
    pub objective: Objective,
    /// The device topology, for routed jobs.
    pub coupling: Option<&'a CouplingMap>,
    /// The baseline's objective score (direct translation of the input,
    /// routed first for routed jobs).
    pub baseline: f64,
}

/// Baseline score of a job: direct basis translation of the input, routed
/// first by [`route`] when the job has a coupling map.
pub fn baseline_score(
    input: &Circuit,
    hw: &HardwareModel,
    objective: Objective,
    coupling: Option<&CouplingMap>,
) -> f64 {
    let translated = match coupling {
        Some(cm) => qca_baselines::direct_translation(&route(input, cm)),
        None => qca_baselines::direct_translation(input),
    };
    score(&translated, hw, objective).expect("direct translation is native")
}

/// The loss `L = -S` of a job's baseline and of its adapted circuit: the
/// negative log success probability the objective models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Losses {
    /// Loss of the baseline (direct translation).
    pub baseline: f64,
    /// Loss of the adapted circuit.
    pub adapted: f64,
}

/// The objective gain over a set of jobs: total baseline loss over total
/// adapted loss. 1 when the adaptations only match their baselines.
pub fn gain(losses: &[Losses]) -> f64 {
    let base: f64 = losses.iter().map(|l| l.baseline).sum();
    let adapted: f64 = losses.iter().map(|l| l.adapted).sum();
    base / adapted
}

/// Checks one adapted circuit; on success returns its and its baseline's
/// loss.
///
/// # Errors
///
/// A one-line description of the first check that failed.
pub fn check_output(
    adapted: &Circuit,
    hw: &HardwareModel,
    want: &Expectation<'_>,
) -> Result<Losses, String> {
    if let Some(instr) = adapted.iter().find(|i| !hw.supports(&i.gate)) {
        return Err(format!("unsupported gate {}", instr.gate));
    }
    if let Some(cm) = want.coupling {
        let uncoupled = adapted
            .iter()
            .find(|i| i.qubits.len() == 2 && !cm.is_coupled(i.qubits[0], i.qubits[1]));
        if let Some(instr) = uncoupled {
            return Err(format!("gate {instr} on an uncoupled pair"));
        }
    }
    if !same_unitary(adapted, want.input) {
        return Err("unitary differs from the input".into());
    }
    let s = score(adapted, hw, want.objective).ok_or("unpriced gate")?;
    // Tolerance for float summation order only.
    if s - want.baseline < -1e-9 * (1.0 + want.baseline.abs()) {
        return Err(format!(
            "objective {s:.6} worse than baseline {:.6}",
            want.baseline
        ));
    }
    Ok(Losses {
        baseline: -want.baseline,
        adapted: -s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qca_hw::{spin_qubit_model, GateTimes};

    #[test]
    fn router_walks_shortest_path_and_back() {
        let mut c = Circuit::new(4);
        c.push(Gate::Cx, &[0, 3]);
        c.push(Gate::Cz, &[2, 1]);
        let routed = route(&c, &CouplingMap::line(4));
        let got: Vec<(String, Vec<usize>)> = routed
            .iter()
            .map(|i| (i.gate.name().to_string(), i.qubits.clone()))
            .collect();
        let want = vec![
            ("swap".to_string(), vec![0, 1]),
            ("swap".to_string(), vec![1, 2]),
            ("cx".to_string(), vec![2, 3]),
            ("swap".to_string(), vec![1, 2]),
            ("swap".to_string(), vec![0, 1]),
            ("cz".to_string(), vec![2, 1]),
        ];
        assert_eq!(got, want);
        assert!(same_unitary(&routed, &c));
    }

    #[test]
    fn router_prefers_lowest_index_route_on_ties() {
        // Ring of 4: 0 -> 2 has two shortest paths, via 1 and via 3.
        let mut c = Circuit::new(4);
        c.push(Gate::Cz, &[0, 2]);
        let routed = route(&c, &CouplingMap::ring(4));
        assert_eq!(routed.instrs()[0].qubits, vec![0, 1]);
        assert_eq!(routed.len(), 3);
    }

    #[test]
    fn scores_match_gate_tables_by_hand() {
        let hw = spin_qubit_model(GateTimes::D0);
        // Two CZs (F 0.999, 152 ns each) on qubits (0,1) then (1,2): the
        // schedule takes 304 ns over 3 qubits; busy time is 2*152 + 2*152,
        // so idle = 3*304 - 608 = 304 ns.
        let mut c = Circuit::new(3);
        c.push(Gate::Cz, &[0, 1]);
        c.push(Gate::Cz, &[1, 2]);
        let ln_f = 2.0 * 0.999f64.ln();
        let idle = 304.0 / hw.t2();
        let f = score(&c, &hw, Objective::Fidelity).unwrap();
        let r = score(&c, &hw, Objective::IdleTime).unwrap();
        let p = score(&c, &hw, Objective::Combined).unwrap();
        assert!((f - ln_f).abs() < 1e-12);
        assert!((r + idle).abs() < 1e-12);
        assert!((p - (ln_f - idle)).abs() < 1e-12);
        // A CNOT is not native to spin qubits.
        let mut x = Circuit::new(2);
        x.push(Gate::Cx, &[0, 1]);
        assert!(score(&x, &hw, Objective::Fidelity).is_none());
    }

    #[test]
    fn objective_gain_of_a_swap_rewrite() {
        // Three alternating CNOTs are a SWAP; one composite swap beats the
        // direct translation, so the gain is positive and the check passes.
        let hw = spin_qubit_model(GateTimes::D0);
        let mut input = Circuit::new(2);
        input.push(Gate::Cx, &[0, 1]);
        input.push(Gate::Cx, &[1, 0]);
        input.push(Gate::Cx, &[0, 1]);
        let mut adapted = Circuit::new(2);
        adapted.push(Gate::SwapComposite, &[0, 1]);
        let baseline = baseline_score(&input, &hw, Objective::Fidelity, None);
        let want = Expectation {
            input: &input,
            objective: Objective::Fidelity,
            coupling: None,
            baseline,
        };
        let losses = check_output(&adapted, &hw, &want).unwrap();
        // Baseline loss: -ln of the product of its gate fidelities (three
        // CZs and the Hadamards around them, 0.999 each); adapted loss:
        // -ln 0.999 for the one composite swap.
        let direct = qca_baselines::direct_translation(&input);
        let per_gate = -(0.999f64.ln());
        assert!(direct
            .iter()
            .all(|i| hw.cost(&i.gate).unwrap().fidelity == 0.999));
        assert!((losses.baseline - direct.len() as f64 * per_gate).abs() < 1e-12);
        assert!((losses.adapted - per_gate).abs() < 1e-12);
        assert!((gain(&[losses]) - direct.len() as f64).abs() < 1e-9);
        // Matching the baseline exactly is a gain of 1.
        let same = check_output(&direct, &hw, &want).unwrap();
        assert_eq!(gain(&[same]), 1.0);
        // Over several jobs the gain is total loss over total loss.
        let two = [
            Losses {
                baseline: 3.0,
                adapted: 1.0,
            },
            Losses {
                baseline: 1.0,
                adapted: 1.0,
            },
        ];
        assert_eq!(gain(&two), 2.0);
        // The wrong circuit fails the unitary check.
        let mut wrong = Circuit::new(2);
        wrong.push(Gate::Cz, &[0, 1]);
        assert!(check_output(&wrong, &hw, &want).is_err());
        // A non-native circuit fails the gate check.
        assert!(check_output(&input, &hw, &want).is_err());
    }

    #[test]
    fn state_vector_agrees_with_dense_unitary() {
        let c = qca_workloads::quantum_volume(3, 2, 4);
        let u = c.unitary();
        let psi: State = (0..8)
            .map(|i| (i as f64 * 0.1 + 0.05, 0.3 - i as f64 * 0.02))
            .collect();
        let got = simulate(&c, psi.clone());
        for (row, &(re, im)) in got.iter().enumerate() {
            let (mut x, mut y) = (0.0, 0.0);
            for (col, &(a, b)) in psi.iter().enumerate() {
                let g = u[(row, col)];
                x += g.re * a - g.im * b;
                y += g.re * b + g.im * a;
            }
            assert!((x - re).abs() < 1e-12 && (y - im).abs() < 1e-12);
        }
    }

    #[test]
    fn equivalence_up_to_phase_only() {
        let mut cx = Circuit::new(2);
        cx.push(Gate::Cx, &[0, 1]);
        let mut hzh = Circuit::new(2);
        hzh.push(Gate::H, &[1]);
        hzh.push(Gate::Cz, &[0, 1]);
        hzh.push(Gate::H, &[1]);
        assert!(same_unitary(&cx, &hzh));
        let mut reversed = Circuit::new(2);
        reversed.push(Gate::Cx, &[1, 0]);
        assert!(!same_unitary(&cx, &reversed));
        // Rz differs from the identity by a relative, not a global, phase.
        let mut rz = Circuit::new(1);
        rz.push(Gate::Rz(0.3), &[0]);
        assert!(!same_unitary(&rz, &Circuit::new(1)));
        let mut two = Circuit::new(1);
        two.push(Gate::Rz(0.1), &[0]);
        two.push(Gate::Rz(0.2), &[0]);
        assert!(same_unitary(&rz, &two));
    }

    #[test]
    fn uncoupled_gates_fail_on_routed_jobs() {
        let hw = spin_qubit_model(GateTimes::D0);
        let mut input = Circuit::new(3);
        input.push(Gate::Cz, &[0, 2]);
        let cm = CouplingMap::line(3);
        let want = Expectation {
            input: &input,
            objective: Objective::Fidelity,
            coupling: Some(&cm),
            baseline: f64::NEG_INFINITY,
        };
        assert!(check_output(&input, &hw, &want)
            .unwrap_err()
            .contains("uncoupled"));
        let routed = route(&input, &cm);
        assert!(check_output(&qca_baselines::direct_translation(&routed), &hw, &want).is_ok());
    }
}
