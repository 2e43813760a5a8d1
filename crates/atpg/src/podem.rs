//! PODEM (path-oriented decision making) deterministic test generation.
//!
//! The implementation follows the textbook algorithm: decisions are made
//! only on the combinational inputs (primary inputs and scan-cell outputs —
//! the circuit is full scan), each decision is followed by three-valued
//! forward implication of both the good and the faulty machine, and the
//! search backtracks when the fault can no longer be activated or its effect
//! can no longer reach an observation point. Implication is event-driven
//! (only the gates a changed input reaches are re-evaluated), and the
//! D-frontier and detection checks scan only the fault's fanout cone, the
//! one region where a fault effect can appear.
//!
//! The same backtrace machinery is reused by the justification step of the
//! paper's `FindControlledInputPattern()` procedure (in `scanpower-core`),
//! which is PODEM-like but justifies internal objectives instead of
//! propagating fault effects.

use scanpower_netlist::{GateId, NetId, Netlist};
use scanpower_sim::fault::Fault;
use scanpower_sim::{DirtyWorklist, Logic, SimKernel};

/// Result of a PODEM run for one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemOutcome {
    /// A test was found; the vector assigns every combinational input
    /// (don't-cares remain [`Logic::X`]).
    Test(Vec<Logic>),
    /// The search space was exhausted: the fault is untestable
    /// (combinationally redundant).
    Untestable,
    /// The backtrack limit was hit before a conclusion was reached.
    Aborted,
}

/// PODEM test generator for a fixed netlist.
///
/// Both machines (good and faulty) are implied through the shared
/// [`SimKernel`], so the generator carries no gate-evaluation logic of its
/// own. Implication is event-driven: each fault starts from the settled
/// all-X state, and every decision, flip or X-reset re-evaluates only the
/// gates its changed inputs reach, on the kernel's dirty worklist. The
/// search state is allocated once per generator and reused for every fault.
#[derive(Debug, Clone)]
pub struct Podem {
    kernel: SimKernel<Logic>,
    input_position: Vec<Option<usize>>,
    /// Per net: whether it is an observation point (primary output or
    /// flip-flop D input).
    observed: Vec<bool>,
    /// Settled values of the circuit with every combinational input at X.
    unassigned: Vec<Logic>,
    backtrack_limit: usize,
    machine: Machine,
}

/// Search state of the fault being targeted.
#[derive(Debug, Clone)]
struct Machine {
    good: Vec<Logic>,
    /// The faulty machine: the fault site is pinned to the stuck value.
    faulty: Vec<Logic>,
    good_dirty: DirtyWorklist,
    faulty_dirty: DirtyWorklist,
    /// Gates of the fault site's fanout cone in topological order — the
    /// only gates that can carry a fault effect.
    cone: Vec<GateId>,
    /// Observation points among the fault site and the cone's outputs.
    cone_observation: Vec<NetId>,
    /// Per gate: cone membership scratch, all `false` between faults.
    in_cone: Vec<bool>,
}

impl Podem {
    /// Builds a generator with the given backtrack limit per fault.
    ///
    /// # Panics
    ///
    /// Panics if the combinational part of the netlist is cyclic.
    #[must_use]
    pub fn new(netlist: &Netlist, backtrack_limit: usize) -> Podem {
        let kernel = SimKernel::new(netlist);
        let mut input_position = vec![None; netlist.net_count()];
        for (i, &net) in kernel.inputs().iter().enumerate() {
            input_position[net.index()] = Some(i);
        }
        let mut observed = vec![false; netlist.net_count()];
        for net in netlist
            .primary_outputs()
            .iter()
            .copied()
            .chain(netlist.pseudo_outputs())
        {
            observed[net.index()] = true;
        }
        let mut unassigned = vec![Logic::X; netlist.net_count()];
        kernel.propagate(netlist, &mut unassigned);
        let machine = Machine {
            good: unassigned.clone(),
            faulty: unassigned.clone(),
            good_dirty: kernel.make_worklist(),
            faulty_dirty: kernel.make_worklist(),
            cone: Vec::new(),
            cone_observation: Vec::new(),
            in_cone: vec![false; netlist.gate_count()],
        };
        Podem {
            kernel,
            input_position,
            observed,
            unassigned,
            backtrack_limit,
            machine,
        }
    }

    /// Combinational inputs in decision order (primary inputs then
    /// pseudo-inputs).
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        self.kernel.inputs()
    }

    /// Attempts to generate a test for `fault`.
    ///
    /// # Panics
    ///
    /// Panics if `netlist` is not the netlist the generator was built for.
    #[must_use]
    pub fn generate(&mut self, netlist: &Netlist, fault: Fault) -> PodemOutcome {
        let mut assignment: Vec<Logic> = vec![Logic::X; self.inputs().len()];
        self.start(netlist, fault);

        // Decision stack: (input index, value tried, second value tried?).
        let mut stack: Vec<(usize, bool, bool)> = Vec::new();
        // Inputs assigned since the last implication.
        let mut changed: Vec<usize> = Vec::new();
        let mut backtracks = 0usize;

        loop {
            if self.fault_detected() {
                return PodemOutcome::Test(assignment);
            }
            let objective = self.objective(netlist, fault);
            let decision = objective
                .and_then(|(net, value)| self.backtrace(netlist, &self.machine.good, net, value));

            match decision {
                Some((input_index, value)) => {
                    assignment[input_index] = Logic::from_bool(value);
                    changed.push(input_index);
                    stack.push((input_index, value, false));
                    self.imply(netlist, &assignment, &mut changed, fault);
                }
                None => {
                    // No way forward: backtrack.
                    loop {
                        match stack.pop() {
                            Some((input_index, value, tried_both)) => {
                                changed.push(input_index);
                                if tried_both {
                                    assignment[input_index] = Logic::X;
                                    continue;
                                }
                                backtracks += 1;
                                if backtracks > self.backtrack_limit {
                                    return PodemOutcome::Aborted;
                                }
                                assignment[input_index] = Logic::from_bool(!value);
                                stack.push((input_index, !value, true));
                                self.imply(netlist, &assignment, &mut changed, fault);
                                break;
                            }
                            None => return PodemOutcome::Untestable,
                        }
                    }
                }
            }
        }
    }

    /// Settles both machines for `fault` with every input at X and collects
    /// the fault's fanout cone.
    fn start(&mut self, netlist: &Netlist, fault: Fault) {
        let kernel = &self.kernel;
        let machine = &mut self.machine;
        let site = fault.net;
        machine.good.copy_from_slice(&self.unassigned);
        machine.faulty.copy_from_slice(&self.unassigned);
        let stuck = Logic::from_bool(fault.stuck_at_one);
        if machine.faulty[site.index()] != stuck {
            machine.faulty[site.index()] = stuck;
            kernel.mark_net_changed(site, &mut machine.faulty_dirty);
        }
        kernel.propagate_from(
            netlist,
            &mut machine.faulty,
            &mut machine.faulty_dirty,
            Some(site),
            |_, _, _| {},
        );

        // Fanout cone by breadth-first search, then sorted into topological
        // order so the D-frontier scan meets gates in the order a full scan
        // would.
        let cone = &mut machine.cone;
        cone.clear();
        let mut net = site;
        for next in 0.. {
            for &(gate, _) in netlist.loads(net) {
                if !machine.in_cone[gate.index()] {
                    machine.in_cone[gate.index()] = true;
                    cone.push(gate);
                }
            }
            let Some(&gate) = cone.get(next) else { break };
            net = netlist.gate(gate).output;
        }
        cone.sort_unstable_by_key(|&gate| kernel.position_of(gate));
        machine.cone_observation.clear();
        if self.observed[site.index()] {
            machine.cone_observation.push(site);
        }
        for &gate in cone.iter() {
            machine.in_cone[gate.index()] = false;
            let output = netlist.gate(gate).output;
            if self.observed[output.index()] {
                machine.cone_observation.push(output);
            }
        }
    }

    /// Forward three-valued implication of both machines after the inputs
    /// in `changed` took their values from `assignment`: only the gates the
    /// changed inputs reach are re-evaluated. The fault site stays pinned in
    /// the faulty machine, so a fault on a combinational input sees its
    /// assignment in the good machine only.
    fn imply(
        &mut self,
        netlist: &Netlist,
        assignment: &[Logic],
        changed: &mut Vec<usize>,
        fault: Fault,
    ) {
        let kernel = &self.kernel;
        let machine = &mut self.machine;
        for index in changed.drain(..) {
            let net = kernel.inputs()[index];
            let value = assignment[index];
            if machine.good[net.index()] != value {
                machine.good[net.index()] = value;
                kernel.mark_net_changed(net, &mut machine.good_dirty);
            }
            if net != fault.net && machine.faulty[net.index()] != value {
                machine.faulty[net.index()] = value;
                kernel.mark_net_changed(net, &mut machine.faulty_dirty);
            }
        }
        kernel.propagate_from(
            netlist,
            &mut machine.good,
            &mut machine.good_dirty,
            None,
            |_, _, _| {},
        );
        kernel.propagate_from(
            netlist,
            &mut machine.faulty,
            &mut machine.faulty_dirty,
            Some(fault.net),
            |_, _, _| {},
        );
    }

    /// `true` when a fault effect (good ≠ faulty, both known) has reached
    /// an observation point.
    fn fault_detected(&self) -> bool {
        let machine = &self.machine;
        machine
            .cone_observation
            .iter()
            .any(|&net| has_fault_effect(machine, net))
    }

    /// Picks the next objective `(net, value)`.
    fn objective(&self, netlist: &Netlist, fault: Fault) -> Option<(NetId, bool)> {
        let machine = &self.machine;
        // Phase 1: activate the fault.
        let site_good = machine.good[fault.net.index()];
        if site_good == Logic::X {
            return Some((fault.net, !fault.stuck_at_one));
        }
        if site_good == Logic::from_bool(fault.stuck_at_one) {
            // The fault site is pinned to the stuck value in the good
            // machine: activation is impossible under the current
            // assignment.
            return None;
        }
        // Phase 2: propagate — pick a gate from the D-frontier and set one
        // of its unknown inputs to the non-controlling value.
        let frontier_gate = self.d_frontier(netlist)?;
        let gate = netlist.gate(frontier_gate);
        let unknown = gate
            .inputs
            .iter()
            .copied()
            .find(|&n| machine.good[n.index()] == Logic::X)?;
        let non_controlling = match gate.kind.controlling_value() {
            Some(cv) => !cv,
            None => true,
        };
        Some((unknown, non_controlling))
    }

    /// First gate (in topological order) whose output does not yet carry a
    /// definite fault-effect status (at least one machine still evaluates it
    /// to X) but which has a fault effect on at least one input. Only the
    /// fault's fanout cone can carry a fault effect, so only it is scanned.
    fn d_frontier(&self, netlist: &Netlist) -> Option<GateId> {
        let machine = &self.machine;
        machine.cone.iter().copied().find(|&gate_id| {
            let gate = netlist.gate(gate_id);
            let settled = machine.good[gate.output.index()].is_known()
                && machine.faulty[gate.output.index()].is_known();
            !settled
                && gate
                    .inputs
                    .iter()
                    .any(|&net| has_fault_effect(machine, net))
        })
    }

    /// Maps an internal objective to a primary-input assignment by walking
    /// backwards through unknown gate inputs of the good machine.
    fn backtrace(
        &self,
        netlist: &Netlist,
        good: &[Logic],
        objective_net: NetId,
        objective_value: bool,
    ) -> Option<(usize, bool)> {
        let mut net = objective_net;
        let mut value = objective_value;
        loop {
            if let Some(position) = self.input_position[net.index()] {
                // Don't re-assign an already decided input.
                if good[net.index()] != Logic::X {
                    return None;
                }
                return Some((position, value));
            }
            let driver = netlist.driver_gate(net)?;
            let gate = netlist.gate(driver);
            let unknown_input = gate
                .inputs
                .iter()
                .copied()
                .find(|&n| good[n.index()] == Logic::X)?;
            if gate.kind.is_inverting() {
                value = !value;
            }
            // For a MUX the "natural" choice is to justify through the data
            // input currently selected, but walking through any unknown
            // input is sound because the decision is re-implied afterwards.
            net = unknown_input;
        }
    }
}

/// `true` when `net` carries a fault effect: good and faulty values are
/// both known and differ.
fn has_fault_effect(machine: &Machine, net: NetId) -> bool {
    let good = machine.good[net.index()];
    let faulty = machine.faulty[net.index()];
    good.is_known() && faulty.is_known() && good != faulty
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanpower_netlist::generator::CircuitFamily;
    use scanpower_netlist::{bench, GateKind, Netlist};
    use scanpower_sim::fault::{all_net_faults, FaultSim};

    /// The full re-implication PODEM the event-driven generator replaced:
    /// after every decision, flip and X-reset both machines are reset to X
    /// and re-simulated over the whole circuit, the D-frontier scans the
    /// whole topological order and detection checks every observation
    /// point. Decisions and backtracking are the textbook loop, written out
    /// independently of [`Podem::generate`].
    fn full_reimplication_generate(podem: &Podem, netlist: &Netlist, fault: Fault) -> PodemOutcome {
        let mut observation = netlist.primary_outputs().to_vec();
        observation.extend(netlist.pseudo_outputs());
        let stuck = Logic::from_bool(fault.stuck_at_one);
        let effect = |good: &[Logic], faulty: &[Logic], net: NetId| {
            let (g, f) = (good[net.index()], faulty[net.index()]);
            g.is_known() && f.is_known() && g != f
        };
        let imply = |assignment: &[Logic], good: &mut [Logic], faulty: &mut [Logic]| {
            good.fill(Logic::X);
            faulty.fill(Logic::X);
            for (&net, &value) in podem.inputs().iter().zip(assignment) {
                good[net.index()] = value;
                faulty[net.index()] = value;
            }
            faulty[fault.net.index()] = stuck;
            for &gate_id in podem.kernel.order() {
                let gate = netlist.gate(gate_id);
                good[gate.output.index()] =
                    scanpower_sim::kernel::eval_gate_at(gate.kind, &gate.inputs, good);
                faulty[gate.output.index()] = if gate.output == fault.net {
                    stuck
                } else {
                    scanpower_sim::kernel::eval_gate_at(gate.kind, &gate.inputs, faulty)
                };
            }
        };
        let objective = |good: &[Logic], faulty: &[Logic]| -> Option<(NetId, bool)> {
            let site_good = good[fault.net.index()];
            if site_good == Logic::X {
                return Some((fault.net, !fault.stuck_at_one));
            }
            if site_good == stuck {
                return None;
            }
            let frontier = podem.kernel.order().iter().copied().find(|&gate_id| {
                let gate = netlist.gate(gate_id);
                let out = gate.output.index();
                !(good[out].is_known() && faulty[out].is_known())
                    && gate.inputs.iter().any(|&net| effect(good, faulty, net))
            })?;
            let gate = netlist.gate(frontier);
            let unknown = gate
                .inputs
                .iter()
                .copied()
                .find(|&n| good[n.index()] == Logic::X)?;
            Some((unknown, gate.kind.controlling_value().is_none_or(|cv| !cv)))
        };

        let mut assignment = vec![Logic::X; podem.inputs().len()];
        let mut good = vec![Logic::X; netlist.net_count()];
        let mut faulty = vec![Logic::X; netlist.net_count()];
        imply(&assignment, &mut good, &mut faulty);
        let mut stack: Vec<(usize, bool, bool)> = Vec::new();
        let mut backtracks = 0usize;
        loop {
            if observation.iter().any(|&net| effect(&good, &faulty, net)) {
                return PodemOutcome::Test(assignment);
            }
            let decision = objective(&good, &faulty)
                .and_then(|(net, value)| podem.backtrace(netlist, &good, net, value));
            if let Some((input_index, value)) = decision {
                assignment[input_index] = Logic::from_bool(value);
                stack.push((input_index, value, false));
                imply(&assignment, &mut good, &mut faulty);
                continue;
            }
            loop {
                let Some((input_index, value, tried_both)) = stack.pop() else {
                    return PodemOutcome::Untestable;
                };
                if tried_both {
                    assignment[input_index] = Logic::X;
                    continue;
                }
                backtracks += 1;
                if backtracks > podem.backtrack_limit {
                    return PodemOutcome::Aborted;
                }
                assignment[input_index] = Logic::from_bool(!value);
                stack.push((input_index, !value, true));
                imply(&assignment, &mut good, &mut faulty);
                break;
            }
        }
    }

    /// Event-driven PODEM must return exactly the full re-implication
    /// oracle's outcome — test vectors included — for every fault of s27
    /// and of scaled synthetic circuits, at every backtrack limit, with one
    /// generator reused across all faults.
    #[test]
    fn atpg_reference_podem_matches_full_reimplication() {
        let s27 = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let mut circuits = vec![s27];
        for (name, scale, seed) in [("s344", 0.5, 1), ("s641", 0.3, 2), ("s1423", 0.2, 3)] {
            let spec = CircuitFamily::iscas89_like(name).unwrap().scaled(scale);
            circuits.push(spec.generate(seed));
        }
        let (mut tests, mut untestable, mut aborted) = (0usize, 0usize, 0usize);
        for netlist in &circuits {
            for limit in [0, 3, 30, 200] {
                let mut podem = Podem::new(netlist, limit);
                for fault in all_net_faults(netlist) {
                    let outcome = podem.generate(netlist, fault);
                    let reference = full_reimplication_generate(&podem, netlist, fault);
                    assert_eq!(
                        outcome,
                        reference,
                        "{} limit {limit}: {}",
                        netlist.name(),
                        fault.describe(netlist)
                    );
                    match outcome {
                        PodemOutcome::Test(_) => tests += 1,
                        PodemOutcome::Untestable => untestable += 1,
                        PodemOutcome::Aborted => aborted += 1,
                    }
                }
            }
        }
        // Every outcome kind is exercised.
        assert!(
            tests > 0 && untestable > 0 && aborted > 0,
            "{tests}/{untestable}/{aborted}"
        );
    }

    fn check_test_detects(netlist: &Netlist, fault: Fault, test: &[Logic]) -> bool {
        // Fill X with 0 and fault-simulate the single pattern.
        let pattern: Vec<bool> = test.iter().map(|v| v.to_bool().unwrap_or(false)).collect();
        let sim = FaultSim::new(netlist);
        sim.detect(netlist, &[fault], &[pattern])[0]
    }

    #[test]
    fn generates_test_for_simple_fault() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::Nand, &[a, b], "g");
        n.mark_output(g.output);
        let mut podem = Podem::new(&n, 100);
        let fault = Fault {
            net: g.output,
            stuck_at_one: false,
        };
        // Output stuck-at-0 requires output 1 => any input at 0.
        match podem.generate(&n, fault) {
            PodemOutcome::Test(test) => assert!(check_test_detects(&n, fault, &test)),
            other => panic!("expected a test, got {other:?}"),
        }
    }

    #[test]
    fn redundant_fault_is_proved_untestable() {
        // out = OR(a, NOT(a)) = constant 1: out/sa1 is untestable.
        let mut n = Netlist::new("taut");
        let a = n.add_input("a");
        let inv = n.add_gate(GateKind::Not, &[a], "inv");
        let or = n.add_gate(GateKind::Or, &[a, inv.output], "out");
        n.mark_output(or.output);
        let mut podem = Podem::new(&n, 1000);
        let outcome = podem.generate(
            &n,
            Fault {
                net: or.output,
                stuck_at_one: true,
            },
        );
        assert_eq!(outcome, PodemOutcome::Untestable);
    }

    #[test]
    fn every_testable_fault_of_s27_gets_a_valid_test() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let mut podem = Podem::new(&n, 500);
        let faults = all_net_faults(&n);
        let mut found = 0usize;
        for fault in faults {
            match podem.generate(&n, fault) {
                PodemOutcome::Test(test) => {
                    assert!(
                        check_test_detects(&n, fault, &test),
                        "invalid test for {}",
                        fault.describe(&n)
                    );
                    found += 1;
                }
                PodemOutcome::Untestable => {}
                PodemOutcome::Aborted => panic!("s27 should not need many backtracks"),
            }
        }
        // s27 has 17 nets (34 net faults) and very few redundant ones;
        // almost everything must receive a test.
        assert!(found >= 28, "only {found} tests found");
    }

    #[test]
    fn fault_on_pseudo_input_is_testable_through_the_scan_chain() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let mut podem = Podem::new(&n, 500);
        let q = n.pseudo_inputs()[0];
        for stuck in [false, true] {
            let fault = Fault {
                net: q,
                stuck_at_one: stuck,
            };
            match podem.generate(&n, fault) {
                PodemOutcome::Test(test) => assert!(check_test_detects(&n, fault, &test)),
                other => panic!("expected test for scan-cell fault, got {other:?}"),
            }
        }
    }
}
