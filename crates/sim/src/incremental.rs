use scanpower_netlist::{NetId, Netlist};

use crate::eval::Evaluator;
use crate::kernel::DirtyWorklist;
use crate::logic::Logic;

/// Event-driven incremental simulator.
///
/// The simulator keeps the current value of every net and, when a set of
/// inputs changes, re-evaluates only the gates reachable from the changes
/// (level by level, through the kernel's
/// [`propagate_from`](crate::SimKernel::propagate_from) engine — the same
/// one the packed event-driven scan replay runs on), returning exactly the
/// nets that toggled. Scan-shift power analysis uses this to count
/// transitions over thousands of shift cycles without re-simulating the
/// whole circuit each cycle.
#[derive(Debug, Clone)]
pub struct IncrementalSim {
    values: Vec<Logic>,
    evaluator: Evaluator,
    worklist: DirtyWorklist,
}

impl IncrementalSim {
    /// Builds the simulator and fully evaluates the circuit from the given
    /// combinational input values (primary inputs then pseudo-inputs, as in
    /// [`Evaluator::inputs`]).
    ///
    /// # Panics
    ///
    /// Panics if the input vector has the wrong width or the netlist is
    /// combinationally cyclic.
    #[must_use]
    pub fn new(netlist: &Netlist, input_values: &[Logic]) -> IncrementalSim {
        let evaluator = Evaluator::new(netlist);
        let values = evaluator.evaluate(netlist, input_values);
        let worklist = evaluator.kernel().make_worklist();
        IncrementalSim {
            values,
            evaluator,
            worklist,
        }
    }

    /// Current value of every net, indexed by [`NetId::index`].
    #[must_use]
    pub fn values(&self) -> &[Logic] {
        &self.values
    }

    /// Current value of a single net.
    #[must_use]
    pub fn value(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    /// The evaluator (and therefore input ordering) backing this simulator.
    #[must_use]
    pub fn evaluator(&self) -> &Evaluator {
        &self.evaluator
    }

    /// Applies a set of input changes and propagates them. Returns the list
    /// of nets whose value changed (including the changed inputs), each net
    /// listed once.
    ///
    /// Only source nets (primary inputs and pseudo-inputs) should be passed
    /// as changes; driving an internal net is allowed but its value will be
    /// recomputed from its driver on the next propagation through it.
    pub fn apply(&mut self, netlist: &Netlist, changes: &[(NetId, Logic)]) -> Vec<NetId> {
        let kernel_ref = self.evaluator.kernel();
        let mut toggled = Vec::new();

        for &(net, value) in changes {
            if self.values[net.index()] != value {
                self.values[net.index()] = value;
                toggled.push(net);
                kernel_ref.mark_net_changed(net, &mut self.worklist);
            }
        }
        kernel_ref.propagate_from(
            netlist,
            &mut self.values,
            &mut self.worklist,
            None,
            |net, _, _| {
                toggled.push(net);
            },
        );
        toggled
    }

    /// Fully re-evaluates the circuit from a complete input assignment and
    /// returns the nets that changed compared to the previous state.
    pub fn reset(&mut self, netlist: &Netlist, input_values: &[Logic]) -> Vec<NetId> {
        let new_values = self.evaluator.evaluate(netlist, input_values);
        let mut toggled = Vec::new();
        for net in netlist.net_ids() {
            if self.values[net.index()] != new_values[net.index()] {
                toggled.push(net);
            }
        }
        self.values = new_values;
        toggled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use scanpower_netlist::{bench, GateKind};

    #[test]
    fn incremental_matches_full_evaluation() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let ev = Evaluator::new(&n);
        let width = ev.inputs().len();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut current: Vec<Logic> = (0..width)
            .map(|_| Logic::from_bool(rng.gen_bool(0.5)))
            .collect();
        let mut sim = IncrementalSim::new(&n, &current);
        for _ in 0..200 {
            // Flip a random subset of inputs.
            let mut changes = Vec::new();
            for (i, value) in current.iter_mut().enumerate() {
                if rng.gen_bool(0.3) {
                    *value = value.not();
                    changes.push((ev.inputs()[i], *value));
                }
            }
            sim.apply(&n, &changes);
            let reference = ev.evaluate(&n, &current);
            assert_eq!(sim.values(), reference.as_slice());
        }
    }

    #[test]
    fn toggled_nets_are_exactly_the_differences() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::Nand, &[a, b], "g");
        let h = n.add_gate(GateKind::Not, &[g.output], "h");
        n.mark_output(h.output);
        let mut sim = IncrementalSim::new(&n, &[Logic::Zero, Logic::One]);
        // a: 0->1 makes NAND go 1->0 and NOT go 0->1: all four... a, g, h toggle.
        let toggled = sim.apply(&n, &[(a, Logic::One)]);
        assert_eq!(toggled.len(), 3);
        assert!(toggled.contains(&a));
        assert!(toggled.contains(&g.output));
        assert!(toggled.contains(&h.output));
        // Applying the same value again toggles nothing.
        let toggled = sim.apply(&n, &[(a, Logic::One)]);
        assert!(toggled.is_empty());
    }

    #[test]
    fn blocked_transition_does_not_propagate() {
        // With one NAND input at the controlling value 0, toggling the other
        // input must not propagate past the gate — this is precisely the
        // blocking effect the paper's method engineers.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::Nand, &[a, b], "g");
        n.mark_output(g.output);
        let mut sim = IncrementalSim::new(&n, &[Logic::Zero, Logic::Zero]);
        let toggled = sim.apply(&n, &[(b, Logic::One)]);
        assert_eq!(toggled, vec![b]);
    }

    #[test]
    fn reset_reports_differences() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let width = n.combinational_inputs().len();
        let mut sim = IncrementalSim::new(&n, &vec![Logic::Zero; width]);
        let toggled = sim.reset(&n, &vec![Logic::Zero; width]);
        assert!(toggled.is_empty());
        let toggled = sim.reset(&n, &vec![Logic::One; width]);
        assert!(!toggled.is_empty());
    }
}
