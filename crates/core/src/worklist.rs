use std::collections::BinaryHeap;

use scanpower_netlist::{Gate, GateId, GateKind, NetId, Netlist};
use scanpower_sim::Logic;
use scanpower_timing::CapacitanceModel;

/// The Transition Node Set / Transition Gate Set worklist of the paper.
///
/// A *transition node* (tn) is a line that may still carry transitions
/// originating from the non-multiplexed scan cells under the current partial
/// assignment of the controlled inputs. A *transition gate* (tg) is a gate
/// fed by a transition node whose output is not yet decided: it may still be
/// blocked by putting a controlling value on one of its other inputs.
///
/// The worklist implements the paper's `Update TNS, TGS` procedure:
/// transitions are forwarded unconditionally through inverters, buffers,
/// XOR/XNOR gates and fanout; a gate with a controlling value on any side
/// input blocks the transition; a gate whose side inputs are all at
/// non-controlling values propagates the transition to its output; anything
/// else stays in the TGS as a blocking opportunity.
///
/// # Incremental contract
///
/// Within one `FindControlledInputPattern()` run the transition node set
/// only grows and net values only refine from X to known (a kept
/// justification assigns don't-care inputs; a failed one is rolled back).
/// Both rules are monotone under that refinement, so the TNS is the
/// transition closure of every node ever added under the *current* values,
/// and TGS membership is a pure function of (TNS, values). Every update is
/// therefore seeded instead of recomputed: the closure is extended from the
/// newly added nodes and from the readers of the nets whose value changed,
/// and TGS membership is re-tested only for the gates those changes touch
/// (readers of new nodes and changed nets, drivers of new nodes). Callers
/// must report every net whose value changed since the previous update and
/// must never turn a known value back to X.
#[derive(Debug, Clone)]
pub struct TransitionWorklist {
    /// The TNS, one bit per net.
    nodes: Vec<u64>,
    node_count: usize,
    /// The TGS, one flag per gate.
    in_tgs: Vec<bool>,
    /// Per gate: its position in the ascending (output load, `GateId`)
    /// order, computed once from the capacitance model.
    rank: Vec<u32>,
    /// Gates in ascending (output load, `GateId`) order.
    by_rank: Vec<GateId>,
    /// Lazy-deletion max-heap of TGS ranks. Every TGS member has exactly
    /// one entry (`queued`); entries of gates that left the TGS are dropped
    /// when they reach the top, so the top is always a member.
    heap: BinaryHeap<u32>,
    queued: Vec<bool>,
    /// Scratch: closure queue and gates whose TGS membership needs a
    /// re-test.
    queue: Vec<NetId>,
    touched: Vec<GateId>,
}

impl TransitionWorklist {
    /// Initialises the worklist with the given transition sources (the
    /// non-multiplexed pseudo-inputs) and performs the first update.
    /// `capacitance` supplies the output loads that order the TGS.
    #[must_use]
    pub fn new(
        netlist: &Netlist,
        sources: &[NetId],
        values: &[Logic],
        capacitance: &CapacitanceModel,
    ) -> TransitionWorklist {
        let loads: Vec<f64> = netlist
            .gate_ids()
            .map(|gate| capacitance.gate_output_load(netlist, gate))
            .collect();
        let mut by_rank: Vec<GateId> = netlist.gate_ids().collect();
        by_rank.sort_by(|&a, &b| {
            loads[a.index()]
                .total_cmp(&loads[b.index()])
                .then(a.cmp(&b))
        });
        let mut rank = vec![0u32; by_rank.len()];
        for (position, gate) in by_rank.iter().enumerate() {
            rank[gate.index()] = u32::try_from(position).expect("gate count fits u32");
        }
        let mut worklist = TransitionWorklist {
            nodes: vec![0; netlist.net_count().div_ceil(64)],
            node_count: 0,
            in_tgs: vec![false; netlist.gate_count()],
            rank,
            by_rank,
            heap: BinaryHeap::new(),
            queued: vec![false; netlist.gate_count()],
            queue: Vec::new(),
            touched: Vec::new(),
        };
        worklist.update(netlist, sources, values, &[]);
        worklist
    }

    /// `true` when `net` is in the transition node set.
    #[must_use]
    pub fn is_transition_node(&self, net: NetId) -> bool {
        (self.nodes[net.index() / 64] >> (net.index() % 64)) & 1 == 1
    }

    /// Size of the transition node set.
    #[must_use]
    pub fn transition_node_count(&self) -> usize {
        self.node_count
    }

    /// The transition node set in ascending [`NetId`] order.
    pub fn transition_nodes(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nodes.len() * 64)
            .map(NetId::from_index)
            .filter(|&net| self.is_transition_node(net))
    }

    /// `true` when `gate` is in the transition gate set.
    #[must_use]
    pub fn is_transition_gate(&self, gate: GateId) -> bool {
        self.in_tgs[gate.index()]
    }

    /// The transition gate set in ascending [`GateId`] order.
    pub fn transition_gates(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.in_tgs.len())
            .map(GateId::from_index)
            .filter(|&gate| self.in_tgs[gate.index()])
    }

    /// `true` when no blockable transition gate remains.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.heap.is_empty()
    }

    /// Adds new transition nodes (the fan-out of a gate whose transition
    /// could not be blocked) and updates the sets; `changed` lists the nets
    /// whose value changed since the previous update.
    pub fn add_nodes(
        &mut self,
        netlist: &Netlist,
        nodes: &[NetId],
        values: &[Logic],
        changed: &[NetId],
    ) {
        self.update(netlist, nodes, values, changed);
    }

    /// Re-tests `gate` once its transition has been blocked (or given up
    /// on) and updates the sets with the nets in `changed`, whose value
    /// changed since the previous update. The gate leaves the TGS unless
    /// it still qualifies under the new values.
    pub fn resolve_gate(
        &mut self,
        netlist: &Netlist,
        gate: GateId,
        values: &[Logic],
        changed: &[NetId],
    ) {
        self.touched.push(gate);
        self.update(netlist, &[], values, changed);
    }

    /// The paper's `Update TNS, TGS` procedure, seeded by the nodes added
    /// and the nets changed since the previous update.
    fn update(&mut self, netlist: &Netlist, added: &[NetId], values: &[Logic], changed: &[NetId]) {
        for &net in added {
            self.insert_node(net);
        }
        for &net in changed {
            for &(gate_id, _) in netlist.loads(net) {
                self.touched.push(gate_id);
                self.extend_through(netlist.gate(gate_id), values);
            }
        }
        while let Some(tn) = self.queue.pop() {
            if let Some(driver) = netlist.driver_gate(tn) {
                self.touched.push(driver);
            }
            for &(gate_id, _) in netlist.loads(tn) {
                self.touched.push(gate_id);
                self.extend_through(netlist.gate(gate_id), values);
            }
        }
        while let Some(gate_id) = self.touched.pop() {
            let member = self.qualifies(netlist.gate(gate_id), values);
            self.in_tgs[gate_id.index()] = member;
            if member && !self.queued[gate_id.index()] {
                self.queued[gate_id.index()] = true;
                self.heap.push(self.rank[gate_id.index()]);
            }
        }
        while let Some(&top) = self.heap.peek() {
            let gate = self.by_rank[top as usize];
            if self.in_tgs[gate.index()] {
                break;
            }
            self.heap.pop();
            self.queued[gate.index()] = false;
        }
    }

    fn insert_node(&mut self, net: NetId) {
        let word = &mut self.nodes[net.index() / 64];
        let bit = 1u64 << (net.index() % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.node_count += 1;
            self.queue.push(net);
        }
    }

    /// Adds the output of `gate` to the TNS when a transition on one of its
    /// transition-node inputs passes: always through inverters, buffers,
    /// XOR/XNOR and MUX cells, otherwise when every *other* input is known
    /// and non-controlling.
    fn extend_through(&mut self, gate: &Gate, values: &[Logic]) {
        if self.is_transition_node(gate.output) {
            return;
        }
        let passes = if gate.kind.always_propagates() || gate.kind == GateKind::Mux {
            gate.inputs.iter().any(|&n| self.is_transition_node(n))
        } else if let Some(controlling) = gate.kind.controlling_value() {
            let controlling = Logic::from_bool(controlling);
            self.only_on_a_transition_pin(
                gate,
                gate.inputs
                    .iter()
                    .copied()
                    .filter(|&n| !values[n.index()].is_known() || values[n.index()] == controlling),
            )
        } else {
            false
        };
        if passes {
            self.insert_node(gate.output);
        }
    }

    /// TGS membership: a gate with a controlling value, fed by a transition
    /// node, whose output is not a transition node and none of whose inputs
    /// other than that transition node carries the controlling value.
    fn qualifies(&self, gate: &Gate, values: &[Logic]) -> bool {
        let Some(controlling) = gate.kind.controlling_value() else {
            return false;
        };
        let controlling = Logic::from_bool(controlling);
        !self.is_transition_node(gate.output)
            && self.only_on_a_transition_pin(
                gate,
                gate.inputs
                    .iter()
                    .copied()
                    .filter(|&n| values[n.index()] == controlling),
            )
    }

    /// `true` when some input pin of `gate` is a transition node and every
    /// pin in `exceptions` (the gate's input nets, one per pin, that fail a
    /// side-input test) is that very pin — so the side inputs of a
    /// transition arriving there all pass the test.
    fn only_on_a_transition_pin(
        &self,
        gate: &Gate,
        mut exceptions: impl Iterator<Item = NetId>,
    ) -> bool {
        match (exceptions.next(), exceptions.next()) {
            (None, _) => gate.inputs.iter().any(|&n| self.is_transition_node(n)),
            (Some(pin), None) => self.is_transition_node(pin),
            (Some(_), Some(_)) => false,
        }
    }

    /// Picks the transition gate with the largest output load capacitance
    /// (`mc_tg` in the paper; ties go to the higher [`GateId`]) together with
    /// the first of its inputs, in pin order, that is a transition node
    /// (`mc_tn`).
    #[must_use]
    pub fn most_capacitive_gate(&self, netlist: &Netlist) -> Option<(GateId, NetId)> {
        let gate = self.by_rank[*self.heap.peek()? as usize];
        let tn = netlist
            .gate(gate)
            .inputs
            .iter()
            .copied()
            .find(|&n| self.is_transition_node(n))?;
        Some((gate, tn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanpower_netlist::{GateKind, Netlist};
    use scanpower_sim::Evaluator;
    use scanpower_timing::CapacitanceModel;

    /// q (uncontrolled) -> NAND(q, a) -> NOT -> NOR(., b) -> out
    fn pipeline() -> (Netlist, NetId, NetId, NetId) {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let q = n.ensure_net("q");
        let g1 = n.add_gate(GateKind::Nand, &[q, a], "g1");
        let g2 = n.add_gate(GateKind::Not, &[g1.output], "g2");
        let g3 = n.add_gate(GateKind::Nor, &[g2.output, b], "g3");
        n.mark_output(g3.output);
        n.try_add_dff_driving(g3.output, q).unwrap();
        (n, a, b, q)
    }

    fn values_for(netlist: &Netlist, a: Logic, b: Logic) -> Vec<Logic> {
        let ev = Evaluator::new(netlist);
        // inputs order: a, b, q — q stays unknown (it is the transition
        // source).
        ev.evaluate(netlist, &[a, b, Logic::X])
    }

    fn worklist(netlist: &Netlist, sources: &[NetId], values: &[Logic]) -> TransitionWorklist {
        TransitionWorklist::new(netlist, sources, values, &CapacitanceModel::default())
    }

    #[test]
    fn unassigned_side_inputs_leave_gate_in_tgs() {
        let (n, _a, _b, q) = pipeline();
        let values = values_for(&n, Logic::X, Logic::X);
        let worklist = worklist(&n, &[q], &values);
        // g1 can still be blocked by setting a=0.
        assert_eq!(worklist.transition_gates().count(), 1);
        assert!(!worklist.is_done());
    }

    #[test]
    fn controlling_side_input_blocks_the_transition() {
        let (n, _a, _b, q) = pipeline();
        // a = 0 is the controlling value of the NAND: the transition from q
        // is blocked right at its origin and nothing else is reached.
        let values = values_for(&n, Logic::Zero, Logic::X);
        let worklist = worklist(&n, &[q], &values);
        assert!(worklist.is_done());
        assert_eq!(worklist.transition_node_count(), 1);
    }

    #[test]
    fn non_controlling_side_input_propagates_through_gate_and_inverter() {
        let (n, _a, _b, q) = pipeline();
        // a = 1 lets the transition pass the NAND; the inverter forwards it
        // unconditionally; the NOR is then the next blocking opportunity.
        let values = values_for(&n, Logic::One, Logic::X);
        let worklist = worklist(&n, &[q], &values);
        let g1 = n.net_by_name("g1").unwrap();
        let g2 = n.net_by_name("g2").unwrap();
        assert!(worklist.is_transition_node(g1));
        assert!(worklist.is_transition_node(g2));
        assert_eq!(worklist.transition_gates().count(), 1);
        let g3 = n.driver_gate(n.net_by_name("g3").unwrap()).unwrap();
        assert!(worklist.is_transition_gate(g3));
    }

    #[test]
    fn fully_propagating_transition_empties_tgs() {
        let (n, _a, _b, q) = pipeline();
        // a = 1 and b = 0 (non-controlling for the NOR): the transition
        // reaches the output and no blocking opportunity remains.
        let values = values_for(&n, Logic::One, Logic::Zero);
        let worklist = worklist(&n, &[q], &values);
        assert!(worklist.is_done());
        let g3 = n.net_by_name("g3").unwrap();
        assert!(worklist.is_transition_node(g3));
    }

    #[test]
    fn refinement_updates_from_the_changed_nets_only() {
        let (n, a, _b, q) = pipeline();
        let mut worklist = worklist(&n, &[q], &values_for(&n, Logic::X, Logic::X));
        let g1 = n.driver_gate(n.net_by_name("g1").unwrap()).unwrap();
        assert!(worklist.is_transition_gate(g1));
        // Refining a to 1 (and the nets it implies) lets the transition
        // through g1 and the inverter; the NOR becomes the only TG.
        let values = values_for(&n, Logic::One, Logic::X);
        worklist.resolve_gate(&n, g1, &values, &[a]);
        let g3 = n.driver_gate(n.net_by_name("g3").unwrap()).unwrap();
        assert_eq!(worklist.transition_gates().collect::<Vec<_>>(), vec![g3]);
        assert_eq!(worklist.most_capacitive_gate(&n).map(|(g, _)| g), Some(g3));
    }

    #[test]
    fn most_capacitive_gate_prefers_heavier_loads() {
        // Two uncontrolled sources feed two NANDs; one NAND output drives
        // three sinks, the other just one.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let q1 = n.ensure_net("q1");
        let q2 = n.ensure_net("q2");
        let heavy = n.add_gate(GateKind::Nand, &[q1, a], "heavy");
        let light = n.add_gate(GateKind::Nand, &[q2, a], "light");
        for i in 0..3 {
            let s = n.add_gate(GateKind::Not, &[heavy.output], &format!("s{i}"));
            n.mark_output(s.output);
        }
        let t = n.add_gate(GateKind::Not, &[light.output], "t");
        n.mark_output(t.output);
        n.try_add_dff_driving(heavy.output, q1).unwrap();
        n.try_add_dff_driving(light.output, q2).unwrap();

        let ev = Evaluator::new(&n);
        let values = ev.evaluate(&n, &[Logic::X, Logic::X, Logic::X]);
        let worklist = worklist(&n, &[q1, q2], &values);
        let (gate, tn) = worklist.most_capacitive_gate(&n).unwrap();
        assert_eq!(gate, heavy.gate);
        assert_eq!(tn, q1);
    }

    #[test]
    fn most_capacitive_gate_breaks_load_ties_towards_the_higher_gate_id() {
        // Three NANDs with identical output loads (one inverter each), all
        // blockable: the pick is the highest GateId, as a `max_by` over the
        // ascending gate set returns its last maximum.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let q = n.ensure_net("q");
        let nands: Vec<GateId> = (0..3)
            .map(|i| {
                let g = n.add_gate(GateKind::Nand, &[q, a], &format!("g{i}"));
                let s = n.add_gate(GateKind::Not, &[g.output], &format!("s{i}"));
                n.mark_output(s.output);
                g.gate
            })
            .collect();
        n.try_add_dff_driving(n.net_by_name("s0").unwrap(), q)
            .unwrap();
        let model = CapacitanceModel::default();
        let load = model.gate_output_load(&n, nands[0]);
        assert!(nands
            .iter()
            .all(|&g| model.gate_output_load(&n, g).total_cmp(&load).is_eq()));
        let values = Evaluator::new(&n).evaluate(&n, &[Logic::X, Logic::X]);
        let worklist = worklist(&n, &[q], &values);
        assert_eq!(worklist.transition_gates().count(), 3);
        assert_eq!(worklist.most_capacitive_gate(&n), Some((nands[2], q)));
        let reference = crate::plan_reference::FullRecomputeWorklist::new(&n, &[q], &values);
        assert_eq!(
            reference.most_capacitive_gate(&n, &model),
            Some((nands[2], q))
        );
    }
}
