//! Reference input-control planning, kept as test oracles.
//!
//! These are the full-recompute forms of the incremental production code:
//! a TNS/TGS worklist that recomputes the whole transition closure and
//! rebuilds the TGS from every transition node on each update, a justifier
//! that re-evaluates the whole circuit after every decision, flip and
//! rollback, and the `FindControlledInputPattern()` loop over the two. The
//! `plan_reference_*` tests pin the production [`ControlPatternFinder`],
//! [`TransitionWorklist`] and [`Justifier`] bit-identical against them.

use std::collections::BTreeSet;

use scanpower_netlist::{GateId, GateKind, NetId, Netlist};
use scanpower_sim::{Evaluator, Logic};
use scanpower_timing::CapacitanceModel;

use crate::justify::{Directive, JustifyOutcome};
use crate::pattern::{ControlPattern, PatternStats};

/// The TNS/TGS worklist that re-runs the whole `Update TNS, TGS` procedure
/// on every change.
#[derive(Debug, Clone)]
pub(crate) struct FullRecomputeWorklist {
    transition_nodes: BTreeSet<NetId>,
    transition_gates: BTreeSet<GateId>,
}

impl FullRecomputeWorklist {
    pub(crate) fn new(netlist: &Netlist, sources: &[NetId], values: &[Logic]) -> Self {
        let mut worklist = FullRecomputeWorklist {
            transition_nodes: sources.iter().copied().collect(),
            transition_gates: BTreeSet::new(),
        };
        worklist.update(netlist, values);
        worklist
    }

    pub(crate) fn transition_nodes(&self) -> &BTreeSet<NetId> {
        &self.transition_nodes
    }

    pub(crate) fn transition_gates(&self) -> &BTreeSet<GateId> {
        &self.transition_gates
    }

    pub(crate) fn add_nodes(&mut self, netlist: &Netlist, nodes: &[NetId], values: &[Logic]) {
        self.transition_nodes.extend(nodes.iter().copied());
        self.update(netlist, values);
    }

    pub(crate) fn resolve_gate(&mut self, netlist: &Netlist, gate: GateId, values: &[Logic]) {
        self.transition_gates.remove(&gate);
        self.update(netlist, values);
    }

    fn update(&mut self, netlist: &Netlist, values: &[Logic]) {
        // Transitive closure of transition propagation under the current
        // values.
        let mut queue: Vec<NetId> = self.transition_nodes.iter().copied().collect();
        while let Some(tn) = queue.pop() {
            for &(gate_id, pin) in netlist.loads(tn) {
                let gate = netlist.gate(gate_id);
                let output = gate.output;
                if gate.kind.always_propagates() || gate.kind == GateKind::Mux {
                    if self.transition_nodes.insert(output) {
                        queue.push(output);
                    }
                    continue;
                }
                let Some(controlling) = gate.kind.controlling_value() else {
                    continue;
                };
                let controlling = Logic::from_bool(controlling);
                let side_inputs: Vec<Logic> = gate
                    .inputs
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != pin)
                    .map(|(_, &n)| values[n.index()])
                    .collect();
                if side_inputs.contains(&controlling) {
                    continue;
                }
                let all_non_controlling = side_inputs
                    .iter()
                    .all(|&v| v.is_known() && v != controlling);
                if (all_non_controlling || side_inputs.is_empty())
                    && self.transition_nodes.insert(output)
                {
                    queue.push(output);
                }
            }
        }

        // Rebuild the TGS from every transition node.
        self.transition_gates.clear();
        for &tn in &self.transition_nodes {
            for &(gate_id, pin) in netlist.loads(tn) {
                let gate = netlist.gate(gate_id);
                let Some(controlling) = gate.kind.controlling_value() else {
                    continue;
                };
                if self.transition_nodes.contains(&gate.output) {
                    continue;
                }
                let controlling = Logic::from_bool(controlling);
                let blocked = gate
                    .inputs
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != pin)
                    .any(|(_, &n)| values[n.index()] == controlling);
                if !blocked {
                    self.transition_gates.insert(gate_id);
                }
            }
        }
    }

    /// `max_by` rescan of the TGS by output load; on ties `max_by` keeps
    /// the last maximum, i.e. the highest `GateId`.
    pub(crate) fn most_capacitive_gate(
        &self,
        netlist: &Netlist,
        capacitance: &CapacitanceModel,
    ) -> Option<(GateId, NetId)> {
        let gate = self.transition_gates.iter().copied().max_by(|&a, &b| {
            capacitance
                .gate_output_load(netlist, a)
                .total_cmp(&capacitance.gate_output_load(netlist, b))
        })?;
        let tn = netlist
            .gate(gate)
            .inputs
            .iter()
            .copied()
            .find(|n| self.transition_nodes.contains(n))?;
        Some((gate, tn))
    }
}

/// The justifier that re-evaluates the whole circuit after every decision,
/// flip and rollback.
#[derive(Debug, Clone)]
pub(crate) struct FullEvaluateJustifier<'a> {
    evaluator: Evaluator,
    assignment: Vec<Logic>,
    values: Vec<Logic>,
    controllable: Vec<bool>,
    input_position: Vec<Option<usize>>,
    directive: Directive<'a>,
    backtrack_limit: usize,
    decisions: usize,
}

impl<'a> FullEvaluateJustifier<'a> {
    pub(crate) fn new(
        netlist: &Netlist,
        controlled: &[NetId],
        directive: Directive<'a>,
        backtrack_limit: usize,
    ) -> Self {
        let evaluator = Evaluator::new(netlist);
        let width = evaluator.inputs().len();
        let mut controllable = vec![false; width];
        let mut input_position = vec![None; netlist.net_count()];
        for (i, &net) in evaluator.inputs().iter().enumerate() {
            input_position[net.index()] = Some(i);
        }
        for &net in controlled {
            if let Some(position) = input_position[net.index()] {
                controllable[position] = true;
            }
        }
        let assignment = vec![Logic::X; width];
        let values = evaluator.evaluate(netlist, &assignment);
        FullEvaluateJustifier {
            evaluator,
            assignment,
            values,
            controllable,
            input_position,
            directive,
            backtrack_limit,
            decisions: 0,
        }
    }

    pub(crate) fn values(&self) -> &[Logic] {
        &self.values
    }

    pub(crate) fn select_candidate(&self, candidates: &[NetId], target: bool) -> Option<NetId> {
        if candidates.is_empty() {
            return None;
        }
        match self.directive {
            Directive::FirstAvailable => candidates.first().copied(),
            Directive::LeakageObservability(observability) => {
                observability.preferred_candidate(candidates, target)
            }
        }
    }

    pub(crate) fn justify(
        &mut self,
        netlist: &Netlist,
        objective: NetId,
        value: bool,
    ) -> JustifyOutcome {
        let snapshot = self.assignment.clone();
        let mut backtracks = 0usize;
        let mut stack: Vec<(usize, bool, bool)> = Vec::new();
        let target = Logic::from_bool(value);
        loop {
            if self.values[objective.index()] == target {
                self.decisions += stack.len();
                return JustifyOutcome::Satisfied;
            }
            let decision = if self.values[objective.index()] == Logic::X {
                self.backtrace(netlist, objective, value)
            } else {
                None
            };
            match decision {
                Some((position, decided)) => {
                    self.assignment[position] = Logic::from_bool(decided);
                    stack.push((position, decided, false));
                    self.values = self.evaluator.evaluate(netlist, &self.assignment);
                }
                None => loop {
                    match stack.pop() {
                        Some((position, decided, tried_both)) => {
                            if tried_both {
                                self.assignment[position] = Logic::X;
                                continue;
                            }
                            backtracks += 1;
                            if backtracks > self.backtrack_limit {
                                self.assignment = snapshot;
                                self.values = self.evaluator.evaluate(netlist, &self.assignment);
                                return JustifyOutcome::Failed;
                            }
                            self.assignment[position] = Logic::from_bool(!decided);
                            stack.push((position, !decided, true));
                            self.values = self.evaluator.evaluate(netlist, &self.assignment);
                            break;
                        }
                        None => {
                            self.assignment = snapshot;
                            self.values = self.evaluator.evaluate(netlist, &self.assignment);
                            return JustifyOutcome::Failed;
                        }
                    }
                },
            }
        }
    }

    fn backtrace(
        &self,
        netlist: &Netlist,
        objective: NetId,
        objective_value: bool,
    ) -> Option<(usize, bool)> {
        let mut net = objective;
        let mut value = objective_value;
        let mut hops = 0usize;
        loop {
            hops += 1;
            if hops > netlist.net_count() + 1 {
                return None;
            }
            if let Some(position) = self.input_position[net.index()] {
                if !self.controllable[position] || self.assignment[position] != Logic::X {
                    return None;
                }
                return Some((position, value));
            }
            let gate = netlist.gate(netlist.driver_gate(net)?);
            let unknown: Vec<NetId> = gate
                .inputs
                .iter()
                .copied()
                .filter(|&n| self.values[n.index()] == Logic::X)
                .collect();
            if unknown.is_empty() {
                return None;
            }
            let next_value = if gate.kind.is_inverting() {
                !value
            } else {
                value
            };
            net = self
                .select_candidate(&unknown, next_value)
                .unwrap_or(unknown[0]);
            value = next_value;
        }
    }
}

/// `FindControlledInputPattern()` over the full-recompute worklist and the
/// full-evaluate justifier, with the default capacitance model.
pub(crate) fn reference_find(
    netlist: &Netlist,
    controlled: &[NetId],
    transition_sources: &[NetId],
    directive: Directive<'_>,
    backtrack_limit: usize,
) -> ControlPattern {
    let capacitance = CapacitanceModel::default();
    let mut justifier = FullEvaluateJustifier::new(netlist, controlled, directive, backtrack_limit);
    let mut worklist = FullRecomputeWorklist::new(netlist, transition_sources, justifier.values());
    let mut stats = PatternStats::default();
    let max_iterations = netlist.gate_count() * 2 + 16;
    while let Some((mc_tg, mc_tn)) = worklist.most_capacitive_gate(netlist, &capacitance) {
        stats.iterations += 1;
        if stats.iterations > max_iterations {
            break;
        }
        let gate = netlist.gate(mc_tg);
        let controlling = gate.kind.controlling_value().expect("controlling value");
        let mut candidates: Vec<NetId> = gate
            .inputs
            .iter()
            .copied()
            .filter(|&n| {
                n != mc_tn
                    && !worklist.transition_nodes().contains(&n)
                    && justifier.values()[n.index()] == Logic::X
            })
            .collect();
        let mut blocked = false;
        while let Some(chosen) = justifier.select_candidate(&candidates, controlling) {
            candidates.retain(|&n| n != chosen);
            if justifier.justify(netlist, chosen, controlling) == JustifyOutcome::Satisfied {
                blocked = true;
                break;
            }
            stats.failed_justifications += 1;
        }
        if blocked {
            stats.blocked_gates += 1;
            worklist.resolve_gate(netlist, mc_tg, justifier.values());
        } else {
            stats.unblocked_gates += 1;
            worklist.add_nodes(netlist, &[gate.output], justifier.values());
        }
    }
    stats.decisions = justifier.decisions;
    stats.transition_nodes = worklist.transition_nodes().len();
    ControlPattern {
        assignment: justifier.assignment,
        controlled: controlled.to_vec(),
        transition_sources: transition_sources.to_vec(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addmux::AddMux;
    use crate::justify::Justifier;
    use crate::pattern::ControlPatternFinder;
    use crate::worklist::TransitionWorklist;
    use scanpower_netlist::bench;
    use scanpower_netlist::generator::{CircuitFamily, TABLE1_CIRCUITS};
    use scanpower_power::{LeakageLibrary, LeakageObservability};

    /// Deterministic xorshift64 stream for the randomised sequences.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }
    }

    /// The two call shapes of the finder: the input-control baseline
    /// (primary inputs controlled, every pseudo-input a source) and the
    /// proposed method (primary inputs plus AddMUX's muxed cells
    /// controlled, the unmuxed cells as sources).
    fn call_shapes(netlist: &Netlist) -> [(Vec<NetId>, Vec<NetId>); 2] {
        let plan = AddMux::default().plan(netlist).unwrap();
        let mut proposed = netlist.primary_inputs().to_vec();
        proposed.extend(plan.muxed_nets());
        [
            (netlist.primary_inputs().to_vec(), netlist.pseudo_inputs()),
            (proposed, plan.unmuxed_nets()),
        ]
    }

    /// Runs the production finder and the reference on both call shapes
    /// and both directives at `backtrack_limit`, asserting whole-pattern
    /// equality; returns the number of iterations compared.
    fn assert_plans_match(netlist: &Netlist, label: &str, backtrack_limit: usize) -> usize {
        let observability = LeakageObservability::compute(netlist, &LeakageLibrary::cmos45());
        let finder = ControlPatternFinder::new().with_backtrack_limit(backtrack_limit);
        let mut iterations = 0;
        for (shape, (controlled, sources)) in call_shapes(netlist).iter().enumerate() {
            for directive in [
                Directive::FirstAvailable,
                Directive::LeakageObservability(&observability),
            ] {
                let production = finder.find(netlist, controlled, sources, directive);
                let reference =
                    reference_find(netlist, controlled, sources, directive, backtrack_limit);
                assert_eq!(
                    production,
                    reference,
                    "{label} shape {shape} {} limit {backtrack_limit}",
                    if matches!(directive, Directive::FirstAvailable) {
                        "first-available"
                    } else {
                        "leakage-directed"
                    }
                );
                iterations += production.stats.iterations;
            }
        }
        iterations
    }

    #[test]
    fn plan_reference_table1_families_match_across_seeds() {
        let mut iterations = 0;
        for name in TABLE1_CIRCUITS {
            let family = CircuitFamily::iscas89_like(name).unwrap().scaled(0.15);
            for seed in [1, 2, 3] {
                let netlist = family.generate(seed);
                iterations += assert_plans_match(&netlist, &format!("{name}@{seed}"), 64);
            }
        }
        assert!(iterations > 0);
    }

    #[test]
    fn plan_reference_full_size_s1423_and_s5378_match() {
        for name in ["s1423", "s5378"] {
            let netlist = CircuitFamily::iscas89_like(name).unwrap().generate(1);
            assert!(assert_plans_match(&netlist, name, 64) > 0);
        }
    }

    /// Tight budgets force the backtrack-limit rollback path (decisions
    /// still on the stack when the budget runs out) and the X-reset path.
    #[test]
    fn plan_reference_tight_backtrack_limits_match() {
        let s27 = bench::parse(bench::S27_BENCH, "s27").unwrap();
        assert_plans_match(&s27, "s27", 0);
        for (name, seed) in [("s641", 2), ("s1423", 3), ("s5378", 1)] {
            let netlist = CircuitFamily::iscas89_like(name)
                .unwrap()
                .scaled(0.2)
                .generate(seed);
            for limit in [0, 1, 3] {
                assert_plans_match(&netlist, name, limit);
            }
        }
    }

    /// After every justification — kept or failed — the incremental
    /// justifier's values equal a full evaluation of its assignment, and
    /// its changed-net report is exactly the set of nets that differ from
    /// the values before the attempt.
    #[test]
    fn plan_reference_justifier_matches_full_evaluation() {
        let netlist = CircuitFamily::iscas89_like("s1423")
            .unwrap()
            .scaled(0.3)
            .generate(2);
        let observability = LeakageObservability::compute(&netlist, &LeakageLibrary::cmos45());
        let evaluator = Evaluator::new(&netlist);
        let pseudo = netlist.pseudo_inputs();
        let mut controlled = netlist.primary_inputs().to_vec();
        controlled.extend(&pseudo[..pseudo.len() / 2]);
        let mut stream = Stream(0x5eed);
        let (mut kept, mut failed) = (0, 0);
        for directive in [
            Directive::FirstAvailable,
            Directive::LeakageObservability(&observability),
        ] {
            for limit in [0, 2, 64] {
                let mut justifier = Justifier::new(&netlist, &controlled, directive);
                justifier.set_backtrack_limit(limit);
                let mut reference =
                    FullEvaluateJustifier::new(&netlist, &controlled, directive, limit);
                for _ in 0..60 {
                    let objective = NetId::from_index(stream.below(netlist.net_count()));
                    let value = stream.next() & 1 == 1;
                    let before = justifier.values().to_vec();
                    let outcome = justifier.justify(&netlist, objective, value);
                    assert_eq!(outcome, reference.justify(&netlist, objective, value));
                    assert_eq!(justifier.assignment(), reference.assignment.as_slice());
                    assert_eq!(justifier.values(), reference.values());
                    assert_eq!(
                        justifier.values(),
                        evaluator
                            .evaluate(&netlist, justifier.assignment())
                            .as_slice()
                    );
                    assert_eq!(justifier.decisions(), reference.decisions);
                    let mut changed = justifier.changed_nets().to_vec();
                    changed.sort_unstable();
                    let differing: Vec<NetId> = netlist
                        .net_ids()
                        .filter(|&net| before[net.index()] != justifier.value(net))
                        .collect();
                    assert_eq!(changed, differing);
                    match outcome {
                        JustifyOutcome::Satisfied => kept += 1,
                        JustifyOutcome::Failed => failed += 1,
                    }
                }
            }
        }
        assert!(kept > 0 && failed > 0, "{kept} kept / {failed} failed");
    }

    /// Random sequences of `add_nodes` / `resolve_gate` under monotone
    /// value refinements: the incremental TNS/TGS and its gate pick equal
    /// a full recompute after every step.
    #[test]
    fn plan_reference_worklist_matches_full_recompute() {
        let capacitance = CapacitanceModel::default();
        let mut stream = Stream(0x7a11);
        for (name, seed) in [("s344", 1), ("s641", 2), ("s1196", 3), ("s5378", 1)] {
            let netlist = CircuitFamily::iscas89_like(name)
                .unwrap()
                .scaled(0.3)
                .generate(seed);
            let evaluator = Evaluator::new(&netlist);
            let inputs = evaluator.inputs().to_vec();
            let pseudo = netlist.pseudo_inputs();
            let sources: Vec<NetId> = pseudo.iter().copied().step_by(2).collect();
            let mut assignment = vec![Logic::X; inputs.len()];
            let mut values = evaluator.evaluate(&netlist, &assignment);
            let mut incremental =
                TransitionWorklist::new(&netlist, &sources, &values, &capacitance);
            let mut reference = FullRecomputeWorklist::new(&netlist, &sources, &values);
            for step in 0..80 {
                // Refine a few don't-care non-source inputs.
                for _ in 0..stream.below(3) {
                    let position = stream.below(inputs.len());
                    if !sources.contains(&inputs[position]) && assignment[position] == Logic::X {
                        assignment[position] = Logic::from_bool(stream.next() & 1 == 1);
                    }
                }
                let refined = evaluator.evaluate(&netlist, &assignment);
                let changed: Vec<NetId> = netlist
                    .net_ids()
                    .filter(|&net| refined[net.index()] != values[net.index()])
                    .collect();
                assert!(changed.iter().all(|&net| !values[net.index()].is_known()));
                values = refined;
                if stream.below(2) == 0 {
                    let nodes: Vec<NetId> = (0..1 + stream.below(2))
                        .map(|_| NetId::from_index(stream.below(netlist.net_count())))
                        .collect();
                    incremental.add_nodes(&netlist, &nodes, &values, &changed);
                    reference.add_nodes(&netlist, &nodes, &values);
                } else {
                    let gate = incremental.most_capacitive_gate(&netlist).map_or_else(
                        || GateId::from_index(stream.below(netlist.gate_count())),
                        |(g, _)| g,
                    );
                    incremental.resolve_gate(&netlist, gate, &values, &changed);
                    reference.resolve_gate(&netlist, gate, &values);
                }
                let label = format!("{name}@{seed} step {step}");
                assert!(
                    incremental
                        .transition_nodes()
                        .eq(reference.transition_nodes().iter().copied()),
                    "{label}: TNS"
                );
                assert_eq!(
                    incremental.transition_node_count(),
                    reference.transition_nodes().len(),
                    "{label}"
                );
                assert!(
                    incremental
                        .transition_gates()
                        .eq(reference.transition_gates().iter().copied()),
                    "{label}: TGS"
                );
                assert_eq!(
                    incremental.is_done(),
                    reference.transition_gates().is_empty()
                );
                assert_eq!(
                    incremental.most_capacitive_gate(&netlist),
                    reference.most_capacitive_gate(&netlist, &capacitance),
                    "{label}: gate pick"
                );
            }
        }
    }
}
