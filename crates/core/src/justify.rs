use scanpower_netlist::{NetId, Netlist};
use scanpower_power::LeakageObservability;
use scanpower_sim::{DirtyWorklist, Logic, SimKernel};

/// How ties between candidate lines are broken during justification and
/// candidate-input selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Directive<'a> {
    /// The paper's rule: when a line must be set to 1 choose the candidate
    /// with minimum leakage observability, when it must be set to 0 choose
    /// the one with maximum leakage observability.
    LeakageObservability(&'a LeakageObservability),
    /// Take the first available candidate (the undirected C-algorithm of
    /// Huang & Lee \[8\]; also used by the ablation benches).
    FirstAvailable,
}

/// Outcome of one justification attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JustifyOutcome {
    /// The objective value was established; the decisions were kept.
    Satisfied,
    /// The objective could not be established; all decisions of this attempt
    /// were rolled back.
    Failed,
}

/// PODEM-like justification of internal objectives by assigning controlled
/// inputs only.
///
/// The justifier owns the current partial assignment of the combinational
/// inputs (controlled inputs may be 0/1/X, uncontrolled pseudo-inputs are
/// pinned to X because their value keeps changing during shift) and the
/// implied value of every net.
///
/// Implication is event-driven: every decision, flip or X-reset marks only
/// the inputs it changed and [`SimKernel::propagate_from`] re-evaluates the
/// gates those changes reach, leaving the values exactly as a full
/// evaluation of the assignment would. Each attempt logs the first old value
/// of every net it changes; a failed attempt is rolled back by restoring
/// just those nets, and a satisfied one reports them through
/// [`Justifier::changed_nets`]. Because decisions only assign don't-care
/// inputs, a kept attempt only refines values from X to known — the
/// refinement [`TransitionWorklist`](crate::TransitionWorklist) relies on.
#[derive(Debug, Clone)]
pub struct Justifier<'a> {
    kernel: SimKernel<Logic>,
    dirty: DirtyWorklist,
    assignment: Vec<Logic>,
    values: Vec<Logic>,
    controllable: Vec<bool>,
    input_position: Vec<Option<usize>>,
    directive: Directive<'a>,
    backtrack_limit: usize,
    decisions: usize,
    /// Input positions assigned since the last implication.
    pending: Vec<usize>,
    /// `(net, value before the attempt)` for every net the current attempt
    /// changed, first change only.
    undo: Vec<(NetId, Logic)>,
    /// Per net: the attempt that last logged it in `undo`.
    logged: Vec<u64>,
    attempt: u64,
    /// Nets whose value the last satisfied attempt changed.
    changed: Vec<NetId>,
}

impl<'a> Justifier<'a> {
    /// Creates a justifier.
    ///
    /// `controlled` lists the nets whose value the search may assign
    /// (primary inputs plus multiplexed pseudo-inputs).
    #[must_use]
    pub fn new(netlist: &Netlist, controlled: &[NetId], directive: Directive<'a>) -> Justifier<'a> {
        let kernel = SimKernel::new(netlist);
        let width = kernel.inputs().len();
        let mut controllable = vec![false; width];
        let mut input_position = vec![None; netlist.net_count()];
        for (i, &net) in kernel.inputs().iter().enumerate() {
            input_position[net.index()] = Some(i);
        }
        for &net in controlled {
            if let Some(position) = input_position[net.index()] {
                controllable[position] = true;
            }
        }
        let mut values = vec![Logic::X; netlist.net_count()];
        kernel.propagate(netlist, &mut values);
        Justifier {
            dirty: kernel.make_worklist(),
            kernel,
            assignment: vec![Logic::X; width],
            values,
            controllable,
            input_position,
            directive,
            backtrack_limit: 64,
            decisions: 0,
            pending: Vec::new(),
            undo: Vec::new(),
            logged: vec![0; netlist.net_count()],
            attempt: 0,
            changed: Vec::new(),
        }
    }

    /// Sets the backtrack budget per objective (default 64).
    pub fn set_backtrack_limit(&mut self, limit: usize) {
        self.backtrack_limit = limit;
    }

    /// Current implied value of every net.
    #[must_use]
    pub fn values(&self) -> &[Logic] {
        &self.values
    }

    /// Current assignment of the combinational inputs (primary inputs then
    /// pseudo-inputs, the order of [`SimKernel::inputs`]).
    #[must_use]
    pub fn assignment(&self) -> &[Logic] {
        &self.assignment
    }

    /// Number of input decisions made so far (kept ones only).
    #[must_use]
    pub fn decisions(&self) -> usize {
        self.decisions
    }

    /// Current implied value of one net.
    #[must_use]
    pub fn value(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    /// The nets whose value the last [`Justifier::justify`] call changed —
    /// each once, inputs included. Empty after a failed attempt, whose
    /// changes were all rolled back.
    #[must_use]
    pub fn changed_nets(&self) -> &[NetId] {
        &self.changed
    }

    /// Selects, among the don't-care side inputs of a gate, the candidate to
    /// set to the controlling value, following the directive.
    #[must_use]
    pub fn select_candidate(&self, candidates: &[NetId], target: bool) -> Option<NetId> {
        match self.directive {
            Directive::FirstAvailable => candidates.first().copied(),
            Directive::LeakageObservability(observability) => {
                observability.preferred_candidate(candidates, target)
            }
        }
    }

    /// Tries to justify `value` on `objective` by assigning controlled
    /// inputs. On failure every decision made during this attempt is undone.
    pub fn justify(&mut self, netlist: &Netlist, objective: NetId, value: bool) -> JustifyOutcome {
        self.attempt += 1;
        self.undo.clear();
        self.changed.clear();
        let mut backtracks = 0usize;
        // Decision stack local to this objective.
        let mut stack: Vec<(usize, bool, bool)> = Vec::new();
        let target = Logic::from_bool(value);

        loop {
            if self.values[objective.index()] == target {
                self.decisions += stack.len();
                let values = &self.values;
                self.changed.extend(
                    self.undo
                        .iter()
                        .filter(|&&(net, old)| values[net.index()] != old)
                        .map(|&(net, _)| net),
                );
                return JustifyOutcome::Satisfied;
            }
            let decision = if self.values[objective.index()] == Logic::X {
                self.backtrace(netlist, objective, value)
            } else {
                // The objective is implied to the opposite value: conflict.
                None
            };
            match decision {
                Some((position, decided)) => {
                    self.assign(position, Logic::from_bool(decided));
                    stack.push((position, decided, false));
                    self.imply(netlist);
                }
                None => loop {
                    match stack.pop() {
                        Some((position, decided, tried_both)) => {
                            if tried_both {
                                self.assign(position, Logic::X);
                                continue;
                            }
                            backtracks += 1;
                            if backtracks > self.backtrack_limit {
                                self.roll_back();
                                return JustifyOutcome::Failed;
                            }
                            self.assign(position, Logic::from_bool(!decided));
                            stack.push((position, !decided, true));
                            self.imply(netlist);
                            break;
                        }
                        None => {
                            self.roll_back();
                            return JustifyOutcome::Failed;
                        }
                    }
                },
            }
        }
    }

    /// Sets one input of the assignment; the change reaches the net values
    /// at the next [`Justifier::imply`].
    fn assign(&mut self, position: usize, value: Logic) {
        self.assignment[position] = value;
        self.pending.push(position);
    }

    /// Forward implication of the pending input changes, logging the old
    /// value of every net that changes for the first time in this attempt.
    fn imply(&mut self, netlist: &Netlist) {
        let Justifier {
            kernel,
            dirty,
            assignment,
            values,
            pending,
            undo,
            logged,
            attempt,
            ..
        } = self;
        let mut log = |net: NetId, old: Logic| {
            if logged[net.index()] != *attempt {
                logged[net.index()] = *attempt;
                undo.push((net, old));
            }
        };
        for position in pending.drain(..) {
            let net = kernel.inputs()[position];
            let old = values[net.index()];
            if old != assignment[position] {
                log(net, old);
                values[net.index()] = assignment[position];
                kernel.mark_net_changed(net, dirty);
            }
        }
        kernel.propagate_from(netlist, values, dirty, None, |net, old, _| log(net, old));
    }

    /// Undoes the current attempt: every net it changed, and every input
    /// among them, returns to its value before the attempt. Inputs still
    /// pending were X-reset, and every input an attempt decides was X
    /// before it, so they are restored already.
    fn roll_back(&mut self) {
        self.pending.clear();
        for &(net, old) in &self.undo {
            self.values[net.index()] = old;
            if let Some(position) = self.input_position[net.index()] {
                self.assignment[position] = old;
            }
        }
    }

    /// Maps an internal objective to a single controlled-input decision by
    /// walking backwards through unknown gate inputs (the paper's
    /// `Backtrace` procedure). Candidate selection at every gate follows the
    /// directive.
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
            let driver = netlist.driver_gate(net)?;
            let gate = netlist.gate(driver);
            // Candidate inputs: unknown lines only.
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
            let chosen = self
                .select_candidate(&unknown, next_value)
                .unwrap_or(unknown[0]);
            net = chosen;
            value = next_value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanpower_netlist::{GateKind, Netlist};
    use scanpower_power::LeakageLibrary;

    fn observability(netlist: &Netlist) -> LeakageObservability {
        LeakageObservability::compute(netlist, &LeakageLibrary::cmos45())
    }

    #[test]
    fn justifies_simple_objective() {
        // out = NAND(a, b): justify out = 0 requires a = b = 1.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::Nand, &[a, b], "g");
        n.mark_output(g.output);
        let obs = observability(&n);
        let mut justifier = Justifier::new(&n, &[a, b], Directive::LeakageObservability(&obs));
        let outcome = justifier.justify(&n, g.output, false);
        assert_eq!(outcome, JustifyOutcome::Satisfied);
        assert_eq!(justifier.value(g.output), Logic::Zero);
        assert_eq!(justifier.value(a), Logic::One);
        assert_eq!(justifier.value(b), Logic::One);
    }

    #[test]
    fn uncontrollable_inputs_are_never_assigned() {
        // out = NAND(a, q) where q is not controlled: out = 0 cannot be
        // justified (it needs q = 1).
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let q = n.ensure_net("q");
        let g = n.add_gate(GateKind::Nand, &[a, q], "g");
        n.mark_output(g.output);
        n.try_add_dff_driving(g.output, q).unwrap();
        let obs = observability(&n);
        let mut justifier = Justifier::new(&n, &[a], Directive::LeakageObservability(&obs));
        let outcome = justifier.justify(&n, g.output, false);
        assert_eq!(outcome, JustifyOutcome::Failed);
        // The failed attempt must leave no residue.
        assert!(justifier.assignment().iter().all(|&v| v == Logic::X));
        // But out = 1 only needs a = 0, which is controlled.
        let outcome = justifier.justify(&n, g.output, true);
        assert_eq!(outcome, JustifyOutcome::Satisfied);
        assert_eq!(justifier.value(a), Logic::Zero);
    }

    #[test]
    fn failed_attempt_rolls_back_previous_successes_stay() {
        // Two independent objectives; the second is impossible.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let q = n.ensure_net("q");
        let g1 = n.add_gate(GateKind::Not, &[a], "g1");
        let g2 = n.add_gate(GateKind::Nand, &[b, q], "g2");
        n.mark_output(g1.output);
        n.mark_output(g2.output);
        n.try_add_dff_driving(g2.output, q).unwrap();
        let obs = observability(&n);
        let mut justifier = Justifier::new(&n, &[a, b], Directive::LeakageObservability(&obs));
        assert_eq!(
            justifier.justify(&n, g1.output, false),
            JustifyOutcome::Satisfied
        );
        let kept = justifier.value(a);
        assert_eq!(
            justifier.justify(&n, g2.output, false),
            JustifyOutcome::Failed
        );
        assert_eq!(justifier.value(a), kept, "earlier decision must survive");
    }

    #[test]
    fn directive_changes_candidate_selection() {
        // Candidate with the lower observability must be chosen when the
        // target is 1.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        // Make `a` much more leakage-observable by fanning it out to big
        // gates.
        let g1 = n.add_gate(GateKind::Nand, &[a, b], "g1");
        let g2 = n.add_gate(GateKind::Nand, &[a, g1.output], "g2");
        let g3 = n.add_gate(GateKind::Nand, &[a, g2.output], "g3");
        n.mark_output(g3.output);
        let obs = observability(&n);
        let justifier = Justifier::new(&n, &[a, b], Directive::LeakageObservability(&obs));
        let chosen = justifier.select_candidate(&[a, b], true).unwrap();
        assert_eq!(chosen, if obs.of(a) < obs.of(b) { a } else { b });
        let first = Justifier::new(&n, &[a, b], Directive::FirstAvailable);
        assert_eq!(first.select_candidate(&[a, b], true), Some(a));
    }

    #[test]
    fn backtracking_recovers_from_a_bad_first_decision() {
        // out = NOR(AND(a, b), NOT(a)); justify out = 1 requires a = 1 and
        // b = 0 (so that both NOR inputs are 0). A naive first decision may
        // try the wrong value first and must recover by backtracking.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let and = n.add_gate(GateKind::And, &[a, b], "and");
        let inv = n.add_gate(GateKind::Not, &[a], "inv");
        let nor = n.add_gate(GateKind::Nor, &[and.output, inv.output], "nor");
        n.mark_output(nor.output);
        let obs = observability(&n);
        for directive in [
            Directive::LeakageObservability(&obs),
            Directive::FirstAvailable,
        ] {
            let mut justifier = Justifier::new(&n, &[a, b], directive);
            let outcome = justifier.justify(&n, nor.output, true);
            assert_eq!(outcome, JustifyOutcome::Satisfied, "{directive:?}");
            assert_eq!(justifier.value(a), Logic::One);
            assert_eq!(justifier.value(b), Logic::Zero);
        }
    }
}
