use scanpower_netlist::{NetId, Netlist};
use scanpower_sim::Logic;
use scanpower_timing::CapacitanceModel;

use crate::justify::{Directive, Justifier, JustifyOutcome};
use crate::worklist::TransitionWorklist;

/// The paper's `FindControlledInputPattern()` procedure.
///
/// Starting from the non-multiplexed pseudo-inputs as transition sources,
/// the procedure repeatedly picks the transition gate with the largest
/// output capacitance and tries to block it by justifying the gate's
/// controlling value on one of its don't-care side inputs, using only the
/// controlled inputs (primary inputs and multiplexed pseudo-inputs) as
/// decision variables. Under [`Directive::LeakageObservability`], candidate
/// selection and justification are directed by leakage observability so
/// that, among all transition-blocking vectors, a low-leakage one is
/// produced.
///
/// The search is incremental: the [`Justifier`] re-implies only what each
/// decision reaches and reports the nets a kept justification refined, and
/// the [`TransitionWorklist`] updates the TNS/TGS from those nets and the
/// newly added transition nodes instead of recomputing them.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlPatternFinder {
    capacitance: CapacitanceModel,
    backtrack_limit: usize,
}

impl Default for ControlPatternFinder {
    fn default() -> Self {
        ControlPatternFinder::new()
    }
}

impl ControlPatternFinder {
    /// Creates a finder with the default capacitance model and a backtrack
    /// budget of 64 per objective.
    #[must_use]
    pub fn new() -> ControlPatternFinder {
        ControlPatternFinder {
            capacitance: CapacitanceModel::default(),
            backtrack_limit: 64,
        }
    }

    /// Overrides the capacitance model used to order transition gates.
    #[must_use]
    pub fn with_capacitance(mut self, capacitance: CapacitanceModel) -> ControlPatternFinder {
        self.capacitance = capacitance;
        self
    }

    /// Sets the justification backtrack budget per objective.
    #[must_use]
    pub fn with_backtrack_limit(mut self, limit: usize) -> ControlPatternFinder {
        self.backtrack_limit = limit;
        self
    }

    /// Runs the procedure.
    ///
    /// * `controlled` — nets whose value can be fixed during scan mode
    ///   (primary inputs plus multiplexed pseudo-inputs);
    /// * `transition_sources` — the non-multiplexed pseudo-inputs whose
    ///   rippling values must be kept from propagating;
    /// * `directive` — how candidate lines are chosen; the leakage-directed
    ///   directive carries the observability of every line.
    #[must_use]
    pub fn find(
        &self,
        netlist: &Netlist,
        controlled: &[NetId],
        transition_sources: &[NetId],
        directive: Directive<'_>,
    ) -> ControlPattern {
        let mut justifier = Justifier::new(netlist, controlled, directive);
        justifier.set_backtrack_limit(self.backtrack_limit);
        let mut worklist = TransitionWorklist::new(
            netlist,
            transition_sources,
            justifier.values(),
            &self.capacitance,
        );

        let mut stats = PatternStats::default();
        let max_iterations = netlist.gate_count() * 2 + 16;

        while let Some((mc_tg, mc_tn)) = worklist.most_capacitive_gate(netlist) {
            stats.iterations += 1;
            if stats.iterations > max_iterations {
                break;
            }
            let gate = netlist.gate(mc_tg);
            let controlling = gate
                .kind
                .controlling_value()
                .expect("transition gates always have a controlling value");

            // Try the don't-care side inputs in directive order until one of
            // them can be justified to the controlling value.
            let mut candidates: Vec<NetId> = gate
                .inputs
                .iter()
                .copied()
                .filter(|&n| {
                    n != mc_tn && !worklist.is_transition_node(n) && justifier.value(n) == Logic::X
                })
                .collect();
            let mut blocked = false;
            while !candidates.is_empty() {
                let chosen = justifier
                    .select_candidate(&candidates, controlling)
                    .expect("candidates is not empty");
                candidates.retain(|&n| n != chosen);
                if justifier.justify(netlist, chosen, controlling) == JustifyOutcome::Satisfied {
                    blocked = true;
                    break;
                }
                stats.failed_justifications += 1;
            }

            if blocked {
                stats.blocked_gates += 1;
                worklist.resolve_gate(netlist, mc_tg, justifier.values(), justifier.changed_nets());
            } else {
                // The transition cannot be suppressed here; it propagates to
                // the gate output, which becomes a new transition node, and
                // the search continues further downstream. Failed attempts
                // were rolled back, so no value changed.
                stats.unblocked_gates += 1;
                worklist.add_nodes(netlist, &[gate.output], justifier.values(), &[]);
            }
        }

        stats.decisions = justifier.decisions();
        stats.transition_nodes = worklist.transition_node_count();
        ControlPattern {
            assignment: justifier.assignment().to_vec(),
            controlled: controlled.to_vec(),
            transition_sources: transition_sources.to_vec(),
            stats,
        }
    }
}

/// Counters describing a `FindControlledInputPattern()` run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatternStats {
    /// Transition gates whose transition was blocked by a justified
    /// controlling value.
    pub blocked_gates: usize,
    /// Transition gates that could not be blocked (their output became a new
    /// transition node).
    pub unblocked_gates: usize,
    /// Failed justification attempts.
    pub failed_justifications: usize,
    /// Controlled-input decisions kept in the final pattern.
    pub decisions: usize,
    /// Main-loop iterations.
    pub iterations: usize,
    /// Size of the final transition node set.
    pub transition_nodes: usize,
}

/// A (partially specified) scan-mode pattern for the controlled inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlPattern {
    /// Value of every combinational input (primary inputs then
    /// pseudo-inputs, the order of `Evaluator::inputs`). Controlled inputs
    /// that remained don't-care and all uncontrolled pseudo-inputs are
    /// [`Logic::X`].
    pub assignment: Vec<Logic>,
    /// The controlled input nets.
    pub controlled: Vec<NetId>,
    /// The non-multiplexed pseudo-inputs (transition sources).
    pub transition_sources: Vec<NetId>,
    /// Search statistics.
    pub stats: PatternStats,
}

impl ControlPattern {
    /// Number of controlled inputs that received a value.
    #[must_use]
    pub fn specified_inputs(&self) -> usize {
        self.assignment.iter().filter(|v| v.is_known()).count()
    }

    /// Number of controlled inputs still at don't-care.
    #[must_use]
    pub fn dont_care_inputs(&self) -> usize {
        self.controlled
            .len()
            .saturating_sub(self.specified_inputs())
    }

    /// Fraction of transition gates that were successfully blocked.
    #[must_use]
    pub fn blocking_ratio(&self) -> f64 {
        let attempted = self.stats.blocked_gates + self.stats.unblocked_gates;
        if attempted == 0 {
            1.0
        } else {
            self.stats.blocked_gates as f64 / attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanpower_netlist::{bench, generator::CircuitFamily, GateKind, Netlist};
    use scanpower_power::{LeakageLibrary, LeakageObservability};
    use scanpower_sim::patterns::random_bool_patterns;
    use scanpower_sim::scan::{ScanPattern, ScanShiftSim, ShiftConfig};

    fn observability(netlist: &Netlist) -> LeakageObservability {
        LeakageObservability::compute(netlist, &LeakageLibrary::cmos45())
    }

    #[test]
    fn blocks_single_transition_source_at_its_origin() {
        // q -> NAND(q, a) -> ... : setting a = 0 blocks everything.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let q = n.ensure_net("q");
        let g1 = n.add_gate(GateKind::Nand, &[q, a], "g1");
        let g2 = n.add_gate(GateKind::Not, &[g1.output], "g2");
        n.mark_output(g2.output);
        n.try_add_dff_driving(g2.output, q).unwrap();
        let obs = observability(&n);
        let pattern = ControlPatternFinder::default().find(
            &n,
            &[a],
            &[q],
            Directive::LeakageObservability(&obs),
        );
        let a_index = 0; // `a` is the only primary input.
        assert_eq!(pattern.assignment[a_index], Logic::Zero);
        assert_eq!(pattern.stats.blocked_gates, 1);
        assert_eq!(pattern.stats.unblocked_gates, 0);
        assert!((pattern.blocking_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn s27_pattern_blocks_most_transition_gates() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let obs = observability(&n);
        // Treat every primary input and the first two scan cells as
        // controlled; the third scan cell is the transition source.
        let mut controlled: Vec<NetId> = n.primary_inputs().to_vec();
        let pseudo = n.pseudo_inputs();
        controlled.extend(&pseudo[..2]);
        let sources = vec![pseudo[2]];
        let pattern = ControlPatternFinder::default().find(
            &n,
            &controlled,
            &sources,
            Directive::LeakageObservability(&obs),
        );
        assert!(pattern.blocking_ratio() > 0.5);
        assert!(pattern.specified_inputs() > 0);
        assert!(pattern.specified_inputs() <= controlled.len());
        // Transition sources must never be assigned.
        let source_position = n
            .combinational_inputs()
            .iter()
            .position(|&x| x == pseudo[2])
            .unwrap();
        assert_eq!(pattern.assignment[source_position], Logic::X);
    }

    #[test]
    fn pattern_actually_reduces_shift_activity() {
        // End-to-end check on a generated circuit: applying the found
        // pattern to the controlled inputs during shift reduces the number
        // of transitions compared to the traditional structure.
        let circuit = CircuitFamily::iscas89_like("s382").unwrap().generate(7);
        let obs = observability(&circuit);
        let pseudo = circuit.pseudo_inputs();
        // Control the primary inputs and half of the scan cells.
        let mut controlled: Vec<NetId> = circuit.primary_inputs().to_vec();
        let half = pseudo.len() / 2;
        controlled.extend(&pseudo[..half]);
        let sources: Vec<NetId> = pseudo[half..].to_vec();
        let pattern = ControlPatternFinder::default().find(
            &circuit,
            &controlled,
            &sources,
            Directive::LeakageObservability(&obs),
        );

        // Build scan patterns and compare traditional vs controlled shift.
        let pi = circuit.primary_inputs().len();
        let ff = circuit.dff_count();
        let tests: Vec<ScanPattern> = random_bool_patterns(pi + ff, 10, 3)
            .into_iter()
            .map(|bits| ScanPattern::from_bools(&bits[..pi], &bits[pi..]))
            .collect();
        let sim = ScanShiftSim::new(&circuit);
        let traditional = sim.run(&circuit, &tests, &ShiftConfig::traditional(ff));

        let shift_pi: Vec<Logic> = (0..pi)
            .map(|i| match pattern.assignment[i] {
                Logic::X => Logic::Zero,
                known => known,
            })
            .collect();
        let forced: Vec<Option<Logic>> = (0..ff)
            .map(|cell| {
                if cell < half {
                    Some(match pattern.assignment[pi + cell] {
                        Logic::X => Logic::Zero,
                        known => known,
                    })
                } else {
                    None
                }
            })
            .collect();
        let controlled_run = sim.run(
            &circuit,
            &tests,
            &ShiftConfig {
                shift_pi_values: Some(shift_pi),
                forced_pseudo: forced,
                count_capture: false,
            },
        );
        assert!(
            controlled_run.total_toggles < traditional.total_toggles,
            "controlled {} vs traditional {}",
            controlled_run.total_toggles,
            traditional.total_toggles
        );
    }

    #[test]
    fn directive_does_not_change_blocking_but_changes_vector() {
        let circuit = CircuitFamily::iscas89_like("s344").unwrap().generate(5);
        let obs = observability(&circuit);
        let pseudo = circuit.pseudo_inputs();
        let mut controlled: Vec<NetId> = circuit.primary_inputs().to_vec();
        let half = pseudo.len() / 2;
        controlled.extend(&pseudo[..half]);
        let sources: Vec<NetId> = pseudo[half..].to_vec();
        let finder = ControlPatternFinder::new();
        let directed = finder.find(
            &circuit,
            &controlled,
            &sources,
            Directive::LeakageObservability(&obs),
        );
        let undirected = finder.find(&circuit, &controlled, &sources, Directive::FirstAvailable);
        // Both must block a sizeable share of the transition gates.
        assert!(directed.blocking_ratio() > 0.3);
        assert!(undirected.blocking_ratio() > 0.3);
        // The chosen vectors generally differ (the directive matters).
        assert_ne!(directed.assignment, undirected.assignment);
    }

    #[test]
    fn no_transition_sources_means_empty_work() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let obs = observability(&n);
        let controlled = n.combinational_inputs();
        let pattern = ControlPatternFinder::default().find(
            &n,
            &controlled,
            &[],
            Directive::LeakageObservability(&obs),
        );
        assert_eq!(pattern.stats.iterations, 0);
        assert_eq!(pattern.specified_inputs(), 0);
        assert!((pattern.blocking_ratio() - 1.0).abs() < 1e-12);
    }
}
