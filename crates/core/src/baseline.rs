//! Comparison structures used in Table I of the paper.
//!
//! * **Traditional scan** — the unmodified full-scan circuit: during shift
//!   the rippling scan-cell outputs drive the combinational logic directly
//!   and the primary inputs simply hold the pattern values.
//! * **Input control** (Huang & Lee \[8\]) — the primary inputs (and only
//!   the primary inputs) are driven with a dedicated control pattern during
//!   shift, chosen by a C-algorithm so that as many scan-chain transitions
//!   as possible are blocked inside the combinational logic. The technique
//!   has no leakage awareness, so candidate selection is undirected.

use scanpower_netlist::Netlist;
use scanpower_sim::scan::ShiftConfig;
use scanpower_sim::Logic;

use crate::justify::Directive;
use crate::pattern::{ControlPattern, ControlPatternFinder};

/// Shift configuration of the traditional scan structure.
#[must_use]
pub fn traditional_shift_config(netlist: &Netlist) -> ShiftConfig {
    ShiftConfig::traditional(netlist.dff_count())
}

/// The input-control technique of Huang & Lee \[8\].
#[derive(Debug, Clone, PartialEq)]
pub struct InputControlBaseline {
    finder: ControlPatternFinder,
}

impl Default for InputControlBaseline {
    fn default() -> Self {
        InputControlBaseline::new()
    }
}

impl InputControlBaseline {
    /// Creates the baseline (undirected C-algorithm, primary inputs only).
    #[must_use]
    pub fn new() -> InputControlBaseline {
        InputControlBaseline {
            finder: ControlPatternFinder::new(),
        }
    }

    /// Finds the primary-input control pattern for `netlist`.
    ///
    /// Every pseudo-input is a transition source (nothing is multiplexed in
    /// this structure) and only the primary inputs may be assigned.
    #[must_use]
    pub fn plan(&self, netlist: &Netlist) -> InputControlResult {
        let controlled = netlist.primary_inputs().to_vec();
        let sources = netlist.pseudo_inputs();
        let pattern = self
            .finder
            .find(netlist, &controlled, &sources, Directive::FirstAvailable);
        let pi_count = netlist.primary_inputs().len();
        let control_pi: Vec<Logic> = pattern.assignment[..pi_count]
            .iter()
            .map(|&v| if v.is_known() { v } else { Logic::Zero })
            .collect();
        InputControlResult {
            control_pi,
            pattern,
        }
    }

    /// Builds the shift configuration applying the found control pattern.
    #[must_use]
    pub fn shift_config(&self, netlist: &Netlist, result: &InputControlResult) -> ShiftConfig {
        ShiftConfig::with_pi_control(netlist.dff_count(), result.control_pi.clone())
    }
}

/// Result of the input-control planning step.
#[derive(Debug, Clone, PartialEq)]
pub struct InputControlResult {
    /// The fully-specified primary-input values held during shift
    /// (don't-cares filled with 0).
    pub control_pi: Vec<Logic>,
    /// The underlying partially-specified pattern and its statistics.
    pub pattern: ControlPattern,
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanpower_netlist::bench;
    use scanpower_netlist::generator::CircuitFamily;
    use scanpower_sim::patterns::random_bool_patterns;
    use scanpower_sim::scan::{ScanPattern, ScanShiftSim};

    #[test]
    fn traditional_config_has_no_forcing() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let config = traditional_shift_config(&n);
        assert!(config.shift_pi_values.is_none());
        assert!(config.forced_pseudo.iter().all(Option::is_none));
    }

    #[test]
    fn input_control_produces_full_pi_vector() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let baseline = InputControlBaseline::new();
        let result = baseline.plan(&n);
        assert_eq!(result.control_pi.len(), n.primary_inputs().len());
        assert!(result.control_pi.iter().all(|v| v.is_known()));
        let config = baseline.shift_config(&n, &result);
        assert_eq!(config.shift_pi_values.unwrap(), result.control_pi);
    }

    #[test]
    fn input_control_reduces_shift_activity_on_a_generated_circuit() {
        // s641 has 35 primary inputs, so the input-control technique has
        // real leverage; on 3-PI circuits like s444 the effect is noise.
        let circuit = CircuitFamily::iscas89_like("s641").unwrap().generate(2);
        let baseline = InputControlBaseline::new();
        let result = baseline.plan(&circuit);
        let pi = circuit.primary_inputs().len();
        let ff = circuit.dff_count();
        let tests: Vec<ScanPattern> = random_bool_patterns(pi + ff, 10, 5)
            .into_iter()
            .map(|bits| ScanPattern::from_bools(&bits[..pi], &bits[pi..]))
            .collect();
        let sim = ScanShiftSim::new(&circuit);
        let traditional = sim.run(&circuit, &tests, &traditional_shift_config(&circuit));
        let controlled = sim.run(&circuit, &tests, &baseline.shift_config(&circuit, &result));
        assert!(
            controlled.total_toggles <= traditional.total_toggles,
            "input control must not increase activity"
        );
    }
}
