use scanpower_netlist::{NetId, Netlist, Result};
use scanpower_timing::{DelayModel, Sta};

/// The paper's `AddMUX()` procedure: decide which pseudo-inputs (scan-cell
/// outputs) can take a 2:1 multiplexer without changing the critical-path
/// delay of the circuit.
///
/// The procedure of the paper inserts a multiplexer at every pseudo-input,
/// re-extracts the critical path, and removes the multiplexer again if the
/// delay changed. Re-running a full timing analysis per candidate is
/// unnecessary: inserting a MUX at a timing start point only lengthens paths
/// *through that start point*, so a MUX fits exactly when the start point's
/// slack is at least the MUX insertion delay. [`AddMux::plan`] uses that
/// slack check and the tests verify it against literal re-insertion.
#[derive(Debug, Clone, PartialEq)]
pub struct AddMux {
    sta: Sta,
    epsilon: f64,
}

impl Default for AddMux {
    fn default() -> Self {
        AddMux::new(DelayModel::default())
    }
}

impl AddMux {
    /// Creates the procedure with the given delay model.
    #[must_use]
    pub fn new(model: DelayModel) -> AddMux {
        AddMux {
            sta: Sta::new(model),
            epsilon: 1e-9,
        }
    }

    /// The static timing analyser used for the checks.
    #[must_use]
    pub fn sta(&self) -> &Sta {
        &self.sta
    }

    /// Decides, for every scan cell of `netlist`, whether its output can be
    /// multiplexed.
    ///
    /// # Errors
    ///
    /// Returns an error if the combinational part of the netlist is cyclic.
    pub fn plan(&self, netlist: &Netlist) -> Result<MuxPlan> {
        let report = self.sta.analyze(netlist)?;
        let pseudo_inputs = netlist.pseudo_inputs();
        let mut muxable = Vec::with_capacity(pseudo_inputs.len());
        let mut slacks = Vec::with_capacity(pseudo_inputs.len());
        for &q in &pseudo_inputs {
            let extra = self
                .sta
                .model()
                .mux_insertion_delay(netlist.net(q).fanout());
            let slack = report.slack(q);
            slacks.push(slack);
            muxable.push(slack + self.epsilon >= extra);
        }
        Ok(MuxPlan {
            pseudo_inputs,
            muxable,
            slacks,
            critical_delay: report.critical_delay(),
        })
    }
}

/// Result of [`AddMux::plan`]: which pseudo-inputs receive a multiplexer.
#[derive(Debug, Clone, PartialEq)]
pub struct MuxPlan {
    /// Pseudo-input nets in scan-chain order.
    pub pseudo_inputs: Vec<NetId>,
    /// `muxable[i]` is `true` when `pseudo_inputs[i]` can carry a MUX
    /// without lengthening the critical path.
    pub muxable: Vec<bool>,
    /// Timing slack of every pseudo-input (ps).
    pub slacks: Vec<f64>,
    /// Critical-path delay of the unmodified circuit (ps).
    pub critical_delay: f64,
}

impl MuxPlan {
    /// Number of scan cells whose output gets a MUX.
    #[must_use]
    pub fn muxed_count(&self) -> usize {
        self.muxable.iter().filter(|&&m| m).count()
    }

    /// Fraction of scan cells whose output gets a MUX (0 for a circuit with
    /// no scan cells).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.muxable.is_empty() {
            0.0
        } else {
            self.muxed_count() as f64 / self.muxable.len() as f64
        }
    }

    /// The pseudo-input nets that will be multiplexed.
    #[must_use]
    pub fn muxed_nets(&self) -> Vec<NetId> {
        self.pseudo_inputs
            .iter()
            .zip(&self.muxable)
            .filter(|(_, &m)| m)
            .map(|(&net, _)| net)
            .collect()
    }

    /// The pseudo-input nets that stay directly connected (the transition
    /// sources the control pattern must block).
    #[must_use]
    pub fn unmuxed_nets(&self) -> Vec<NetId> {
        self.pseudo_inputs
            .iter()
            .zip(&self.muxable)
            .filter(|(_, &m)| !m)
            .map(|(&net, _)| net)
            .collect()
    }

    /// Restricts the plan to at most `fraction` of the currently muxable
    /// cells (keeping the ones with the largest slack). Used by the
    /// MUX-coverage ablation bench.
    #[must_use]
    pub fn limited_to_fraction(&self, fraction: f64) -> MuxPlan {
        let mut plan = self.clone();
        let target = ((self.muxed_count() as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
        // Order muxable cells by descending slack and keep the first `target`.
        let mut candidates: Vec<usize> = (0..plan.muxable.len())
            .filter(|&i| plan.muxable[i])
            .collect();
        candidates.sort_by(|&a, &b| plan.slacks[b].total_cmp(&plan.slacks[a]));
        for (rank, index) in candidates.into_iter().enumerate() {
            plan.muxable[index] = rank < target;
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanpower_netlist::{bench, generator::CircuitFamily, GateKind, Netlist};
    use scanpower_sim::Logic;

    #[test]
    fn plan_marks_slack_rich_cells_only() {
        // Build a circuit where one scan cell drives the critical path
        // directly and another drives a short side path.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let q_long = n.ensure_net("q_long");
        let q_short = n.ensure_net("q_short");
        let mut chain = q_long;
        for i in 0..6 {
            chain = n
                .add_gate(GateKind::Nand, &[chain, a], &format!("c{i}"))
                .output;
        }
        let merge = n.add_gate(GateKind::Nand, &[chain, q_short], "merge");
        n.mark_output(merge.output);
        n.try_add_dff_driving(merge.output, q_long).unwrap();
        n.try_add_dff_driving(merge.output, q_short).unwrap();

        let plan = AddMux::default().plan(&n).unwrap();
        assert_eq!(plan.pseudo_inputs.len(), 2);
        assert!(!plan.muxable[0], "critical-path cell must not be muxed");
        assert!(plan.muxable[1], "slack-rich cell must be muxed");
        assert_eq!(plan.muxed_count(), 1);
        assert!((plan.coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn slack_check_matches_literal_insertion() {
        // For every pseudo-input of s27: physically insert the MUX and
        // verify the critical path changes exactly when the plan says the
        // cell is not muxable.
        let original = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let addmux = AddMux::default();
        let plan = addmux.plan(&original).unwrap();
        let before = addmux.sta().analyze(&original).unwrap().critical_delay();
        for (index, &q) in plan.pseudo_inputs.iter().enumerate() {
            let mut modified = original.clone();
            let enable = modified.add_input("scan_enable");
            let constant = modified.add_gate(GateKind::Const0, &[], "se_const");
            let mux_name = format!("{}_mux", modified.net(q).name);
            let mux = modified.add_gate(GateKind::Mux, &[enable, q, constant.output], &mux_name);
            modified.move_loads(q, mux.output, Some(mux.gate));
            let after = addmux.sta().analyze(&modified).unwrap().critical_delay();
            let unchanged = after <= before + 1e-9;
            assert_eq!(
                unchanged, plan.muxable[index],
                "mismatch for scan cell {index}"
            );
        }
    }

    #[test]
    fn most_cells_of_a_generated_circuit_are_muxable() {
        let circuit = CircuitFamily::iscas89_like("s382").unwrap().generate(3);
        let plan = AddMux::default().plan(&circuit).unwrap();
        assert!(plan.coverage() > 0.3, "coverage {}", plan.coverage());
        assert!(plan.critical_delay > 0.0);
        assert_eq!(
            plan.muxed_nets().len() + plan.unmuxed_nets().len(),
            circuit.dff_count()
        );
    }

    #[test]
    fn limited_plan_keeps_requested_fraction() {
        let circuit = CircuitFamily::iscas89_like("s510").unwrap().generate(3);
        let plan = AddMux::default().plan(&circuit).unwrap();
        let half = plan.limited_to_fraction(0.5);
        assert!(half.muxed_count() <= plan.muxed_count());
        assert!(
            (half.muxed_count() as f64 - plan.muxed_count() as f64 * 0.5).abs() <= 1.0,
            "kept {} of {}",
            half.muxed_count(),
            plan.muxed_count()
        );
        let none = plan.limited_to_fraction(0.0);
        assert_eq!(none.muxed_count(), 0);
    }

    #[test]
    fn logic_type_is_reexported_for_consumers() {
        // Smoke check that the value type used by downstream code paths is
        // the simulator's Logic (compile-time only).
        let _ = Logic::X;
    }
}
