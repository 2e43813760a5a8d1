use scanpower_netlist::{Netlist, Result};
use scanpower_power::reorder::{self, ReorderReport};
use scanpower_power::{InputVectorControl, LeakageEstimator, LeakageLibrary, LeakageObservability};
use scanpower_sim::{BlockDriver, Evaluator, Logic};
use scanpower_timing::DelayModel;

use crate::addmux::{AddMux, MuxPlan};
use crate::justify::Directive;
use crate::pattern::{ControlPattern, ControlPatternFinder};
use crate::structure::ScanStructure;

/// Largest [`ProposedOptions::sampled_observability`] block count the wire
/// decoder accepts (4096 blocks of 64 samples, the same bound as
/// `scanpower_atpg::MAX_RANDOM_BLOCK_SIZE`).
pub const MAX_SAMPLE_BLOCKS: usize = 1 << 12;

/// Options of the proposed flow.
#[derive(Debug, Clone, PartialEq)]
pub struct ProposedOptions {
    /// Whether justification decisions are directed by leakage observability
    /// (the paper's method) or undirected (ablation).
    pub leakage_directed: bool,
    /// Whether the final gate input-reordering step is applied.
    pub reorder_inputs: bool,
    /// Random-sample budget for the don't-care minimum-leakage fill.
    pub ivc_samples: usize,
    /// Delay model used by `AddMUX()`.
    pub delay_model: DelayModel,
    /// Optionally restrict the MUX plan to a fraction of the muxable cells
    /// (MUX-coverage ablation). `None` keeps every muxable cell. The wire
    /// decoder accepts finite values in `[0, 1]`.
    pub mux_fraction: Option<f64>,
    /// When `Some(blocks)`, the leakage-observability forward pass estimates
    /// signal probabilities by bit-parallel Monte-Carlo over the 64-wide
    /// simulation kernel (`blocks` × 64 random states) instead of the
    /// analytic independence approximation — exact under reconvergent
    /// fanout, at the cost of `blocks` simulation passes. The wire decoder
    /// accepts `1..=`[`MAX_SAMPLE_BLOCKS`].
    pub sampled_observability: Option<usize>,
    /// Seed for the randomised steps (don't-care fill, sampled
    /// observability).
    pub seed: u64,
    /// Worker threads for the flow's 64-wide consumers (the IVC don't-care
    /// fill and the sampled observability forward pass), resolved by the
    /// workspace-wide
    /// [`resolve_worker_threads`](scanpower_sim::parallel::resolve_worker_threads)
    /// policy: `0` = one per available hardware thread, `1` = the
    /// sequential fallback. The flow's result is bit-identical whatever the
    /// count; `run_table1` budgets this knob when it shards circuits across
    /// an outer driver.
    pub threads: usize,
}

impl Default for ProposedOptions {
    fn default() -> Self {
        ProposedOptions {
            leakage_directed: true,
            reorder_inputs: true,
            ivc_samples: 128,
            delay_model: DelayModel::default(),
            mux_fraction: None,
            sampled_observability: None,
            seed: 0x0da7_e2005,
            threads: 0,
        }
    }
}

/// The complete proposed method of the paper.
///
/// Steps (Section 4): `AddMUX()`, leakage-observability computation,
/// `FindControlledInputPattern()`, simulation-based minimum-leakage filling
/// of the remaining don't-care controlled inputs, physical construction of
/// the scan structure, and leakage-driven gate input reordering.
#[derive(Debug, Clone, PartialEq)]
pub struct ProposedMethod {
    options: ProposedOptions,
    library: LeakageLibrary,
}

impl Default for ProposedMethod {
    fn default() -> Self {
        ProposedMethod::new(ProposedOptions::default())
    }
}

impl ProposedMethod {
    /// Creates the flow with the given options and the default 45 nm
    /// leakage library.
    #[must_use]
    pub fn new(options: ProposedOptions) -> ProposedMethod {
        ProposedMethod {
            options,
            library: LeakageLibrary::cmos45(),
        }
    }

    /// Overrides the leakage library.
    #[must_use]
    pub fn with_library(mut self, library: LeakageLibrary) -> ProposedMethod {
        self.library = library;
        self
    }

    /// The options of this flow.
    #[must_use]
    pub fn options(&self) -> &ProposedOptions {
        &self.options
    }

    /// Applies the proposed method to `netlist`.
    ///
    /// # Errors
    ///
    /// Returns an error if the combinational part of the netlist is cyclic.
    pub fn apply(&self, netlist: &Netlist) -> Result<ProposedResult> {
        // Step 1: AddMUX() — which scan cells can be multiplexed.
        let mut plan = AddMux::new(self.options.delay_model.clone()).plan(netlist)?;
        if let Some(fraction) = self.options.mux_fraction {
            plan = plan.limited_to_fraction(fraction);
        }

        // Step 2: leakage observability of every line, which only the
        // leakage-directed search reads. The sampled variant runs the
        // forward pass on the 64-wide packed kernel.
        let observability =
            self.options
                .leakage_directed
                .then(|| match self.options.sampled_observability {
                    Some(blocks) => LeakageObservability::compute_sampled_with(
                        netlist,
                        &self.library,
                        blocks,
                        self.options.seed,
                        &BlockDriver::new(self.options.threads),
                    ),
                    None => LeakageObservability::compute(netlist, &self.library),
                });

        // Step 3: FindControlledInputPattern().
        let directive = match &observability {
            Some(observability) => Directive::LeakageObservability(observability),
            None => Directive::FirstAvailable,
        };
        let mut controlled = netlist.primary_inputs().to_vec();
        controlled.extend(plan.muxed_nets());
        let sources = plan.unmuxed_nets();
        let pattern = ControlPatternFinder::new().find(netlist, &controlled, &sources, directive);

        // Step 4: fill the remaining don't-care controlled inputs with a
        // simulation-based minimum-leakage search. The non-multiplexed
        // pseudo-inputs stay unknown (their value ripples during shift); the
        // leakage estimator averages over them.
        let estimator = LeakageEstimator::new(netlist, &self.library);
        let evaluator = Evaluator::new(netlist);
        let input_order = evaluator.inputs().to_vec();
        let controlled_positions: Vec<usize> = input_order
            .iter()
            .enumerate()
            .filter(|(_, net)| controlled.contains(net))
            .map(|(i, _)| i)
            .collect();
        let ivc = InputVectorControl::with_budget(self.options.ivc_samples, self.options.seed)
            .with_threads(self.options.threads);
        let filled = ivc.search_subset(
            netlist,
            &estimator,
            &pattern.assignment,
            &controlled_positions,
        );

        // Final scan-mode values of the original combinational inputs.
        let scan_mode_inputs = filled.pattern.clone();
        let scan_mode_values = evaluator.evaluate(netlist, &scan_mode_inputs);
        let scan_mode_leakage_na = estimator.circuit_leakage(netlist, &scan_mode_values);

        // Step 5: build the physical structure with the chosen constants.
        let pi_count = netlist.primary_inputs().len();
        let constants: Vec<Option<Logic>> = (0..netlist.dff_count())
            .map(|cell| {
                if plan.muxable[cell] {
                    Some(match scan_mode_inputs[pi_count + cell] {
                        Logic::X => Logic::Zero,
                        known => known,
                    })
                } else {
                    None
                }
            })
            .collect();
        let mut structure = ScanStructure::build(netlist, &plan, &constants);

        // Step 6: leakage-driven gate input reordering in the scan-mode
        // state of the *modified* netlist.
        let reorder_report = if self.options.reorder_inputs {
            let modified_evaluator = Evaluator::new(structure.netlist());
            let mut modified_inputs: Vec<Logic> =
                Vec::with_capacity(modified_evaluator.inputs().len());
            modified_inputs.extend_from_slice(&scan_mode_inputs[..pi_count]);
            modified_inputs.push(Logic::One); // Shift Enable asserted.
            modified_inputs.extend_from_slice(&scan_mode_inputs[pi_count..]);
            let modified_values =
                modified_evaluator.evaluate(structure.netlist(), &modified_inputs);
            let modified_estimator = LeakageEstimator::new(structure.netlist(), &self.library);
            let _ = &modified_estimator; // estimator built for parity with reports
            Some(reorder::optimize(
                structure.netlist_mut(),
                &self.library,
                &modified_values,
            ))
        } else {
            None
        };

        let scan_mode_pi = scan_mode_inputs[..pi_count].to_vec();
        Ok(ProposedResult {
            structure,
            plan,
            pattern,
            scan_mode_pi,
            scan_mode_inputs,
            mux_constants: constants,
            reorder: reorder_report,
            scan_mode_leakage_na,
        })
    }
}

/// Everything produced by one application of the proposed method.
#[derive(Debug, Clone, PartialEq)]
pub struct ProposedResult {
    /// The modified scan structure (original logic + MUXes).
    pub structure: ScanStructure,
    /// The MUX plan (which cells are multiplexed and why).
    pub plan: MuxPlan,
    /// The partially-specified controlled-input pattern found by the
    /// C-algorithm search (before don't-care filling).
    pub pattern: ControlPattern,
    /// Final primary-input values held during scan mode.
    pub scan_mode_pi: Vec<Logic>,
    /// Final values of all combinational inputs during scan mode (original
    /// input order; non-multiplexed scan cells remain unknown).
    pub scan_mode_inputs: Vec<Logic>,
    /// Constant multiplexed onto each scan cell (`None` for unmuxed cells).
    pub mux_constants: Vec<Option<Logic>>,
    /// Report of the gate input-reordering step, when enabled.
    pub reorder: Option<ReorderReport>,
    /// Estimated leakage current of the combinational part in scan mode
    /// (nA), before reordering.
    pub scan_mode_leakage_na: f64,
}

impl ProposedResult {
    /// Fraction of scan cells that received a MUX.
    #[must_use]
    pub fn mux_coverage(&self) -> f64 {
        self.plan.coverage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanpower_netlist::bench;
    use scanpower_netlist::generator::CircuitFamily;
    use scanpower_timing::Sta;

    #[test]
    fn full_flow_runs_on_s27() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let result = ProposedMethod::default().apply(&n).unwrap();
        assert_eq!(result.mux_constants.len(), n.dff_count());
        assert!(result.scan_mode_pi.iter().all(|v| v.is_known()));
        assert!(result.scan_mode_leakage_na > 0.0);
        assert!(result.structure.netlist().validate().is_ok());
        // The normal-mode critical path is untouched.
        let sta = Sta::default();
        let before = sta.analyze(&n).unwrap().critical_delay();
        let after = sta
            .analyze(result.structure.netlist())
            .unwrap()
            .critical_delay();
        assert!(after <= before + 1e-9);
    }

    #[test]
    fn muxed_cells_get_constants_and_unmuxed_do_not() {
        let circuit = CircuitFamily::iscas89_like("s382").unwrap().generate(4);
        let result = ProposedMethod::default().apply(&circuit).unwrap();
        for (cell, constant) in result.mux_constants.iter().enumerate() {
            assert_eq!(
                constant.is_some(),
                result.plan.muxable[cell],
                "cell {cell} constant/plan mismatch"
            );
        }
        assert!(result.mux_coverage() > 0.0);
    }

    #[test]
    fn options_control_reordering_and_direction() {
        let circuit = CircuitFamily::iscas89_like("s344").unwrap().generate(9);
        let with_everything = ProposedMethod::default().apply(&circuit).unwrap();
        assert!(with_everything.reorder.is_some());

        let options = ProposedOptions {
            reorder_inputs: false,
            leakage_directed: false,
            ..ProposedOptions::default()
        };
        let stripped = ProposedMethod::new(options).apply(&circuit).unwrap();
        assert!(stripped.reorder.is_none());
    }

    #[test]
    fn sampled_observability_runs_the_full_flow() {
        let circuit = CircuitFamily::iscas89_like("s344").unwrap().generate(6);
        let options = ProposedOptions {
            sampled_observability: Some(8),
            ..ProposedOptions::default()
        };
        let result = ProposedMethod::new(options).apply(&circuit).unwrap();
        assert!(result.structure.netlist().validate().is_ok());
        assert!(result.scan_mode_leakage_na > 0.0);
    }

    /// The flow's 64-wide consumers are thread-count invariant, so the
    /// whole `ProposedResult` must be identical whatever the `threads`
    /// knob — this is what lets `run_table1` budget it freely.
    #[test]
    fn flow_is_identical_across_thread_counts() {
        let circuit = CircuitFamily::iscas89_like("s344").unwrap().generate(3);
        let base = ProposedOptions {
            sampled_observability: Some(4),
            ..ProposedOptions::default()
        };
        let sequential = ProposedMethod::new(ProposedOptions {
            threads: 1,
            ..base.clone()
        })
        .apply(&circuit)
        .unwrap();
        for threads in [0, 2, 3] {
            let parallel = ProposedMethod::new(ProposedOptions {
                threads,
                ..base.clone()
            })
            .apply(&circuit)
            .unwrap();
            assert_eq!(parallel, sequential, "threads {threads}");
        }
    }

    #[test]
    fn mux_fraction_limits_coverage() {
        let circuit = CircuitFamily::iscas89_like("s510").unwrap().generate(2);
        let full = ProposedMethod::default().apply(&circuit).unwrap();
        let options = ProposedOptions {
            mux_fraction: Some(0.25),
            ..ProposedOptions::default()
        };
        let quarter = ProposedMethod::new(options).apply(&circuit).unwrap();
        assert!(quarter.structure.muxed_count() <= full.structure.muxed_count());
    }
}
