//! Suite-level agreement of the packed 64-pattern scan-shift replay and the
//! multi-circuit Table I sharding with the scalar sequential path.
//!
//! The acceptance bar of the packed replay is **bit-identity**: every
//! `ShiftStats` counter is an integer and the static-power average is
//! accumulated in the exact scalar order, so the tests assert plain
//! equality — on real ATPG pattern sets, on ternary (X-carrying) pattern
//! sets with partial final blocks, under forced pseudo-inputs, PI control
//! values and `count_capture`, and for the whole `run_table1` report across
//! thread counts {1, 2, 3, 8, auto}. The reference replay paths
//! (`ReplayReference`) are pinned the same way against the production
//! replay.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use scanpower_suite::atpg::{AtpgConfig, AtpgFlow};
use scanpower_suite::core::baseline::{traditional_shift_config, InputControlBaseline};
use scanpower_suite::core::experiment::{
    run_table1, CircuitExperiment, CircuitRow, ExperimentOptions, ReplayReference,
};
use scanpower_suite::core::ProposedMethod;
use scanpower_suite::netlist::generator::CircuitFamily;
use scanpower_suite::netlist::Netlist;
use scanpower_suite::sim::scan::{ScanPattern, ScanShiftSim, ShiftConfig};
use scanpower_suite::sim::{Logic, PackedScanShiftSim};

fn generated_circuit() -> Netlist {
    CircuitFamily::iscas89_like("s344")
        .unwrap()
        .scaled(0.5)
        .generate(5)
}

fn ternary_patterns(netlist: &Netlist, count: usize, seed: u64) -> Vec<ScanPattern> {
    let pi = netlist.primary_inputs().len();
    let ff = netlist.dff_count();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut draw = |width: usize| -> Vec<Logic> {
                (0..width)
                    .map(|_| {
                        if rng.gen_bool(0.2) {
                            Logic::X
                        } else {
                            Logic::from_bool(rng.gen_bool(0.5))
                        }
                    })
                    .collect()
            };
            ScanPattern {
                pi: draw(pi),
                scan: draw(ff),
            }
        })
        .collect()
}

/// The two small Table I circuits the table-level cross-checks run, at
/// scale 0.3 and netlist seed 2.
fn cross_check_specs() -> Vec<CircuitFamily> {
    vec![
        CircuitFamily::iscas89_like("s344").unwrap(),
        CircuitFamily::iscas89_like("s382").unwrap(),
    ]
}

/// One row per [`cross_check_specs`] circuit, each replayed on `reference`
/// through `CircuitExperiment::try_run`.
fn reference_rows(reference: ReplayReference) -> Vec<CircuitRow> {
    let experiment = CircuitExperiment::new(ExperimentOptions::fast()).with_reference(reference);
    cross_check_specs()
        .iter()
        .map(|spec| experiment.try_run(&spec.scaled(0.3).generate(2)).unwrap())
        .collect()
}

/// The production replay's per-scheme result next to `reference`'s, on the
/// traditional structure of `circuit`.
fn assert_scheme_agreement(
    circuit: &Netlist,
    patterns: &[ScanPattern],
    reference: ReplayReference,
) {
    let config = traditional_shift_config(circuit);
    let production = CircuitExperiment::new(ExperimentOptions::fast());
    let cross_check = production.clone().with_reference(reference);
    let (production_power, production_stats) = production
        .try_evaluate_scheme_stats(circuit, patterns, &config)
        .unwrap();
    let (cross_power, cross_stats) = cross_check
        .try_evaluate_scheme_stats(circuit, patterns, &config)
        .unwrap();
    assert_eq!(cross_stats, production_stats, "{reference:?}");
    assert_eq!(
        cross_power.static_uw.to_bits(),
        production_power.static_uw.to_bits(),
        "{reference:?} must match the production replay bit for bit"
    );
    assert_eq!(cross_power, production_power, "{reference:?}");
}

fn assert_replay_agreement(netlist: &Netlist, patterns: &[ScanPattern], config: &ShiftConfig) {
    let scalar = ScanShiftSim::new(netlist).run(netlist, patterns, config);
    let packed = PackedScanShiftSim::new(netlist).run(netlist, patterns, config);
    assert_eq!(packed, scalar);
}

/// Real ATPG patterns through all three Table I structures: the packed
/// replay reproduces the scalar `ShiftStats` exactly, adapted proposed
/// structure included.
#[test]
fn packed_replay_matches_scalar_on_all_three_structures() {
    let circuit = generated_circuit();
    let test_set = AtpgFlow::new(AtpgConfig::fast()).run(&circuit);
    let mut patterns = test_set.to_scan_patterns(&circuit);
    patterns.truncate(70); // full 64-lane block + partial tail when possible
    assert!(!patterns.is_empty());

    // Traditional scan.
    assert_replay_agreement(&circuit, &patterns, &traditional_shift_config(&circuit));

    // Input control [8].
    let baseline = InputControlBaseline::new();
    let plan = baseline.plan(&circuit);
    assert_replay_agreement(&circuit, &patterns, &baseline.shift_config(&circuit, &plan));

    // Proposed structure (modified netlist, forced pseudo-inputs, PI
    // control values).
    let proposed = ProposedMethod::default().apply(&circuit).unwrap();
    let adapted = proposed.structure.adapt_patterns(&patterns);
    let config = proposed.structure.shift_config(&proposed.scan_mode_pi);
    assert_replay_agreement(proposed.structure.netlist(), &adapted, &config);
}

/// Ternary patterns (X rippling through the chain), partial final block,
/// forced pseudo-inputs, PI control values and `count_capture` on/off.
#[test]
fn packed_replay_matches_scalar_with_x_and_every_config_knob() {
    let circuit = generated_circuit();
    let ff = circuit.dff_count();
    let pi = circuit.primary_inputs().len();
    let patterns = ternary_patterns(&circuit, 130, 0xacc);
    assert_eq!(patterns.len() % 64, 2, "partial final block");

    for count_capture in [false, true] {
        // Traditional, with and without capture counting.
        let mut config = ShiftConfig::traditional(ff);
        config.count_capture = count_capture;
        assert_replay_agreement(&circuit, &patterns, &config);

        // PI control values plus a mix of forced pseudo-inputs.
        let mut config = ShiftConfig::with_pi_control(
            ff,
            (0..pi).map(|i| Logic::from_bool(i % 3 == 0)).collect(),
        );
        for (cell, forced) in config.forced_pseudo.iter_mut().enumerate() {
            *forced = match cell % 3 {
                0 => Some(Logic::Zero),
                1 => Some(Logic::One),
                _ => None,
            };
        }
        config.count_capture = count_capture;
        assert_replay_agreement(&circuit, &patterns, &config);
    }
}

/// The packed experiment path (replay + lane-aware leakage observer) and
/// the scalar path produce bit-identical `SchemePower` and `ShiftStats`.
#[test]
fn experiment_scheme_evaluation_is_bit_identical_between_replays() {
    let circuit = generated_circuit();
    let patterns = ternary_patterns(&circuit, 66, 0x5eed);
    let packed = CircuitExperiment::new(ExperimentOptions {
        packed_replay: true,
        ..ExperimentOptions::fast()
    });
    let scalar = CircuitExperiment::new(ExperimentOptions {
        packed_replay: false,
        ..ExperimentOptions::fast()
    });
    let config = traditional_shift_config(&circuit);
    let (packed_power, packed_stats) = packed
        .try_evaluate_scheme_stats(&circuit, &patterns, &config)
        .unwrap();
    let (scalar_power, scalar_stats) = scalar
        .try_evaluate_scheme_stats(&circuit, &patterns, &config)
        .unwrap();
    assert_eq!(packed_stats, scalar_stats);
    assert_eq!(packed_power, scalar_power);
    assert_eq!(
        packed_power.static_uw.to_bits(),
        scalar_power.static_uw.to_bits(),
        "static average must match bit for bit"
    );
}

/// The scalar-lookup reference (`ReplayReference::ScalarLookup`):
/// replaying with the per-gate-per-lane subset-enumeration lookup must
/// reproduce the production lane-parallel ternary-table gather bit for bit
/// — `SchemePower`, `ShiftStats` and every row of the multi-circuit report.
/// CI runs this test by name so the fallback path cannot rot.
#[test]
fn scalar_leakage_lookup_cross_check_is_bit_identical() {
    let circuit = generated_circuit();
    let patterns = ternary_patterns(&circuit, 70, 0xcafe);
    assert_scheme_agreement(&circuit, &patterns, ReplayReference::ScalarLookup);

    let production = run_table1(
        &cross_check_specs(),
        &ExperimentOptions::fast(),
        Some(0.3),
        2,
    );
    assert_eq!(
        reference_rows(ReplayReference::ScalarLookup),
        production.rows,
        "rows must not depend on the lookup mode"
    );
}

/// The full-sweep propagation reference (`ReplayReference::FullSweep`):
/// replaying every shift cycle as a full topological pass must reproduce
/// the production event-driven replay bit for bit — `SchemePower`,
/// `ShiftStats` and every row of the multi-circuit report. CI runs this
/// test by name so the full-sweep path cannot rot.
#[test]
fn full_sweep_propagation_cross_check_is_bit_identical() {
    let circuit = generated_circuit();
    let patterns = ternary_patterns(&circuit, 70, 0xeef);
    assert_scheme_agreement(&circuit, &patterns, ReplayReference::FullSweep);

    let production = run_table1(
        &cross_check_specs(),
        &ExperimentOptions::fast(),
        Some(0.3),
        2,
    );
    assert_eq!(
        reference_rows(ReplayReference::FullSweep),
        production.rows,
        "rows must not depend on the propagation mode"
    );
}

/// The full multi-circuit harness: one circuit per driver job, merged in
/// circuit order — bit-identical for thread counts {1, 2, 3, 8, auto}, and
/// identical between the packed and the scalar replay.
#[test]
fn run_table1_is_bit_identical_across_thread_counts_and_replays() {
    let specs = vec![
        CircuitFamily::iscas89_like("s344").unwrap(),
        CircuitFamily::iscas89_like("s382").unwrap(),
        CircuitFamily::iscas89_like("s444").unwrap(),
        CircuitFamily::iscas89_like("s510").unwrap(),
    ];
    let reference = run_table1(
        &specs,
        &ExperimentOptions {
            threads: 1,
            ..ExperimentOptions::fast()
        },
        Some(0.3),
        2,
    );
    assert_eq!(reference.rows.len(), specs.len());
    for (row, spec) in reference.rows.iter().zip(&specs) {
        assert_eq!(row.circuit, spec.name(), "rows merged in circuit order");
    }

    // Thread counts, packed replay.
    for threads in [2, 3, 8, 0] {
        let parallel = run_table1(
            &specs,
            &ExperimentOptions {
                threads,
                ..ExperimentOptions::fast()
            },
            Some(0.3),
            2,
        );
        assert_eq!(parallel, reference, "threads {threads}");
    }

    // Scalar replay, sequential and sharded.
    for threads in [1, 3] {
        let scalar = run_table1(
            &specs,
            &ExperimentOptions {
                threads,
                packed_replay: false,
                ..ExperimentOptions::fast()
            },
            Some(0.3),
            2,
        );
        assert_eq!(scalar, reference, "scalar replay, threads {threads}");
    }
}
