//! Round-trip and rejection tests for the canonical wire encoding across
//! every layer: netlist substrate, simulation results, experiment options
//! and rows. The encoding is the foundation of the content-addressed result
//! cache, so the properties pinned here — decode(encode(x)) == x, one byte
//! representation per value, typed rejection of foreign/truncated/stale
//! payloads — are load-bearing for cache correctness, not just I/O hygiene.
//!
//! The offline container has no proptest; randomized cases use the same
//! seeded [`ChaCha8Rng`] harness as `tests/properties.rs`.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use scanpower_suite::atpg::AtpgConfig;
use scanpower_suite::core::experiment::{
    CircuitRow, ExperimentOptions, ResourceLimits, ResultCacheHandle, SchemePower,
};
use scanpower_suite::core::ProposedOptions;
use scanpower_suite::netlist::generator::CircuitFamily;
use scanpower_suite::netlist::{bench, GateKind, Netlist};
use scanpower_suite::sim::scan::{ScanPattern, ShiftConfig, ShiftStats};
use scanpower_suite::sim::Logic;
use scanpower_suite::timing::DelayModel;
use scanpower_suite::wire::{decode_message, encode_message, WireError, WIRE_MAGIC, WIRE_VERSION};

const CASES: usize = 24;

/// A small random full-scan netlist: random combinational pool plus a few
/// flip-flops, so snapshots exercise every arena (nets, gates, dffs, PIs,
/// POs).
fn random_scan_netlist(rng: &mut ChaCha8Rng) -> Netlist {
    let mut netlist = Netlist::new("wire_prop");
    let inputs = 1 + rng.gen_range(0..4);
    let mut pool = Vec::new();
    for i in 0..inputs {
        pool.push(netlist.add_input(&format!("i{i}")));
    }
    let dffs = 1 + rng.gen_range(0..3);
    for d in 0..dffs {
        // The scan-cell outputs join the pool; their D inputs are wired to
        // gate outputs below, once gates exist.
        pool.push(netlist.ensure_net(&format!("q{d}")));
    }
    let gates = 1 + rng.gen_range(0..30);
    let mut gate_outputs = Vec::new();
    for index in 0..gates {
        let kind = match rng.gen_range(0..5u32) {
            0 => GateKind::Nand,
            1 => GateKind::Nor,
            2 => GateKind::Not,
            3 => GateKind::And,
            _ => GateKind::Or,
        };
        let a = pool[rng.gen_range(0..pool.len())];
        let b = pool[rng.gen_range(0..pool.len())];
        let gate_inputs: Vec<_> = if kind == GateKind::Not || a == b {
            vec![a]
        } else {
            vec![a, b]
        };
        let gate = netlist.add_gate(kind, &gate_inputs, &format!("g{index}"));
        pool.push(gate.output);
        gate_outputs.push(gate.output);
    }
    for d in 0..dffs {
        let driver = gate_outputs[d % gate_outputs.len()];
        netlist.add_dff(driver, &format!("q{d}"));
    }
    netlist.mark_output(*pool.last().unwrap());
    netlist
}

#[test]
fn random_generator_netlists_round_trip() {
    for (index, name) in ["s344", "s382", "s444", "s641", "s1196"].iter().enumerate() {
        let netlist = CircuitFamily::iscas89_like(name)
            .unwrap()
            .scaled(0.3)
            .generate(index as u64 + 1);
        let bytes = netlist.to_wire_bytes();
        let decoded = Netlist::from_wire_bytes(&bytes).unwrap();
        assert_eq!(decoded, netlist, "{name}");
        assert!(decoded.validate().is_ok(), "{name}");
        // Canonical: re-encoding the decoded netlist reproduces the bytes.
        assert_eq!(decoded.to_wire_bytes(), bytes, "{name}");
    }
}

#[test]
fn random_scan_netlists_round_trip() {
    for seed in 0..CASES as u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x317e ^ seed);
        let netlist = random_scan_netlist(&mut rng);
        let decoded = Netlist::from_wire_bytes(&netlist.to_wire_bytes()).unwrap();
        assert_eq!(decoded, netlist, "seed {seed}");
    }
}

/// A parsed `.bench` circuit and its binary snapshot are the same netlist:
/// parse → snapshot → load → write `.bench` reproduces the structure.
#[test]
fn bench_parse_vs_snapshot_round_trip() {
    let parsed = bench::parse(bench::S27_BENCH, "s27").unwrap();
    let loaded = Netlist::from_wire_bytes(&parsed.to_wire_bytes()).unwrap();
    assert_eq!(loaded, parsed);
    // The `.bench` writer sees the identical structure in both.
    assert_eq!(bench::to_bench(&loaded), bench::to_bench(&parsed));
    // Reparsing the written text may renumber nets (the writer reorders
    // lines), but the reparse still snapshots and reloads faithfully.
    let reparsed = bench::parse(&bench::to_bench(&loaded), "s27").unwrap();
    assert_eq!(
        Netlist::from_wire_bytes(&reparsed.to_wire_bytes()).unwrap(),
        reparsed
    );
    assert_eq!(reparsed.gate_count(), parsed.gate_count());
    assert_eq!(reparsed.dff_count(), parsed.dff_count());
}

#[test]
fn x_carrying_patterns_and_stats_round_trip() {
    for seed in 0..CASES as u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x57a7 ^ seed);
        let tri = |rng: &mut ChaCha8Rng| match rng.gen_range(0..3u32) {
            0 => Logic::Zero,
            1 => Logic::One,
            _ => Logic::X,
        };
        let pattern = ScanPattern {
            pi: (0..rng.gen_range(0..8)).map(|_| tri(&mut rng)).collect(),
            scan: (0..rng.gen_range(1..8)).map(|_| tri(&mut rng)).collect(),
        };
        assert_eq!(
            decode_message::<ScanPattern>(&encode_message(&pattern)).unwrap(),
            pattern,
            "seed {seed}"
        );

        let config = ShiftConfig {
            shift_pi_values: rng
                .gen_bool(0.5)
                .then(|| (0..4).map(|_| tri(&mut rng)).collect()),
            forced_pseudo: (0..rng.gen_range(0..6))
                .map(|_| rng.gen_bool(0.5).then(|| tri(&mut rng)))
                .collect(),
            count_capture: rng.gen_bool(0.5),
        };
        assert_eq!(
            decode_message::<ShiftConfig>(&encode_message(&config)).unwrap(),
            config,
            "seed {seed}"
        );

        let stats = ShiftStats {
            patterns: rng.gen_range(0..1000),
            shift_cycles: rng.gen_range(0..10_000),
            toggles: (0..rng.gen_range(0..64)).map(|_| rng.gen()).collect(),
            total_toggles: rng.gen(),
        };
        assert_eq!(
            decode_message::<ShiftStats>(&encode_message(&stats)).unwrap(),
            stats,
            "seed {seed}"
        );
    }
}

/// Every [`ExperimentOptions`] knob survives the round trip — except the
/// result-cache handle, which is runtime state and deliberately comes back
/// disabled.
#[test]
fn experiment_options_round_trip_all_knobs() {
    for seed in 0..CASES as u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0b71 ^ seed);
        let options = ExperimentOptions {
            atpg: AtpgConfig {
                random_block_size: rng.gen_range(1..256),
                random_stale_blocks: rng.gen_range(1..8),
                random_max_blocks: rng.gen_range(1..64),
                backtrack_limit: rng.gen_range(0..500),
                target_coverage: rng.gen_range(0.0..1.0),
                seed: rng.gen(),
                threads: rng.gen_range(0..8),
            },
            max_patterns: rng.gen_bool(0.5).then(|| rng.gen_range(0..128)),
            proposed: ProposedOptions {
                leakage_directed: rng.gen_bool(0.5),
                reorder_inputs: rng.gen_bool(0.5),
                ivc_samples: rng.gen_range(0..256),
                delay_model: DelayModel {
                    inverter_delay: rng.gen_range(1.0..50.0),
                    gate_delay: rng.gen_range(1.0..50.0),
                    per_extra_input: rng.gen_range(0.0..10.0),
                    nor_penalty: rng.gen_range(0.0..10.0),
                    mux_delay: rng.gen_range(1.0..50.0),
                    load_slope: rng.gen_range(0.0..10.0),
                },
                mux_fraction: rng.gen_bool(0.5).then(|| rng.gen_range(0.0..1.0)),
                sampled_observability: rng.gen_bool(0.5).then(|| rng.gen_range(1..16)),
                seed: rng.gen(),
                threads: rng.gen_range(0..8),
            },
            threads: rng.gen_range(0..8),
            packed_replay: rng.gen_bool(0.5),
            lint_preflight: rng.gen_bool(0.5),
            limits: ResourceLimits {
                max_gates: rng.gen_bool(0.5).then(|| rng.gen_range(0..100_000)),
                max_replayed_patterns: rng.gen_bool(0.5).then(|| rng.gen_range(0..10_000)),
            },
            retries: rng.gen_range(0..4),
            job_deadline_ms: rng.gen_bool(0.5).then(|| rng.gen_range(0..100_000)),
            result_cache: ResultCacheHandle::disabled(),
        };
        assert_eq!(
            decode_message::<ExperimentOptions>(&encode_message(&options)).unwrap(),
            options,
            "seed {seed}"
        );
    }
}

#[test]
fn circuit_rows_round_trip_byte_identically() {
    let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
    let row = scanpower_suite::core::experiment::CircuitExperiment::new(ExperimentOptions::fast())
        .run(&n);
    let bytes = encode_message(&row);
    let decoded = decode_message::<CircuitRow>(&bytes).unwrap();
    assert_eq!(decoded, row);
    // Byte-stable: the floats come back bit for bit, so re-encoding is the
    // identity on bytes — the property the content-addressed cache needs.
    assert_eq!(encode_message(&decoded), bytes);
    let _: &SchemePower = &decoded.traditional;
}

#[test]
fn decode_rejects_a_wrong_version() {
    let netlist = bench::parse(bench::S27_BENCH, "s27").unwrap();
    let mut bytes = netlist.to_wire_bytes();
    assert_eq!(&bytes[..4], WIRE_MAGIC.as_slice());
    // The version is the little-endian u16 right after the magic.
    let stale = WIRE_VERSION + 1;
    bytes[4..6].copy_from_slice(&stale.to_le_bytes());
    assert_eq!(
        Netlist::from_wire_bytes(&bytes).unwrap_err(),
        WireError::UnsupportedVersion {
            found: stale,
            supported: WIRE_VERSION,
        }
    );
}

#[test]
fn decode_rejects_a_foreign_magic() {
    let mut bytes = encode_message(&42u64);
    bytes[..4].copy_from_slice(b"NOPE");
    assert_eq!(
        decode_message::<u64>(&bytes).unwrap_err(),
        WireError::BadMagic { found: *b"NOPE" }
    );
}

/// Every strict prefix of a valid message is rejected with a typed error —
/// never a panic, never a silently-partial value.
#[test]
fn decode_rejects_every_truncation() {
    let netlist = bench::parse(bench::S27_BENCH, "s27").unwrap();
    let bytes = netlist.to_wire_bytes();
    for len in 0..bytes.len() {
        let error = Netlist::from_wire_bytes(&bytes[..len])
            .expect_err("a truncated snapshot must not decode");
        assert!(
            !matches!(error, WireError::TrailingBytes { .. }),
            "truncation at {len} misreported as trailing bytes"
        );
    }
}

#[test]
fn decode_rejects_trailing_bytes() {
    let mut bytes = encode_message(&7u64);
    bytes.push(0);
    assert_eq!(
        decode_message::<u64>(&bytes).unwrap_err(),
        WireError::TrailingBytes { remaining: 1 }
    );
}

/// Corrupt interior bytes never panic the decoder: every single-byte
/// corruption of a netlist snapshot either still decodes (the byte was
/// name payload, say) or fails with a typed error.
#[test]
fn single_byte_corruptions_never_panic() {
    let netlist = bench::parse(bench::S27_BENCH, "s27").unwrap();
    let bytes = netlist.to_wire_bytes();
    let mut rng = ChaCha8Rng::seed_from_u64(0xc0de);
    for _ in 0..256 {
        let mut corrupt = bytes.clone();
        let at = rng.gen_range(0..corrupt.len());
        corrupt[at] ^= 1 << rng.gen_range(0..8);
        match Netlist::from_wire_bytes(&corrupt) {
            Ok(decoded) => {
                let _ = decoded.validate();
            }
            Err(error) => {
                let _ = error.to_string();
            }
        }
    }
}
