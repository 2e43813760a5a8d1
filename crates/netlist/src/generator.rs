//! Deterministic synthetic circuits with ISCAS89-like size statistics.
//!
//! The original ISCAS89 `.bench` files are not redistributable inside this
//! offline reproduction, so the experiments are driven by synthetic full-scan
//! circuits generated with the published primary-input / primary-output /
//! flip-flop / gate counts of each benchmark (see `DESIGN.md`, §4).
//! Circuits are generated directly in the paper's {NAND, NOR, INV} target
//! library and are fully deterministic for a given `(name, seed)` pair.
//!
//! # Examples
//!
//! ```
//! use scanpower_netlist::generator::CircuitFamily;
//!
//! let spec = CircuitFamily::iscas89_like("s344")?;
//! let circuit = spec.generate(1);
//! assert_eq!(circuit.primary_inputs().len(), 9);
//! assert_eq!(circuit.dff_count(), 15);
//! # Ok::<(), scanpower_netlist::NetlistError>(())
//! ```

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use scanpower_wire::{Wire, WireError, WireReader, WireWriter};

use crate::error::{NetlistError, Result};
use crate::gate::GateKind;
use crate::netlist::{NetId, Netlist};

/// Published size statistics of the ISCAS89 circuits used in the paper's
/// Table I (plus `s27` for tests): `(name, inputs, outputs, flip-flops,
/// gates)`.
pub const ISCAS89_TABLE: &[(&str, usize, usize, usize, usize)] = &[
    ("s27", 4, 1, 3, 10),
    ("s344", 9, 11, 15, 160),
    ("s382", 3, 6, 21, 158),
    ("s444", 3, 6, 21, 181),
    ("s510", 19, 7, 6, 211),
    ("s641", 35, 24, 19, 379),
    ("s713", 35, 23, 19, 393),
    ("s1196", 14, 14, 18, 529),
    ("s1238", 14, 14, 18, 508),
    ("s1423", 17, 5, 74, 657),
    ("s1494", 8, 19, 6, 647),
    ("s5378", 35, 49, 179, 2779),
    ("s9234", 36, 39, 211, 5597),
];

/// The twelve circuit names that appear in Table I of the paper, in the
/// order of the table.
pub const TABLE1_CIRCUITS: &[&str] = &[
    "s344", "s382", "s444", "s510", "s641", "s713", "s1196", "s1238", "s1423", "s1494", "s5378",
    "s9234",
];

/// Size specification of a synthetic circuit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CircuitFamily {
    name: String,
    inputs: usize,
    outputs: usize,
    flip_flops: usize,
    gates: usize,
}

impl CircuitFamily {
    /// Builds a custom specification.
    ///
    /// # Panics
    ///
    /// Panics if `inputs + flip_flops == 0`, if `outputs == 0`, or if
    /// `gates == 0` — such circuits cannot be generated.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        inputs: usize,
        outputs: usize,
        flip_flops: usize,
        gates: usize,
    ) -> CircuitFamily {
        assert!(inputs + flip_flops > 0, "circuit needs at least one input");
        assert!(outputs > 0, "circuit needs at least one output");
        assert!(gates > 0, "circuit needs at least one gate");
        CircuitFamily {
            name: name.into(),
            inputs,
            outputs,
            flip_flops,
            gates,
        }
    }

    /// Returns the specification matching a published ISCAS89 circuit name
    /// (for example `"s344"`).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownCircuit`] when the name is not in
    /// [`ISCAS89_TABLE`].
    pub fn iscas89_like(name: &str) -> Result<CircuitFamily> {
        ISCAS89_TABLE
            .iter()
            .find(|(n, ..)| *n == name)
            .map(|&(n, pi, po, ff, gates)| CircuitFamily::new(n, pi, po, ff, gates))
            .ok_or_else(|| NetlistError::UnknownCircuit(name.to_owned()))
    }

    /// Specifications for all Table I circuits, in table order.
    #[must_use]
    pub fn table1() -> Vec<CircuitFamily> {
        TABLE1_CIRCUITS
            .iter()
            .map(|name| CircuitFamily::iscas89_like(name).expect("table is self-consistent"))
            .collect()
    }

    /// Circuit name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of primary outputs.
    #[must_use]
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// Number of flip-flops (scan cells).
    #[must_use]
    pub fn flip_flops(&self) -> usize {
        self.flip_flops
    }

    /// Number of combinational gates.
    #[must_use]
    pub fn gates(&self) -> usize {
        self.gates
    }

    /// Returns a copy of the specification with the gate and flip-flop
    /// counts scaled by `factor` (at least one gate and, when the original
    /// has any, one flip-flop are kept). Used by fast test profiles.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> CircuitFamily {
        let scale = |value: usize| -> usize { ((value as f64) * factor).round().max(1.0) as usize };
        CircuitFamily {
            name: self.name.clone(),
            inputs: self.inputs,
            outputs: self.outputs,
            flip_flops: if self.flip_flops == 0 {
                0
            } else {
                scale(self.flip_flops)
            },
            gates: scale(self.gates),
        }
    }

    /// Generates the circuit deterministically from `seed`.
    ///
    /// The result is a full-scan sequential circuit in the {NAND, NOR, INV}
    /// library: every flip-flop D input and primary output is driven by the
    /// combinational part, and every primary input and flip-flop Q output
    /// feeds at least one gate (for circuits with at least as many gates as
    /// inputs).
    #[must_use]
    pub fn generate(&self, seed: u64) -> Netlist {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ hash_name(&self.name));
        let mut netlist = Netlist::new(self.name.clone());

        let mut pool: Vec<NetId> = Vec::new();
        for i in 0..self.inputs {
            pool.push(netlist.add_input(&format!("pi{i}")));
        }
        // Reserve flip-flop Q nets; their D drivers are connected at the end.
        let q_nets: Vec<NetId> = (0..self.flip_flops)
            .map(|i| netlist.ensure_net(&format!("ff{i}_q")))
            .collect();
        pool.extend(&q_nets);

        // Signals that nothing reads yet; the generator preferentially
        // consumes them so the circuit has no dangling inputs.
        let mut unused: Vec<NetId> = pool.clone();
        let mut gate_outputs: Vec<NetId> = Vec::with_capacity(self.gates);

        for i in 0..self.gates {
            let kind = pick_kind(&mut rng);
            let fanin = pick_fanin(&mut rng, kind);
            let inputs = pick_inputs(&mut rng, &pool, &mut unused, fanin);
            let output = netlist.add_gate(kind, &inputs, &format!("g{i}")).output;
            pool.push(output);
            unused.push(output);
            gate_outputs.push(output);
        }

        // Drive flip-flop D pins and primary outputs, preferring nets that
        // nothing reads yet so that the circuit has few dangling gates.
        let mut sinks: Vec<NetId> = Vec::new();
        unused.retain(|net| netlist.driver_gate(*net).is_some());
        unused.shuffle(&mut rng);
        sinks.extend(unused.iter().copied());
        while sinks.len() < self.flip_flops + self.outputs {
            sinks.push(*gate_outputs.choose(&mut rng).expect("at least one gate"));
        }

        for (i, &q) in q_nets.iter().enumerate() {
            let d = sinks[i];
            netlist
                .try_add_dff_driving(d, q)
                .expect("q nets are undriven by construction");
        }
        for i in 0..self.outputs {
            netlist.mark_output(sinks[self.flip_flops + i]);
        }

        debug_assert!(netlist.validate().is_ok());
        netlist
    }
}

/// Canonical wire encoding: the five size fields in declaration order.
/// Decoding re-checks the [`CircuitFamily::new`] invariants (at least one
/// input-or-flip-flop, one output, one gate) and refuses violating bytes
/// with a typed [`WireError::Invalid`] instead of panicking — a
/// specification travelling over a service protocol must not be able to
/// crash the decoder.
impl Wire for CircuitFamily {
    fn encode_into(&self, writer: &mut WireWriter) {
        self.name.encode_into(writer);
        self.inputs.encode_into(writer);
        self.outputs.encode_into(writer);
        self.flip_flops.encode_into(writer);
        self.gates.encode_into(writer);
    }

    fn decode_from(reader: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        let name = String::decode_from(reader)?;
        let inputs = usize::decode_from(reader)?;
        let outputs = usize::decode_from(reader)?;
        let flip_flops = usize::decode_from(reader)?;
        let gates = usize::decode_from(reader)?;
        if inputs + flip_flops == 0 || outputs == 0 || gates == 0 {
            return Err(WireError::Invalid(format!(
                "circuit family `{name}` is ungeneratable: \
                 {inputs} inputs + {flip_flops} flip-flops, {outputs} outputs, {gates} gates"
            )));
        }
        Ok(CircuitFamily {
            name,
            inputs,
            outputs,
            flip_flops,
            gates,
        })
    }
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a; keeps generation deterministic across platforms without
    // depending on `DefaultHasher` stability.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn pick_kind(rng: &mut ChaCha8Rng) -> GateKind {
    let roll: f64 = rng.gen();
    if roll < 0.45 {
        GateKind::Nand
    } else if roll < 0.80 {
        GateKind::Nor
    } else {
        GateKind::Not
    }
}

fn pick_fanin(rng: &mut ChaCha8Rng, kind: GateKind) -> usize {
    if kind == GateKind::Not {
        return 1;
    }
    let roll: f64 = rng.gen();
    if roll < 0.65 {
        2
    } else if roll < 0.90 {
        3
    } else {
        4
    }
}

fn pick_inputs(
    rng: &mut ChaCha8Rng,
    pool: &[NetId],
    unused: &mut Vec<NetId>,
    fanin: usize,
) -> Vec<NetId> {
    let mut inputs: Vec<NetId> = Vec::with_capacity(fanin);
    // Consume one not-yet-read signal with high probability so every input
    // ends up observed by the logic.
    if !unused.is_empty() && rng.gen_bool(0.8) {
        let index = rng.gen_range(0..unused.len());
        inputs.push(unused.swap_remove(index));
    }
    while inputs.len() < fanin {
        // Bias towards recently created nets to build depth; fall back to the
        // whole pool to create reconvergence and wide cones.
        let candidate = if rng.gen_bool(0.55) && pool.len() > 8 {
            let window = pool.len().min(48);
            pool[pool.len() - window + rng.gen_range(0..window)]
        } else {
            pool[rng.gen_range(0..pool.len())]
        };
        if !inputs.contains(&candidate) {
            if let Some(pos) = unused.iter().position(|&n| n == candidate) {
                unused.swap_remove(pos);
            }
            inputs.push(candidate);
        } else if inputs.len() + 1 >= pool.len() {
            break;
        }
    }
    inputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo;

    #[test]
    fn known_circuits_have_published_counts() {
        let spec = CircuitFamily::iscas89_like("s344").unwrap();
        let circuit = spec.generate(7);
        assert_eq!(circuit.primary_inputs().len(), 9);
        assert_eq!(circuit.primary_outputs().len(), 11);
        assert_eq!(circuit.dff_count(), 15);
        assert_eq!(circuit.gate_count(), 160);
        assert!(circuit.validate().is_ok());
    }

    #[test]
    fn unknown_circuit_is_an_error() {
        assert!(matches!(
            CircuitFamily::iscas89_like("s99999"),
            Err(NetlistError::UnknownCircuit(_))
        ));
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = CircuitFamily::iscas89_like("s382").unwrap();
        let a = spec.generate(3);
        let b = spec.generate(3);
        assert_eq!(a, b);
        let c = spec.generate(4);
        assert_ne!(a, c);
    }

    #[test]
    fn circuit_family_wire_round_trip() {
        let spec = CircuitFamily::iscas89_like("s344").unwrap();
        let bytes = scanpower_wire::encode_message(&spec);
        let back: CircuitFamily = scanpower_wire::decode_message(&bytes).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.generate(1), spec.generate(1));
    }

    #[test]
    fn circuit_family_decode_rejects_ungeneratable_counts() {
        // Hand-encode a family that `CircuitFamily::new` would panic on
        // (no outputs); the decoder must refuse it with a typed error.
        let mut writer = WireWriter::new();
        writer.write_raw(&scanpower_wire::WIRE_MAGIC);
        writer.write_u16(scanpower_wire::WIRE_VERSION);
        "bogus".to_string().encode_into(&mut writer);
        4usize.encode_into(&mut writer); // inputs
        0usize.encode_into(&mut writer); // outputs
        3usize.encode_into(&mut writer); // flip-flops
        10usize.encode_into(&mut writer); // gates
        let bytes = writer.into_bytes();
        assert!(matches!(
            scanpower_wire::decode_message::<CircuitFamily>(&bytes),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn target_library_only() {
        let spec = CircuitFamily::iscas89_like("s510").unwrap();
        let circuit = spec.generate(1);
        assert!(circuit.gates().iter().all(|g| g.kind.in_target_library()));
    }

    #[test]
    fn every_input_is_observed() {
        let spec = CircuitFamily::iscas89_like("s641").unwrap();
        let circuit = spec.generate(11);
        for &pi in circuit.primary_inputs() {
            assert!(circuit.net(pi).fanout() > 0, "dangling primary input");
        }
        for q in circuit.pseudo_inputs() {
            assert!(circuit.net(q).fanout() > 0, "dangling scan-cell output");
        }
    }

    #[test]
    fn circuit_has_reasonable_depth() {
        let spec = CircuitFamily::iscas89_like("s1196").unwrap();
        let circuit = spec.generate(5);
        let depth = topo::logic_depth(&circuit).unwrap();
        assert!(depth >= 5, "depth {depth} too shallow to be interesting");
        assert!(depth < 200, "depth {depth} implausibly large");
    }

    #[test]
    fn scaled_spec_shrinks_gate_count() {
        let spec = CircuitFamily::iscas89_like("s9234").unwrap().scaled(0.1);
        assert_eq!(spec.gates(), 560);
        assert_eq!(spec.flip_flops(), 21);
        let circuit = spec.generate(1);
        assert_eq!(circuit.gate_count(), 560);
    }

    #[test]
    fn table1_lists_twelve_circuits() {
        let specs = CircuitFamily::table1();
        assert_eq!(specs.len(), 12);
        assert_eq!(specs[0].name(), "s344");
        assert_eq!(specs[11].name(), "s9234");
    }
}
