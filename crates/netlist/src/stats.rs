//! Circuit statistics used by reports and experiment summaries.

use crate::gate::GateKind;
use crate::netlist::Netlist;
use crate::topo;

/// Structural statistics of a netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitStats {
    /// Circuit name.
    pub name: String,
    /// Number of primary inputs.
    pub primary_inputs: usize,
    /// Number of primary outputs.
    pub primary_outputs: usize,
    /// Number of flip-flops (scan cells).
    pub flip_flops: usize,
    /// Number of combinational gates.
    pub gates: usize,
    /// Number of inverters.
    pub inverters: usize,
    /// Number of NAND gates.
    pub nands: usize,
    /// Number of NOR gates.
    pub nors: usize,
    /// Number of gates outside the {NAND, NOR, INV, MUX, CONST} library.
    pub other_gates: usize,
    /// Maximum logic depth of the combinational part.
    pub depth: usize,
    /// Average gate fanin.
    pub average_fanin: f64,
    /// Average net fanout.
    pub average_fanout: f64,
}

impl CircuitStats {
    /// Computes statistics for `netlist`.
    ///
    /// # Panics
    ///
    /// Panics if the combinational part is cyclic (call
    /// [`Netlist::validate`] first when dealing with untrusted input).
    #[must_use]
    pub fn of(netlist: &Netlist) -> CircuitStats {
        let gates = netlist.gates();
        let mut inverters = 0;
        let mut nands = 0;
        let mut nors = 0;
        let mut other = 0;
        let mut fanin_sum = 0usize;
        for gate in gates {
            fanin_sum += gate.fanin();
            match gate.kind {
                GateKind::Not => inverters += 1,
                GateKind::Nand => nands += 1,
                GateKind::Nor => nors += 1,
                GateKind::Mux | GateKind::Const0 | GateKind::Const1 => {}
                _ => other += 1,
            }
        }
        let fanout_sum: usize = netlist.nets().iter().map(crate::Net::fanout).sum();
        let gate_count = gates.len();
        CircuitStats {
            name: netlist.name().to_owned(),
            primary_inputs: netlist.primary_inputs().len(),
            primary_outputs: netlist.primary_outputs().len(),
            flip_flops: netlist.dff_count(),
            gates: gate_count,
            inverters,
            nands,
            nors,
            other_gates: other,
            depth: topo::logic_depth(netlist).expect("combinational part must be acyclic"),
            average_fanin: if gate_count == 0 {
                0.0
            } else {
                fanin_sum as f64 / gate_count as f64
            },
            average_fanout: if netlist.net_count() == 0 {
                0.0
            } else {
                fanout_sum as f64 / netlist.net_count() as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;
    use crate::generator::CircuitFamily;

    #[test]
    fn stats_of_s27() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let stats = CircuitStats::of(&n);
        assert_eq!(stats.name, "s27");
        assert_eq!(stats.primary_inputs, 4);
        assert_eq!(stats.flip_flops, 3);
        assert_eq!(stats.gates, 10);
        assert!(stats.depth >= 3);
        assert!(stats.average_fanin > 1.0);
    }

    #[test]
    fn generated_circuit_is_mostly_nand_nor_inv() {
        let circuit = CircuitFamily::iscas89_like("s1238").unwrap().generate(2);
        let stats = CircuitStats::of(&circuit);
        assert_eq!(stats.other_gates, 0);
        assert_eq!(stats.inverters + stats.nands + stats.nors, stats.gates);
    }
}
