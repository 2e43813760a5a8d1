use scanpower_netlist::{GateId, GateKind, Netlist};
use scanpower_wire::{Wire, WireError, WireReader, WireWriter};

/// Gate delay model: `delay = intrinsic(kind, fanin) + load_slope * fanout`.
///
/// All delays are in picoseconds. The default values are representative of a
/// 45 nm standard-cell library driven at nominal voltage; the *relative*
/// delays are what matters for the critical-path decisions in `AddMUX`, not
/// the absolute picosecond values.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayModel {
    /// Delay of an inverter (ps).
    pub inverter_delay: f64,
    /// Base delay of a 2-input NAND/NOR (ps).
    pub gate_delay: f64,
    /// Extra delay per input beyond the second (series-stack penalty, ps).
    pub per_extra_input: f64,
    /// Extra delay of a NOR relative to a NAND of the same fanin (slower
    /// series PMOS stack, ps).
    pub nor_penalty: f64,
    /// Delay of a 2:1 multiplexer cell (ps) — the cell the proposed scan
    /// structure inserts at non-critical pseudo-inputs.
    pub mux_delay: f64,
    /// Additional delay per fanout load (ps per load).
    pub load_slope: f64,
}

impl Default for DelayModel {
    fn default() -> Self {
        DelayModel {
            inverter_delay: 12.0,
            gate_delay: 20.0,
            per_extra_input: 6.0,
            nor_penalty: 6.0,
            mux_delay: 28.0,
            load_slope: 4.0,
        }
    }
}

/// Canonical wire encoding: six `f64` bit patterns in declaration order.
/// Part of the [`scanpower_wire`] format — the delay model rides inside the
/// proposed-flow options, which in turn feed the result-cache key.
impl Wire for DelayModel {
    fn encode_into(&self, writer: &mut WireWriter) {
        self.inverter_delay.encode_into(writer);
        self.gate_delay.encode_into(writer);
        self.per_extra_input.encode_into(writer);
        self.nor_penalty.encode_into(writer);
        self.mux_delay.encode_into(writer);
        self.load_slope.encode_into(writer);
    }
    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(DelayModel {
            inverter_delay: f64::decode_from(reader)?,
            gate_delay: f64::decode_from(reader)?,
            per_extra_input: f64::decode_from(reader)?,
            nor_penalty: f64::decode_from(reader)?,
            mux_delay: f64::decode_from(reader)?,
            load_slope: f64::decode_from(reader)?,
        })
    }
}

impl DelayModel {
    /// Creates the default 45 nm-flavoured model.
    #[must_use]
    pub fn new() -> DelayModel {
        DelayModel::default()
    }

    /// Intrinsic (unloaded) delay of a gate of the given kind and fanin, in
    /// picoseconds.
    #[must_use]
    pub fn intrinsic_delay(&self, kind: GateKind, fanin: usize) -> f64 {
        let extra = self.per_extra_input * fanin.saturating_sub(2) as f64;
        match kind {
            GateKind::Not | GateKind::Buf => self.inverter_delay,
            GateKind::Nand | GateKind::And => self.gate_delay + extra,
            GateKind::Nor | GateKind::Or => self.gate_delay + self.nor_penalty + extra,
            // XOR/XNOR are roughly two gate levels when implemented in NANDs.
            GateKind::Xor | GateKind::Xnor => 2.0 * self.gate_delay + extra,
            GateKind::Mux => self.mux_delay,
            GateKind::Const0 | GateKind::Const1 => 0.0,
        }
    }

    /// Total delay of a specific gate instance in `netlist`, including the
    /// fanout-dependent load term.
    ///
    /// Constant ties (`Const0`/`Const1`) have no timing arc at all — they
    /// never switch, so paths "through" them do not exist.
    #[must_use]
    pub fn gate_delay(&self, netlist: &Netlist, gate: GateId) -> f64 {
        let g = netlist.gate(gate);
        if matches!(g.kind, GateKind::Const0 | GateKind::Const1) {
            return 0.0;
        }
        let fanout = netlist.net(g.output).fanout();
        self.intrinsic_delay(g.kind, g.fanin()) + self.load_slope * fanout as f64
    }

    /// Delay a 2:1 MUX inserted on a net with the given fanout would add to
    /// every path through that net.
    #[must_use]
    pub fn mux_insertion_delay(&self, fanout: usize) -> f64 {
        self.mux_delay + self.load_slope * fanout as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanpower_netlist::GateKind;

    #[test]
    fn inverter_is_fastest_cell() {
        let model = DelayModel::default();
        assert!(model.intrinsic_delay(GateKind::Not, 1) < model.intrinsic_delay(GateKind::Nand, 2));
        assert!(model.intrinsic_delay(GateKind::Nand, 2) < model.intrinsic_delay(GateKind::Nor, 2));
    }

    #[test]
    fn wider_gates_are_slower() {
        let model = DelayModel::default();
        assert!(
            model.intrinsic_delay(GateKind::Nand, 4) > model.intrinsic_delay(GateKind::Nand, 2)
        );
    }

    #[test]
    fn gate_delay_includes_load() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g = n.add_gate(GateKind::Not, &[a], "g");
        let s1 = n.add_gate(GateKind::Not, &[g.output], "s1");
        let s2 = n.add_gate(GateKind::Not, &[g.output], "s2");
        n.mark_output(s1.output);
        n.mark_output(s2.output);
        let model = DelayModel::default();
        let loaded = model.gate_delay(&n, g.gate);
        assert!((loaded - (model.inverter_delay + 2.0 * model.load_slope)).abs() < 1e-9);
    }

    #[test]
    fn mux_insertion_delay_grows_with_fanout() {
        let model = DelayModel::default();
        assert!(model.mux_insertion_delay(4) > model.mux_insertion_delay(1));
    }
}
