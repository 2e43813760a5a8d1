use scanpower_netlist::{GateId, GateKind, NetId, Netlist};

/// Pin and wire capacitance model used for dynamic-power estimation.
///
/// The paper's Equation (1) computes dynamic power as
/// `P_dyn = f · ½ · V_DD² · Σ_i α_i · C_Li`, where `C_Li` is the load
/// capacitance at the output of gate `i`. This model supplies `C_Li` as the
/// sum of the input-pin capacitances of the driven gates plus a per-fanout
/// wire contribution. All capacitances are in femtofarads.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacitanceModel {
    /// Input-pin capacitance of an inverter (fF).
    pub inverter_pin: f64,
    /// Input-pin capacitance per input of a NAND/NOR cell (fF).
    pub gate_pin: f64,
    /// Input-pin capacitance per input of a MUX cell (fF).
    pub mux_pin: f64,
    /// D-pin capacitance of a scan flip-flop (fF).
    pub dff_pin: f64,
    /// Wire capacitance added per fanout connection (fF).
    pub wire_per_fanout: f64,
    /// Load presented by a primary output pad (fF).
    pub output_pad: f64,
}

impl Default for CapacitanceModel {
    fn default() -> Self {
        CapacitanceModel {
            inverter_pin: 1.2,
            gate_pin: 1.6,
            mux_pin: 1.8,
            dff_pin: 2.4,
            wire_per_fanout: 0.8,
            output_pad: 8.0,
        }
    }
}

impl CapacitanceModel {
    /// Creates the default 45 nm-flavoured model.
    #[must_use]
    pub fn new() -> CapacitanceModel {
        CapacitanceModel::default()
    }

    /// Input-pin capacitance of one pin of a gate of the given kind.
    #[must_use]
    pub fn pin_capacitance(&self, kind: GateKind) -> f64 {
        match kind {
            GateKind::Not | GateKind::Buf => self.inverter_pin,
            GateKind::Mux => self.mux_pin,
            GateKind::Const0 | GateKind::Const1 => 0.0,
            _ => self.gate_pin,
        }
    }

    /// Load capacitance seen by the driver of `net` (pin caps of driven
    /// gates, flip-flop D pins, output pads and wire).
    #[must_use]
    pub fn net_load(&self, netlist: &Netlist, net: NetId) -> f64 {
        let n = netlist.net(net);
        let mut load = 0.0;
        for &(gate, _pin) in &n.loads {
            load += self.pin_capacitance(netlist.gate(gate).kind);
        }
        load += self.dff_pin * n.dff_loads.len() as f64;
        if n.is_primary_output {
            load += self.output_pad;
        }
        load += self.wire_per_fanout * n.fanout() as f64;
        load
    }

    /// Load capacitance at the output of `gate`.
    #[must_use]
    pub fn gate_output_load(&self, netlist: &Netlist, gate: GateId) -> f64 {
        self.net_load(netlist, netlist.gate(gate).output)
    }

    /// Total switched capacitance if every net toggled once (an upper bound
    /// used for normalisation in reports).
    #[must_use]
    pub fn total_capacitance(&self, netlist: &Netlist) -> f64 {
        netlist
            .net_ids()
            .map(|net| self.net_load(netlist, net))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_fanout_means_larger_load() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g = n.add_gate(GateKind::Not, &[a], "g");
        let one = n.add_gate(GateKind::Not, &[g.output], "one");
        n.mark_output(one.output);
        let model = CapacitanceModel::default();
        let small = model.gate_output_load(&n, g.gate);

        let mut m = Netlist::new("t2");
        let a2 = m.add_input("a");
        let g2 = m.add_gate(GateKind::Not, &[a2], "g");
        for i in 0..3 {
            let s = m.add_gate(GateKind::Not, &[g2.output], &format!("s{i}"));
            m.mark_output(s.output);
        }
        let big = model.gate_output_load(&m, g2.gate);
        assert!(big > small);
    }

    #[test]
    fn output_pad_and_dff_pins_count() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g = n.add_gate(GateKind::Not, &[a], "g");
        n.mark_output(g.output);
        n.add_dff(g.output, "q");
        let model = CapacitanceModel::default();
        let load = model.gate_output_load(&n, g.gate);
        assert!(load >= model.output_pad + model.dff_pin);
    }

    #[test]
    fn total_capacitance_is_sum_of_net_loads() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g = n.add_gate(GateKind::Not, &[a], "g");
        n.mark_output(g.output);
        let model = CapacitanceModel::default();
        let expected = model.net_load(&n, a) + model.net_load(&n, g.output);
        assert!((model.total_capacitance(&n) - expected).abs() < 1e-12);
    }
}
