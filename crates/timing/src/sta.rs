use scanpower_netlist::{topo, GateId, NetId, Netlist, Result};

use crate::delay::DelayModel;

/// Static timing analyser.
///
/// Arrival times are computed at every net, departure times (the length of
/// the longest path from a net to any timing endpoint) are computed in the
/// reverse direction, and the two together give per-net slack. Timing start
/// points are primary inputs and flip-flop Q outputs; endpoints are primary
/// outputs and flip-flop D inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Sta {
    model: DelayModel,
}

impl Sta {
    /// Creates an analyser with the given delay model.
    #[must_use]
    pub fn new(model: DelayModel) -> Sta {
        Sta { model }
    }

    /// The delay model used by this analyser.
    #[must_use]
    pub fn model(&self) -> &DelayModel {
        &self.model
    }

    /// Runs the analysis.
    ///
    /// # Errors
    ///
    /// Returns an error if the combinational part of the netlist is cyclic.
    pub fn analyze(&self, netlist: &Netlist) -> Result<TimingReport> {
        let order = topo::topological_gates(netlist)?;
        let net_count = netlist.net_count();

        let mut gate_delay = vec![0.0f64; netlist.gate_count()];
        for gate in netlist.gate_ids() {
            gate_delay[gate.index()] = self.model.gate_delay(netlist, gate);
        }

        // Arrival times: start points at 0, everything else follows the
        // topological order.
        let mut arrival = vec![0.0f64; net_count];
        for &gate_id in &order {
            let gate = netlist.gate(gate_id);
            let input_arrival = gate
                .inputs
                .iter()
                .map(|&n| arrival[n.index()])
                .fold(0.0f64, f64::max);
            arrival[gate.output.index()] = input_arrival + gate_delay[gate_id.index()];
        }

        // Departure times: longest path from the net to any endpoint,
        // computed in reverse topological order.
        let mut departure = vec![0.0f64; net_count];
        for &gate_id in order.iter().rev() {
            let gate = netlist.gate(gate_id);
            let through = departure[gate.output.index()] + gate_delay[gate_id.index()];
            for &input in &gate.inputs {
                if through > departure[input.index()] {
                    departure[input.index()] = through;
                }
            }
        }

        let critical_delay = netlist
            .net_ids()
            .map(|n| arrival[n.index()] + departure[n.index()])
            .fold(0.0f64, f64::max);

        Ok(TimingReport {
            arrival,
            departure,
            gate_delay,
            critical_delay,
        })
    }
}

impl Default for Sta {
    fn default() -> Self {
        Sta::new(DelayModel::default())
    }
}

/// Result of a static timing analysis run.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    arrival: Vec<f64>,
    departure: Vec<f64>,
    gate_delay: Vec<f64>,
    critical_delay: f64,
}

impl TimingReport {
    /// Longest combinational path delay (ps).
    #[must_use]
    pub fn critical_delay(&self) -> f64 {
        self.critical_delay
    }

    /// Arrival time of the latest transition at `net` (ps).
    #[must_use]
    pub fn arrival(&self, net: NetId) -> f64 {
        self.arrival[net.index()]
    }

    /// Length of the longest path from `net` to any timing endpoint (ps).
    #[must_use]
    pub fn departure(&self, net: NetId) -> f64 {
        self.departure[net.index()]
    }

    /// Slack of `net`: how much extra delay could be inserted *at this net*
    /// without lengthening the critical path.
    #[must_use]
    pub fn slack(&self, net: NetId) -> f64 {
        self.critical_delay - self.arrival(net) - self.departure(net)
    }

    /// Delay used for `gate` during the analysis (ps).
    #[must_use]
    pub fn gate_delay(&self, gate: GateId) -> f64 {
        self.gate_delay[gate.index()]
    }

    /// Returns `true` when `net` lies on a critical path (zero slack, within
    /// `epsilon` ps).
    #[must_use]
    pub fn is_on_critical_path(&self, net: NetId, epsilon: f64) -> bool {
        self.slack(net) <= epsilon
    }

    /// Returns `true` when inserting `extra_delay` picoseconds at `net`
    /// would keep the critical-path delay unchanged.
    ///
    /// This is the fast pre-check used by `AddMUX`; the full procedure still
    /// re-runs [`Sta::analyze`] after the actual insertion, mirroring the
    /// paper's "insert, compare, remove if worse" loop.
    #[must_use]
    pub fn tolerates_insertion(&self, net: NetId, extra_delay: f64) -> bool {
        self.slack(net) >= extra_delay - 1e-9
    }

    /// One critical path, as the list of nets from a start point to an
    /// endpoint. Empty when the circuit has no gates.
    #[must_use]
    pub fn critical_path(&self) -> Vec<NetId> {
        let mut path = Vec::new();
        // Find the critical start point: a net with arrival 0 whose
        // arrival + departure equals the critical delay.
        let start = (0..self.arrival.len())
            .map(NetId::from_index)
            .filter(|n| self.arrival[n.index()] == 0.0)
            .find(|n| (self.departure[n.index()] - self.critical_delay).abs() < 1e-6);
        let Some(start) = start else {
            return path;
        };
        path.push(start);
        path
    }

    /// One critical path through `netlist`, as the ordered list of nets from
    /// a start point to an endpoint.
    #[must_use]
    pub fn critical_path_in(&self, netlist: &Netlist) -> Vec<NetId> {
        let mut path = self.critical_path();
        let Some(&start) = path.first() else {
            return path;
        };
        let mut current = start;
        // Walk forward: at each step pick the load gate whose output keeps
        // arrival + departure equal to the critical delay.
        loop {
            let mut next = None;
            for &(gate, _) in netlist.loads(current) {
                let output = netlist.gate(gate).output;
                let total = self.arrival[output.index()] + self.departure[output.index()];
                if (total - self.critical_delay).abs() < 1e-6 {
                    next = Some(output);
                    break;
                }
            }
            match next {
                Some(net) if net != current => {
                    path.push(net);
                    current = net;
                }
                _ => break,
            }
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanpower_netlist::{bench, GateKind, Netlist};

    fn simple_chain() -> Netlist {
        let mut n = Netlist::new("chain");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_gate(GateKind::Nand, &[a, b], "g1");
        let g2 = n.add_gate(GateKind::Not, &[g1.output], "g2");
        let g3 = n.add_gate(GateKind::Nor, &[g2.output, b], "g3");
        n.mark_output(g3.output);
        n
    }

    #[test]
    fn critical_delay_is_sum_of_chain_delays() {
        let n = simple_chain();
        let sta = Sta::default();
        let report = sta.analyze(&n).unwrap();
        let expected: f64 = n.gate_ids().map(|g| sta.model().gate_delay(&n, g)).sum();
        // The chain is a single path through all three gates.
        assert!((report.critical_delay() - expected).abs() < 1e-9);
    }

    #[test]
    fn arrival_plus_departure_never_exceeds_critical_delay() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let report = Sta::default().analyze(&n).unwrap();
        for net in n.net_ids() {
            assert!(report.arrival(net) + report.departure(net) <= report.critical_delay() + 1e-9);
            assert!(report.slack(net) >= -1e-9);
        }
    }

    #[test]
    fn slack_zero_on_critical_path() {
        let n = simple_chain();
        let report = Sta::default().analyze(&n).unwrap();
        let g3 = n.net_by_name("g3").unwrap();
        assert!(report.is_on_critical_path(g3, 1e-9));
    }

    #[test]
    fn off_path_input_has_slack() {
        // b feeds both the last gate directly (short path) and the first gate
        // (long path); a feeds only the long path, so a has zero slack and
        // the direct b->g3 edge leaves... actually b is also on the long
        // path; check a side input instead.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let long1 = n.add_gate(GateKind::Not, &[a], "long1");
        let long2 = n.add_gate(GateKind::Not, &[long1.output], "long2");
        let merge = n.add_gate(GateKind::Nand, &[long2.output, b], "merge");
        n.mark_output(merge.output);
        let report = Sta::default().analyze(&n).unwrap();
        assert!(report.slack(b) > 0.0);
        assert!(report.slack(a) <= 1e-9);
        assert!(report.tolerates_insertion(b, report.slack(b) - 1.0));
        assert!(!report.tolerates_insertion(a, 10.0));
    }

    #[test]
    fn critical_path_walk_is_connected_and_maximal() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let report = Sta::default().analyze(&n).unwrap();
        let path = report.critical_path_in(&n);
        assert!(path.len() >= 2);
        // The first net of the path must be a start point (arrival 0).
        assert_eq!(report.arrival(path[0]), 0.0);
        // Every net on the path has (near) zero slack.
        for &net in &path {
            assert!(report.slack(net).abs() < 1e-6);
        }
    }

    #[test]
    fn mux_insertion_check_matches_actual_insertion() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let long1 = n.add_gate(GateKind::Nand, &[a, a], "long1");
        let long2 = n.add_gate(GateKind::Nand, &[long1.output, a], "long2");
        let long3 = n.add_gate(GateKind::Nand, &[long2.output, a], "long3");
        let merge = n.add_gate(GateKind::Nand, &[long3.output, b], "merge");
        n.mark_output(merge.output);
        let sta = Sta::default();
        let before = sta.analyze(&n).unwrap();
        let extra = sta.model().mux_insertion_delay(n.net(b).fanout());
        let pre_check = before.tolerates_insertion(b, extra);

        // Actually insert the MUX on `b` and re-analyse.
        let sel = n.add_input("scan_enable");
        let zero = n.add_gate(GateKind::Const0, &[], "zero");
        let mux = n.add_gate(GateKind::Mux, &[sel, b, zero.output], "b_mux");
        n.move_loads(b, mux.output, Some(mux.gate));
        let after = sta.analyze(&n).unwrap();
        let unchanged = after.critical_delay() <= before.critical_delay() + 1e-9;
        assert_eq!(pre_check, unchanged);
    }
}
