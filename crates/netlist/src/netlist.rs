use std::collections::HashMap;
use std::fmt;

use scanpower_wire::{Wire, WireError, WireReader, WireWriter};

use crate::error::{NetlistError, Result};
use crate::gate::{Gate, GateKind, GateOutput};

/// Identifier of a net (a signal line) inside a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Index of the net inside [`Netlist::nets`].
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NetId` from a raw index. Intended for dense per-net side
    /// tables maintained by other crates (simulation values, arrival times…).
    #[must_use]
    pub fn from_index(index: usize) -> NetId {
        NetId(u32::try_from(index).expect("net index fits in u32"))
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a combinational gate inside a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// Index of the gate inside [`Netlist::gates`].
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `GateId` from a raw index (for dense per-gate side tables).
    #[must_use]
    pub fn from_index(index: usize) -> GateId {
        GateId(u32::try_from(index).expect("gate index fits in u32"))
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetDriver {
    /// The net is not driven (only legal transiently while building).
    None,
    /// The net is a primary input of the circuit.
    PrimaryInput,
    /// The net is driven by a combinational gate.
    Gate(GateId),
    /// The net is the Q output of the D flip-flop with the given index in
    /// [`Netlist::dffs`]; during scan mode this is a pseudo-input.
    Dff(usize),
}

/// A signal line of the circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Net name (unique within the netlist).
    pub name: String,
    /// What drives the net.
    pub driver: NetDriver,
    /// Gate input pins fed by this net, as `(gate, pin_index)` pairs.
    pub loads: Vec<(GateId, usize)>,
    /// Indices into [`Netlist::dffs`] whose D input is this net.
    pub dff_loads: Vec<usize>,
    /// `true` when the net is a primary output.
    pub is_primary_output: bool,
}

impl Net {
    /// Total fan-out of the net (gate pins plus flip-flop D pins plus one if
    /// the net is a primary output).
    #[must_use]
    pub fn fanout(&self) -> usize {
        self.loads.len() + self.dff_loads.len() + usize::from(self.is_primary_output)
    }
}

/// A D flip-flop (full-scan state element).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DffCell {
    /// Net feeding the D pin (pseudo-output of the combinational part).
    pub d: NetId,
    /// Net driven by the Q pin (pseudo-input of the combinational part).
    pub q: NetId,
    /// Instance name.
    pub name: String,
}

/// An indexed gate-level netlist with explicit primary inputs, primary
/// outputs and D flip-flops.
///
/// The combinational part (everything except the flip-flops) is required to
/// be acyclic; [`Netlist::validate`] and [`crate::topo`] enforce and exploit
/// this.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    name: String,
    nets: Vec<Net>,
    gates: Vec<Gate>,
    dffs: Vec<DffCell>,
    primary_inputs: Vec<NetId>,
    primary_outputs: Vec<NetId>,
    name_to_net: HashMap<String, NetId>,
}

impl Netlist {
    /// Creates an empty netlist.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            nets: Vec::new(),
            gates: Vec::new(),
            dffs: Vec::new(),
            primary_inputs: Vec::new(),
            primary_outputs: Vec::new(),
            name_to_net: HashMap::new(),
        }
    }

    /// Name of the circuit.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the circuit.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    // ------------------------------------------------------------------
    // construction
    // ------------------------------------------------------------------

    /// Creates (or returns the existing) net with the given name, without a
    /// driver. Used by two-pass parsers; most callers want [`Netlist::add_input`]
    /// or [`Netlist::add_gate`].
    pub fn ensure_net(&mut self, name: &str) -> NetId {
        if let Some(&id) = self.name_to_net.get(name) {
            return id;
        }
        let id = NetId(u32::try_from(self.nets.len()).expect("too many nets"));
        self.nets.push(Net {
            name: name.to_owned(),
            driver: NetDriver::None,
            loads: Vec::new(),
            dff_loads: Vec::new(),
            is_primary_output: false,
        });
        self.name_to_net.insert(name.to_owned(), id);
        id
    }

    /// Adds a primary input with the given name and returns its net.
    ///
    /// # Panics
    ///
    /// Panics if a *driven* net with the same name already exists.
    pub fn add_input(&mut self, name: &str) -> NetId {
        let id = self.ensure_net(name);
        assert!(
            matches!(self.nets[id.index()].driver, NetDriver::None),
            "net `{name}` already has a driver"
        );
        self.nets[id.index()].driver = NetDriver::PrimaryInput;
        self.primary_inputs.push(id);
        id
    }

    /// Marks an existing net as a primary output.
    pub fn mark_output(&mut self, net: NetId) {
        if !self.nets[net.index()].is_primary_output {
            self.nets[net.index()].is_primary_output = true;
            self.primary_outputs.push(net);
        }
    }

    /// Adds a combinational gate whose output net is created with `name`.
    ///
    /// # Panics
    ///
    /// Panics if the fanin is illegal for `kind` or if a driven net named
    /// `name` already exists.
    pub fn add_gate(&mut self, kind: GateKind, inputs: &[NetId], name: &str) -> GateOutput {
        let output = self.ensure_net(name);
        self.try_add_gate_driving(kind, inputs, output)
            .expect("invalid gate construction")
    }

    /// Adds a combinational gate driving an already existing (undriven) net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidFanin`] when the number of inputs is
    /// illegal for `kind` and [`NetlistError::MultipleDrivers`] when the
    /// output net already has a driver.
    pub fn try_add_gate_driving(
        &mut self,
        kind: GateKind,
        inputs: &[NetId],
        output: NetId,
    ) -> Result<GateOutput> {
        if !kind.accepts_fanin(inputs.len()) {
            return Err(NetlistError::InvalidFanin {
                kind: kind.to_string(),
                got: inputs.len(),
            });
        }
        if !matches!(self.nets[output.index()].driver, NetDriver::None) {
            return Err(NetlistError::MultipleDrivers(
                self.nets[output.index()].name.clone(),
            ));
        }
        let gate_id = GateId(u32::try_from(self.gates.len()).expect("too many gates"));
        for (pin, &input) in inputs.iter().enumerate() {
            self.nets[input.index()].loads.push((gate_id, pin));
        }
        let name = self.nets[output.index()].name.clone();
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output,
            name,
        });
        self.nets[output.index()].driver = NetDriver::Gate(gate_id);
        Ok(GateOutput {
            gate: gate_id,
            output,
        })
    }

    /// Adds a D flip-flop whose Q net is created with `name`, returning the
    /// Q net id.
    pub fn add_dff(&mut self, d: NetId, name: &str) -> NetId {
        let q = self.ensure_net(name);
        self.try_add_dff_driving(d, q)
            .expect("invalid dff construction");
        q
    }

    /// Adds a D flip-flop between two existing nets.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MultipleDrivers`] if the Q net already has a
    /// driver.
    pub fn try_add_dff_driving(&mut self, d: NetId, q: NetId) -> Result<usize> {
        if !matches!(self.nets[q.index()].driver, NetDriver::None) {
            return Err(NetlistError::MultipleDrivers(
                self.nets[q.index()].name.clone(),
            ));
        }
        let index = self.dffs.len();
        let name = self.nets[q.index()].name.clone();
        self.dffs.push(DffCell { d, q, name });
        self.nets[q.index()].driver = NetDriver::Dff(index);
        self.nets[d.index()].dff_loads.push(index);
        Ok(index)
    }

    // ------------------------------------------------------------------
    // mutation used by the scan-structure transforms
    // ------------------------------------------------------------------

    /// Reconnects input pin `pin` of `gate` from its current net to `new_net`,
    /// keeping the load bookkeeping of both nets consistent.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range for the gate.
    pub fn replace_gate_input(&mut self, gate: GateId, pin: usize, new_net: NetId) {
        let old_net = self.gates[gate.index()].inputs[pin];
        if old_net == new_net {
            return;
        }
        self.gates[gate.index()].inputs[pin] = new_net;
        let loads = &mut self.nets[old_net.index()].loads;
        if let Some(pos) = loads.iter().position(|&(g, p)| g == gate && p == pin) {
            loads.swap_remove(pos);
        }
        self.nets[new_net.index()].loads.push((gate, pin));
    }

    /// Swaps two input pins of a gate (used by the leakage-driven gate input
    /// reordering step). The connected nets exchange pin indices.
    ///
    /// # Panics
    ///
    /// Panics if either pin index is out of range.
    pub fn swap_gate_inputs(&mut self, gate: GateId, pin_a: usize, pin_b: usize) {
        if pin_a == pin_b {
            return;
        }
        let net_a = self.gates[gate.index()].inputs[pin_a];
        let net_b = self.gates[gate.index()].inputs[pin_b];
        self.gates[gate.index()].inputs.swap(pin_a, pin_b);
        for &(net, old_pin, new_pin) in &[(net_a, pin_a, pin_b), (net_b, pin_b, pin_a)] {
            let loads = &mut self.nets[net.index()].loads;
            if let Some(entry) = loads.iter_mut().find(|(g, p)| *g == gate && *p == old_pin) {
                entry.1 = new_pin;
            }
        }
    }

    /// Moves every load of `from` (gate pins, flip-flop D pins and the
    /// primary-output marking) onto `to`, except loads on `excluded_gate`.
    ///
    /// This is the primitive behind MUX insertion at a pseudo-input: the MUX
    /// keeps reading the original scan-cell output while everything else now
    /// reads the MUX output.
    pub fn move_loads(&mut self, from: NetId, to: NetId, excluded_gate: Option<GateId>) {
        if from == to {
            return;
        }
        let moved: Vec<(GateId, usize)> = self.nets[from.index()]
            .loads
            .iter()
            .copied()
            .filter(|&(g, _)| Some(g) != excluded_gate)
            .collect();
        for (gate, pin) in moved {
            self.replace_gate_input(gate, pin, to);
        }
        let dff_loads = std::mem::take(&mut self.nets[from.index()].dff_loads);
        for dff_index in dff_loads {
            self.dffs[dff_index].d = to;
            self.nets[to.index()].dff_loads.push(dff_index);
        }
        if self.nets[from.index()].is_primary_output {
            self.nets[from.index()].is_primary_output = false;
            if let Some(pos) = self.primary_outputs.iter().position(|&n| n == from) {
                self.primary_outputs.remove(pos);
            }
            self.mark_output(to);
        }
    }

    // ------------------------------------------------------------------
    // accessors
    // ------------------------------------------------------------------

    /// Looks a net up by name.
    #[must_use]
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.name_to_net.get(name).copied()
    }

    /// Returns the net with the given id.
    #[must_use]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Returns the gate with the given id.
    #[must_use]
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Returns the flip-flop with the given index.
    #[must_use]
    pub fn dff(&self, index: usize) -> &DffCell {
        &self.dffs[index]
    }

    /// All nets, indexable by [`NetId::index`].
    #[must_use]
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All combinational gates, indexable by [`GateId::index`].
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// All flip-flops.
    #[must_use]
    pub fn dffs(&self) -> &[DffCell] {
        &self.dffs
    }

    /// Iterator over all gate ids.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.gates.len()).map(GateId::from_index)
    }

    /// Iterator over all net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nets.len()).map(NetId::from_index)
    }

    /// Primary input nets, in declaration order.
    #[must_use]
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.primary_inputs
    }

    /// Primary output nets, in declaration order.
    #[must_use]
    pub fn primary_outputs(&self) -> &[NetId] {
        &self.primary_outputs
    }

    /// Pseudo-inputs of the combinational part: the Q nets of every
    /// flip-flop, in scan-chain order.
    #[must_use]
    pub fn pseudo_inputs(&self) -> Vec<NetId> {
        self.dffs.iter().map(|dff| dff.q).collect()
    }

    /// Pseudo-outputs of the combinational part: the D nets of every
    /// flip-flop, in scan-chain order.
    #[must_use]
    pub fn pseudo_outputs(&self) -> Vec<NetId> {
        self.dffs.iter().map(|dff| dff.d).collect()
    }

    /// All inputs of the combinational part: primary inputs followed by
    /// pseudo-inputs.
    #[must_use]
    pub fn combinational_inputs(&self) -> Vec<NetId> {
        let mut inputs = self.primary_inputs.clone();
        inputs.extend(self.pseudo_inputs());
        inputs
    }

    /// Number of combinational gates.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of flip-flops.
    #[must_use]
    pub fn dff_count(&self) -> usize {
        self.dffs.len()
    }

    /// Gate driving a net, if it is driven by a combinational gate.
    #[must_use]
    pub fn driver_gate(&self, net: NetId) -> Option<GateId> {
        match self.nets[net.index()].driver {
            NetDriver::Gate(gate) => Some(gate),
            _ => None,
        }
    }

    /// Gate input pins loaded by a net.
    #[must_use]
    pub fn loads(&self, net: NetId) -> &[(GateId, usize)] {
        &self.nets[net.index()].loads
    }

    // ------------------------------------------------------------------
    // validation
    // ------------------------------------------------------------------

    /// Checks structural sanity: every net is driven, every gate input
    /// exists, load bookkeeping is consistent and the combinational part is
    /// acyclic.
    ///
    /// # Errors
    ///
    /// Returns a [`NetlistError`] describing the first violation found.
    pub fn validate(&self) -> Result<()> {
        for (index, net) in self.nets.iter().enumerate() {
            if matches!(net.driver, NetDriver::None) {
                return Err(NetlistError::Validation(format!(
                    "net `{}` has no driver",
                    net.name
                )));
            }
            for &(gate, pin) in &net.loads {
                let g = self.gates.get(gate.index()).ok_or_else(|| {
                    NetlistError::Validation(format!("net `{}` loads a missing gate", net.name))
                })?;
                if g.inputs.get(pin) != Some(&NetId::from_index(index)) {
                    return Err(NetlistError::Validation(format!(
                        "load bookkeeping of net `{}` is stale",
                        net.name
                    )));
                }
            }
        }
        for gate in &self.gates {
            for &input in &gate.inputs {
                if input.index() >= self.nets.len() {
                    return Err(NetlistError::Validation(format!(
                        "gate `{}` references a missing net",
                        gate.name
                    )));
                }
            }
        }
        // Acyclicity is checked by the topological sort.
        crate::topo::topological_gates(self).map(|_| ())
    }
}

// ----------------------------------------------------------------------
// canonical wire encoding
// ----------------------------------------------------------------------

impl Wire for Netlist {
    fn encode_into(&self, writer: &mut WireWriter) {
        self.name.encode_into(writer);
        self.nets.encode_into(writer);
        self.gates.encode_into(writer);
        self.dffs.encode_into(writer);
        self.primary_inputs.encode_into(writer);
        self.primary_outputs.encode_into(writer);
        // `name_to_net` is a derived index: rebuilt on decode, never
        // encoded (a HashMap has no canonical iteration order).
    }

    fn decode_from(reader: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        let name = String::decode_from(reader)?;
        let nets: Vec<Net> = Vec::decode_from(reader)?;
        let gates: Vec<Gate> = Vec::decode_from(reader)?;
        let dffs: Vec<DffCell> = Vec::decode_from(reader)?;
        let primary_inputs: Vec<NetId> = Vec::decode_from(reader)?;
        let primary_outputs: Vec<NetId> = Vec::decode_from(reader)?;

        // Every cross-reference is an index into one of the three arenas;
        // bounds-check them all here so a corrupt snapshot is a typed
        // decode error instead of a panic deep inside a consumer. (Deeper
        // structural properties — load bookkeeping, acyclicity — remain
        // the domain of [`Netlist::validate`].)
        let net_ok = |net: NetId| net.index() < nets.len();
        let gate_ok = |gate: GateId| gate.index() < gates.len();
        let invalid = |what: &str| WireError::Invalid(format!("netlist snapshot: {what}"));
        for net in &nets {
            match net.driver {
                NetDriver::Gate(gate) if !gate_ok(gate) => {
                    return Err(invalid("net driven by a missing gate"))
                }
                NetDriver::Dff(index) if index >= dffs.len() => {
                    return Err(invalid("net driven by a missing flip-flop"))
                }
                _ => {}
            }
            if net.loads.iter().any(|&(gate, _)| !gate_ok(gate)) {
                return Err(invalid("net loads a missing gate"));
            }
            if net.dff_loads.iter().any(|&index| index >= dffs.len()) {
                return Err(invalid("net loads a missing flip-flop"));
            }
        }
        for gate in &gates {
            if !net_ok(gate.output) || gate.inputs.iter().any(|&input| !net_ok(input)) {
                return Err(invalid("gate references a missing net"));
            }
        }
        if dffs.iter().any(|dff| !net_ok(dff.d) || !net_ok(dff.q)) {
            return Err(invalid("flip-flop references a missing net"));
        }
        if primary_inputs.iter().any(|&pi| !net_ok(pi))
            || primary_outputs.iter().any(|&po| !net_ok(po))
        {
            return Err(invalid("primary input/output references a missing net"));
        }

        let mut name_to_net = HashMap::with_capacity(nets.len());
        for (index, net) in nets.iter().enumerate() {
            if name_to_net
                .insert(net.name.clone(), NetId::from_index(index))
                .is_some()
            {
                return Err(invalid("duplicate net name"));
            }
        }

        Ok(Netlist {
            name,
            nets,
            gates,
            dffs,
            primary_inputs,
            primary_outputs,
            name_to_net,
        })
    }
}

impl Netlist {
    /// Encodes the netlist as a versioned binary snapshot — the
    /// mmap-friendly load format for circuits that would otherwise re-parse
    /// a `.bench` file on every run. Inherent shorthand for
    /// [`Wire::to_wire_bytes`], so callers need no trait import.
    #[must_use]
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        Wire::to_wire_bytes(self)
    }

    /// Decodes a snapshot produced by [`Netlist::to_wire_bytes`],
    /// validating the envelope (magic + format version), every
    /// cross-reference index and net-name uniqueness.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on a foreign or truncated payload, an
    /// incompatible format version, or a snapshot whose indices don't hold
    /// together.
    pub fn from_wire_bytes(bytes: &[u8]) -> std::result::Result<Netlist, WireError> {
        <Netlist as Wire>::from_wire_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_gate_netlist() -> Netlist {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_gate(GateKind::Nand, &[a, b], "g1");
        let g2 = n.add_gate(GateKind::Not, &[g1.output], "g2");
        n.mark_output(g2.output);
        n
    }

    #[test]
    fn build_and_query() {
        let n = two_gate_netlist();
        assert_eq!(n.gate_count(), 2);
        assert_eq!(n.net_count(), 4);
        assert_eq!(n.primary_inputs().len(), 2);
        assert_eq!(n.primary_outputs().len(), 1);
        let g1 = n.net_by_name("g1").unwrap();
        assert_eq!(n.loads(g1).len(), 1);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn dff_creates_pseudo_inputs_and_outputs() {
        let mut n = Netlist::new("seq");
        let a = n.add_input("a");
        let g = n.add_gate(GateKind::Not, &[a], "g");
        let q = n.add_dff(g.output, "q");
        let h = n.add_gate(GateKind::Nand, &[a, q], "h");
        n.mark_output(h.output);
        assert_eq!(n.dff_count(), 1);
        assert_eq!(n.pseudo_inputs(), vec![q]);
        assert_eq!(n.pseudo_outputs(), vec![g.output]);
        assert_eq!(n.combinational_inputs(), vec![a, q]);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn duplicate_driver_is_rejected() {
        let mut n = Netlist::new("dup");
        let a = n.add_input("a");
        let g = n.add_gate(GateKind::Not, &[a], "g");
        let err = n.try_add_gate_driving(GateKind::Buf, &[a], g.output);
        assert!(matches!(err, Err(NetlistError::MultipleDrivers(_))));
    }

    #[test]
    fn invalid_fanin_is_rejected() {
        let mut n = Netlist::new("bad");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let out = n.ensure_net("out");
        let err = n.try_add_gate_driving(GateKind::Not, &[a, b], out);
        assert!(matches!(err, Err(NetlistError::InvalidFanin { .. })));
    }

    #[test]
    fn replace_gate_input_updates_loads() {
        let mut n = two_gate_netlist();
        let a = n.net_by_name("a").unwrap();
        let b = n.net_by_name("b").unwrap();
        let g1 = n.driver_gate(n.net_by_name("g1").unwrap()).unwrap();
        n.replace_gate_input(g1, 0, b);
        assert_eq!(n.gate(g1).inputs, vec![b, b]);
        assert!(n.loads(a).is_empty());
        assert_eq!(n.loads(b).len(), 2);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn swap_gate_inputs_keeps_bookkeeping_consistent() {
        let mut n = two_gate_netlist();
        let a = n.net_by_name("a").unwrap();
        let b = n.net_by_name("b").unwrap();
        let g1 = n.driver_gate(n.net_by_name("g1").unwrap()).unwrap();
        n.swap_gate_inputs(g1, 0, 1);
        assert_eq!(n.gate(g1).inputs, vec![b, a]);
        assert!(n.validate().is_ok());
        assert_eq!(n.loads(a), &[(g1, 1)]);
        assert_eq!(n.loads(b), &[(g1, 0)]);
    }

    #[test]
    fn move_loads_retargets_everything_except_excluded_gate() {
        let mut n = Netlist::new("mux");
        let a = n.add_input("a");
        let sel = n.add_input("sel");
        let c0 = n.add_gate(GateKind::Const0, &[], "zero");
        // consumer of `a` that should be retargeted
        let sink = n.add_gate(GateKind::Not, &[a], "sink");
        n.mark_output(sink.output);
        // the MUX itself keeps reading `a`
        let mux = n.add_gate(GateKind::Mux, &[sel, a, c0.output], "a_mux");
        n.move_loads(a, mux.output, Some(mux.gate));
        assert_eq!(n.gate(sink.gate).inputs[0], mux.output);
        assert_eq!(n.gate(mux.gate).inputs[1], a);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn net_ids_are_dense_and_stable() {
        let n = two_gate_netlist();
        for (index, id) in n.net_ids().enumerate() {
            assert_eq!(id.index(), index);
        }
    }
}
