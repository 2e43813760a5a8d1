//! Parallel-pattern stuck-at fault simulation.
//!
//! The ATPG substitute (`scanpower-atpg`) needs to know which faults a set
//! of scan patterns detects, both to drop detected faults during the random
//! phase and to report the final coverage. Faults are single stuck-at faults
//! on nets (output faults after structural collapsing of the equivalent
//! input faults); patterns are fully-specified assignments of the
//! combinational inputs; detection is observed at the primary outputs and at
//! the flip-flop D inputs (full-scan observation).
//!
//! Simulation is bit-parallel through the shared
//! [`SimKernel`]: 64 patterns are evaluated per topological pass using one
//! [`PackedWord`] per net for the fault-free circuit. Each still-active
//! fault is then simulated event-driven on top of those values: its site is
//! pinned to the stuck value, the kernel's dirty worklist re-evaluates only
//! the gates whose inputs actually moved, and exactly the nets that changed
//! are restored afterwards.

use scanpower_netlist::{NetId, Netlist};

use crate::kernel::{pack_bool_patterns, DirtyWorklist, LogicWord, PackedWord, SimKernel};

/// A single stuck-at fault on a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Faulty net.
    pub net: NetId,
    /// `true` for stuck-at-1, `false` for stuck-at-0.
    pub stuck_at_one: bool,
}

impl Fault {
    /// Human-readable description (`net/sa1`).
    #[must_use]
    pub fn describe(&self, netlist: &Netlist) -> String {
        format!(
            "{}/sa{}",
            netlist.net(self.net).name,
            u8::from(self.stuck_at_one)
        )
    }

    fn forced_word(&self) -> PackedWord {
        PackedWord::splat(crate::Logic::from_bool(self.stuck_at_one))
    }
}

/// Returns the collapsed fault list: a stuck-at-0 and a stuck-at-1 fault on
/// every net of the circuit.
#[must_use]
pub fn all_net_faults(netlist: &Netlist) -> Vec<Fault> {
    let mut faults = Vec::with_capacity(netlist.net_count() * 2);
    for net in netlist.net_ids() {
        faults.push(Fault {
            net,
            stuck_at_one: false,
        });
        faults.push(Fault {
            net,
            stuck_at_one: true,
        });
    }
    faults
}

/// What one ≤64-pattern block of fault simulation detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockDetections {
    /// Number of faults newly detected by the block.
    pub newly_detected: usize,
    /// For every pattern lane of the block, how many newly detected faults
    /// have that pattern as their *first* detecting pattern — exactly the
    /// credit a pattern would receive if the block were fault-simulated one
    /// pattern at a time with fault dropping.
    pub new_per_lane: Vec<usize>,
}

/// Faulty-machine state reused across the faults of one block: the
/// per-net values (equal to the fault-free values between faults), the
/// kernel worklist the fault effect propagates on, and the nets the current
/// fault changed.
struct FaultyMachine {
    values: Vec<PackedWord>,
    worklist: DirtyWorklist,
    changed: Vec<NetId>,
}

/// Bit-parallel stuck-at fault simulator.
#[derive(Debug, Clone)]
pub struct FaultSim {
    kernel: SimKernel<PackedWord>,
    observation: Vec<NetId>,
    /// Per net: whether it is one of the observation points.
    observed: Vec<bool>,
}

impl FaultSim {
    /// Builds a simulator for `netlist`.
    ///
    /// # Panics
    ///
    /// Panics if the combinational part is cyclic.
    #[must_use]
    pub fn new(netlist: &Netlist) -> FaultSim {
        let mut observation = netlist.primary_outputs().to_vec();
        observation.extend(netlist.pseudo_outputs());
        observation.sort_unstable();
        observation.dedup();
        let mut observed = vec![false; netlist.net_count()];
        for &net in &observation {
            observed[net.index()] = true;
        }
        FaultSim {
            kernel: SimKernel::new(netlist),
            observation,
            observed,
        }
    }

    /// Nets observed for fault detection (primary outputs and flip-flop D
    /// inputs).
    #[must_use]
    pub fn observation_points(&self) -> &[NetId] {
        &self.observation
    }

    /// Simulates up to 64 patterns in one kernel pass and returns the packed
    /// fault-free value of every net (lane `k` = value under pattern `k`;
    /// lanes beyond the block are unknown).
    ///
    /// # Panics
    ///
    /// Panics if more than 64 patterns are passed or a pattern has the wrong
    /// width.
    #[must_use]
    pub fn good_packed(&self, netlist: &Netlist, patterns: &[Vec<bool>]) -> Vec<PackedWord> {
        assert!(patterns.len() <= 64, "at most 64 patterns per block");
        if let Some(first) = patterns.first() {
            assert_eq!(first.len(), self.kernel.inputs().len(), "pattern width");
        }
        let packed_inputs = pack_bool_patterns(patterns);
        let mut values = vec![PackedWord::splat(crate::Logic::X); self.kernel.net_count()];
        if !patterns.is_empty() {
            for (&net, &word) in self.kernel.inputs().iter().zip(&packed_inputs) {
                values[net.index()] = word;
            }
        }
        self.kernel.propagate(netlist, &mut values);
        values
    }

    /// Simulates up to 64 patterns at once and returns one word per net
    /// (bit `k` = value of the net under pattern `k`).
    ///
    /// # Panics
    ///
    /// Panics if more than 64 patterns are passed or a pattern has the wrong
    /// width.
    #[must_use]
    pub fn good_values(&self, netlist: &Netlist, patterns: &[Vec<bool>]) -> Vec<u64> {
        self.good_packed(netlist, patterns)
            .into_iter()
            .map(PackedWord::ones)
            .collect()
    }

    /// Fault-simulates one block of up to 64 patterns in a single fault-free
    /// kernel pass (plus one event-driven propagation from the pinned fault
    /// site per still-active fault), updating `detected` in place.
    /// Already-detected faults are skipped (fault dropping); newly detected
    /// faults are credited to the first pattern of the block that detects
    /// them, which makes the result indistinguishable from simulating the
    /// block one pattern at a time.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 patterns are passed, a pattern has the wrong
    /// width, or `detected.len() != faults.len()`.
    pub fn detect_block_into(
        &self,
        netlist: &Netlist,
        faults: &[Fault],
        block: &[Vec<bool>],
        detected: &mut [bool],
    ) -> BlockDetections {
        let mut result = BlockDetections {
            newly_detected: 0,
            new_per_lane: vec![0; block.len()],
        };
        for (fault, lanes) in self.detect_block_lanes(netlist, faults, block, detected) {
            detected[fault] = true;
            result.newly_detected += 1;
            result.new_per_lane[lanes.trailing_zeros() as usize] += 1;
        }
        result
    }

    /// Fault-simulates one block of up to 64 patterns against a *frozen*
    /// snapshot of the detected flags and returns, for every still-active
    /// fault the block detects, `(fault index, detecting-lane mask)` — bit
    /// `k` of the mask is set when pattern `k` of the block detects the
    /// fault. Nothing is mutated, and because fault effects are independent
    /// of each other, the masks are exactly what a sequential loop with
    /// fault dropping would have observed — which is what lets the
    /// block-parallel driver fault-simulate many blocks concurrently
    /// against one snapshot and merge the masks afterwards in pattern
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 patterns are passed, a pattern has the wrong
    /// width, or `detected.len() != faults.len()`.
    #[must_use]
    pub fn detect_block_lanes(
        &self,
        netlist: &Netlist,
        faults: &[Fault],
        block: &[Vec<bool>],
        detected: &[bool],
    ) -> Vec<(usize, u64)> {
        assert_eq!(faults.len(), detected.len(), "one flag per fault");
        assert!(block.len() <= 64, "at most 64 patterns per block");
        if block.is_empty() {
            return Vec::new();
        }
        let good = self.good_packed(netlist, block);
        let active_mask = if block.len() == 64 {
            u64::MAX
        } else {
            (1u64 << block.len()) - 1
        };
        let mut faulty = FaultyMachine {
            values: good.clone(),
            worklist: self.kernel.make_worklist(),
            changed: Vec::new(),
        };
        let mut masks = Vec::new();
        for (index, fault) in faults.iter().enumerate() {
            if detected[index] {
                continue;
            }
            let forced = fault.forced_word();
            if (good[fault.net.index()].ones() ^ forced.ones()) & active_mask == 0 {
                // The fault is never activated by this block.
                continue;
            }
            let lanes =
                self.detecting_lanes(netlist, &good, &mut faulty, fault, forced, active_mask);
            if lanes != 0 {
                masks.push((index, lanes));
            }
        }
        masks
    }

    /// Marks which of `faults` are detected by `patterns`, updating
    /// `detected` in place (already-detected faults are skipped — fault
    /// dropping). Returns the number of newly detected faults.
    ///
    /// # Panics
    ///
    /// Panics if `detected.len() != faults.len()` or a pattern has the wrong
    /// width.
    pub fn detect_into(
        &self,
        netlist: &Netlist,
        faults: &[Fault],
        patterns: &[Vec<bool>],
        detected: &mut [bool],
    ) -> usize {
        patterns
            .chunks(64)
            .map(|block| {
                self.detect_block_into(netlist, faults, block, detected)
                    .newly_detected
            })
            .sum()
    }

    /// Convenience wrapper around [`FaultSim::detect_into`] starting from an
    /// all-undetected fault list.
    #[must_use]
    pub fn detect(&self, netlist: &Netlist, faults: &[Fault], patterns: &[Vec<bool>]) -> Vec<bool> {
        let mut detected = vec![false; faults.len()];
        self.detect_into(netlist, faults, patterns, &mut detected);
        detected
    }

    /// Fault coverage of `patterns` over `faults` (detected / total).
    #[must_use]
    pub fn coverage(&self, netlist: &Netlist, faults: &[Fault], patterns: &[Vec<bool>]) -> f64 {
        if faults.is_empty() {
            return 1.0;
        }
        let detected = self.detect(netlist, faults, patterns);
        detected.iter().filter(|&&d| d).count() as f64 / faults.len() as f64
    }

    /// Pins the fault site to the stuck value on top of the fault-free
    /// values, propagates the change event-driven through the kernel's
    /// dirty worklist and returns the lane mask (within `active_mask`) on
    /// which the fault effect reaches an observation point. Only the nets
    /// that changed can differ from `good`, so only they are checked and
    /// restored: `faulty` equals `good` again on return.
    fn detecting_lanes(
        &self,
        netlist: &Netlist,
        good: &[PackedWord],
        faulty: &mut FaultyMachine,
        fault: &Fault,
        forced: PackedWord,
        active_mask: u64,
    ) -> u64 {
        let site = fault.net;
        faulty.values[site.index()] = forced;
        self.kernel.mark_net_changed(site, &mut faulty.worklist);
        // Accumulate over every observation point the effect reaches: the
        // complete lane mask is needed so that the first-detecting-pattern
        // credit matches a pattern-at-a-time simulation exactly.
        let mut difference = 0u64;
        let mut observe = |net: NetId, value: PackedWord| {
            if self.observed[net.index()] {
                difference |= (good[net.index()].ones() ^ value.ones()) & active_mask;
            }
        };
        observe(site, forced);
        let changed = &mut faulty.changed;
        self.kernel.propagate_from(
            netlist,
            &mut faulty.values,
            &mut faulty.worklist,
            Some(site),
            |net, _, new| {
                observe(net, new);
                changed.push(net);
            },
        );
        for net in changed.drain(..) {
            faulty.values[net.index()] = good[net.index()];
        }
        faulty.values[site.index()] = good[site.index()];
        difference
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::random_bool_patterns;
    use crate::{Evaluator, Logic};
    use scanpower_netlist::{bench, GateKind};

    #[test]
    fn good_values_match_scalar_simulation() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let sim = FaultSim::new(&n);
        let ev = Evaluator::new(&n);
        let patterns = random_bool_patterns(ev.inputs().len(), 64, 5);
        let words = sim.good_values(&n, &patterns);
        for (bit, pattern) in patterns.iter().enumerate() {
            let logic: Vec<Logic> = pattern.iter().copied().map(Logic::from_bool).collect();
            let reference = ev.evaluate(&n, &logic);
            for net in n.net_ids() {
                let expected = reference[net.index()] == Logic::One;
                let got = (words[net.index()] >> bit) & 1 == 1;
                assert_eq!(expected, got, "net {} pattern {}", n.net(net).name, bit);
            }
        }
    }

    #[test]
    fn stuck_output_fault_is_detected() {
        // Single inverter: out stuck-at-1 is detected by input 1.
        let mut n = scanpower_netlist::Netlist::new("inv");
        let a = n.add_input("a");
        let g = n.add_gate(GateKind::Not, &[a], "out");
        n.mark_output(g.output);
        let sim = FaultSim::new(&n);
        let fault = Fault {
            net: g.output,
            stuck_at_one: true,
        };
        let detected = sim.detect(&n, &[fault], &[vec![true]]);
        assert_eq!(detected, vec![true]);
        // Input 0 does not detect it (good output already 1).
        let detected = sim.detect(&n, &[fault], &[vec![false]]);
        assert_eq!(detected, vec![false]);
    }

    #[test]
    fn redundant_fault_is_never_detected() {
        // out = OR(a, NOT(a)) is constant 1, so out/sa1 is undetectable.
        let mut n = scanpower_netlist::Netlist::new("taut");
        let a = n.add_input("a");
        let inv = n.add_gate(GateKind::Not, &[a], "inv");
        let or = n.add_gate(GateKind::Or, &[a, inv.output], "out");
        n.mark_output(or.output);
        let sim = FaultSim::new(&n);
        let fault = Fault {
            net: or.output,
            stuck_at_one: true,
        };
        let detected = sim.detect(&n, &[fault], &[vec![false], vec![true]]);
        assert_eq!(detected, vec![false]);
    }

    #[test]
    fn random_patterns_reach_high_coverage_on_s27() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let sim = FaultSim::new(&n);
        let faults = all_net_faults(&n);
        let patterns = random_bool_patterns(n.combinational_inputs().len(), 256, 11);
        let coverage = sim.coverage(&n, &faults, &patterns);
        assert!(coverage > 0.85, "coverage {coverage} too low");
    }

    #[test]
    fn detection_is_observed_at_flip_flop_inputs_too() {
        // A fault visible only at a D input (no primary output in its cone)
        // must still be detected in a full-scan methodology.
        let mut n = scanpower_netlist::Netlist::new("dff_obs");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::Nand, &[a, b], "g");
        let q = n.add_dff(g.output, "q");
        let h = n.add_gate(GateKind::Not, &[q], "h");
        n.mark_output(h.output);
        let sim = FaultSim::new(&n);
        let fault = Fault {
            net: g.output,
            stuck_at_one: false,
        };
        // Pattern a=1, b=0 (q value irrelevant): good g=1, faulty g=0.
        let detected = sim.detect(&n, &[fault], &[vec![true, false, false]]);
        assert_eq!(detected, vec![true]);
    }

    #[test]
    fn fault_dropping_counts_new_detections_only() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let sim = FaultSim::new(&n);
        let faults = all_net_faults(&n);
        let mut detected = vec![false; faults.len()];
        let patterns = random_bool_patterns(n.combinational_inputs().len(), 64, 3);
        let first = sim.detect_into(&n, &faults, &patterns, &mut detected);
        let second = sim.detect_into(&n, &faults, &patterns, &mut detected);
        assert!(first > 0);
        assert_eq!(second, 0, "same patterns cannot detect anything new");
    }

    #[test]
    fn block_detection_matches_pattern_at_a_time_simulation() {
        // One 64-wide block pass must produce exactly the flags and the
        // per-pattern credit of the sequential pattern-at-a-time loop.
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let sim = FaultSim::new(&n);
        let faults = all_net_faults(&n);
        let patterns = random_bool_patterns(n.combinational_inputs().len(), 64, 9);

        let mut sequential = vec![false; faults.len()];
        let mut sequential_credit = vec![0usize; patterns.len()];
        for (index, pattern) in patterns.iter().enumerate() {
            sequential_credit[index] =
                sim.detect_into(&n, &faults, std::slice::from_ref(pattern), &mut sequential);
        }

        let mut blocked = vec![false; faults.len()];
        let block = sim.detect_block_into(&n, &faults, &patterns, &mut blocked);
        assert_eq!(blocked, sequential);
        assert_eq!(block.new_per_lane, sequential_credit);
        assert_eq!(
            block.newly_detected,
            sequential_credit.iter().sum::<usize>()
        );
    }

    /// Merging the frozen-snapshot lane masks by first set bit must equal
    /// the mutating block path — including on a partial (<64-pattern)
    /// block. This is the invariant the parallel ATPG random phase builds
    /// on.
    #[test]
    fn lane_masks_against_snapshot_merge_like_the_mutating_path() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let sim = FaultSim::new(&n);
        let faults = all_net_faults(&n);
        let patterns = random_bool_patterns(n.combinational_inputs().len(), 40, 21);

        let mut mutated = vec![false; faults.len()];
        let block = sim.detect_block_into(&n, &faults, &patterns, &mut mutated);

        let snapshot = vec![false; faults.len()];
        let masks = sim.detect_block_lanes(&n, &faults, &patterns, &snapshot);
        let mut merged = snapshot;
        let mut per_lane = vec![0usize; patterns.len()];
        for &(fault, lanes) in &masks {
            assert!(lanes < (1 << patterns.len()), "mask outside the block");
            merged[fault] = true;
            per_lane[lanes.trailing_zeros() as usize] += 1;
        }
        assert_eq!(merged, mutated);
        assert_eq!(per_lane, block.new_per_lane);
        assert_eq!(masks.len(), block.newly_detected);

        // Faults already detected in the snapshot are skipped entirely.
        let again = sim.detect_block_lanes(&n, &faults, &patterns, &merged);
        assert!(again.is_empty());
    }

    /// The full-order cone walk the event-driven detection replaced: build
    /// the fault's fanout cone by BFS, walk the whole topological order
    /// evaluating the cone gates on top of the fault-free values, then
    /// compare every observation point.
    fn cone_walk_block_lanes(
        sim: &FaultSim,
        netlist: &Netlist,
        faults: &[Fault],
        block: &[Vec<bool>],
        detected: &[bool],
    ) -> Vec<(usize, u64)> {
        if block.is_empty() {
            return Vec::new();
        }
        let good = sim.good_packed(netlist, block);
        let active_mask = PackedWord::lane_mask(block.len());
        let mut masks = Vec::new();
        for (index, fault) in faults.iter().enumerate() {
            if detected[index] {
                continue;
            }
            let forced = fault.forced_word();
            if (good[fault.net.index()].ones() ^ forced.ones()) & active_mask == 0 {
                continue;
            }
            let mut faulty = good.clone();
            faulty[fault.net.index()] = forced;
            let mut in_cone = vec![false; netlist.gate_count()];
            for gate in scanpower_netlist::topo::fanout_cone(netlist, fault.net) {
                in_cone[gate.index()] = true;
            }
            for &gate_id in sim.kernel.order() {
                if in_cone[gate_id.index()] {
                    let gate = netlist.gate(gate_id);
                    faulty[gate.output.index()] =
                        crate::kernel::eval_gate_at(gate.kind, &gate.inputs, &faulty);
                }
            }
            let mut lanes = 0u64;
            for &obs in sim.observation_points() {
                lanes |= (good[obs.index()].ones() ^ faulty[obs.index()].ones()) & active_mask;
            }
            if lanes != 0 {
                masks.push((index, lanes));
            }
        }
        masks
    }

    /// Event-driven detection must return exactly the cone-walk oracle's
    /// masks — on full and partial blocks, against an empty and a partly
    /// detected snapshot, for faults on combinational inputs, on gate
    /// outputs and on observation points.
    #[test]
    fn atpg_reference_detect_block_lanes_matches_full_order_cone_walk() {
        use scanpower_netlist::generator::CircuitFamily;
        let s27 = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let s344 = CircuitFamily::iscas89_like("s344").unwrap().generate(2);
        let s641 = CircuitFamily::iscas89_like("s641")
            .unwrap()
            .scaled(0.5)
            .generate(4);
        for netlist in [&s27, &s344, &s641] {
            let sim = FaultSim::new(netlist);
            let faults = all_net_faults(netlist);
            let inputs = netlist.combinational_inputs();
            let on = |pick: &dyn Fn(NetId) -> bool| faults.iter().any(|f| pick(f.net));
            assert!(on(&|net| inputs.contains(&net)));
            assert!(on(&|net| netlist.driver_gate(net).is_some()));
            assert!(on(&|net| sim.observation_points().contains(&net)));

            let empty = vec![false; faults.len()];
            let partly: Vec<bool> = (0..faults.len()).map(|i| i % 3 == 0).collect();
            for (seed, size) in [(1, 64), (2, 40), (3, 17), (4, 1), (5, 0)] {
                let block = random_bool_patterns(inputs.len(), size, seed);
                for snapshot in [&empty, &partly] {
                    let masks = sim.detect_block_lanes(netlist, &faults, &block, snapshot);
                    let reference = cone_walk_block_lanes(&sim, netlist, &faults, &block, snapshot);
                    assert_eq!(masks, reference, "{}: block of {size}", netlist.name());
                    if size == 64 && snapshot == &empty {
                        assert!(
                            !masks.is_empty(),
                            "{}: block detects nothing",
                            netlist.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_block_detects_nothing() {
        let n = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let sim = FaultSim::new(&n);
        let faults = all_net_faults(&n);
        let mut detected = vec![false; faults.len()];
        let block = sim.detect_block_into(&n, &faults, &[], &mut detected);
        assert_eq!(block.newly_detected, 0);
        assert!(block.new_per_lane.is_empty());
        assert!(detected.iter().all(|&d| !d));
    }
}
