//! A compute node: CPU socket(s), DRAM, GPUs and auxiliary components.
//!
//! GPU devices are handed to rank threads behind `Arc<Mutex<..>>` so each MPI
//! rank can drive "its" GPU while measurement tools read power concurrently.
//! Node-level energy (what Cray `pm_counters`' `energy` file reports) is the
//! sum of all device timelines plus a constant auxiliary draw — which is why
//! the paper can only report the auxiliary share as a *calculated* "Other".

use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::cpu::{CpuDevice, MemoryDevice};
use crate::error::ArchError;
use crate::gpu::GpuDevice;
use crate::spec::{CpuSpec, GpuSpec, MemSpec};
use crate::time::SimInstant;
use crate::units::{Joules, MegaHertz, Watts};

/// Hardware configuration of one node (the "Hardware of each Node" column of
/// Table I).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// System this node belongs to (e.g. `"LUMI-G"`).
    pub system: String,
    pub cpu: CpuSpec,
    /// CPU sockets per node (miniHPC has 2).
    pub sockets: u32,
    pub mem: MemSpec,
    pub gpu: GpuSpec,
    /// Schedulable GPU devices per node — GCDs on LUMI-G (8), full cards
    /// elsewhere.
    pub gpu_devices: u32,
    /// GCDs sharing one physical card (and one `accel*_energy` counter):
    /// 2 on LUMI-G, 1 elsewhere.
    pub gcds_per_card: u32,
    /// Constant draw of everything else: NIC, fans, VRM losses, board.
    pub aux_power: Watts,
    /// Default compute clock the centre pins (Table I "GPU Frequencies").
    pub default_gpu_freq: MegaHertz,
    /// Memory clock (never changed, matching the paper).
    pub gpu_mem_freq: MegaHertz,
    /// Whether the centre allows user-level clock control (only miniHPC).
    pub user_clock_control: bool,
}

impl NodeSpec {
    /// Physical GPU cards per node.
    pub fn cards(&self) -> u32 {
        self.gpu_devices / self.gcds_per_card
    }
}

/// A live node with instantiated devices.
pub struct Node {
    spec: NodeSpec,
    cpu: Arc<Mutex<CpuDevice>>,
    mem: Arc<Mutex<MemoryDevice>>,
    gpus: Vec<Arc<Mutex<GpuDevice>>>,
}

impl Node {
    /// Instantiate all devices of `spec`, applying the centre's clock-control
    /// policy and default clocks.
    pub fn new(spec: NodeSpec) -> Self {
        let gpus = (0..spec.gpu_devices as usize)
            .map(|i| {
                let mut g = GpuDevice::new(i, spec.gpu.clone());
                if spec.user_clock_control {
                    g.unlock_clock_control();
                } else {
                    // Centre pins the default clock, then locks control.
                    g.set_application_clocks(spec.default_gpu_freq)
                        .expect("default clock must be supported");
                    g.lock_clock_control();
                }
                Arc::new(Mutex::new(g))
            })
            .collect();
        Node {
            cpu: Arc::new(Mutex::new(CpuDevice::new(spec.cpu.clone()))),
            mem: Arc::new(Mutex::new(MemoryDevice::new(spec.mem.clone()))),
            gpus,
            spec,
        }
    }

    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    pub fn cpu(&self) -> Arc<Mutex<CpuDevice>> {
        Arc::clone(&self.cpu)
    }

    pub fn mem(&self) -> Arc<Mutex<MemoryDevice>> {
        Arc::clone(&self.mem)
    }

    /// Shared handle to GPU `index`.
    pub fn gpu(&self, index: usize) -> Result<Arc<Mutex<GpuDevice>>, ArchError> {
        self.gpus
            .get(index)
            .cloned()
            .ok_or(ArchError::NoSuchDevice {
                index,
                count: self.gpus.len(),
            })
    }

    /// All GPU handles.
    pub fn gpus(&self) -> &[Arc<Mutex<GpuDevice>>] {
        &self.gpus
    }

    /// Privileged (Slurm/centre-side) GPU clock configuration: applies the
    /// requested compute clock to every GPU regardless of the user-level
    /// clock-control policy, preserving the lock state afterwards. This is
    /// the `--gpu-freq` path of §II-B — the only frequency control users get
    /// on systems that lock `SetApplicationsClocks`.
    pub fn privileged_set_gpu_clocks(&self, f: MegaHertz) -> Result<(), ArchError> {
        for g in &self.gpus {
            let mut g = g.lock();
            let was_locked = !g.clock_control_allowed();
            g.unlock_clock_control();
            let result = g.set_application_clocks(f);
            if was_locked {
                g.lock_clock_control();
            }
            result?;
        }
        Ok(())
    }

    /// Latest instant for which *all* device timelines are recorded.
    pub fn recorded_until(&self) -> SimInstant {
        let mut t = self.cpu.lock().now().min(self.mem.lock().now());
        for g in &self.gpus {
            t = t.min(g.lock().now());
        }
        t
    }

    /// Drive CPU and memory at constant activities and idle all GPUs up to
    /// instant `t` — used to close out a job so every timeline covers the
    /// same span.
    pub fn settle_until(&self, t: SimInstant, cpu_activity: f64, mem_activity: f64) {
        self.cpu.lock().busy_until(t, cpu_activity);
        self.mem.lock().busy_until(t, mem_activity);
        for g in &self.gpus {
            g.lock().idle_until(t);
        }
    }

    /// CPU package energy over `[a, b)` (all sockets).
    pub fn cpu_energy(&self, a: SimInstant, b: SimInstant) -> Joules {
        self.cpu.lock().energy_between(a, b) * f64::from(self.spec.sockets)
    }

    /// DRAM energy over `[a, b)`.
    pub fn memory_energy(&self, a: SimInstant, b: SimInstant) -> Joules {
        self.mem.lock().energy_between(a, b)
    }

    /// Energy of one *card* over `[a, b)` — the granularity of the Cray
    /// `accel[0-3]_energy` counters. On LUMI-G a card aggregates two GCDs,
    /// which is the measurement quirk §III-B discusses.
    pub fn accel_card_energy(
        &self,
        card: usize,
        a: SimInstant,
        b: SimInstant,
    ) -> Result<Joules, ArchError> {
        let per_card = self.spec.gcds_per_card as usize;
        let count = self.cards() as usize;
        if card >= count {
            return Err(ArchError::NoSuchDevice { index: card, count });
        }
        let mut e = Joules::ZERO;
        for i in card * per_card..(card + 1) * per_card {
            e += self.gpus[i].lock().energy_between(a, b);
        }
        Ok(e)
    }

    /// Physical cards on this node.
    pub fn cards(&self) -> u32 {
        self.spec.cards()
    }

    /// Energy of all GPU devices over `[a, b)`.
    pub fn gpu_energy(&self, a: SimInstant, b: SimInstant) -> Joules {
        self.gpus
            .iter()
            .map(|g| g.lock().energy_between(a, b))
            .sum()
    }

    /// Auxiliary ("Other") energy over `[a, b)`.
    pub fn aux_energy(&self, a: SimInstant, b: SimInstant) -> Joules {
        self.spec.aux_power.energy_over(b - a)
    }

    /// Whole-node energy over `[a, b)` — what the node-level `energy`
    /// counter integrates.
    pub fn node_energy(&self, a: SimInstant, b: SimInstant) -> Joules {
        self.cpu_energy(a, b)
            + self.memory_energy(a, b)
            + self.gpu_energy(a, b)
            + self.aux_energy(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimInstant {
        SimInstant::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn lumi_node_has_8_gcds_on_4_cards() {
        let node = Node::new(systems::lumi_g().node);
        assert_eq!(node.gpus().len(), 8);
        assert_eq!(node.cards(), 4);
    }

    #[test]
    fn production_nodes_lock_clock_control() {
        let node = Node::new(systems::cscs_a100().node);
        let gpu = node.gpu(0).unwrap();
        let mut g = gpu.lock();
        assert!(!g.clock_control_allowed());
        assert!(g.set_application_clocks(MegaHertz(1005)).is_err());
        assert_eq!(
            g.current_freq(),
            MegaHertz(1410),
            "pinned to centre default"
        );
    }

    #[test]
    fn minihpc_allows_user_clock_control() {
        let node = Node::new(systems::mini_hpc().node);
        let gpu = node.gpu(0).unwrap();
        assert!(gpu.lock().set_application_clocks(MegaHertz(1005)).is_ok());
    }

    #[test]
    fn card_energy_aggregates_gcd_pairs() {
        let node = Node::new(systems::lumi_g().node);
        let end = t(100);
        node.settle_until(end, 0.2, 0.3);
        let card0 = node.accel_card_energy(0, t(0), end).unwrap();
        let gcd0 = node.gpu(0).unwrap().lock().energy_between(t(0), end);
        let gcd1 = node.gpu(1).unwrap().lock().energy_between(t(0), end);
        assert!((card0.0 - (gcd0.0 + gcd1.0)).abs() < 1e-9);
        assert!(node.accel_card_energy(4, t(0), end).is_err());
    }

    #[test]
    fn node_energy_is_sum_of_parts() {
        let node = Node::new(systems::cscs_a100().node);
        let end = t(250);
        node.settle_until(end, 0.2, 0.3);
        let total = node.node_energy(t(0), end);
        let parts = node.cpu_energy(t(0), end)
            + node.memory_energy(t(0), end)
            + node.gpu_energy(t(0), end)
            + node.aux_energy(t(0), end);
        assert!((total.0 - parts.0).abs() < 1e-9);
        assert!(total.0 > 0.0);
    }

    #[test]
    fn settle_until_advances_all_timelines() {
        let node = Node::new(systems::mini_hpc().node);
        node.settle_until(t(50), 0.1, 0.1);
        assert_eq!(node.recorded_until(), t(50));
    }

    #[test]
    fn gpu_index_out_of_range_errors() {
        let node = Node::new(systems::mini_hpc().node);
        assert!(matches!(
            node.gpu(99),
            Err(ArchError::NoSuchDevice {
                index: 99,
                count: 2
            })
        ));
    }

    #[test]
    fn recorded_until_is_minimum_across_devices() {
        let node = Node::new(systems::mini_hpc().node);
        node.cpu().lock().busy_until(t(100), 0.1);
        // GPUs still at zero.
        assert_eq!(node.recorded_until(), SimInstant::ZERO);
        node.settle_until(t(20), 0.0, 0.0);
        assert_eq!(node.recorded_until(), t(20).max(SimInstant::ZERO));
        let _ = SimDuration::ZERO;
    }
}
