//! The three systems of Table I: LUMI-G, CSCS-A100 and miniHPC.

use serde::{Deserialize, Serialize};

use crate::node::{Node, NodeSpec};
use crate::spec::{CpuSpec, GpuSpec, MemSpec};
use crate::units::{MegaHertz, Watts};

/// A named system: node hardware plus cluster-level policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemSpec {
    pub name: String,
    pub node: NodeSpec,
    /// Free-text provenance note for reports.
    pub notes: String,
}

/// LUMI-G: 1× EPYC 7A53 (512 GB) + 4× MI250X (8 GCDs), per Table I.
pub fn lumi_g() -> SystemSpec {
    SystemSpec {
        name: "LUMI-G".into(),
        node: NodeSpec {
            system: "LUMI-G".into(),
            cpu: CpuSpec::epyc_7a53(),
            sockets: 1,
            mem: MemSpec::ddr4_512gib(),
            gpu: GpuSpec::mi250x_gcd(),
            gpu_devices: 8,
            gcds_per_card: 2,
            aux_power: Watts(220.0),
            default_gpu_freq: MegaHertz(1700),
            gpu_mem_freq: MegaHertz(1600),
            user_clock_control: false,
        },
        notes: "HPE/Cray EX; pm_counters available; AMD GPU compute 1700 MHz, memory 1600 MHz"
            .into(),
    }
}

/// CSCS-A100: 1× EPYC 7713 + 4× A100-SXM4-80GB, per Table I.
pub fn cscs_a100() -> SystemSpec {
    SystemSpec {
        name: "CSCS-A100".into(),
        node: NodeSpec {
            system: "CSCS-A100".into(),
            cpu: CpuSpec::epyc_7713(),
            sockets: 1,
            mem: MemSpec::ddr4_cscs(),
            gpu: GpuSpec::a100_sxm4_80gb(),
            gpu_devices: 4,
            gcds_per_card: 1,
            aux_power: Watts(160.0),
            default_gpu_freq: MegaHertz(1410),
            gpu_mem_freq: MegaHertz(1593),
            user_clock_control: false,
        },
        notes: "HPE/Cray built; no separate memory counter (memory folds into Other); Nvidia GPU compute 1410 MHz, memory 1593 MHz".into(),
    }
}

/// miniHPC: 2× Xeon Gold 6258R (1.5 TB) + 2× A100-PCIE-40GB, per Table I.
/// The only system allowing user-level GPU clock control.
pub fn mini_hpc() -> SystemSpec {
    SystemSpec {
        name: "miniHPC".into(),
        node: NodeSpec {
            system: "miniHPC".into(),
            cpu: CpuSpec::xeon_6258r(),
            sockets: 2,
            mem: MemSpec::ddr4_1536gib(),
            gpu: GpuSpec::a100_pcie_40gb(),
            gpu_devices: 2,
            gcds_per_card: 1,
            aux_power: Watts(130.0),
            default_gpu_freq: MegaHertz(1410),
            gpu_mem_freq: MegaHertz(1593),
            user_clock_control: true,
        },
        notes: "local research cluster; user-level frequency control; smaller GPU memory forces <= 450^3 particles per GPU".into(),
    }
}

/// All three systems, in Table I order.
pub fn all_systems() -> Vec<SystemSpec> {
    vec![lumi_g(), cscs_a100(), mini_hpc()]
}

/// A set of identical nodes with a rank→GPU assignment, enough to place an
/// MPI job ("one rank drives one GPU/GCD" — §III-B).
pub struct Cluster {
    spec: SystemSpec,
    nodes: Vec<Node>,
}

impl Cluster {
    /// Build `node_count` nodes of `spec`.
    pub fn new(spec: SystemSpec, node_count: usize) -> Self {
        let nodes = (0..node_count)
            .map(|_| Node::new(spec.node.clone()))
            .collect();
        Cluster { spec, nodes }
    }

    /// Build the smallest cluster that fits `ranks` ranks at one rank per
    /// GPU device.
    pub fn for_ranks(spec: SystemSpec, ranks: usize) -> Self {
        let per_node = spec.node.gpu_devices as usize;
        let nodes = ranks.div_ceil(per_node);
        Cluster::new(spec, nodes)
    }

    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total schedulable GPU devices.
    pub fn gpu_capacity(&self) -> usize {
        self.nodes.len() * self.spec.node.gpu_devices as usize
    }

    /// Node index and device index for a given rank (block placement, one
    /// rank per device).
    pub fn place_rank(&self, rank: usize) -> (usize, usize) {
        let per_node = self.spec.node.gpu_devices as usize;
        (rank / per_node, rank % per_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_systems_match_paper() {
        let lumi = lumi_g();
        assert_eq!(lumi.node.gpu_devices, 8);
        assert_eq!(lumi.node.gcds_per_card, 2);
        assert_eq!(lumi.node.default_gpu_freq, MegaHertz(1700));
        assert_eq!(lumi.node.gpu_mem_freq, MegaHertz(1600));
        assert_eq!(lumi.node.cpu.cores, 64);

        let cscs = cscs_a100();
        assert_eq!(cscs.node.gpu_devices, 4);
        assert_eq!(cscs.node.default_gpu_freq, MegaHertz(1410));
        assert_eq!(cscs.node.gpu_mem_freq, MegaHertz(1593));

        let mini = mini_hpc();
        assert_eq!(mini.node.sockets, 2);
        assert_eq!(mini.node.gpu_devices, 2);
        assert!(mini.node.user_clock_control);
        assert_eq!(mini.node.mem.capacity_gib, 1536);
    }

    #[test]
    fn cluster_placement_one_rank_per_device() {
        let c = Cluster::for_ranks(cscs_a100(), 32);
        assert_eq!(c.node_count(), 8);
        assert_eq!(c.gpu_capacity(), 32);
        assert_eq!(c.place_rank(0), (0, 0));
        assert_eq!(c.place_rank(3), (0, 3));
        assert_eq!(c.place_rank(4), (1, 0));
        assert_eq!(c.place_rank(31), (7, 3));
    }

    #[test]
    fn cluster_rounds_up_partial_nodes() {
        let c = Cluster::for_ranks(lumi_g(), 12);
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.gpu_capacity(), 16);
    }

    #[test]
    fn lumi_ranks_share_cards_pairwise() {
        let c = Cluster::for_ranks(lumi_g(), 16);
        // Ranks 0 and 1 drive GCDs 0 and 1 = card 0 of node 0.
        let (n0, d0) = c.place_rank(0);
        let (n1, d1) = c.place_rank(1);
        assert_eq!((n0, n1), (0, 0));
        assert_eq!(d0 / 2, d1 / 2, "same card");
        let (_, d2) = c.place_rank(2);
        assert_ne!(d0 / 2, d2 / 2, "different card");
    }
}
