//! Machine descriptions and cycle-cost tables.
//!
//! Costs are *per-warp-step latencies* in cycles. DFS is a dependent
//! chain per warp, so unlike throughput kernels a warp cannot hide its
//! own latency behind other instructions; each operation charges its
//! full round-trip. Level-synchronous kernels (BFS) are modelled
//! throughput-bound instead — see [`crate::level_sync`].
//!
//! The numbers start from public latency measurements of Ampere/Hopper
//! (shared memory ~30 cycles, L2/DRAM ~300–600 cycles, global atomics
//! ~200 cycles) and were calibrated once against the paper's Fig. 6
//! MTEPS table; EXPERIMENTS.md records the resulting paper-vs-measured
//! comparison. The *shape* of every result emerges from the simulated
//! algorithm dynamics, not from these constants.

/// Cycle costs for the operations traversal engines perform.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Shared-memory access (HotRing push/pop bookkeeping).
    pub smem_op: u64,
    /// Shared-memory atomic (intra-block steal CAS on `tail`).
    pub atomic_shared: u64,
    /// Global-memory round trip (ColdSeg access, CSR row fetch).
    pub gmem_latency: u64,
    /// Global atomic (visited-array `atomicCAS`, inter-block steal CAS).
    pub atomic_global: u64,
    /// Scanning one 32-wide chunk of adjacency entries (coalesced load +
    /// warp-wide compare/ballot).
    pub edge_chunk: u64,
    /// Per-entry cost of a flush/refill/steal transfer (amortized; the
    /// fixed part is a `gmem_latency`).
    pub copy_per_entry: u64,
    /// Victim-selection scan, per peer inspected.
    pub steal_scan: u64,
    /// Kernel launch / grid sync (level-synchronous methods pay this per
    /// level; persistent kernels pay it once).
    pub kernel_launch: u64,
    /// Throughput bound for streaming kernels: edges processed per cycle
    /// across the whole device (bandwidth-derived).
    pub stream_edges_per_cycle: f64,
    /// Device-wide throughput for *random* (uncoalesced) memory
    /// transactions, in transactions per cycle. DFS's visited checks are
    /// scattered 32-byte accesses; this shared pipeline is what caps
    /// traversal throughput on high-degree graphs (latency dominates on
    /// low-degree ones). Engines funnel their random transactions
    /// through a global FCFS pipeline at this rate.
    pub random_trans_per_cycle: f64,
}

/// A simulated platform (Table 1 of the paper).
#[derive(Debug, Clone)]
pub struct MachineModel {
    /// Display name ("H100", "A100", "XeonMax").
    pub name: String,
    /// Streaming multiprocessors (GPU) or cores (CPU): the number of
    /// blocks (workers) that can execute concurrently.
    pub sm_count: u32,
    /// Warps per block for persistent-kernel engines.
    pub warps_per_block: u32,
    /// Warp width (32 on NVIDIA GPUs, 1 on CPUs).
    pub warp_width: u32,
    /// Clock in GHz, for cycles → seconds conversion.
    pub clock_ghz: f64,
    /// Whether flush/refill may use the Tensor Memory Accelerator
    /// (`cp_async_bulk` / `cuda::memcpy_async`): §3.3 reports ~5% on H100.
    pub tma: bool,
    /// Cycle-cost table.
    pub costs: CostModel,
}

impl MachineModel {
    /// NVIDIA A100 (Ampere) PCIe: 108 SMs, 1.94 TB/s (Table 1).
    pub fn a100() -> Self {
        Self {
            name: "A100".to_string(),
            sm_count: 108,
            warps_per_block: 8,
            warp_width: 32,
            clock_ghz: 1.41,
            tma: false,
            costs: CostModel {
                smem_op: 25,
                atomic_shared: 35,
                gmem_latency: 380,
                atomic_global: 170,
                edge_chunk: 240,
                copy_per_entry: 2,
                steal_scan: 8,
                kernel_launch: 9200,
                stream_edges_per_cycle: 4.6,
                random_trans_per_cycle: 8.2,
            },
        }
    }

    /// NVIDIA H100 (Hopper) SXM5: 132 SMs, 2.02 TB/s, TMA (Table 1).
    pub fn h100() -> Self {
        Self {
            name: "H100".to_string(),
            sm_count: 132,
            warps_per_block: 8,
            warp_width: 32,
            clock_ghz: 1.83,
            tma: true,
            costs: CostModel {
                smem_op: 25,
                atomic_shared: 35,
                gmem_latency: 460,
                atomic_global: 190,
                edge_chunk: 270,
                copy_per_entry: 2,
                steal_scan: 8,
                kernel_launch: 12000,
                stream_edges_per_cycle: 4.2,
                random_trans_per_cycle: 8.6,
            },
        }
    }

    /// H100 with TMA disabled — the §3.3 ablation ("TMA-driven approach
    /// yields an approximately 5% performance improvement").
    pub fn h100_no_tma() -> Self {
        let mut m = Self::h100();
        m.name = "H100-noTMA".to_string();
        m.tma = false;
        m
    }

    /// Intel Xeon Max 9462 (Table 1): 2×32 cores, HBM. CPU baselines run
    /// one worker per core; `warp_width = 1` (no SIMD edge chunking in
    /// the CPU baselines, matching the reference implementations).
    pub fn xeon_max() -> Self {
        Self {
            name: "XeonMax".to_string(),
            sm_count: 64,
            warps_per_block: 1,
            warp_width: 1,
            clock_ghz: 2.7,
            tma: false,
            costs: CostModel {
                // CPU DFS is a dependent chain of DRAM misses (visited,
                // row_ptr, columns) per discovery; stack ops are cached.
                smem_op: 6,
                atomic_shared: 20,
                gmem_latency: 520,
                atomic_global: 140,
                edge_chunk: 34, // per-edge on CPUs (warp_width = 1)
                copy_per_entry: 1,
                steal_scan: 30,
                kernel_launch: 0,
                stream_edges_per_cycle: 4.0,
                random_trans_per_cycle: 4.0,
            },
        }
    }

    /// Total warps for persistent-kernel engines (`blocks × warps/block`).
    pub fn total_warps(&self) -> u32 {
        self.sm_count * self.warps_per_block
    }

    /// Cost multiplier for flush/refill transfers: TMA overlaps the copy,
    /// modelled as a 35% reduction of the per-entry cost.
    pub fn copy_per_entry_effective(&self) -> f64 {
        if self.tma {
            self.costs.copy_per_entry as f64 * 0.65
        } else {
            self.costs.copy_per_entry as f64
        }
    }

    /// Cycles a warp spends on a contiguous `k`-entry transfer between
    /// shared and global memory (flush, refill, inter-block steal copy).
    ///
    /// Without TMA the copy is synchronous: one dependent round trip per
    /// 128-byte chunk (16 entries). With TMA (`cp_async_bulk` /
    /// `cuda::memcpy_async`, §3.3) the bulk engine overlaps the chunks,
    /// leaving the issue latency plus a small per-entry cost — this is
    /// the mechanism behind the paper's ~5% end-to-end TMA gain.
    pub fn transfer_cost(&self, k: u64) -> u64 {
        let c = &self.costs;
        if self.tma {
            (c.gmem_latency * 2).div_ceil(5) + (k as f64 * self.copy_per_entry_effective()) as u64
        } else {
            c.gmem_latency * (1 + k / 16) + k * c.copy_per_entry
        }
    }

    /// Converts simulated cycles to seconds.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e9)
    }

    /// Million traversed edges per second — the paper's headline metric
    /// (§4.1: "average performance as the ratio of traversed edges to
    /// runtime").
    pub fn mteps(&self, traversed_edges: u64, cycles: u64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        traversed_edges as f64 / self.cycles_to_seconds(cycles) / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table1() {
        assert_eq!(MachineModel::a100().sm_count, 108);
        assert_eq!(MachineModel::h100().sm_count, 132);
        assert_eq!(MachineModel::xeon_max().sm_count, 64);
        assert!(MachineModel::h100().tma);
        assert!(!MachineModel::a100().tma);
    }

    #[test]
    fn h100_has_more_parallelism_than_a100() {
        let a = MachineModel::a100();
        let h = MachineModel::h100();
        // 132/108 = 22.2% more SMs (§4.4)
        let ratio = h.sm_count as f64 / a.sm_count as f64;
        assert!((ratio - 1.222).abs() < 0.01);
        assert!(h.total_warps() > a.total_warps());
    }

    #[test]
    fn mteps_conversion() {
        let m = MachineModel::h100();
        // 1.83e9 cycles = 1 second; 5e6 edges in 1 s = 5 MTEPS.
        let mteps = m.mteps(5_000_000, 1_830_000_000);
        assert!((mteps - 5.0).abs() < 1e-9);
        assert_eq!(m.mteps(100, 0), 0.0);
    }

    #[test]
    fn tma_discounts_copies() {
        let h = MachineModel::h100();
        let nh = MachineModel::h100_no_tma();
        assert!(h.copy_per_entry_effective() < nh.copy_per_entry_effective());
        // A 64-entry flush: synchronous pays ~5 round trips, TMA well
        // under one.
        assert!(h.transfer_cost(64) * 3 < nh.transfer_cost(64));
        assert!(nh.transfer_cost(64) >= 5 * nh.costs.gmem_latency);
    }
}
