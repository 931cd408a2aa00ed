//! CPU work-stealing DFS baselines: CKL-PDFS and ACR-PDFS.
//!
//! Both run on the simulated 64-core Xeon Max (Table 1) via the
//! discrete-event core, with each core as an agent owning a private,
//! unbounded stack (CPU memory is not the constraint it is on GPUs).
//! Both report **reachability only** (`visited`, Table 2).
//!
//! * **CKL-PDFS** (Cong, Kodali, Krishnamoorthy, Lea, Saraswat, Wen —
//!   "Solving Large, Irregular Graph Problems Using Adaptive
//!   Work-Stealing", ICPP 2008): per-worker deques with *adaptive*
//!   steal-half-from-the-bottom; visited checks are plain reads with a
//!   CAS only on claim.
//! * **ACR-PDFS** (Acar, Charguéraud, Rainey — "A work-efficient
//!   algorithm for parallel unordered depth-first search", SC 2015):
//!   also steal-half, but the work-efficiency guarantee costs extra
//!   per-edge bookkeeping (vertex ownership handoff), modelled as a
//!   constant extra per-edge charge, and steals are coordinated with the
//!   victim (an extra memory round trip). The paper measures ACR ≈ 25%
//!   slower than CKL on average (Fig. 5 shows 1.37× vs 1.83× DiggerBees
//!   speedups); both properties follow from these two charges.

use crate::run::BaselineRun;
use db_gpu_sim::{Des, MachineModel, MemPipeline};
use db_graph::{CsrGraph, VertexId};
use db_trace::{EventKind, NullTracer, PhaseKind, TraceEvent, Tracer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Records an event with CPU-baseline provenance: each worker core is
/// its own "block" (there is no warp hierarchy), timestamps are
/// simulated cycles. Folds away entirely under [`NullTracer`].
#[inline(always)]
fn emit<T: Tracer>(tracer: &T, cycle: u64, worker: u32, kind: EventKind) {
    if T::ENABLED {
        tracer.record(TraceEvent {
            cycle,
            block: worker,
            warp: 0,
            kind,
        });
    }
}

/// Which CPU baseline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuWsStyle {
    /// Cong et al. adaptive work stealing.
    Ckl,
    /// Acar et al. work-efficient unordered DFS.
    Acr,
}

/// Configuration for the CPU work-stealing engines.
#[derive(Debug, Clone, Copy)]
pub struct CpuWsConfig {
    /// Worker (core) count; 0 means "use the machine's core count".
    pub workers: u32,
    /// Minimum victim stack size to steal from.
    pub steal_cutoff: u32,
    /// Edges examined per simulated event (amortization granularity).
    pub chunk: u32,
    /// RNG seed for victim selection.
    pub seed: u64,
}

impl Default for CpuWsConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            steal_cutoff: 4,
            chunk: 16,
            seed: 0xc0ffee,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Working,
    IdleScan,
    Reserve { victim: u32 },
}

struct Worker {
    stack: Vec<(u32, u32)>,
    phase: Phase,
    backoff: u64,
}

/// Runs CKL- or ACR-PDFS on machine `m` (normally
/// [`MachineModel::xeon_max`]).
pub fn run(
    g: &CsrGraph,
    root: VertexId,
    style: CpuWsStyle,
    cfg: &CpuWsConfig,
    m: &MachineModel,
) -> BaselineRun {
    run_traced(g, root, style, cfg, m, &NullTracer)
}

/// Like [`run`], recording events into `tracer` (worker core as block,
/// warp lane 0, simulated cycles as timestamps).
pub fn run_traced<T: Tracer>(
    g: &CsrGraph,
    root: VertexId,
    style: CpuWsStyle,
    cfg: &CpuWsConfig,
    m: &MachineModel,
    tracer: &T,
) -> BaselineRun {
    let n = g.num_vertices();
    assert!((root as usize) < n, "root out of range");
    let p = if cfg.workers == 0 {
        m.sm_count
    } else {
        cfg.workers
    };
    assert!(p >= 1);

    // Per-edge and per-steal charges by style (see module docs).
    let c = &m.costs;
    let edge_cost = match style {
        CpuWsStyle::Ckl => c.edge_chunk,
        CpuWsStyle::Acr => c.edge_chunk + c.edge_chunk / 3,
    };
    let steal_extra = match style {
        CpuWsStyle::Ckl => 0,
        CpuWsStyle::Acr => 2 * c.gmem_latency, // victim-coordinated split
    };

    let mut visited = vec![false; n];
    let mut workers: Vec<Worker> = (0..p)
        .map(|_| Worker {
            stack: Vec::new(),
            phase: Phase::IdleScan,
            backoff: 64,
        })
        .collect();
    visited[root as usize] = true;
    workers[0].stack.push((root, 0));
    workers[0].phase = Phase::Working;
    let mut live: u64 = 1;
    let mut finish: Option<u64> = None;
    let mut edges: u64 = 0;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut mem = MemPipeline::new(c.random_trans_per_cycle);

    emit(
        tracer,
        0,
        0,
        EventKind::KernelPhase {
            phase: PhaseKind::Start,
        },
    );
    emit(tracer, 0, 0, EventKind::Push { vertex: root });
    let mut des = Des::new(p);
    while let Some((now, w)) = des.next() {
        let wi = w as usize;
        match workers[wi].phase {
            Phase::Working => {
                let Some(&(u, off)) = workers[wi].stack.last() else {
                    workers[wi].phase = Phase::IdleScan;
                    workers[wi].backoff = 64;
                    emit(tracer, now, w, EventKind::WarpIdle);
                    des.yield_for(w, c.smem_op);
                    continue;
                };
                let row = g.neighbors(u);
                let deg = row.len() as u32;
                if off >= deg {
                    workers[wi].stack.pop();
                    emit(tracer, now, w, EventKind::Pop { vertex: u });
                    live -= 1;
                    if live == 0 && finish.is_none() {
                        finish = Some(now + c.smem_op);
                    }
                    des.yield_for(w, c.smem_op);
                    continue;
                }
                let chunk_end = (off + cfg.chunk).min(deg);
                let mut found = None;
                for i in off..chunk_end {
                    let v = row[i as usize];
                    if !visited[v as usize] {
                        found = Some((v, i));
                        break;
                    }
                }
                match found {
                    Some((v, i)) => {
                        visited[v as usize] = true;
                        edges += (i + 1 - off) as u64;
                        *workers[wi].stack.last_mut().expect("nonempty") = (u, i + 1);
                        workers[wi].stack.push((v, 0));
                        emit(tracer, now, w, EventKind::Push { vertex: v });
                        live += 1;
                        // Dependent-miss chain per discovery: visited CAS,
                        // the new vertex's row_ptr fetch, and the parent /
                        // frontier cache-line write, plus per-edge probes.
                        let scanned = (i + 1 - off) as u64;
                        let cost = scanned * edge_cost
                            + c.atomic_global
                            + 2 * c.gmem_latency
                            + 2 * c.smem_op
                            + mem.charge(now, scanned + 3);
                        des.yield_for(w, cost);
                    }
                    None => {
                        edges += (chunk_end - off) as u64;
                        *workers[wi].stack.last_mut().expect("nonempty") = (u, chunk_end);
                        let scanned = (chunk_end - off) as u64;
                        des.yield_for(
                            w,
                            scanned * edge_cost + c.smem_op + mem.charge(now, scanned + 1),
                        );
                    }
                }
            }
            Phase::IdleScan => {
                if live == 0 {
                    continue; // park
                }
                // Random victim probing (both papers probe random peers).
                let mut victim = None;
                for _ in 0..4 {
                    let cand = rng.gen_range(0..p);
                    if cand != w && workers[cand as usize].stack.len() >= cfg.steal_cutoff as usize
                    {
                        victim = Some(cand);
                        break;
                    }
                }
                match victim {
                    Some(v) => {
                        workers[wi].phase = Phase::Reserve { victim: v };
                        des.yield_for(w, 4 * c.steal_scan);
                    }
                    None => {
                        let cost = 4 * c.steal_scan + workers[wi].backoff;
                        workers[wi].backoff = (workers[wi].backoff * 2).min(4096);
                        des.yield_for(w, cost);
                    }
                }
            }
            Phase::Reserve { victim } => {
                let vlen = workers[victim as usize].stack.len();
                if vlen < cfg.steal_cutoff as usize {
                    emit(tracer, now, w, EventKind::StealFail { victim });
                    workers[wi].phase = Phase::IdleScan;
                    des.yield_for(w, c.atomic_global);
                    continue;
                }
                // Steal half from the bottom (oldest entries — the
                // largest unexplored subtrees).
                let k = vlen / 2;
                let taken: Vec<(u32, u32)> = workers[victim as usize].stack.drain(..k).collect();
                workers[wi].stack.extend(taken);
                emit(
                    tracer,
                    now,
                    w,
                    EventKind::StealInter {
                        victim_block: victim,
                        entries: k as u32,
                    },
                );
                workers[wi].phase = Phase::Working;
                workers[wi].backoff = 64;
                des.yield_for(
                    w,
                    c.atomic_global
                        + steal_extra
                        + k as u64 * c.copy_per_entry
                        + mem.charge(now, 1 + k as u64 / 16),
                );
            }
        }
    }

    let cycles = finish.unwrap_or_else(|| des.horizon());
    emit(
        tracer,
        cycles,
        0,
        EventKind::KernelPhase {
            phase: PhaseKind::Finish,
        },
    );
    BaselineRun {
        visited,
        parent: None, // Table 2: CKL/ACR report reachability only
        level: None,
        order: None,
        cycles: 0,
        edges_traversed: edges,
        mteps: 0.0,
    }
    .with_cost(m, cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use db_graph::validate::check_reachability;
    use db_graph::GraphBuilder;

    fn grid(w: u32, h: u32) -> CsrGraph {
        let mut b = GraphBuilder::undirected(w * h);
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    b.edge(y * w + x, y * w + x + 1);
                }
                if y + 1 < h {
                    b.edge(y * w + x, (y + 1) * w + x);
                }
            }
        }
        b.build()
    }

    #[test]
    fn ckl_visits_reachable_set() {
        let g = grid(40, 40);
        let m = MachineModel::xeon_max();
        let r = run(&g, 0, CpuWsStyle::Ckl, &CpuWsConfig::default(), &m);
        check_reachability(&g, 0, &r.visited).unwrap();
        assert!(r.parent.is_none(), "CKL reports reachability only");
        assert!(r.mteps > 0.0);
    }

    #[test]
    fn acr_visits_reachable_set() {
        let g = grid(40, 40);
        let m = MachineModel::xeon_max();
        let r = run(&g, 0, CpuWsStyle::Acr, &CpuWsConfig::default(), &m);
        check_reachability(&g, 0, &r.visited).unwrap();
    }

    #[test]
    fn ckl_outpaces_acr() {
        // The work-efficiency overhead makes ACR slower on the same
        // input — the Fig. 5 ordering.
        let g = grid(80, 80);
        let m = MachineModel::xeon_max();
        let cfg = CpuWsConfig::default();
        let ckl = run(&g, 0, CpuWsStyle::Ckl, &cfg, &m);
        let acr = run(&g, 0, CpuWsStyle::Acr, &cfg, &m);
        assert!(
            ckl.mteps > acr.mteps,
            "CKL {} <= ACR {}",
            ckl.mteps,
            acr.mteps
        );
    }

    #[test]
    fn stealing_spreads_work() {
        let g = grid(60, 60);
        let m = MachineModel::xeon_max();
        let r = run(&g, 0, CpuWsStyle::Ckl, &CpuWsConfig::default(), &m);
        assert!(r.cycles > 0);
        check_reachability(&g, 0, &r.visited).unwrap();
    }

    #[test]
    fn deterministic() {
        let g = grid(30, 30);
        let m = MachineModel::xeon_max();
        let cfg = CpuWsConfig::default();
        let a = run(&g, 0, CpuWsStyle::Ckl, &cfg, &m);
        let b = run(&g, 0, CpuWsStyle::Ckl, &cfg, &m);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.visited, b.visited);
    }

    #[test]
    fn single_worker_degenerates_to_serial() {
        let g = grid(10, 10);
        let m = MachineModel::xeon_max();
        let cfg = CpuWsConfig {
            workers: 1,
            ..Default::default()
        };
        let r = run(&g, 0, CpuWsStyle::Ckl, &cfg, &m);
        check_reachability(&g, 0, &r.visited).unwrap();
    }

    #[test]
    fn parallel_beats_single_worker_on_big_graphs() {
        let g = grid(100, 100);
        let m = MachineModel::xeon_max();
        let one = run(
            &g,
            0,
            CpuWsStyle::Ckl,
            &CpuWsConfig {
                workers: 1,
                ..Default::default()
            },
            &m,
        );
        let many = run(&g, 0, CpuWsStyle::Ckl, &CpuWsConfig::default(), &m);
        assert!(
            many.cycles * 4 < one.cycles,
            "64 workers should give >4x: {} vs {}",
            many.cycles,
            one.cycles
        );
    }
}
