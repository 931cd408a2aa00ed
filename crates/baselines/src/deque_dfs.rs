//! Generic work-stealing DFS on `crossbeam-deque` — an *extra* ablation
//! baseline (not from the paper): what you get by dropping the paper's
//! structured two-level/hierarchical design and handing the same
//! traversal to an off-the-shelf Chase-Lev scheduler with flat random
//! stealing. Used by `db-bench`'s scheduler ablation and as a second
//! independently implemented parallel DFS for cross-validation of the
//! native engine.

use crossbeam::deque::{Steal, Stealer, Worker};
use db_graph::{CsrGraph, VertexId, NO_PARENT};
use db_trace::{EventKind, NullTracer, TraceEvent, Tracer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Records an event with flat-scheduler provenance: each deque worker
/// thread is its own "block" (warp lane 0), timestamps are nanoseconds
/// since traversal start. Folds away entirely under [`NullTracer`].
#[inline(always)]
fn emit<T: Tracer>(tracer: &T, t0: Instant, tid: u32, kind: EventKind) {
    if T::ENABLED {
        tracer.record(TraceEvent {
            cycle: t0.elapsed().as_nanos() as u64,
            block: tid,
            warp: 0,
            kind,
        });
    }
}

/// Result of the crossbeam-deque DFS.
#[derive(Debug, Clone)]
pub struct DequeDfsResult {
    /// Reachability flags.
    pub visited: Vec<bool>,
    /// DFS-forest parents.
    pub parent: Vec<u32>,
    /// Wall-clock duration.
    pub wall: Duration,
    /// Adjacency entries examined.
    pub edges_traversed: u64,
    /// Successful steals.
    pub steals: u64,
}

/// Runs parallel DFS from `root` with `threads` workers on crossbeam
/// deques (LIFO owner end, FIFO steals — the classic Chase-Lev split).
pub fn run(g: &CsrGraph, root: VertexId, threads: u32, seed: u64) -> DequeDfsResult {
    run_traced(g, root, threads, seed, &NullTracer)
}

/// Like [`run`], recording events into `tracer` (worker thread as
/// block, warp lane 0, nanoseconds since start as timestamps).
pub fn run_traced<T: Tracer>(
    g: &CsrGraph,
    root: VertexId,
    threads: u32,
    seed: u64,
    tracer: &T,
) -> DequeDfsResult {
    let n = g.num_vertices();
    assert!((root as usize) < n, "root out of range");
    let threads = threads.max(1);

    let visited: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
    let parent: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(NO_PARENT)).collect();
    let live = AtomicI64::new(1);
    let done = AtomicBool::new(false);
    let edges = AtomicU64::new(0);
    let steals = AtomicU64::new(0);

    let workers: Vec<Worker<(u32, u32)>> = (0..threads).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<(u32, u32)>> = workers.iter().map(|w| w.stealer()).collect();

    visited[root as usize].store(1, Ordering::Release);
    workers[0].push((root, 0));

    let start = Instant::now();
    emit(
        tracer,
        start,
        0,
        EventKind::KernelPhase {
            phase: db_trace::PhaseKind::Start,
        },
    );
    emit(tracer, start, 0, EventKind::Push { vertex: root });
    crossbeam::scope(|scope| {
        for (tid, worker) in workers.into_iter().enumerate() {
            let visited = &visited;
            let parent = &parent;
            let live = &live;
            let done = &done;
            let edges = &edges;
            let steals = &steals;
            let stealers = &stealers;
            scope.spawn(move |_| {
                let mut rng =
                    SmallRng::seed_from_u64(seed ^ (tid as u64).wrapping_mul(0x9e3779b97f4a7c15));
                let mut local_edges = 0u64;
                let mut backoff = 0u32;
                loop {
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    let task = worker.pop().or_else(|| {
                        // Flat random stealing.
                        for _ in 0..2 * stealers.len() {
                            let v = rng.gen_range(0..stealers.len());
                            if v == tid {
                                continue;
                            }
                            if let Steal::Success(t) = stealers[v].steal() {
                                // relaxed-ok: statistics counter, read after join
                                steals.fetch_add(1, Ordering::Relaxed);
                                emit(
                                    tracer,
                                    start,
                                    tid as u32,
                                    EventKind::StealInter {
                                        victim_block: v as u32,
                                        entries: 1,
                                    },
                                );
                                return Some(t);
                            }
                        }
                        None
                    });
                    let Some((u, off)) = task else {
                        if backoff == 0 {
                            emit(tracer, start, tid as u32, EventKind::WarpIdle);
                        }
                        backoff = (backoff + 1).min(16);
                        if backoff < 4 {
                            std::hint::spin_loop();
                        } else {
                            std::thread::yield_now();
                        }
                        continue;
                    };
                    backoff = 0;
                    let row = g.neighbors(u);
                    let deg = row.len() as u32;
                    let mut i = off;
                    let mut child = None;
                    while i < deg {
                        let v = row[i as usize];
                        i += 1;
                        // relaxed-ok: optimistic pre-check; the CAS below decides
                        if visited[v as usize].load(Ordering::Relaxed) != 0 {
                            continue;
                        }
                        // relaxed-ok: CAS failure means another worker won the
                        // claim; we read nothing it published, so no acquire
                        if visited[v as usize]
                            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
                            .is_ok()
                        {
                            parent[v as usize].store(u, Ordering::Release);
                            child = Some(v);
                            break;
                        }
                    }
                    local_edges += (i - off) as u64;
                    if let Some(v) = child {
                        // Count the new entry BEFORE publishing it: a
                        // thief may consume the child instantly, and the
                        // live counter must never under-count while the
                        // parent continuation exists.
                        live.fetch_add(1, Ordering::AcqRel);
                        // Parent entry continues, child goes on top.
                        worker.push((u, i));
                        worker.push((v, 0));
                        emit(tracer, start, tid as u32, EventKind::Push { vertex: v });
                    } else {
                        emit(tracer, start, tid as u32, EventKind::Pop { vertex: u });
                        if live.fetch_sub(1, Ordering::AcqRel) == 1 {
                            done.store(true, Ordering::Release);
                        }
                    }
                }
                // relaxed-ok: statistics counter, read after join
                edges.fetch_add(local_edges, Ordering::Relaxed);
            });
        }
    })
    .expect("worker panicked");
    let wall = start.elapsed();
    emit(
        tracer,
        start,
        0,
        EventKind::KernelPhase {
            phase: db_trace::PhaseKind::Finish,
        },
    );

    DequeDfsResult {
        visited: visited
            .iter()
            .map(|a| a.load(Ordering::Acquire) != 0)
            .collect(),
        parent: parent.iter().map(|a| a.load(Ordering::Acquire)).collect(),
        wall,
        edges_traversed: edges.load(Ordering::Relaxed), // relaxed-ok: after join
        steals: steals.load(Ordering::Relaxed),         // relaxed-ok: after join
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use db_graph::validate::{check_reachability, check_spanning_tree};
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
    fn visits_reachable_set_and_builds_tree() {
        let g = grid(40, 40);
        let r = run(&g, 0, 4, 42);
        check_reachability(&g, 0, &r.visited).unwrap();
        check_spanning_tree(&g, 0, &r.visited, &r.parent).unwrap();
        assert_eq!(r.edges_traversed, g.num_arcs() as u64);
    }

    #[test]
    fn single_thread_works() {
        let g = grid(10, 10);
        let r = run(&g, 5, 1, 1);
        check_spanning_tree(&g, 5, &r.visited, &r.parent).unwrap();
        assert_eq!(r.steals, 0);
    }

    #[test]
    fn disconnected_untouched() {
        let mut b = GraphBuilder::undirected(6);
        b.edge(0, 1);
        b.edge(3, 4);
        let g = b.build();
        let r = run(&g, 0, 2, 7);
        assert!(!r.visited[3] && !r.visited[4]);
    }

    #[test]
    fn termination_race_regression() {
        // Regression: `live` must be incremented before the child entry
        // is published, or a fast thief finishing the child can zero the
        // counter while the parent continuation is still live, cutting
        // the traversal short. Deep paths with several threads provoke
        // the original schedule.
        let n = 3000u32;
        let g = GraphBuilder::undirected(n)
            .edges((0..n - 1).map(|i| (i, i + 1)))
            .build();
        for seed in 0..6 {
            let r = run(&g, 0, 3, seed);
            check_reachability(&g, 0, &r.visited).unwrap();
        }
    }

    #[test]
    fn repeated_runs_stay_valid() {
        let g = grid(25, 25);
        for seed in 0..4 {
            let r = run(&g, 0, 3, seed);
            check_reachability(&g, 0, &r.visited).unwrap();
            check_spanning_tree(&g, 0, &r.visited, &r.parent).unwrap();
        }
    }
}
