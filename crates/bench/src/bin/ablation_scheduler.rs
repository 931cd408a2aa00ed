//! Extra ablation (not in the paper): structured hierarchical stealing
//! vs a generic flat work-stealing scheduler, both running natively.
//!
//! Compares the native DiggerBees engine (two-level stacks, block
//! hierarchy, cutoff-gated batch steals on the lock-free CAS HotRing)
//! with the same traversal on the `crossbeam-deque` API (flat random
//! single-entry steals) at the same thread count, by wall clock on this
//! host. The workspace builds offline against an in-tree `crossbeam`
//! shim whose deque is one `Mutex<VecDeque>` per worker, so the deque
//! row measures that mutex deque, not upstream's lock-free Chase-Lev
//! deque. On a host with fewer cores than threads the numbers mostly
//! reflect protocol overhead rather than parallel speedup; the
//! interesting outputs are the steal counts and that both validate.
//!
//! Usage: `ablation_scheduler [--csv]` (uses small graphs; native runs).

use db_baselines::deque_dfs;
use db_bench::report::{csv_flag, Table};
use db_core::native::{NativeConfig, NativeEngine};
use db_core::DiggerBeesConfig;
use db_gen::Suite;
use db_graph::sources::select_sources;
use db_graph::validate::check_reachability;

fn main() {
    let mut table = Table::new([
        "graph",
        "engine",
        "threads",
        "wall ms",
        "MTEPS(wall)",
        "steals",
    ]);
    let specs = ["road_s", "mesh_s", "social_s", "copurchase_s"];
    let threads = 4u32;
    for name in specs {
        let spec = Suite::by_name(name).expect("known spec");
        let g = spec.build();
        let root = select_sources(&g, 1, 42)[0];

        let cfg = NativeConfig {
            algo: DiggerBeesConfig {
                blocks: 2,
                warps_per_block: 2,
                ..DiggerBeesConfig::default()
            },
        };
        let db = NativeEngine::new(cfg).run(&g, root);
        check_reachability(&g, root, &db.visited).unwrap();
        table.row([
            name.to_string(),
            "DiggerBees(native)".into(),
            threads.to_string(),
            format!("{:.2}", db.wall.as_secs_f64() * 1e3),
            format!("{:.1}", db.mteps()),
            (db.stats.steals_intra + db.stats.steals_inter).to_string(),
        ]);

        let dq = deque_dfs::run(&g, root, threads, 42);
        check_reachability(&g, root, &dq.visited).unwrap();
        let mteps = dq.edges_traversed as f64 / dq.wall.as_secs_f64() / 1e6;
        table.row([
            name.to_string(),
            "crossbeam-shim(mutex deque)".into(),
            threads.to_string(),
            format!("{:.2}", dq.wall.as_secs_f64() * 1e3),
            format!("{mteps:.1}"),
            dq.steals.to_string(),
        ]);
        eprintln!("  {name} done");
    }
    table.emit("ablation_scheduler", csv_flag());
    println!(
        "Both engines validate against the reference reachability; DiggerBees\n\
         steals in cutoff-gated batches (fewer, larger steals) where the generic\n\
         deque steals single entries."
    );
}
