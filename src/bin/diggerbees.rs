//! `diggerbees` — command-line traversal runner and server.
//!
//! ```text
//! diggerbees <graph> [options]
//!
//! <graph>                a suite name (euro_osm, ljournal, road_s, …)
//!                        or a path to a Matrix Market .mtx file
//! --method <m>           diggerbees (default) | serial | ckl | acr |
//!                        nvg | gunrock | berrybees | native
//! --machine <m>          h100 (default) | a100 | xeon
//! --source <v>           source vertex (default: GAP-style pick)
//! --sources <n>          average over n GAP-style sources (default 1)
//! --blocks <n>           thread blocks (default: one per SM; native: 2)
//! --warps <n>            warps per block (default 8; native: 2)
//! --hot-cutoff <n>       intra-block steal threshold (default 32)
//! --cold-cutoff <n>      inter-block steal threshold (default 64)
//! --stats                print graph characterization first
//! --trace <out>          record execution events for the first source
//!                        and write them to <out>; supported for
//!                        diggerbees, native, ckl, acr
//! --trace-format <f>     chrome | csv; default: by extension
//!                        (.csv → csv, anything else → chrome)
//! --profile <out>        (diggerbees method only) attribute every
//!                        simulated cycle of the first source to a
//!                        phase per SM; writes flamegraph-compatible
//!                        folded stacks to <out> and prints a summary
//! --faults <spec>        (diggerbees method only) run under a
//!                        deterministic fault plan, e.g.
//!                        'kill:sm=3@cycle=10000' or
//!                        'seed=7;dropsteal:sm=*@p=0.1'; prints
//!                        injection/recovery stats per source
//!
//! diggerbees serve [options]        run the NDJSON traversal service
//!
//! --addr <host:port>     listen address (default 127.0.0.1:7345)
//! --workers <n>          worker threads (default 4)
//! --queue-cap <n>        admission queue bound (default 1024)
//! --tenant-quota <n>     per-tenant queued-request bound (default none)
//! --budget-mb <n>        corpus-cache budget in MB (default 256)
//! --trace <out>          after the drain, write every recorded span
//!                        as Chrome-trace JSON (see also --flight-cap)
//! --faults <spec>        inject worker-domain faults into request
//!                        execution, e.g. 'seed=7;kill:worker=*@p=0.01'
//! --retry-max <n>        retries per crashed request (default 2); a
//!                        `sim` request's final attempt degrades to the
//!                        served kernel (engine `serial`)
//! --restart-budget <n>   pool-wide worker respawn budget (default 8)
//! --breaker-threshold <n> consecutive per-tenant failures that trip
//!                        the circuit breaker (default 5; 0 disables)
//! --breaker-cooldown-ms <n> open-breaker cooldown before a half-open
//!                        probe is admitted (default 250)
//! --flight-dir <dir>     write `.dbfr` flight dumps here on panic /
//!                        fault / deadline-miss (recorder is always
//!                        on; without a dir, dumps stay in memory)
//! --flight-cap <n>       spans retained per worker ring (default 4096)
//! --max-dumps <n>        automatic dump-file cap (default 8)
//! --slo <spec>           per-tenant objectives feeding the `db_slo_*`
//!                        burn-rate series, as comma-separated
//!                        `tenant:latency_us:latency_obj:avail_obj`
//!                        (e.g. '*:50000:0.99:0.999'); `*` matches
//!                        every tenant
//!
//! diggerbees store pack [options]   pack a graph into a .dbsg file
//!
//! --graph <key>          corpus key (grid:W:H, dag:N, suite name, …)
//!                        or social:N — a streaming social graph that
//!                        is packed row-by-row without materializing
//! --out <file>           output pack path (required)
//! --seed <s>             social-graph seed (default 1)
//! --no-compress          store raw u32 columns (no delta+varint)
//! --hub-threshold <n>    degree at which rows go to the raw hub
//!                        section (default 64)
//!
//! diggerbees store inspect <file>   print a pack's header + layout
//! diggerbees store verify <file>    checksum-verify and decode a pack
//!
//! diggerbees metrics [options]      scrape a running server
//!
//! --addr <host:port>     server address (default 127.0.0.1:7345)
//! --json                 print the JSON metrics snapshot instead of
//!                        the Prometheus text exposition
//! --check                validate the exposition with the bundled
//!                        parser; exit nonzero on any malformed line
//!
//! diggerbees flight inspect <f.dbfr> [--trace <hex-id>]
//!                        validate a flight-recorder dump and render
//!                        its span trees (all traces, or one by id)
//! diggerbees flight export <f.dbfr> --out <file.json>
//!                        validate a dump, then convert it to
//!                        Chrome-trace JSON (chrome://tracing / Perfetto)
//!
//! diggerbees top [options]          live serve dashboard (SLO burn)
//!
//! --addr <host:port>     server address (default 127.0.0.1:7345)
//! --interval-ms <n>      refresh interval (default 2000)
//! --iters <n>            stop after n refreshes (default: forever)
//! --once                 scrape once, print one frame, exit
//! --file <scrape.txt>    render from a saved Prometheus scrape
//!                        instead of a live server (for CI)
//!
//! diggerbees check [options]        run the correctness analyses:
//!                        the db-analyze static pass (A1..A6) gated on
//!                        <root>/analyze-baseline.json (absent file =
//!                        empty baseline; stale entries warn), every
//!                        model config, and a traced-sim race check
//!
//! --root <dir>           repo root for the static pass (default .)
//! --race <trace.csv>     also race-check a recorded `--trace` CSV
//! --skew <ns>            happens-before slack for --race (default
//!                        1000000; built-in sim check always uses 0)
//! --lint-only            skip the model checker and race detector
//! --models-only          skip the static pass and race detector
//! --write-baseline       write the current findings to
//!                        <root>/analyze-baseline.json instead of gating
//! --sarif <out>          also write the static findings as SARIF
//!                        2.1.0 JSON for CI annotation
//! ```
//!
//! Examples:
//!
//! ```text
//! diggerbees euro_osm
//! diggerbees ljournal --method berrybees
//! diggerbees my_graph.mtx --method native --blocks 4 --warps 2
//! diggerbees serve --addr 127.0.0.1:7345 --workers 4
//! ```
//!
//! The server runs until a client sends `{"op":"shutdown"}`, then
//! drains its queues and exits. See README.md "Serving" for the wire
//! protocol.

use diggerbees::baselines::bfs::{self, BfsFlavor};
use diggerbees::baselines::cpu_ws::{self, CpuWsConfig, CpuWsStyle};
use diggerbees::baselines::nvg::{self, NvgConfig};
use diggerbees::baselines::serial;
use diggerbees::check::race::{detect, RaceConfig};
use diggerbees::check::{
    EpochModel, EpochScenario, Explorer, LevelModel, LevelScenario, Model, Outcome, ProtoModel,
    ProtoScenario, RingModel, RingScenario, WalModel, WalScenario,
};
use diggerbees::core::native::{NativeConfig, NativeEngine};
use diggerbees::core::{
    run_sim, run_sim_faulted, run_sim_profiled, run_sim_traced, DiggerBeesConfig,
};
use diggerbees::fault::{FaultPlan, Injector};
use diggerbees::gen::Suite;
use diggerbees::graph::{mm, sources::select_sources, stats::graph_stats, CsrGraph, GraphBuilder};
use diggerbees::serve::net::{fetch_metrics, fetch_prometheus};
use diggerbees::serve::{ServeConfig, Server, TcpServer};
use diggerbees::sim::{CycleProfiler, MachineModel, SimPhase};
use diggerbees::trace::{chrome, csv, NullTracer, RingBufferTracer, TraceEvent};
use std::process::ExitCode;

/// Ring capacity for `--trace`: newest ~4M events are kept (~100 MB);
/// older events are dropped and the drop count is reported.
const TRACE_CAPACITY: usize = 1 << 22;

/// Methods whose engines are instrumented for `--trace`.
const TRACEABLE: &[&str] = &["diggerbees", "native", "ckl", "acr"];

/// Explicit trace export format (`--trace-format`); `None` falls back
/// to extension sniffing (`.csv` → CSV, anything else → Chrome JSON).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Chrome,
    Csv,
}

impl TraceFormat {
    fn parse(s: &str) -> Result<TraceFormat, String> {
        match s {
            "chrome" => Ok(TraceFormat::Chrome),
            "csv" => Ok(TraceFormat::Csv),
            other => Err(format!("unknown trace format '{other}' (chrome|csv)")),
        }
    }

    fn for_path(explicit: Option<TraceFormat>, path: &str) -> TraceFormat {
        explicit.unwrap_or(if path.ends_with(".csv") {
            TraceFormat::Csv
        } else {
            TraceFormat::Chrome
        })
    }
}

struct Args {
    graph: String,
    method: String,
    machine: String,
    source: Option<u32>,
    sources: usize,
    blocks: Option<u32>,
    warps: Option<u32>,
    hot_cutoff: u32,
    cold_cutoff: u32,
    stats: bool,
    trace: Option<String>,
    trace_format: Option<TraceFormat>,
    profile: Option<String>,
    faults: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        graph: String::new(),
        method: "diggerbees".into(),
        machine: "h100".into(),
        source: None,
        sources: 1,
        blocks: None,
        warps: None,
        hot_cutoff: 32,
        cold_cutoff: 64,
        stats: false,
        trace: None,
        trace_format: None,
        profile: None,
        faults: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match a.as_str() {
            "--method" => args.method = take("--method")?,
            "--machine" => args.machine = take("--machine")?,
            "--source" => args.source = Some(parse_num(&take("--source")?)?),
            "--sources" => args.sources = parse_num(&take("--sources")?)? as usize,
            "--blocks" => args.blocks = Some(parse_num(&take("--blocks")?)?),
            "--warps" => args.warps = Some(parse_num(&take("--warps")?)?),
            "--hot-cutoff" => args.hot_cutoff = parse_num(&take("--hot-cutoff")?)?,
            "--cold-cutoff" => args.cold_cutoff = parse_num(&take("--cold-cutoff")?)?,
            "--stats" => args.stats = true,
            "--trace" => args.trace = Some(take("--trace")?),
            "--trace-format" => {
                args.trace_format = Some(TraceFormat::parse(&take("--trace-format")?)?)
            }
            "--profile" => args.profile = Some(take("--profile")?),
            "--faults" => args.faults = Some(take("--faults")?),
            "--help" | "-h" => {
                return Err("usage: diggerbees <graph> [--method m] [--machine m] \
                            [--source v] [--sources n] [--blocks n] [--warps n] \
                            [--hot-cutoff n] [--cold-cutoff n] [--stats] \
                            [--trace out.json] [--trace-format chrome|csv] \
                            [--profile out.folded] [--faults spec]\n\
                            \x20      diggerbees serve [--addr host:port] [--workers n] \
                            [--queue-cap n] [--tenant-quota n] [--budget-mb n] \
                            [--trace spans.json] [--faults spec] [--retry-max n] \
                            [--restart-budget n] [--breaker-threshold n] [--breaker-cooldown-ms n] \
                            [--wal-dir dir] [--fsync always|group=N|never]\n\
                            \x20      diggerbees metrics [--addr host:port] [--json] \
                            [--check]\n\
                            \x20      diggerbees flight <inspect|export> <file.dbfr> \
                            [--trace hex] [--out file.json]\n\
                            \x20      diggerbees top [--addr host:port] [--interval-ms n] \
                            [--iters n] [--once] [--file scrape.txt]\n\
                            \x20      diggerbees wal <inspect|verify> <dir|wal.log>\n\
                            \x20      diggerbees check [--root dir] [--race trace.csv] \
                            [--skew ns] [--lint-only] [--models-only] \
                            [--write-baseline] [--sarif out]"
                    .into())
            }
            other if args.graph.is_empty() && !other.starts_with('-') => {
                args.graph = other.to_string();
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.graph.is_empty() {
        return Err("missing <graph> (a suite name or a .mtx path); --help for usage".into());
    }
    Ok(args)
}

fn parse_num(s: &str) -> Result<u32, String> {
    s.parse().map_err(|_| format!("invalid number: {s}"))
}

fn load_graph(name: &str) -> Result<CsrGraph, String> {
    if name.ends_with(".mtx") {
        return mm::read_matrix_market_file(name).map_err(|e| e.to_string());
    }
    match Suite::by_name(name) {
        Some(spec) => Ok(spec.build()),
        None => {
            let known: Vec<&str> = Suite::full().iter().map(|s| s.name).collect();
            Err(format!(
                "unknown graph '{name}'; known: {}",
                known.join(", ")
            ))
        }
    }
}

fn machine(name: &str) -> Result<MachineModel, String> {
    match name {
        "h100" => Ok(MachineModel::h100()),
        "a100" => Ok(MachineModel::a100()),
        "xeon" => Ok(MachineModel::xeon_max()),
        other => Err(format!("unknown machine '{other}' (h100|a100|xeon)")),
    }
}

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("serve") => return serve_main(),
        Some("metrics") => return metrics_main(),
        Some("check") => return check_main(),
        Some("store") => return store_main(),
        Some("wal") => return wal_main(),
        Some("flight") => return flight_main(),
        Some("top") => return top_main(),
        _ => {}
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let g = match load_graph(&args.graph) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let m = match machine(&args.machine) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{}: {} vertices, {} edges ({:.1} MB CSR)",
        args.graph,
        g.num_vertices(),
        g.num_edges(),
        g.memory_bytes() as f64 / 1e6
    );

    if args.trace.is_some() && !TRACEABLE.contains(&args.method.as_str()) {
        eprintln!(
            "--trace is not supported for method '{}' (supported: {})",
            args.method,
            TRACEABLE.join(", ")
        );
        return ExitCode::FAILURE;
    }
    if args.profile.is_some() && args.method != "diggerbees" {
        eprintln!(
            "--profile attributes simulated cycles and is only supported \
             for the 'diggerbees' method (got '{}')",
            args.method
        );
        return ExitCode::FAILURE;
    }
    if args.faults.is_some() && args.method != "diggerbees" {
        eprintln!(
            "--faults drives the simulator's SM-domain chaos hooks and is \
             only supported for the 'diggerbees' method (got '{}'); \
             worker-domain faults live on `diggerbees serve --faults`",
            args.method
        );
        return ExitCode::FAILURE;
    }
    if args.faults.is_some() && args.profile.is_some() {
        eprintln!("--faults and --profile are mutually exclusive");
        return ExitCode::FAILURE;
    }
    let fault_plan = match &args.faults {
        Some(spec) => match FaultPlan::parse(spec) {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("bad --faults spec '{spec}': {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    // Fail fast on an unwritable trace destination: creating the file
    // up front beats discovering a bad path after minutes of traversal.
    let trace_file = match &args.trace {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Some(f),
            Err(e) => {
                eprintln!("cannot write trace file '{path}': {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let tracer = args
        .trace
        .as_ref()
        .map(|_| RingBufferTracer::new(TRACE_CAPACITY));

    let roots: Vec<u32> = match args.source {
        Some(s) => vec![s],
        None => select_sources(&g, args.sources, 42),
    };
    if tracer.is_some() && roots.len() > 1 {
        println!("note: --trace records the first source only");
    }
    if args.stats {
        let s = graph_stats(&g, roots[0]);
        println!(
            "stats: avg deg {:.2}, max deg {}, skew {:.1}, BFS levels {}, DFS stack {}, reachable {}",
            s.avg_degree, s.max_degree, s.degree_skew, s.bfs_levels, s.dfs_max_stack, s.reachable
        );
    }

    let cfg = DiggerBeesConfig {
        blocks: args.blocks.unwrap_or(m.sm_count),
        warps_per_block: args.warps.unwrap_or(8),
        hot_cutoff: args.hot_cutoff,
        cold_cutoff: args.cold_cutoff,
        ..Default::default()
    };

    let mut mteps_all = Vec::new();
    for (ri, &root) in roots.iter().enumerate() {
        let label = args.method.as_str();
        // Only the first source goes into the trace ring.
        let rt = if ri == 0 { tracer.as_ref() } else { None };
        let mteps = match label {
            "diggerbees" => {
                // Only the first source is profiled (same rule as --trace).
                let profiler = (ri == 0 && args.profile.is_some())
                    .then(|| CycleProfiler::new(cfg.blocks as usize));
                // A fresh injector per source: each traversal replays
                // the plan from a clean slate, so every source is
                // independently deterministic.
                let injector = fault_plan.clone().map(Injector::new);
                let r = match (&injector, &profiler, rt) {
                    (Some(i), _, Some(t)) => run_sim_faulted(&g, root, &cfg, &m, t, i),
                    (Some(i), _, None) => run_sim_faulted(&g, root, &cfg, &m, &NullTracer, i),
                    (None, Some(p), Some(t)) => run_sim_profiled(&g, root, &cfg, &m, t, p),
                    (None, Some(p), None) => run_sim_profiled(&g, root, &cfg, &m, &NullTracer, p),
                    (None, None, Some(t)) => run_sim_traced(&g, root, &cfg, &m, t),
                    (None, None, None) => run_sim(&g, root, &cfg, &m),
                };
                if let (Some(prof), Some(path)) = (&profiler, &args.profile) {
                    if let Err(e) = export_profile(prof, path, r.stats.cycles) {
                        eprintln!("failed to write profile to '{path}': {e}");
                        return ExitCode::FAILURE;
                    }
                }
                println!(
                    "root {root}: {:.1} MTEPS, {} cycles, {} visited, steals {}+{}",
                    r.mteps,
                    r.stats.cycles,
                    r.stats.vertices_visited,
                    r.stats.steals_intra,
                    r.stats.steals_inter
                );
                if let Some(i) = &injector {
                    println!(
                        "root {root}: faults: {} injected, {} SM(s) killed, \
                         {} block(s) / {} ring entries recovered",
                        i.injected(),
                        r.stats.sms_killed,
                        r.stats.blocks_recovered,
                        r.stats.entries_recovered
                    );
                }
                Some(r.mteps)
            }
            "serial" => Some(serial::run(&g, root, &MachineModel::xeon_max()).mteps),
            "ckl" | "acr" => {
                let style = if label == "ckl" {
                    CpuWsStyle::Ckl
                } else {
                    CpuWsStyle::Acr
                };
                let xeon = MachineModel::xeon_max();
                let ws_cfg = CpuWsConfig::default();
                let r = match rt {
                    Some(t) => cpu_ws::run_traced(&g, root, style, &ws_cfg, &xeon, t),
                    None => cpu_ws::run(&g, root, style, &ws_cfg, &xeon),
                };
                Some(r.mteps)
            }
            "nvg" => match nvg::run(&g, root, &NvgConfig::default(), &m) {
                Ok(r) => Some(r.mteps),
                Err(e) => {
                    println!("root {root}: NVG-DFS failed ({e})");
                    None
                }
            },
            "gunrock" => Some(bfs::run(&g, root, BfsFlavor::Gunrock, &m).mteps),
            "berrybees" => Some(bfs::run(&g, root, BfsFlavor::BerryBees, &m).mteps),
            "native" => {
                let algo = DiggerBeesConfig {
                    blocks: args.blocks.unwrap_or(2),
                    warps_per_block: args.warps.unwrap_or(2),
                    hot_cutoff: args.hot_cutoff,
                    cold_cutoff: args.cold_cutoff,
                    ..Default::default()
                };
                let engine = NativeEngine::new(NativeConfig { algo });
                let out = match rt {
                    Some(t) => engine.run_traced(&g, root, t),
                    None => engine.run(&g, root),
                };
                println!(
                    "root {root}: {}x{} warps, wall {:?}, {} visited, steals {}+{}",
                    algo.blocks,
                    algo.warps_per_block,
                    out.wall,
                    out.stats.vertices_visited,
                    out.stats.steals_intra,
                    out.stats.steals_inter
                );
                Some(out.mteps())
            }
            other => {
                eprintln!("unknown method '{other}'");
                return ExitCode::FAILURE;
            }
        };
        if let Some(v) = mteps {
            mteps_all.push(v);
        }
    }
    if !mteps_all.is_empty() {
        println!(
            "{} on {}: {:.1} MTEPS (avg over {} source(s))",
            args.method,
            args.machine,
            mteps_all.iter().sum::<f64>() / mteps_all.len() as f64,
            mteps_all.len()
        );
    }
    if let (Some(path), Some(file), Some(tracer)) = (&args.trace, trace_file, &tracer) {
        let format = TraceFormat::for_path(args.trace_format, path);
        let dropped = tracer.dropped();
        let events = tracer.snapshot();
        if let Err(e) = write_trace(file, format, &events, dropped) {
            eprintln!("failed to write trace to '{path}': {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "trace: {} events written to {path} ({format:?})",
            events.len()
        );
        if dropped > 0 {
            eprintln!(
                "warning: trace ring overflowed; oldest {dropped} events dropped \
                 (capacity {TRACE_CAPACITY}); drop count embedded in the export"
            );
        }
    }
    ExitCode::SUCCESS
}

/// Writes `events` to an already-opened trace file in the given
/// format, embedding the ring buffer's drop count (Chrome: an
/// `otherData.dropped_events` field; CSV: a `Dropped` trailer row).
fn write_trace(
    file: std::fs::File,
    format: TraceFormat,
    events: &[TraceEvent],
    dropped: u64,
) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(file);
    match format {
        TraceFormat::Csv => csv::write_csv_with_drops(events, dropped, &mut out)?,
        TraceFormat::Chrome => chrome::write_chrome_trace_with_drops(events, dropped, &mut out)?,
    }
    out.flush()
}

/// Writes the cycle-attribution profile as flamegraph-compatible
/// folded stacks (`diggerbees;sm<N>;<phase> <cycles>` lines) and
/// prints a per-phase summary of where the simulated warp-cycles went.
fn export_profile(prof: &CycleProfiler, path: &str, makespan: u64) -> std::io::Result<()> {
    std::fs::write(path, prof.folded_stacks())?;
    let total: u64 = SimPhase::ALL.iter().map(|&p| prof.total_cycles(p)).sum();
    println!(
        "profile: folded stacks for {} SM(s) written to {path} \
         (makespan {makespan} cycles, {total} warp-cycles attributed)",
        prof.sms()
    );
    for &p in SimPhase::ALL.iter() {
        let c = prof.total_cycles(p);
        println!(
            "profile: {:>12}  {:>14} warp-cycles ({:5.1}%)",
            p.name(),
            c,
            100.0 * c as f64 / total.max(1) as f64
        );
    }
    Ok(())
}

/// Rows of a `social:N` graph `store pack` generates and encodes at a
/// time: about 2.6M arcs, 10 MiB of columns.
const PACK_BLOCK_ROWS: u32 = 1 << 18;

/// `diggerbees store pack|inspect|verify`: the `.dbsg` pack toolbox.
///
/// `pack` streams `social:N` graphs block by block into the pack writer
/// (peak memory is one block of rows plus the `row_ptr` array), so
/// multi-million-vertex packs never materialize a CSR; every other
/// corpus key builds in RAM first. `inspect` prints the header and
/// layout of an existing pack; `verify` checksum-verifies and fully
/// decodes it, exiting nonzero on any typed load error.
fn store_main() -> ExitCode {
    use diggerbees::store::{load, PackOptions, PackWriter};

    let fail = |e: String| {
        eprintln!("{e}");
        ExitCode::FAILURE
    };
    let mut it = std::env::args().skip(2);
    let verb = match it.next() {
        Some(v) => v,
        None => return fail("usage: diggerbees store <pack|inspect|verify> ...".into()),
    };
    match verb.as_str() {
        "pack" => {
            let mut graph_key = String::new();
            let mut out = String::new();
            let mut seed = 1u64;
            let mut opts = PackOptions::default();
            while let Some(a) = it.next() {
                let mut take = |name: &str| -> Result<String, String> {
                    it.next().ok_or_else(|| format!("{name} requires a value"))
                };
                let r = (|| -> Result<(), String> {
                    match a.as_str() {
                        "--graph" => graph_key = take("--graph")?,
                        "--out" => out = take("--out")?,
                        "--seed" => seed = parse_num(&take("--seed")?)? as u64,
                        "--no-compress" => opts.compress = false,
                        "--hub-threshold" => {
                            opts.hub_threshold = parse_num(&take("--hub-threshold")?)?
                        }
                        other => return Err(format!("unknown argument: {other}")),
                    }
                    Ok(())
                })();
                if let Err(e) = r {
                    return fail(e);
                }
            }
            if graph_key.is_empty() || out.is_empty() {
                return fail("store pack needs --graph <key> and --out <file>".into());
            }
            let t0 = std::time::Instant::now();
            let summary = if let Some(dims) = graph_key.strip_prefix("social:") {
                let (n_str, avg_str) = match dims.split_once(':') {
                    Some((n, avg)) => (n, Some(avg)),
                    None => (dims, None),
                };
                let n: u32 = match n_str.parse::<u32>().ok().filter(|&n| n > 0) {
                    Some(n) => n,
                    None => {
                        return fail(format!(
                            "bad social key 'social:{dims}' (want social:N or social:N:AVG)"
                        ))
                    }
                };
                let mut params = diggerbees::gen::SocialParams::default();
                if let Some(avg) = avg_str {
                    params.avg_degree = match avg.parse::<u32>().ok().filter(|&d| d > 0) {
                        Some(d) => d,
                        None => {
                            return fail(format!("bad average degree '{avg}' in '{graph_key}'"))
                        }
                    };
                }
                let sg = diggerbees::gen::SocialGraph::new(n, seed, params);
                let mut w = match PackWriter::create(&out, n, true, opts) {
                    Ok(w) => w,
                    Err(e) => return fail(format!("cannot start pack '{out}': {e}")),
                };
                // One block of rows at a time, generated and encoded on
                // every core into buffers reused from block to block.
                let (mut ends, mut cols) = (Vec::new(), Vec::new());
                for lo in (0..n).step_by(PACK_BLOCK_ROWS as usize) {
                    let hi = n.min(lo.saturating_add(PACK_BLOCK_ROWS));
                    sg.rows_into(lo..hi, &mut ends, &mut cols);
                    if let Err(e) = w.push_rows(&ends, &cols) {
                        return fail(format!("packing rows {lo}..{hi}: {e}"));
                    }
                }
                match w.finish() {
                    Ok(s) => s,
                    Err(e) => return fail(format!("sealing pack '{out}': {e}")),
                }
            } else {
                let g = match diggerbees::serve::corpus::build_graph(&graph_key) {
                    Ok(g) => g,
                    Err(e) => return fail(e),
                };
                match diggerbees::store::pack_graph(&g, &out, opts) {
                    Ok(s) => s,
                    Err(e) => return fail(format!("packing '{graph_key}': {e}")),
                }
            };
            println!(
                "packed {graph_key} -> {out}: {} vertices, {} arcs, {} bytes \
                 ({:.2}x vs raw CSR, {} hub rows / {} hub arcs) in {:.1}s",
                summary.n,
                summary.arcs,
                summary.file_bytes,
                summary.file_bytes as f64 / summary.csr_bytes.max(1) as f64,
                summary.hub_rows,
                summary.hub_arcs,
                t0.elapsed().as_secs_f64()
            );
            ExitCode::SUCCESS
        }
        "inspect" | "verify" => {
            let path = match it.next() {
                Some(p) => p,
                None => return fail(format!("usage: diggerbees store {verb} <file.dbsg>")),
            };
            let t0 = std::time::Instant::now();
            match load(&path) {
                Ok(s) => {
                    println!("{}", s.describe());
                    let h = s.header();
                    println!(
                        "header: version {} sections {} hub-threshold {} partitions {}",
                        h.version, h.section_count, h.hub_threshold, h.partition_count
                    );
                    let g = s.graph();
                    let resident = s
                        .resident_mapped_bytes()
                        .map_or_else(|| "unknown".to_string(), |b| b.to_string());
                    println!(
                        "residency: {} heap bytes, {} mapped bytes, {resident} resident in the mapping, {} charged",
                        g.heap_bytes(),
                        g.mapped_bytes(),
                        g.charged_bytes()
                    );
                    if verb == "verify" {
                        println!(
                            "verify: all section checksums and row decodes OK in {:.1}s",
                            t0.elapsed().as_secs_f64()
                        );
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => fail(format!("{verb} {path}: {e}")),
            }
        }
        other => fail(format!(
            "unknown store verb '{other}' (pack|inspect|verify)"
        )),
    }
}

/// `diggerbees wal`: offline inspection of a durability directory —
/// the checksummed WAL and the checkpoint manifest that `serve
/// --wal-dir` maintains. `inspect` summarizes; `verify` additionally
/// loads every pack the manifest references. Both run read-only (the
/// torn-tail report says what recovery *would* truncate).
fn wal_main() -> ExitCode {
    use diggerbees::wal::{scan_file, Manifest, MANIFEST_FILE, WAL_FILE};

    let fail = |e: String| {
        eprintln!("{e}");
        ExitCode::FAILURE
    };
    let mut it = std::env::args().skip(2);
    let verb = match it.next() {
        Some(v) if v == "inspect" || v == "verify" => v,
        _ => return fail("usage: diggerbees wal <inspect|verify> <dir|wal.log>".into()),
    };
    let path = match it.next() {
        Some(p) => std::path::PathBuf::from(p),
        None => return fail(format!("usage: diggerbees wal {verb} <dir|wal.log>")),
    };
    let (wal_path, manifest_path) = if path.is_dir() {
        (path.join(WAL_FILE), Some(path.join(MANIFEST_FILE)))
    } else {
        (path.clone(), None)
    };
    let scan = match scan_file(&wal_path) {
        Ok(s) => s,
        Err(e) => return fail(format!("{verb} {}: {e}", wal_path.display())),
    };
    println!(
        "wal {}: {} record(s), next LSN {}",
        wal_path.display(),
        scan.records.len(),
        scan.next_lsn
    );
    // Per-corpus breakdown in first-seen order.
    let mut order: Vec<String> = Vec::new();
    for r in &scan.records {
        if !order.contains(&r.corpus) {
            order.push(r.corpus.clone());
        }
    }
    for corpus in &order {
        let recs: Vec<_> = scan
            .records
            .iter()
            .filter(|r| &r.corpus == corpus)
            .collect();
        let (adds, dels, tombs) = recs.iter().fold((0usize, 0usize, 0usize), |acc, r| {
            (
                acc.0 + r.adds.len(),
                acc.1 + r.dels.len(),
                acc.2 + r.tombs.len(),
            )
        });
        println!(
            "  corpus {corpus}: {} record(s), lsn {}..={}, epochs {}..={}, \
             {adds} add(s) {dels} del(s) {tombs} tombstone(s)",
            recs.len(),
            recs.first().map_or(0, |r| r.lsn),
            recs.last().map_or(0, |r| r.lsn),
            recs.first().map_or(0, |r| r.epoch),
            recs.last().map_or(0, |r| r.epoch),
        );
    }
    if scan.tail.torn {
        println!(
            "tail: TORN — recovery would truncate {} trailing byte(s)",
            scan.tail.truncated_bytes
        );
    } else {
        println!("tail: clean");
    }
    let mut broken = 0usize;
    if let Some(mp) = manifest_path {
        match Manifest::load(&mp) {
            Ok(Some(m)) => {
                println!("manifest {}: {} entry(ies)", mp.display(), m.entries.len());
                for me in m.entries.values() {
                    let pack = me
                        .pack
                        .as_ref()
                        .map_or("<none>".to_string(), |p| p.display().to_string());
                    println!(
                        "  corpus {}: checkpoint epoch {}, lsn {}, {} applied, pack {pack}",
                        me.corpus, me.epoch, me.lsn, me.applied
                    );
                    if verb == "verify" {
                        if let Some(p) = &me.pack {
                            // Manifests record bare pack names resolved
                            // against the directory they live in.
                            let p = if p.is_absolute() {
                                p.clone()
                            } else {
                                mp.parent().unwrap_or(std::path::Path::new(".")).join(p)
                            };
                            match diggerbees::store::load(&p) {
                                Ok(_) => println!("    pack OK"),
                                Err(e) => {
                                    broken += 1;
                                    println!("    pack BROKEN: {e}");
                                }
                            }
                        }
                    }
                }
            }
            Ok(None) => println!("manifest {}: absent (no checkpoint yet)", mp.display()),
            Err(e) => return fail(format!("{verb} {}: {e}", mp.display())),
        }
    }
    if verb == "verify" {
        if broken > 0 {
            return fail(format!("verify: {broken} broken pack(s)"));
        }
        println!("verify: every frame checksum and referenced pack OK");
    }
    ExitCode::SUCCESS
}

/// `diggerbees metrics`: scrape a running server over the NDJSON
/// endpoint — Prometheus text by default, `--json` for the snapshot,
/// `--check` to validate the exposition with the bundled parser.
fn metrics_main() -> ExitCode {
    let mut addr = "127.0.0.1:7345".to_string();
    let mut json = false;
    let mut check = false;
    let mut it = std::env::args().skip(2);
    let fail = |e: String| {
        eprintln!("{e}");
        ExitCode::FAILURE
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = v,
                None => return fail("--addr requires a value".into()),
            },
            "--json" => json = true,
            "--check" => check = true,
            other => return fail(format!("unknown argument: {other} (see --help)")),
        }
    }
    use std::net::ToSocketAddrs;
    let sock = match addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(s) => s,
        None => return fail(format!("cannot resolve address '{addr}'")),
    };
    if json {
        return match fetch_metrics(&sock) {
            Ok(m) => {
                println!("{}", m.to_value().to_json());
                ExitCode::SUCCESS
            }
            Err(e) => fail(format!("cannot fetch metrics from {addr}: {e}")),
        };
    }
    let text = match fetch_prometheus(&sock) {
        Ok(t) => t,
        Err(e) => return fail(format!("cannot scrape {addr}: {e}")),
    };
    if check {
        match diggerbees::metrics::validate_exposition(&text) {
            Ok(exp) => {
                let mut names: Vec<&str> = exp.samples.iter().map(|s| s.name.as_str()).collect();
                names.dedup();
                println!(
                    "ok: {} samples across {} series from {addr}",
                    exp.samples.len(),
                    names.len()
                );
                ExitCode::SUCCESS
            }
            Err(e) => fail(format!("malformed exposition from {addr}: {e}")),
        }
    } else {
        print!("{text}");
        ExitCode::SUCCESS
    }
}

/// `diggerbees serve`: bind the NDJSON endpoint and run until a client
/// sends `{"op":"shutdown"}`, then drain and report.
fn serve_main() -> ExitCode {
    let mut addr = "127.0.0.1:7345".to_string();
    let mut cfg = ServeConfig::default();
    let mut trace: Option<String> = None;
    let mut it = std::env::args().skip(2);
    let fail = |e: String| {
        eprintln!("{e}");
        ExitCode::FAILURE
    };
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        let r = (|| -> Result<(), String> {
            match a.as_str() {
                "--addr" => addr = take("--addr")?,
                "--workers" => cfg.workers = parse_num(&take("--workers")?)?.max(1) as usize,
                "--queue-cap" => {
                    cfg.queue_capacity = parse_num(&take("--queue-cap")?)?.max(1) as usize
                }
                "--tenant-quota" => {
                    cfg.tenant_quota = Some(parse_num(&take("--tenant-quota")?)? as usize)
                }
                "--budget-mb" => {
                    cfg.corpus_budget_bytes = (parse_num(&take("--budget-mb")?)? as usize) << 20
                }
                "--trace" => trace = Some(take("--trace")?),
                "--faults" => {
                    let spec = take("--faults")?;
                    let plan = FaultPlan::parse(&spec)
                        .map_err(|e| format!("bad --faults spec '{spec}': {e}"))?;
                    cfg.resilience.faults = Some(std::sync::Arc::new(Injector::new(plan)));
                }
                "--retry-max" => cfg.resilience.retry_max = parse_num(&take("--retry-max")?)?,
                "--restart-budget" => {
                    cfg.resilience.restart_budget = parse_num(&take("--restart-budget")?)?
                }
                "--breaker-threshold" => {
                    cfg.resilience.breaker_threshold = parse_num(&take("--breaker-threshold")?)?
                }
                "--breaker-cooldown-ms" => {
                    cfg.resilience.breaker_cooldown_ms =
                        parse_num(&take("--breaker-cooldown-ms")?)? as u64
                }
                "--flight-dir" => {
                    cfg.flight.dump_dir = Some(std::path::PathBuf::from(take("--flight-dir")?))
                }
                "--flight-cap" => {
                    cfg.flight.per_worker_capacity = parse_num(&take("--flight-cap")?)? as usize
                }
                "--max-dumps" => cfg.flight.max_dumps = parse_num(&take("--max-dumps")?)?,
                "--slo" => {
                    let spec = take("--slo")?;
                    cfg.slo = diggerbees::metrics::SloConfig::parse(&spec)
                        .map_err(|e| format!("bad --slo spec '{spec}': {e}"))?;
                }
                "--wal-dir" => {
                    cfg.durability.wal_dir = Some(std::path::PathBuf::from(take("--wal-dir")?))
                }
                "--fsync" => {
                    let spec = take("--fsync")?;
                    cfg.durability.fsync = diggerbees::wal::FsyncPolicy::parse(&spec)
                        .map_err(|e| format!("bad --fsync spec '{spec}': {e}"))?;
                }
                other => return Err(format!("unknown argument: {other} (see --help)")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            return fail(e);
        }
    }
    let trace_file = match &trace {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Some(f),
            Err(e) => return fail(format!("cannot write trace file '{path}': {e}")),
        },
        None => None,
    };
    let server = match Server::try_start(cfg.clone()) {
        Ok(s) => s,
        Err(e) => return fail(format!("cannot start server: {e}")),
    };
    if let Some(info) = server.handle().recovery() {
        println!(
            "recovery: {} corpora, {} record(s) replayed, {} skipped{}",
            info.corpora,
            info.replayed,
            info.skipped,
            if info.torn_truncated {
                " (torn WAL tail truncated)"
            } else {
                ""
            }
        );
    }
    let mut tcp = match TcpServer::bind(server.handle(), &addr) {
        Ok(t) => t,
        Err(e) => return fail(format!("cannot bind {addr}: {e}")),
    };
    println!(
        "serving on {} ({} workers, queue {}, corpus budget {} MB); \
         send {{\"op\":\"shutdown\"}} to stop",
        tcp.addr(),
        cfg.workers,
        cfg.queue_capacity,
        cfg.corpus_budget_bytes >> 20
    );
    while !tcp.shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    println!("shutdown requested; draining...");
    tcp.stop();
    let handle = server.handle();
    let m = server.shutdown();
    println!(
        "served {} ok / {} expired / {} rejected / {} errors / {} failed; \
         p50 {} us, p99 {} us; cache hit rate {:.3}",
        m.completed,
        m.expired,
        m.rejected(),
        m.errors,
        m.failed,
        m.p50_us,
        m.p99_us,
        m.cache_hit_rate()
    );
    if m.retries + m.worker_panics + m.breaker_trips + m.faults_injected > 0 {
        println!(
            "resilience: {} faults injected, {} retries, {} degraded to serial; \
             {} worker panic(s), {} respawn(s); {} breaker trip(s), {} shed",
            m.faults_injected,
            m.retries,
            m.degraded,
            m.worker_panics,
            m.worker_respawns,
            m.breaker_trips,
            m.rejected_breaker
        );
    }
    if let (Some(path), Some(mut file)) = (&trace, trace_file) {
        let dump = handle.flight_dump();
        let doc = diggerbees::span::chrome_document(&dump).to_json();
        if let Err(e) = std::io::Write::write_all(&mut file, doc.as_bytes()) {
            return fail(format!("failed to write trace to '{path}': {e}"));
        }
        println!("trace: {} spans written to {path}", dump.spans.len());
        if dump.dropped > 0 {
            eprintln!(
                "warning: flight recorder overflowed; oldest {} spans dropped \
                 (raise --flight-cap); drop count embedded in the export",
                dump.dropped
            );
        }
    }
    ExitCode::SUCCESS
}

/// `diggerbees flight inspect|export`: the `.dbfr` flight-dump toolbox.
///
/// `inspect` decodes a dump, validates its span trees (single root per
/// trace, sound parentage, forward time) and renders them as indented
/// text; `--trace <hex-id>` narrows to one trace. `export` runs the
/// same validation, then converts the dump to Chrome-trace JSON for
/// `chrome://tracing` / Perfetto.
fn flight_main() -> ExitCode {
    use diggerbees::span::{chrome_document, render_trace, validate_dump, FlightDump};

    let fail = |e: String| {
        eprintln!("{e}");
        ExitCode::FAILURE
    };
    let mut it = std::env::args().skip(2);
    let verb = match it.next() {
        Some(v) => v,
        None => return fail("usage: diggerbees flight <inspect|export> <file.dbfr> ...".into()),
    };
    let path = match it.next() {
        Some(p) => p,
        None => return fail(format!("usage: diggerbees flight {verb} <file.dbfr> ...")),
    };
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => return fail(format!("cannot read '{path}': {e}")),
    };
    let dump = match FlightDump::decode(&bytes) {
        Ok(d) => d,
        Err(e) => return fail(format!("'{path}' is not a valid .dbfr dump: {e}")),
    };
    match verb.as_str() {
        "inspect" => {
            let mut filter: Option<u64> = None;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--trace" => {
                        let v = match it.next() {
                            Some(v) => v,
                            None => return fail("--trace requires a value".into()),
                        };
                        filter = match u64::from_str_radix(v.trim_start_matches("0x"), 16) {
                            Ok(x) => Some(x),
                            Err(_) => return fail(format!("bad trace id '{v}' (want hex)")),
                        };
                    }
                    other => return fail(format!("unknown argument: {other}")),
                }
            }
            let trees = match validate_dump(&dump) {
                Ok(t) => t,
                Err(e) => return fail(format!("'{path}' fails span-tree validation: {e}")),
            };
            let complete = trees.iter().filter(|t| t.is_complete()).count();
            println!(
                "{path}: reason={} spans={} traces={} complete={} partial={} \
                 dropped={} tenants={}",
                dump.reason.name(),
                dump.spans.len(),
                trees.len(),
                complete,
                trees.len() - complete,
                dump.dropped,
                dump.tenants.len()
            );
            let mut shown = 0usize;
            for t in &trees {
                if filter.is_some_and(|f| f != t.trace_id) {
                    continue;
                }
                print!("{}", render_trace(&dump, t));
                shown += 1;
            }
            if let (Some(f), 0) = (filter, shown) {
                return fail(format!("no trace {f:#018x} in '{path}'"));
            }
            ExitCode::SUCCESS
        }
        "export" => {
            let mut out = String::new();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--out" => {
                        out = match it.next() {
                            Some(v) => v,
                            None => return fail("--out requires a value".into()),
                        }
                    }
                    other => return fail(format!("unknown argument: {other}")),
                }
            }
            if out.is_empty() {
                return fail("flight export needs --out <file.json>".into());
            }
            let trees = match validate_dump(&dump) {
                Ok(t) => t,
                Err(e) => return fail(format!("'{path}' fails span-tree validation: {e}")),
            };
            let doc = chrome_document(&dump);
            if let Err(e) = std::fs::write(&out, doc.to_json()) {
                return fail(format!("cannot write '{out}': {e}"));
            }
            println!(
                "exported {} spans ({} traces' worth, reason={}) to {out}",
                dump.spans.len(),
                trees.len(),
                dump.reason.name()
            );
            ExitCode::SUCCESS
        }
        other => fail(format!("unknown flight verb '{other}' (inspect|export)")),
    }
}

/// `diggerbees top`: a live terminal dashboard over the Prometheus
/// endpoint — request rates, latency ladder quantiles, guard state and
/// per-tenant SLO burn rates, refreshed in place. `--file` renders one
/// frame from a saved scrape instead (no server needed; used by CI).
fn top_main() -> ExitCode {
    use diggerbees::metrics::{render_dashboard, validate_exposition, Exposition};

    let fail = |e: String| {
        eprintln!("{e}");
        ExitCode::FAILURE
    };
    let mut addr = "127.0.0.1:7345".to_string();
    let mut interval_ms: u64 = 2000;
    let mut iters: Option<u64> = None;
    let mut once = false;
    let mut file: Option<String> = None;
    let mut it = std::env::args().skip(2);
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        let r = (|| -> Result<(), String> {
            match a.as_str() {
                "--addr" => addr = take("--addr")?,
                "--interval-ms" => interval_ms = parse_num(&take("--interval-ms")?)?.max(1) as u64,
                "--iters" => iters = Some(parse_num(&take("--iters")?)? as u64),
                "--once" => once = true,
                "--file" => file = Some(take("--file")?),
                other => return Err(format!("unknown argument: {other} (see --help)")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            return fail(e);
        }
    }
    let interval_s = interval_ms as f64 / 1000.0;
    if let Some(path) = &file {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return fail(format!("cannot read scrape '{path}': {e}")),
        };
        return match validate_exposition(&text) {
            Ok(exp) => {
                print!("{}", render_dashboard(&exp, None, interval_s));
                ExitCode::SUCCESS
            }
            Err(e) => fail(format!("malformed exposition in '{path}': {e}")),
        };
    }
    use std::net::ToSocketAddrs;
    let sock = match addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(s) => s,
        None => return fail(format!("cannot resolve address '{addr}'")),
    };
    let mut prev: Option<Exposition> = None;
    let mut frames = 0u64;
    loop {
        let text = match fetch_prometheus(&sock) {
            Ok(t) => t,
            Err(e) => return fail(format!("cannot scrape {addr}: {e}")),
        };
        let exp = match validate_exposition(&text) {
            Ok(e) => e,
            Err(e) => return fail(format!("malformed exposition from {addr}: {e}")),
        };
        let frame = render_dashboard(&exp, prev.as_ref(), interval_s);
        if once || iters.is_some() {
            // Scripted runs get plain frames (no control codes).
            print!("{frame}");
        } else {
            // Clear + home, then the frame: redraw in place.
            print!("\x1b[2J\x1b[H{frame}");
            use std::io::Write;
            let _ = std::io::stdout().flush();
        }
        frames += 1;
        if once || iters.is_some_and(|k| frames >= k) {
            return ExitCode::SUCCESS;
        }
        prev = Some(exp);
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// Runs one bounded-model-checker config and prints its verdict.
/// Returns the number of findings (0 or 1).
fn run_model_config<M: Model>(name: &str, model: &M) -> usize {
    match Explorer::default().run(model) {
        Outcome::Pass(s) => {
            println!(
                "model {name}: ok ({} states, {} transitions, {} quiescent)",
                s.states, s.transitions, s.final_states
            );
            0
        }
        Outcome::Fail {
            violation,
            schedule,
            stats,
        } => {
            println!(
                "model {name}: FAIL [{}] {} (after {} states)\n  replay schedule: {:?}",
                violation.oracle, violation.detail, stats.states, schedule
            );
            1
        }
        Outcome::BoundExceeded(s) => {
            println!(
                "model {name}: BOUND EXCEEDED at {} states — config too large, not a pass",
                s.states
            );
            1
        }
    }
}

/// `diggerbees check`: run the correctness analyses — the db-analyze
/// static pass gated on `<root>/analyze-baseline.json`, the bounded
/// model checker over the ring/steal protocol transcriptions, and the
/// vector-clock race detector over a freshly traced sim run (plus, with
/// `--race`, any recorded `--trace` CSV). Exits nonzero if any analysis
/// reports a finding.
fn check_main() -> ExitCode {
    let mut root = ".".to_string();
    let mut race_file: Option<String> = None;
    let mut skew: u64 = 1_000_000;
    let mut lint_only = false;
    let mut models_only = false;
    let mut write_baseline = false;
    let mut sarif_out: Option<String> = None;
    let mut it = std::env::args().skip(2);
    let fail = |e: String| {
        eprintln!("{e}");
        ExitCode::FAILURE
    };
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        let r = (|| -> Result<(), String> {
            match a.as_str() {
                "--root" => root = take("--root")?,
                "--race" => race_file = Some(take("--race")?),
                "--skew" => {
                    let v = take("--skew")?;
                    skew = v.parse().map_err(|_| format!("invalid --skew: {v}"))?;
                }
                "--lint-only" => lint_only = true,
                "--models-only" => models_only = true,
                "--write-baseline" => write_baseline = true,
                "--sarif" => sarif_out = Some(take("--sarif")?),
                other => return Err(format!("unknown argument: {other} (see --help)")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            return fail(e);
        }
    }
    let mut findings = 0usize;

    // 1. Static analysis: workspace call graph + A1..A6, gated on the
    //    committed baseline; an absent baseline file accepts nothing.
    if !models_only {
        let cfg = diggerbees::analyze::Config::for_repo();
        let run = match diggerbees::analyze::analyze_tree(std::path::Path::new(&root), &cfg) {
            Ok(r) => r,
            Err(e) => return fail(format!("analyze: {e}")),
        };
        println!(
            "analyze: {} file(s), {} function(s), {} call edge(s)",
            run.files, run.fns, run.edges
        );
        if let Some(path) = &sarif_out {
            let doc = diggerbees::analyze::sarif::to_sarif(&run.findings);
            if let Some(dir) = std::path::Path::new(path).parent() {
                if !dir.as_os_str().is_empty() {
                    let _ = std::fs::create_dir_all(dir);
                }
            }
            if let Err(e) = std::fs::write(path, doc) {
                return fail(format!("analyze: cannot write SARIF '{path}': {e}"));
            }
            println!("analyze: SARIF written to {path}");
        }
        let path = std::path::Path::new(&root).join("analyze-baseline.json");
        let path_s = path.display();
        if write_baseline {
            let doc = diggerbees::analyze::baseline::to_json(&run.findings);
            if let Err(e) = std::fs::write(&path, doc) {
                return fail(format!("analyze: cannot write baseline '{path_s}': {e}"));
            }
            println!(
                "analyze: baseline with {} entr{} written to {path_s}",
                run.findings.len(),
                if run.findings.len() == 1 { "y" } else { "ies" }
            );
        } else {
            let base = match std::fs::read_to_string(&path) {
                Ok(text) => match diggerbees::analyze::baseline::parse(&text) {
                    Ok(b) => b,
                    Err(e) => return fail(format!("analyze: bad baseline '{path_s}': {e}")),
                },
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
                Err(e) => return fail(format!("analyze: cannot read baseline '{path_s}': {e}")),
            };
            let d = diggerbees::analyze::baseline::diff(&run.findings, &base);
            for f in &d.new {
                print!("{}", f.render());
            }
            for fp in &d.stale {
                println!("analyze: stale baseline entry {fp} (no longer produced; remove it)");
            }
            println!(
                "analyze: {} new finding(s), {} baselined, {} stale",
                d.new.len(),
                d.matched,
                d.stale.len()
            );
            findings += d.new.len();
        }
    }

    // 2. Bounded model checking of the protocol transcriptions.
    if !lint_only {
        findings += run_model_config("ring/small", &RingModel::new(RingScenario::small()));
        findings += run_model_config("proto/path4", &ProtoModel::new(ProtoScenario::path4(2)));
        findings += run_model_config("proto/star4", &ProtoModel::new(ProtoScenario::star4(2)));
        findings += run_model_config("proto/star4x3", &ProtoModel::new(ProtoScenario::star4(3)));
        findings += run_model_config(
            "proto/diamond4",
            &ProtoModel::new(ProtoScenario::diamond4(2)),
        );
        findings += run_model_config("level/tree", &LevelModel::new(LevelScenario::tree()));
        findings += run_model_config(
            "level/tree-request",
            &LevelModel::new(LevelScenario::tree_request()),
        );
        findings += run_model_config(
            "level/tree-reach",
            &LevelModel::new(LevelScenario::tree_reach()),
        );
        findings += run_model_config(
            "level/tree-cancel",
            &LevelModel::new(LevelScenario::tree_cancel()),
        );
        findings += run_model_config("epoch/small", &EpochModel::new(EpochScenario::small()));
        findings += run_model_config("wal/small", &WalModel::new(WalScenario::small()));
    }

    // 3. Race detection: a built-in traced sim run (exact DES cycles, so
    //    zero skew), plus any recorded trace the caller hands us.
    if !lint_only && !models_only {
        let mut b = GraphBuilder::undirected(16 * 16);
        for y in 0..16u32 {
            for x in 0..16u32 {
                if x + 1 < 16 {
                    b.edge(y * 16 + x, y * 16 + x + 1);
                }
                if y + 1 < 16 {
                    b.edge(y * 16 + x, (y + 1) * 16 + x);
                }
            }
        }
        let g = b.build();
        let tracer = RingBufferTracer::new(1 << 20);
        let cfg = DiggerBeesConfig {
            blocks: 2,
            warps_per_block: 2,
            hot_size: 16,
            hot_cutoff: 4,
            cold_cutoff: 8,
            flush_batch: 8,
            ..Default::default()
        };
        run_sim_traced(&g, 0, &cfg, &MachineModel::a100(), &tracer);
        let events = tracer.drain();
        match detect(&events, &RaceConfig { skew: 0 }) {
            Ok(report) => {
                for f in &report.findings {
                    println!("race(sim): [{}] vertex {}: {}", f.rule, f.vertex, f.detail);
                }
                println!(
                    "race(sim): {} finding(s) over {} events ({} sync edges, \
                     {} ordered transfers)",
                    report.findings.len(),
                    report.events,
                    report.sync_edges,
                    report.ordered_transfers
                );
                findings += report.findings.len();
            }
            Err(e) => return fail(format!("race(sim): unsound trace stream: {e}")),
        }
    }
    if let Some(path) = &race_file {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return fail(format!("cannot read trace '{path}': {e}")),
        };
        let parsed = match csv::parse_csv(&text) {
            Ok(p) => p,
            Err(e) => return fail(format!("cannot parse trace '{path}': {e}")),
        };
        if parsed.dropped > 0 {
            eprintln!(
                "warning: '{path}' records {} dropped events; the detector \
                 only sees what survived the ring",
                parsed.dropped
            );
        }
        match detect(&parsed.events, &RaceConfig { skew }) {
            Ok(report) => {
                for f in &report.findings {
                    println!(
                        "race({path}): [{}] vertex {}: {}",
                        f.rule, f.vertex, f.detail
                    );
                }
                println!(
                    "race({path}): {} finding(s) over {} events at skew {skew} ns \
                     ({} sync edges)",
                    report.findings.len(),
                    report.events,
                    report.sync_edges
                );
                findings += report.findings.len();
            }
            Err(e) => return fail(format!("race({path}): unsound trace stream: {e}")),
        }
    }

    if findings > 0 {
        println!("check: {findings} finding(s)");
        ExitCode::FAILURE
    } else {
        println!("check: clean");
        ExitCode::SUCCESS
    }
}
