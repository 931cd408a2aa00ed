//! Request execution: runs a workload on a validated graph under a
//! deadline token and shapes the response payload.
//!
//! `dfs` and `reach` run the served traversal kernel
//! ([`db_core::kernel`]) with the caller's reused scratch, whatever
//! engine the request names, except `sim`, which runs the simulator.
//! Given a [`Teaming`], the kernel runs as the owner of a team search
//! that an idle pool worker may join ([`kernel::team_search`]);
//! otherwise it runs on the calling thread alone. The kernel polls the
//! token every
//! [`db_core::kernel::POLL_STRIDE`] expansions (rounded up to a whole
//! batch on graphs it searches in batches), so an expired deadline
//! stops the search and the payload describes the partial prefix
//! (`completed:false`). A `reach` stops as soon as it marks its target
//! and answers exactly what a full traversal would.
//!
//! `sim` and the apps-layer workloads (`scc`, `topo`, `articulation`)
//! are not preemptible: the deadline is checked once at start (expired
//! → no work is done). If they finish past the deadline anyway, the
//! response is still `ok` with `deadline_missed:true` — timing metadata,
//! not content, so outcome determinism is unaffected.
//!
//! Every payload field is a scheduling-independent quantity (visited
//! counts, component counts, flags); steal/timing counters never leak
//! into payloads. This is what makes double-run digest comparison in
//! the load generator meaningful.

use crate::corpus::ValidStore;
use crate::request::{EngineKind, Request, Response, Status, Workload};
use db_core::kernel::{self, Crew, Scratch, Search};
use db_core::{CancelToken, ValidCsr};
use db_gpu_sim::MachineModel;
use db_graph::CsrGraph;
use db_trace::json::Value;

/// Validates `graph`, then executes `req` on it with a fresh scratch,
/// consuming the token's deadline. A malformed graph is rejected with
/// the defect as the reason. `latency_us`/`deadline_missed` are filled
/// by the pool afterwards (they are measured from admission, which the
/// pool owns).
pub fn execute(req: &Request, graph: &CsrGraph, token: &CancelToken) -> Response {
    match ValidCsr::new(graph) {
        Ok(graph) => execute_valid(req, graph, token, &mut Scratch::default(), None, None),
        Err(e) => Response::failure(
            req.id,
            Status::Rejected,
            format!("invalid graph '{}': {e}", req.graph),
        ),
    }
}

/// A dfs or reach's way to a second core: the request's graph in the
/// shared form a helper thread can hold, and the pool the helper comes
/// from.
#[derive(Clone, Copy)]
pub struct Teaming<'a> {
    /// The graph `execute_valid` runs on, shared.
    pub graph: &'a ValidStore,
    /// The pool an idle helper joins from.
    pub crew: &'a dyn Crew,
}

impl std::fmt::Debug for Teaming<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Teaming")
            .field("graph", self.graph)
            .finish_non_exhaustive()
    }
}

/// Executes `req` on a graph validated beforehand, searching in
/// `scratch`. With `team` supplied (for the same graph), a dfs or reach
/// runs as a team search; the answer is the same either way. A `sim`
/// run with a sink supplied runs under a [`db_gpu_sim::CycleProfiler`],
/// and the sink receives the nonzero `(sm, phase_index, cycles)` cells
/// that the pool turns into `SimPhase` spans. Profiling is
/// observational: the response is the same either way.
pub fn execute_valid(
    req: &Request,
    graph: ValidCsr<&CsrGraph>,
    token: &CancelToken,
    scratch: &mut Scratch,
    team: Option<Teaming<'_>>,
    sim_spans: Option<&mut Vec<(u32, usize, u64)>>,
) -> Response {
    let n = graph.graph().num_vertices() as u32;
    let check_root = |v: u32, what: &str| -> Result<(), Response> {
        if v < n {
            Ok(())
        } else {
            Err(Response::failure(
                req.id,
                Status::Error,
                format!("{what} {v} out of range for '{}' (n = {n})", req.graph),
            ))
        }
    };
    // The engine name is a hint: only `sim` changes what runs.
    let search = move |root: u32, target: Option<u32>| match (req.engine, team) {
        (EngineKind::Sim, _) => simulate(graph.graph(), root, target, token, sim_spans),
        (_, Some(t)) => kernel::team_search(t.graph, root, target, token, scratch, t.crew),
        (_, None) => kernel::search(graph, root, target, token, scratch),
    };
    let graph = graph.graph();
    match &req.workload {
        Workload::Dfs { root } => {
            if let Err(r) = check_root(*root, "root") {
                return r;
            }
            let found = search(*root, None);
            respond(
                req.id,
                found.completed,
                vec![
                    ("visited".into(), Value::u64(found.visited)),
                    ("completed".into(), Value::Bool(found.completed)),
                ],
            )
        }
        Workload::Reach { root, target } => {
            if let Err(r) = check_root(*root, "root").and(check_root(*target, "target")) {
                return r;
            }
            // A search stopped by its deadline before it claimed the
            // target proves nothing: report it as expired rather than
            // a false negative.
            let found = search(*root, Some(*target));
            let mut payload = vec![("completed".into(), Value::Bool(found.completed))];
            if found.completed {
                payload.insert(0, ("reachable".into(), Value::Bool(found.claimed)));
            }
            respond(req.id, found.completed, payload)
        }
        Workload::Scc => {
            if !graph.is_directed() {
                return mismatch(req, "scc requires a directed graph");
            }
            if token.is_cancelled() {
                return respond(req.id, false, Vec::new());
            }
            let r = db_apps::scc::scc(graph);
            respond(
                req.id,
                true,
                vec![
                    ("components".into(), Value::u64(r.count as u64)),
                    ("largest".into(), Value::u64(r.largest() as u64)),
                ],
            )
        }
        Workload::Topo => {
            if !graph.is_directed() {
                return mismatch(req, "topo requires a directed graph");
            }
            if token.is_cancelled() {
                return respond(req.id, false, Vec::new());
            }
            let payload = match db_apps::topo::topo_sort(graph) {
                db_apps::topo::TopoResult::Order(order) => vec![
                    ("is_dag".into(), Value::Bool(true)),
                    ("order_len".into(), Value::u64(order.len() as u64)),
                ],
                db_apps::topo::TopoResult::Cycle(v) => vec![
                    ("is_dag".into(), Value::Bool(false)),
                    ("cycle_vertex".into(), Value::u64(v as u64)),
                ],
            };
            respond(req.id, true, payload)
        }
        Workload::Articulation => {
            if graph.is_directed() {
                return mismatch(req, "articulation requires an undirected graph");
            }
            if token.is_cancelled() {
                return respond(req.id, false, Vec::new());
            }
            let r = db_apps::articulation::articulation_points(graph);
            let cuts = r.articulation.iter().filter(|&&a| a).count() as u64;
            respond(
                req.id,
                true,
                vec![
                    ("articulation_points".into(), Value::u64(cuts)),
                    ("bridges".into(), Value::u64(r.bridges.len() as u64)),
                ],
            )
        }
        // Delta ops are intercepted by the pool (`delta:` corpora) and
        // never reach graph execution; landing here means the corpus
        // was a frozen one.
        Workload::AddEdges { .. } | Workload::DelEdges { .. } | Workload::Epoch => mismatch(
            req,
            "delta ops require a 'delta:' corpus (e.g. graph = \"delta:path:100\")",
        ),
    }
}

/// Runs the simulator from `root`: not preemptible, so the token is
/// only checked before it starts.
fn simulate(
    g: &CsrGraph,
    root: u32,
    target: Option<u32>,
    token: &CancelToken,
    sim_spans: Option<&mut Vec<(u32, usize, u64)>>,
) -> Search {
    if token.is_cancelled() {
        return Search {
            visited: 0,
            claimed: false,
            completed: false,
        };
    }
    let cfg = db_core::DiggerBeesConfig::default();
    let model = MachineModel::a100();
    let out = match sim_spans {
        Some(sink) => {
            let profiler = db_gpu_sim::CycleProfiler::new(cfg.blocks as usize);
            let out = db_core::run_sim_profiled(
                g,
                root,
                &cfg,
                &model,
                &db_trace::tracer::NullTracer,
                &profiler,
            );
            sink.extend(profiler.phase_spans());
            out
        }
        None => db_core::run_sim(g, root, &cfg, &model),
    };
    Search {
        visited: out.visited.iter().filter(|&&v| v).count() as u64,
        claimed: target.is_some_and(|t| out.visited.get(t as usize) == Some(&true)),
        completed: true,
    }
}

fn respond(id: u64, completed: bool, payload: Vec<(String, Value)>) -> Response {
    Response {
        id,
        status: if completed {
            Status::Ok
        } else {
            Status::Expired
        },
        error: None,
        payload: Value::Obj(payload),
        latency_us: 0,
        deadline_missed: false,
        trace_id: 0,
    }
}

fn mismatch(req: &Request, msg: &str) -> Response {
    Response::failure(
        req.id,
        Status::Error,
        format!("workload/graph mismatch on '{}': {msg}", req.graph),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::build_graph;

    fn req(graph: &str, workload: Workload, engine: EngineKind) -> Request {
        Request {
            id: 1,
            tenant: "t".into(),
            graph: graph.into(),
            workload,
            engine,
            deadline_ms: None,
        }
    }

    const ENGINES: [EngineKind; 5] = [
        EngineKind::Native,
        EngineKind::LockFree,
        EngineKind::Sim,
        EngineKind::Serial,
        EngineKind::Partitioned,
    ];

    #[test]
    fn dfs_visits_whole_component_on_every_engine() {
        let g = build_graph("grid:6:6").unwrap();
        for engine in ENGINES {
            let r = execute(
                &req("grid:6:6", Workload::Dfs { root: 0 }, engine),
                &g,
                &CancelToken::new(),
            );
            assert_eq!(r.status, Status::Ok, "{engine:?}: {:?}", r.error);
            assert_eq!(r.payload.get("visited").unwrap().as_u64(), Some(36));
        }
    }

    #[test]
    fn reach_answers_connectivity() {
        let path = build_graph("path:10").unwrap();
        let dag = build_graph("dag:10").unwrap();
        // (0, 1) on the path is claimed on the first expansion, long
        // before a full traversal would end.
        let cases = [
            (&path, 0, 9, true),
            (&path, 0, 1, true),
            (&dag, 5, 0, false),
        ];
        for engine in ENGINES {
            for (g, root, target, reachable) in cases {
                let w = Workload::Reach { root, target };
                let r = execute(&req("g", w, engine), g, &CancelToken::new());
                let want = format!(r#"{{"reachable":{reachable},"completed":true}}"#);
                assert_eq!(r.payload.to_json(), want, "{engine:?}");
            }
        }
    }

    #[test]
    fn apps_workloads_and_mismatches() {
        let dag = build_graph("dag:50").unwrap();
        let ring = build_graph("ring:8").unwrap();
        let grid = build_graph("grid:4:4").unwrap();
        let t = CancelToken::new();

        let r = execute(&req("dag:50", Workload::Scc, EngineKind::Native), &dag, &t);
        assert_eq!(r.payload.get("components").unwrap().as_u64(), Some(50));

        let r = execute(&req("ring:8", Workload::Scc, EngineKind::Native), &ring, &t);
        assert_eq!(r.payload.get("components").unwrap().as_u64(), Some(1));
        assert_eq!(r.payload.get("largest").unwrap().as_u64(), Some(8));

        let r = execute(&req("dag:50", Workload::Topo, EngineKind::Native), &dag, &t);
        assert_eq!(r.payload.get("is_dag").unwrap().as_bool(), Some(true));

        let r = execute(
            &req("ring:8", Workload::Topo, EngineKind::Native),
            &ring,
            &t,
        );
        assert_eq!(r.payload.get("is_dag").unwrap().as_bool(), Some(false));

        let r = execute(
            &req("path:10", Workload::Articulation, EngineKind::Native),
            &build_graph("path:10").unwrap(),
            &t,
        );
        // Interior vertices of a path are all articulation points.
        assert_eq!(
            r.payload.get("articulation_points").unwrap().as_u64(),
            Some(8)
        );

        // Mismatches are errors, not panics.
        let r = execute(
            &req("grid:4:4", Workload::Scc, EngineKind::Native),
            &grid,
            &t,
        );
        assert_eq!(r.status, Status::Error);
        let r = execute(
            &req("dag:50", Workload::Articulation, EngineKind::Native),
            &dag,
            &t,
        );
        assert_eq!(r.status, Status::Error);
        let r = execute(
            &req("grid:4:4", Workload::Dfs { root: 99 }, EngineKind::Native),
            &grid,
            &t,
        );
        assert_eq!(r.status, Status::Error);
    }

    #[test]
    fn sim_observation_is_result_invariant() {
        let g = build_graph("grid:6:6").unwrap();
        let r = req("grid:6:6", Workload::Dfs { root: 0 }, EngineKind::Sim);
        let plain = execute(&r, &g, &CancelToken::new());
        let mut sink = Vec::new();
        let observed = execute_valid(
            &r,
            ValidCsr::new(&g).unwrap(),
            &CancelToken::new(),
            &mut Scratch::default(),
            None,
            Some(&mut sink),
        );
        assert_eq!(
            plain.digest(),
            observed.digest(),
            "profiling is observational"
        );
        assert!(
            !sink.is_empty(),
            "sim run must charge at least one phase cell"
        );
        assert!(sink
            .iter()
            .all(|&(_, p, c)| p < db_gpu_sim::SimPhase::COUNT && c > 0));
    }

    #[test]
    fn malformed_graphs_are_rejected_with_reason() {
        // from_parts_unchecked lets a structurally broken CSR reach the
        // executor; it must bounce off the validation boundary as a
        // rejection naming the defect, never reach an engine.
        let bad = db_graph::CsrGraph::from_parts_unchecked(2, vec![0, 1, 7], vec![1, 0], false);
        let r = execute(
            &req("bad", Workload::Dfs { root: 0 }, EngineKind::Native),
            &bad,
            &CancelToken::new(),
        );
        assert_eq!(r.status, Status::Rejected);
        assert!(r.error.as_deref().unwrap().contains("row_ptr"), "{r:?}");
    }

    #[test]
    fn expired_token_yields_expired_status() {
        let g = build_graph("path:50000").unwrap();
        let t = CancelToken::new();
        t.cancel();
        let reach = Workload::Reach {
            root: 0,
            target: 49_999,
        };
        for engine in ENGINES {
            for w in [Workload::Dfs { root: 0 }, reach.clone()] {
                let r = execute(&req("path:50000", w, engine), &g, &t);
                assert_eq!(r.status, Status::Expired, "{engine:?}");
                assert_eq!(r.payload.get("completed").unwrap().as_bool(), Some(false));
            }
        }
        let r = execute(
            &req("path:50000", Workload::Articulation, EngineKind::Native),
            &g,
            &t,
        );
        assert_eq!(r.status, Status::Expired);
    }
}
