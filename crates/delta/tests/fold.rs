//! A delta fold is checked like every other CSR: the snapshot a pin
//! materializes counts the same far arcs as the builder's graph of the
//! same arcs, whose endpoint distances straddle `FAR_IDS`.

use db_delta::DeltaGraph;
use db_graph::builder::from_edge_list;
use db_graph::csr::FAR_IDS;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The first half of the edges is the frozen base and the second
    /// half one published epoch; each edge joins ids `FAR_IDS - 4` to
    /// `FAR_IDS + 4` apart.
    #[test]
    fn a_snapshot_counts_far_arcs_like_the_builder(
        n in FAR_IDS + 1..3 * FAR_IDS,
        picks in proptest::collection::vec((0..3 * FAR_IDS, 0..9u32), 0..300),
        directed in any::<bool>(),
    ) {
        let edges: Vec<(u32, u32)> = picks
            .iter()
            .map(|&(u, d)| (u % n, (u % n + FAR_IDS - 4 + d).min(n - 1)))
            .collect();
        let (base, added) = edges.split_at(edges.len() / 2);
        let dg = Arc::new(DeltaGraph::from_csr(from_edge_list(n, base, directed)));
        dg.add_edges(added).unwrap();
        let want = from_edge_list(n, &edges, directed);
        let pin = dg.pin();
        prop_assert_eq!(pin.graph().far_arcs(), want.far_arcs());
        prop_assert_eq!(pin.graph(), &want);
    }
}
