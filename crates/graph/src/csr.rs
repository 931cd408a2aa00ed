//! Compressed-sparse-row graph representation.
//!
//! The layout mirrors the paper's Algorithm 1: `row_ptr` (length `n + 1`,
//! 64-bit to support multi-billion-edge graphs) and `column_idx` (one
//! 32-bit vertex id per stored arc). Undirected graphs store each edge in
//! both directions, which is what DFS/BFS engines traverse.

use crate::store::SectionSlice;
use crate::VertexId;

/// Endpoint distance, in vertex ids, beyond which an arc counts as far:
/// 4096 ids span 32 KiB of `row_ptr`, so a far neighbour's row bounds
/// are not on a line its source just loaded. The served kernel batches
/// a graph by its share of far arcs.
pub const FAR_IDS: u32 = 4096;

/// A structural defect in raw CSR arrays, reported by
/// [`CsrGraph::try_from_sorted_parts`] instead of panicking — the entry
/// point for untrusted inputs (network services, file loaders).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrError {
    /// `row_ptr.len() != n + 1`.
    RowPtrLength {
        /// Required length (`n + 1`).
        expected: usize,
        /// Actual length.
        got: usize,
    },
    /// `row_ptr[0] != 0`; carries the offending first offset.
    RowPtrStart(u64),
    /// `row_ptr` does not end at `col_idx.len()`.
    RowPtrEnd {
        /// Required final offset (`col_idx.len()`).
        expected: usize,
        /// Actual final offset.
        got: u64,
    },
    /// `row_ptr[at] > row_ptr[at + 1]`.
    RowPtrDecreasing {
        /// First index where the offsets decrease.
        at: usize,
    },
    /// `col_idx[at] >= n`.
    ColumnOutOfRange {
        /// Index of the offending column entry.
        at: usize,
        /// The out-of-range vertex id.
        value: u32,
        /// The vertex count it must stay below.
        n: u32,
    },
}

impl std::fmt::Display for CsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsrError::RowPtrLength { expected, got } => {
                write!(
                    f,
                    "row_ptr must have n+1 entries (expected {expected}, got {got})"
                )
            }
            CsrError::RowPtrStart(v) => write!(f, "row_ptr must start at 0 (got {v})"),
            CsrError::RowPtrEnd { expected, got } => write!(
                f,
                "row_ptr must end at the arc count (expected {expected}, got {got})"
            ),
            CsrError::RowPtrDecreasing { at } => {
                write!(f, "row_ptr must be non-decreasing (violated at index {at})")
            }
            CsrError::ColumnOutOfRange { at, value, n } => {
                write!(
                    f,
                    "column indices must be < n (col_idx[{at}] = {value}, n = {n})"
                )
            }
        }
    }
}

impl std::error::Error for CsrError {}

/// An immutable CSR graph.
///
/// Construct via [`crate::GraphBuilder`] or [`CsrGraph::from_sorted_parts`].
/// Every constructor checks the arrays ([`CsrGraph::try_from_backed`]),
/// so a `CsrGraph` is valid by construction: `row_ptr` starts at 0,
/// never decreases and ends at the arc count, and every column is
/// below `n`.
///
/// The two arrays live in [`SectionSlice`]s: heap `Vec`s for built
/// graphs, or zero-copy windows into an mmap'd pack file for graphs
/// loaded through `db-store`. Accessors return plain slices either way.
#[derive(Clone, PartialEq, Eq)]
pub struct CsrGraph {
    n: u32,
    row_ptr: SectionSlice<u64>,
    col_idx: SectionSlice<u32>,
    directed: bool,
    far_arcs: u64,
}

impl std::fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsrGraph")
            .field("n", &self.n)
            .field("arcs", &self.col_idx.len())
            .field("directed", &self.directed)
            .field("mapped_bytes", &self.mapped_bytes())
            .finish()
    }
}

impl CsrGraph {
    /// Builds a graph from CSR arrays the caller knows to be well formed.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are inconsistent: `row_ptr` must have length
    /// `n + 1`, start at 0, be non-decreasing, end at `col_idx.len()`,
    /// and every column index must be `< n`.
    pub fn from_sorted_parts(n: u32, row_ptr: Vec<u64>, col_idx: Vec<u32>, directed: bool) -> Self {
        match Self::try_from_sorted_parts(n, row_ptr, col_idx, directed) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Non-panicking form of [`CsrGraph::from_sorted_parts`]: validates
    /// the arrays and reports the first structural defect as a
    /// [`CsrError`]. Use this for untrusted inputs so a malformed graph
    /// is rejected at the boundary rather than corrupting a traversal.
    pub fn try_from_sorted_parts(
        n: u32,
        row_ptr: Vec<u64>,
        col_idx: Vec<u32>,
        directed: bool,
    ) -> Result<Self, CsrError> {
        Self::try_from_backed(
            n,
            SectionSlice::owned(row_ptr),
            SectionSlice::owned(col_idx),
            directed,
        )
    }

    /// Validating constructor over already-backed sections — the entry
    /// point `db-store` uses so mmap-backed arrays are checked without
    /// ever being copied. Runs exactly the
    /// [`CsrGraph::try_from_sorted_parts`] invariants.
    ///
    /// Every other constructor ends here, so this is the one CSR check:
    /// a `CsrGraph` is valid by construction, and the engines index its
    /// arrays without checking them again. The same walk counts the
    /// graph's far arcs ([`CsrGraph::far_arcs`]).
    pub fn try_from_backed(
        n: u32,
        row_ptr: SectionSlice<u64>,
        col_idx: SectionSlice<u32>,
        directed: bool,
    ) -> Result<Self, CsrError> {
        let far_arcs = check(n, row_ptr.as_slice(), col_idx.as_slice())?;
        Ok(Self {
            n,
            row_ptr,
            col_idx,
            directed,
            far_arcs,
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n as usize
    }

    /// Number of stored arcs (an undirected edge counts twice).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.col_idx.len()
    }

    /// Number of arcs whose endpoints are more than [`FAR_IDS`] ids
    /// apart, counted when the graph was built.
    #[inline]
    pub fn far_arcs(&self) -> u64 {
        self.far_arcs
    }

    /// Number of logical edges: arcs for directed graphs, arcs/2 rounded
    /// up for undirected graphs (self-loops are stored once).
    pub fn num_edges(&self) -> usize {
        if self.directed {
            self.num_arcs()
        } else {
            let loops = (0..self.n)
                .map(|u| self.neighbors(u).iter().filter(|&&v| v == u).count())
                .sum::<usize>();
            (self.num_arcs() - loops) / 2 + loops
        }
    }

    /// Whether the graph is directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        let rp = self.row_ptr.as_slice();
        (rp[u as usize + 1] - rp[u as usize]) as usize
    }

    /// Slice of `u`'s neighbors (sorted ascending by construction).
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> &[u32] {
        let rp = self.row_ptr.as_slice();
        let lo = rp[u as usize] as usize;
        let hi = rp[u as usize + 1] as usize;
        &self.col_idx.as_slice()[lo..hi]
    }

    /// The raw row-pointer array (length `n + 1`).
    #[inline]
    pub fn row_ptr(&self) -> &[u64] {
        self.row_ptr.as_slice()
    }

    /// The raw column-index array.
    #[inline]
    pub fn col_idx(&self) -> &[u32] {
        self.col_idx.as_slice()
    }

    /// Whether the arc `u -> v` exists (binary search over `u`'s row).
    pub fn has_arc(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all arcs `(u, v)`.
    pub fn arcs(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.n).flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Maximum out-degree.
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Approximate CSR memory footprint in bytes, as reported in §4.1
    /// ("graphs require between 0.08 MB and 43.61 GB of GPU memory in CSR
    /// format").
    pub fn memory_bytes(&self) -> usize {
        self.row_ptr.len() * 8 + self.col_idx.len() * 4
    }

    /// Private heap bytes this graph owns (0 for fully mmap-backed
    /// graphs — the mapping is shared, not private, memory).
    pub fn heap_bytes(&self) -> usize {
        self.row_ptr.heap_bytes() + self.col_idx.heap_bytes()
    }

    /// Shared mapped (mmap'd pack section) bytes this graph references.
    pub fn mapped_bytes(&self) -> usize {
        self.row_ptr.mapped_bytes() + self.col_idx.mapped_bytes()
    }

    /// Bytes to charge against a residency budget (what `CorpusCache`
    /// accounts): full price for private heap, a quarter for mapped
    /// sections, which are backed by the shared page cache rather than
    /// private memory. The fixed 1/4 keeps accounting deterministic (no
    /// OS residency probes); it is a charge, not a measurement: a pack
    /// load's checksum pass leaves the whole mapped part resident.
    pub fn charged_bytes(&self) -> usize {
        self.heap_bytes() + self.mapped_bytes() / 4
    }
}

/// Checks raw CSR arrays row by row, reporting the first defect, and
/// counts the arcs whose endpoints are more than [`FAR_IDS`] ids apart.
fn check(n: u32, row_ptr: &[u64], col_idx: &[u32]) -> Result<u64, CsrError> {
    let Some((&first, ends)) = row_ptr
        .split_first()
        .filter(|(_, ends)| ends.len() == n as usize)
    else {
        return Err(CsrError::RowPtrLength {
            expected: n as usize + 1,
            got: row_ptr.len(),
        });
    };
    if first != 0 {
        return Err(CsrError::RowPtrStart(first));
    }
    let last = ends.last().map_or(first, |&end| end);
    if last != col_idx.len() as u64 {
        return Err(CsrError::RowPtrEnd {
            expected: col_idx.len(),
            got: last,
        });
    }
    // Rows are contiguous, so row u's columns are the next
    // `end - start` entries.
    let mut cols = (0..).zip(col_idx);
    let (mut start, mut far) = (first, 0);
    for (u, &end) in (0..n).zip(ends) {
        if end < start {
            return Err(CsrError::RowPtrDecreasing { at: u as usize });
        }
        for (at, &v) in cols.by_ref().take((end - start) as usize) {
            if v >= n {
                return Err(CsrError::ColumnOutOfRange { at, value: v, n });
            }
            far += u64::from(v.abs_diff(u) > FAR_IDS);
        }
        start = end;
    }
    Ok(far)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> CsrGraph {
        // 0-1, 0-2, 1-3, 2-3 undirected
        GraphBuilder::undirected(4)
            .edges([(0, 1), (0, 2), (1, 3), (2, 3)])
            .build()
    }

    #[test]
    fn basic_accessors() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_arcs(), 8);
        assert_eq!(g.num_edges(), 4);
        assert!(!g.is_directed());
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[1, 2]);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn has_arc_lookup() {
        let g = diamond();
        assert!(g.has_arc(0, 1));
        assert!(g.has_arc(1, 0));
        assert!(!g.has_arc(0, 3));
    }

    #[test]
    fn arcs_iterator_covers_both_directions() {
        let g = diamond();
        let arcs: Vec<_> = g.arcs().collect();
        assert_eq!(arcs.len(), 8);
        assert!(arcs.contains(&(0, 1)));
        assert!(arcs.contains(&(1, 0)));
    }

    #[test]
    fn self_loop_edge_count() {
        let g = GraphBuilder::undirected(2).edges([(0, 0), (0, 1)]).build();
        // loop stored once, edge stored twice
        assert_eq!(g.num_arcs(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn memory_bytes_matches_layout() {
        let g = diamond();
        assert_eq!(g.memory_bytes(), 5 * 8 + 8 * 4);
    }

    #[test]
    #[should_panic(expected = "row_ptr must start at 0")]
    fn rejects_bad_row_ptr_start() {
        CsrGraph::from_sorted_parts(1, vec![1, 1], vec![], false);
    }

    #[test]
    #[should_panic(expected = "column indices must be < n")]
    fn rejects_out_of_range_column() {
        CsrGraph::from_sorted_parts(2, vec![0, 1, 1], vec![5], false);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_decreasing_row_ptr() {
        CsrGraph::from_sorted_parts(2, vec![0, 2, 1], vec![0], false);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::undirected(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_arcs(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn isolated_vertices_have_empty_rows() {
        let g = GraphBuilder::undirected(3).edges([(0, 1)]).build();
        assert_eq!(g.degree(2), 0);
        assert!(g.neighbors(2).is_empty());
    }
}
