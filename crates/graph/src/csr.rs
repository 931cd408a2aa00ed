//! Compressed-sparse-row graph representation.
//!
//! The layout mirrors the paper's Algorithm 1: `row_ptr` (length `n + 1`,
//! 64-bit to support multi-billion-edge graphs) and `column_idx` (one
//! 32-bit vertex id per stored arc). Undirected graphs store each edge in
//! both directions, which is what DFS/BFS engines traverse.

use crate::par;
use crate::VertexId;
use std::ops::Range;

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
    /// `col_idx[at] < col_idx[at - 1]` inside one row: rows must ascend
    /// (repeats are legal), or `has_arc` and every other binary search
    /// over a row answers wrong.
    ColumnDecreasing {
        /// The row the two columns belong to.
        row: u32,
        /// Index of the column entry that is smaller than its predecessor.
        at: usize,
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
            CsrError::ColumnDecreasing { row, at } => write!(
                f,
                "rows must be sorted ascending (row {row}: col_idx[{at}] < col_idx[{}])",
                at - 1
            ),
        }
    }
}

impl std::error::Error for CsrError {}

/// An immutable CSR graph.
///
/// Construct via [`crate::GraphBuilder`] or [`CsrGraph::from_sorted_parts`].
/// Every constructor checks the arrays ([`CsrGraph::try_from_sorted_parts`]),
/// so a `CsrGraph` is valid by construction: `row_ptr` starts at 0,
/// never decreases and ends at the arc count, every column is below
/// `n`, and every row ascends.
///
/// The two arrays are heap `Vec`s, for built graphs and for graphs
/// loaded from a `db-store` pack alike.
#[derive(Clone, PartialEq, Eq)]
pub struct CsrGraph {
    n: u32,
    row_ptr: Vec<u64>,
    col_idx: Vec<u32>,
    directed: bool,
    far_arcs: u64,
}

impl std::fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsrGraph")
            .field("n", &self.n)
            .field("arcs", &self.col_idx.len())
            .field("directed", &self.directed)
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
    /// every column index must be `< n`, and every row must ascend.
    pub fn from_sorted_parts(n: u32, row_ptr: Vec<u64>, col_idx: Vec<u32>, directed: bool) -> Self {
        match Self::try_from_sorted_parts(n, row_ptr, col_idx, directed) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Non-panicking form of [`CsrGraph::from_sorted_parts`]: validates
    /// the arrays and reports the first structural defect as a
    /// [`CsrError`]. Use this for untrusted inputs (`db-store` loads
    /// through it) so a malformed graph is rejected at the boundary
    /// rather than corrupting a traversal.
    ///
    /// Every other constructor ends here, so this is the one CSR check:
    /// a `CsrGraph` is valid by construction, and the engines index its
    /// arrays without checking them again. The same walk counts the
    /// graph's far arcs ([`CsrGraph::far_arcs`]). A big graph is walked
    /// in row chunks on every core ([`crate::par`]); the defect reported
    /// is still the first a serial walk meets.
    pub fn try_from_sorted_parts(
        n: u32,
        row_ptr: Vec<u64>,
        col_idx: Vec<u32>,
        directed: bool,
    ) -> Result<Self, CsrError> {
        let parts = par::parts(row_ptr.len() + col_idx.len());
        let far_arcs = check(n, &row_ptr, &col_idx, parts)?;
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
        let rp = &self.row_ptr;
        (rp[u as usize + 1] - rp[u as usize]) as usize
    }

    /// Slice of `u`'s neighbors (sorted ascending by construction).
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> &[u32] {
        let rp = &self.row_ptr;
        let lo = rp[u as usize] as usize;
        let hi = rp[u as usize + 1] as usize;
        &self.col_idx[lo..hi]
    }

    /// The raw row-pointer array (length `n + 1`).
    #[inline]
    pub fn row_ptr(&self) -> &[u64] {
        &self.row_ptr
    }

    /// The raw column-index array.
    #[inline]
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
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

    /// Heap bytes the two arrays own, by capacity: what a residency
    /// budget (`CorpusCache`) charges. A loaded pack's arrays are
    /// allocated to size, so it owns exactly its
    /// [`CsrGraph::memory_bytes`].
    pub fn heap_bytes(&self) -> usize {
        self.row_ptr.capacity() * 8 + self.col_idx.capacity() * 4
    }
}

/// Checks raw CSR arrays row by row in `parts` chunks, reporting the
/// first defect, and counts the arcs whose endpoints are more than
/// [`FAR_IDS`] ids apart.
fn check(n: u32, row_ptr: &[u64], col_idx: &[u32], parts: usize) -> Result<u64, CsrError> {
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
    let chunks = par::ranges(&par::balance(row_ptr, parts)).collect();
    // The lowest chunk's defect is the lowest row's, the one a serial
    // walk meets first. A row out of order is reported only when the
    // offsets and ranges hold everywhere: a too-large offset makes a
    // row take in its successors' columns, which then look unsorted.
    let (mut far, mut unsorted) = (0, None);
    for chunk in par::run(chunks, |_, rows| check_rows(n, row_ptr, col_idx, rows)) {
        let (f, u) = chunk?;
        far += f;
        unsorted = unsorted.or(u);
    }
    unsorted.map_or(Ok(far), Err)
}

/// Checks `rows` of raw CSR arrays whose `row_ptr` starts at 0 and
/// ends at the arc count. Returns their first offset or range defect,
/// else their far-arc count and their first row out of order.
fn check_rows(
    n: u32,
    row_ptr: &[u64],
    col_idx: &[u32],
    rows: Range<usize>,
) -> Result<(u64, Option<CsrError>), CsrError> {
    let len = col_idx.len() as u64;
    let (mut far, mut unsorted) = (0, None);
    let offsets = row_ptr.iter().skip(rows.start);
    for (u, (&start, &end)) in rows.zip(offsets.clone().zip(offsets.skip(1))) {
        if end < start {
            return Err(CsrError::RowPtrDecreasing { at: u });
        }
        // `row_ptr` ends at `len`, so a row that runs past it is
        // followed by a decreasing one; until then, check the columns
        // there are.
        let (lo, hi) = (start.min(len) as usize, end.min(len) as usize);
        let mut prev = 0;
        for (at, &v) in (lo..).zip(col_idx.get(lo..hi).unwrap_or_default()) {
            if v >= n {
                return Err(CsrError::ColumnOutOfRange { at, value: v, n });
            }
            if v < prev && unsorted.is_none() {
                unsorted = Some(CsrError::ColumnDecreasing { row: u as u32, at });
            }
            far += u64::from(v.abs_diff(u as u32) > FAR_IDS);
            prev = v;
        }
    }
    Ok((far, unsorted))
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
    #[should_panic(expected = "sorted ascending")]
    fn rejects_unsorted_row() {
        CsrGraph::from_sorted_parts(3, vec![0, 2, 2, 2], vec![2, 1], false);
    }

    #[test]
    fn repeated_columns_stay_legal() {
        let g = CsrGraph::from_sorted_parts(2, vec![0, 3, 3], vec![1, 1, 1], true);
        assert_eq!(g.neighbors(0), &[1, 1, 1]);
    }

    /// `n` rows of up to four ascending columns each.
    fn raw_parts(n: u32) -> (Vec<u64>, Vec<u32>) {
        let (mut rp, mut cols) = (vec![0u64], Vec::new());
        for u in 0..n {
            let mut row: Vec<u32> = (0..u % 5).map(|k| (u * 7 + k * 4099) % n).collect();
            row.sort_unstable();
            cols.extend(row);
            rp.push(cols.len() as u64);
        }
        (rp, cols)
    }

    #[test]
    fn chunked_check_matches_one_part() {
        let n = 3000;
        let (rp, cols) = raw_parts(n);
        let row_of = |at: usize| rp.partition_point(|&e| e <= at as u64) - 1;
        let mut cases = vec![(rp.clone(), cols.clone())];
        for at in [0, cols.len() / 3, cols.len() / 2, cols.len() - 1] {
            let mut bad = cols.clone();
            bad[at] = n + 1;
            cases.push((rp.clone(), bad));
            // A row whose later column drops below its first.
            let u = row_of(at);
            let (lo, hi) = (rp[u] as usize, rp[u + 1] as usize);
            if hi - lo >= 2 && cols[lo] > 0 {
                let mut bad = cols.clone();
                bad[hi - 1] = cols[lo] - 1;
                cases.push((rp.clone(), bad.clone()));
                // A range defect in a later row outranks it.
                bad[cols.len() - 1] = n;
                cases.push((rp.clone(), bad));
            }
        }
        for u in [1, n as usize / 2, n as usize - 1] {
            let mut bad = rp.clone();
            bad[u] = bad[u + 1] + 1;
            cases.push((bad, cols.clone()));
        }
        let mut bad = rp.clone();
        bad[7] = cols.len() as u64 + 5;
        cases.push((bad, cols.clone()));
        let defects = cases.iter().filter(|(r, c)| check(n, r, c, 1).is_err());
        assert!(defects.count() >= 10, "the cases must mostly be defects");
        for (r, c) in &cases {
            let one = check(n, r, c, 1);
            for parts in [2, 3, 7] {
                assert_eq!(check(n, r, c, parts), one, "{parts} parts");
            }
        }
        assert_eq!(
            check(n, &rp, &cols, 7).unwrap(),
            CsrGraph::from_sorted_parts(n, rp, cols, true).far_arcs()
        );
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
