//! Execution statistics shared by every simulated engine.
//!
//! Beyond MTEPS, the paper reports steal activity (§4.5 breakdown), the
//! per-block task distribution with its coefficient of variation
//! (Fig. 9), and failure modes (NVG-DFS "failing on 44 out of 234
//! graphs"). [`SimStats`] collects all of it. It is the one place an
//! engine reports its counters: each run returns its `SimStats`, and
//! no engine copies them into a metrics registry.

/// Counters accumulated during a simulated traversal.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Simulated makespan in cycles.
    pub cycles: u64,
    /// Vertices discovered (visited-CAS wins).
    pub vertices_visited: u64,
    /// Adjacency entries examined (the TEPS numerator).
    pub edges_traversed: u64,
    /// Successful intra-block steals.
    pub steals_intra: u64,
    /// Successful inter-block steals.
    pub steals_inter: u64,
    /// Failed steal attempts (lost CAS or no eligible victim).
    pub steal_failures: u64,
    /// HotRing → ColdSeg flush operations.
    pub flushes: u64,
    /// ColdSeg → HotRing refill operations.
    pub refills: u64,
    /// Lost visited-array CAS races (vertex already claimed).
    pub visited_cas_failures: u64,
    /// High-water mark of any HotRing (shared-memory stack level).
    pub hot_high_water: u64,
    /// High-water mark of any ColdSeg (global-memory stack level).
    pub cold_high_water: u64,
    /// Tasks (vertices) processed per block — Fig. 9's distribution.
    pub tasks_per_block: Vec<u64>,
    /// Faults injected by a `db-fault` plan during this run (0 for
    /// fault-free runs; the fault-free fast path never touches these).
    pub faults_injected: u64,
    /// SMs (blocks) killed by injected faults.
    pub sms_killed: u64,
    /// Killed SMs whose stranded work was fully drained by survivors.
    pub blocks_recovered: u64,
    /// Stack entries re-stolen from killed SMs via the recovery path.
    pub entries_recovered: u64,
}

impl SimStats {
    /// Creates stats with `blocks` per-block task slots.
    pub fn new(blocks: usize) -> Self {
        Self {
            tasks_per_block: vec![0; blocks],
            ..Default::default()
        }
    }

    /// Coefficient of variation (stddev / mean) of `tasks_per_block`,
    /// the "Var." metric of Fig. 9 (lower is better). Returns 0 for
    /// degenerate distributions.
    pub fn block_load_cv(&self) -> f64 {
        coefficient_of_variation(&self.tasks_per_block)
    }

    /// Min / median / max of the per-block task counts — the markers
    /// shown in Fig. 9.
    pub fn block_load_min_med_max(&self) -> (u64, u64, u64) {
        if self.tasks_per_block.is_empty() {
            return (0, 0, 0);
        }
        let mut v = self.tasks_per_block.clone();
        v.sort_unstable();
        (v[0], v[v.len() / 2], v[v.len() - 1])
    }

    /// Total steal attempts.
    pub fn steal_attempts(&self) -> u64 {
        self.steals_intra + self.steals_inter + self.steal_failures
    }
}

/// Coefficient of variation of a sample (population stddev / mean).
pub fn coefficient_of_variation(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<u64>() as f64 / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// Geometric mean of positive values; entries `<= 0` are skipped (the
/// paper's "average speedup (geometric mean)" of §4.2).
pub fn geometric_mean(xs: &[f64]) -> f64 {
    let logs: Vec<f64> = xs
        .iter()
        .copied()
        .filter(|&x| x > 0.0)
        .map(f64::ln)
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cv_of_uniform_is_zero() {
        assert_eq!(coefficient_of_variation(&[5, 5, 5, 5]), 0.0);
    }

    #[test]
    fn cv_of_skewed_is_large() {
        let balanced = coefficient_of_variation(&[90, 100, 110, 100]);
        let skewed = coefficient_of_variation(&[0, 0, 0, 400]);
        assert!(skewed > 10.0 * balanced);
        assert!((skewed - 1.732).abs() < 0.01); // sqrt(3)
    }

    #[test]
    fn cv_handles_degenerate() {
        // Pinned: empty and all-zero inputs must be exactly 0.0 — never
        // NaN — or every figure that prints a CV column corrupts its CSV.
        assert_eq!(coefficient_of_variation(&[]), 0.0);
        assert_eq!(coefficient_of_variation(&[0, 0]), 0.0);
        assert_eq!(coefficient_of_variation(&[0]), 0.0);
        assert!(!coefficient_of_variation(&[]).is_nan());
        assert!(!coefficient_of_variation(&[0, 0, 0]).is_nan());
        assert_eq!(SimStats::new(0).block_load_cv(), 0.0);
        assert_eq!(SimStats::new(8).block_load_cv(), 0.0);
    }

    #[test]
    fn min_med_max() {
        let mut s = SimStats::new(5);
        s.tasks_per_block = vec![10, 50, 30, 20, 40];
        assert_eq!(s.block_load_min_med_max(), (10, 30, 50));
    }

    #[test]
    fn geomean_basics() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        // zeros / negatives skipped (failed runs)
        assert!((geometric_mean(&[4.0, 0.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn geomean_handles_degenerate() {
        // Pinned: empty and all-zero (or all-negative) inputs must be
        // exactly 0.0, never NaN.
        assert_eq!(geometric_mean(&[]), 0.0);
        assert_eq!(geometric_mean(&[0.0]), 0.0);
        assert_eq!(geometric_mean(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(geometric_mean(&[-1.0, -2.0]), 0.0);
        assert!(!geometric_mean(&[0.0, 0.0]).is_nan());
        assert_eq!(geometric_mean(&[f64::NAN]), 0.0);
    }

    #[test]
    fn steal_attempts_sum() {
        let s = SimStats {
            steals_intra: 3,
            steals_inter: 2,
            steal_failures: 5,
            ..Default::default()
        };
        assert_eq!(s.steal_attempts(), 10);
    }
}
