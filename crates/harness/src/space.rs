//! Enumeration of the affordable predictor design space.
//!
//! The paper explores "the space of predictor schemes up to an
//! implementation cost of 2^24 bits, or 2 Mbytes across the entire
//! machine" (Section 5.4). This module enumerates that space: every
//! combination of prediction function, history depth, index fields with
//! even bit budgets, and update mode, filtered by the cost model.

use crate::runner::{FamilyCell, SchemeStats};
use csp_core::{IndexSpec, PredictionFunction, Scheme, UpdateMode};

/// Parameters of a design-space enumeration.
///
/// # Example
///
/// ```
/// use csp_harness::space::DesignSpace;
///
/// let space = DesignSpace::paper();
/// let schemes = space.schemes();
/// assert!(schemes.len() > 1000);
/// assert!(schemes.iter().all(|s| s.size_log2_bits(16) <= 24));
/// ```
#[derive(Clone, Debug)]
pub struct DesignSpace {
    /// Prediction functions to include.
    pub functions: Vec<PredictionFunction>,
    /// History depths to include (functions with fixed depth ignore this).
    pub depths: Vec<usize>,
    /// Candidate pc-field widths (0 = absent).
    pub pc_bits: Vec<u8>,
    /// Candidate addr-field widths (0 = absent).
    pub addr_bits: Vec<u8>,
    /// Update modes to include.
    pub updates: Vec<UpdateMode>,
    /// Maximum cost as `log2(bits)` on a 16-node machine.
    pub max_size_log2: u32,
}

impl DesignSpace {
    /// The paper's search space: `union`/`inter` at depths 1–4, even field
    /// widths up to 16 bits, cost capped at 2^24 bits. Direct and forwarded
    /// update (the two implementable modes the top-ten tables report).
    pub fn paper() -> Self {
        DesignSpace {
            functions: vec![PredictionFunction::Union, PredictionFunction::Inter],
            depths: vec![1, 2, 3, 4],
            pc_bits: vec![0, 2, 4, 6, 8, 10, 12, 14, 16],
            addr_bits: vec![0, 2, 4, 6, 8, 10, 12, 14, 16],
            updates: vec![UpdateMode::Direct, UpdateMode::Forwarded],
            max_size_log2: 24,
        }
    }

    /// A reduced space for quick runs and tests.
    pub fn small() -> Self {
        DesignSpace {
            functions: vec![PredictionFunction::Union, PredictionFunction::Inter],
            depths: vec![1, 2, 4],
            pc_bits: vec![0, 4, 8],
            addr_bits: vec![0, 4, 8],
            updates: vec![UpdateMode::Direct],
            max_size_log2: 24,
        }
    }

    /// Every index specification in the space (pid/dir free, field widths
    /// from the configured candidates), before cost filtering.
    pub fn index_specs(&self) -> Vec<IndexSpec> {
        let mut out = Vec::new();
        for &pid in &[false, true] {
            for &dir in &[false, true] {
                for &pc in &self.pc_bits {
                    for &addr in &self.addr_bits {
                        out.push(IndexSpec::new(pid, pc, dir, addr));
                    }
                }
            }
        }
        out
    }

    /// The indexes of [`DesignSpace::index_specs`] that host at least one
    /// scheme of [`DesignSpace::schemes`], in the same order — the only
    /// indexes a budget-capped search needs to evaluate.
    pub fn index_specs_in_budget(&self) -> Vec<IndexSpec> {
        // `schemes()` is grouped by index in `index_specs()` order.
        let mut out: Vec<IndexSpec> = self.schemes().iter().map(|s| s.index).collect();
        out.dedup();
        out
    }

    /// The in-budget schemes of a family sweep over this space, as stats,
    /// in sweep order: each cell's functions × depths, dropping schemes
    /// over [`DesignSpace::max_size_log2`]. Depth 1 of `inter` duplicates
    /// depth 1 of `union` (both are `last`), so only the `union` copy is
    /// kept and no predictor is listed twice.
    pub fn in_budget_stats(&self, cells: &[FamilyCell]) -> Vec<SchemeStats> {
        let mut out = Vec::new();
        for cell in cells {
            for &f in &self.functions {
                for &d in &self.depths {
                    if f == PredictionFunction::Inter && d == 1 {
                        continue;
                    }
                    let stats = cell.stats(f, d);
                    if stats.size_log2() <= self.max_size_log2 {
                        out.push(stats);
                    }
                }
            }
        }
        out
    }

    /// Every scheme in the space whose cost fits the budget (16 nodes).
    pub fn schemes(&self) -> Vec<Scheme> {
        let mut out = Vec::new();
        for ix in self.index_specs() {
            for &f in &self.functions {
                let depths: &[usize] = match f {
                    PredictionFunction::Last | PredictionFunction::OverlapLast => &[1],
                    _ => &self.depths,
                };
                for &d in depths {
                    for &u in &self.updates {
                        let s = Scheme::new(f, ix, d, u);
                        if s.size_log2_bits(16) <= self.max_size_log2 {
                            out.push(s);
                        }
                    }
                }
            }
        }
        out
    }
}

/// The sixteen index configurations on the x-axis of the paper's Figures
/// 6 and 7: all subsets of `{pid, pc, dir, addr}` with the `pc`/`addr`
/// budgets chosen to fill a 16-bit index (4 bits each for `pid`/`dir`).
pub fn figure6_index_grid() -> Vec<IndexSpec> {
    index_grid(16)
}

/// The sixteen index configurations of Figure 8 (PAs predictors): the same
/// subsets filled to a 12-bit budget.
pub fn figure8_index_grid() -> Vec<IndexSpec> {
    index_grid(12)
}

/// Builds the figure x-axis: for each of the 16 subsets of
/// `{pid, pc, dir, addr}` (in the paper's label order), split the
/// remaining budget after pid/dir evenly between the pc and addr fields
/// present.
fn index_grid(max_bits: u8) -> Vec<IndexSpec> {
    let mut out = Vec::new();
    // Paper label order: (addr), (dir), (pc), (pid) bits from top to
    // bottom, enumerated with pid as the slowest-varying field.
    for &pid in &[false, true] {
        for &use_pc in &[false, true] {
            for &dir in &[false, true] {
                for &use_addr in &[false, true] {
                    let mut budget = max_bits;
                    if pid {
                        budget = budget.saturating_sub(4);
                    }
                    if dir {
                        budget = budget.saturating_sub(4);
                    }
                    let (pc_bits, addr_bits) = match (use_pc, use_addr) {
                        (false, false) => (0, 0),
                        (true, false) => (budget, 0),
                        (false, true) => (0, budget),
                        // Split the budget; bias the odd pair to match the
                        // paper's labels (e.g. pc12+addr? -> 8+8, 6+6).
                        (true, true) => {
                            let half = (budget / 2) & !1; // even split
                            (half, budget - half)
                        }
                    };
                    out.push(IndexSpec::new(pid, pc_bits, dir, addr_bits));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_space_size_and_budget() {
        let space = DesignSpace::paper();
        let schemes = space.schemes();
        // 4 pid/dir combos x 9 x 9 field widths x 2 functions x depths
        // {1..4, deduped for depth-1} x 2 updates, minus over-budget.
        assert!(schemes.len() > 2000, "got {}", schemes.len());
        assert!(schemes.iter().all(|s| s.size_log2_bits(16) <= 24));
        // The paper's named top performers are all in the space.
        for name in [
            "inter(pid+add6)4",
            "union(dir+add14)4",
            "inter(pid+pc8+add6)4[forwarded]",
        ] {
            let target: Scheme = name.parse().unwrap();
            assert!(schemes.contains(&target), "{name} missing from space");
        }
    }

    #[test]
    fn paper_grid_prunes_to_indexes_of_at_most_20_bits() {
        let space = DesignSpace::paper();
        let all = space.index_specs();
        let pruned = space.index_specs_in_budget();
        assert_eq!(all.len(), 324);
        assert_eq!(pruned.len(), 178);
        // A depth-1 scheme costs 2^(bits + 4) bits on 16 nodes.
        let kept: Vec<IndexSpec> = all.into_iter().filter(|ix| ix.bits(16) <= 20).collect();
        assert_eq!(pruned, kept);
        // Every in-budget scheme lives on a kept index.
        for s in space.schemes() {
            assert!(pruned.contains(&s.index), "{s} lost by pruning");
        }
    }

    #[test]
    fn figure_grids_have_16_points_within_budget() {
        for (grid, max) in [(figure6_index_grid(), 16u32), (figure8_index_grid(), 12)] {
            assert_eq!(grid.len(), 16);
            for ix in &grid {
                assert!(ix.bits(16) <= max, "{ix} exceeds {max} bits");
            }
            // All 16 Table 1 cases appear exactly once.
            let mut cases: Vec<u8> = grid.iter().map(|ix| ix.table1_case()).collect();
            cases.sort_unstable();
            cases.dedup();
            assert_eq!(cases.len(), 16);
        }
    }

    #[test]
    fn figure6_grid_matches_paper_labels() {
        let grid = figure6_index_grid();
        // Spot-check the labels from Figure 6's x-axis.
        assert_eq!(grid[0], IndexSpec::none());
        assert_eq!(grid[1], IndexSpec::new(false, 0, false, 16)); // addr16
        assert_eq!(grid[2], IndexSpec::new(false, 0, true, 0)); // dir
        assert_eq!(grid[3], IndexSpec::new(false, 0, true, 12)); // dir+add12
        assert_eq!(grid[4], IndexSpec::new(false, 16, false, 0)); // pc16
        assert_eq!(grid[5], IndexSpec::new(false, 8, false, 8)); // pc8+add8
        assert_eq!(grid[15], IndexSpec::new(true, 4, true, 4)); // pid+pc4+dir+add4
    }

    #[test]
    fn small_space_is_subset_of_paper_sizes() {
        let small = DesignSpace::small().schemes();
        assert!(!small.is_empty());
        assert!(small.len() < DesignSpace::paper().schemes().len());
    }
}
