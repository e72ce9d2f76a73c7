//! Tables 8–11: top-ten schemes from the full design-space search.

use crate::render::{rate, table};
use crate::runner::{sweep_families, SchemeStats, Suite};
use crate::space::DesignSpace;
use csp_core::UpdateMode;

/// The four ranked tables produced by one design-space sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopTables {
    /// Table 8: top-10 PVP, direct update.
    pub table8: String,
    /// Table 9: top-10 PVP, forwarded update.
    pub table9: String,
    /// Table 10: top-10 sensitivity, direct update.
    pub table10: String,
    /// Table 11: top-10 sensitivity, forwarded update.
    pub table11: String,
}

/// Runs the paper's full design-space search (Section 5.4: every
/// `union`/`inter` scheme up to 2^24 bits, direct and forwarded update)
/// and ranks the results by PVP and by sensitivity.
///
/// The sweep evaluates all depths of both families in one pass per
/// `(index, update, benchmark)` cell, in parallel, over only the indexes
/// that host an in-budget scheme ([`DesignSpace::index_specs_in_budget`]).
pub fn top_tables(suite: &Suite) -> TopTables {
    top_tables_inner(suite, None).unwrap_or_else(|e| panic!("{e}"))
}

/// [`top_tables`] with a resumable checkpoint: the expensive family sweep
/// persists completed cells to `checkpoint` and a restarted run resumes
/// from it with bitwise-identical tables. The checkpoint is keyed by the
/// swept grid, so a file written over a different grid (such as the
/// unpruned 324-index one) starts fresh instead of resuming.
///
/// # Errors
///
/// Returns [`crate::error::HarnessError`] on checkpoint I/O failures or if
/// any sweep cell panicked twice.
pub fn top_tables_checkpointed(
    suite: &Suite,
    checkpoint: &std::path::Path,
) -> Result<TopTables, crate::error::HarnessError> {
    top_tables_inner(suite, Some(checkpoint))
}

fn top_tables_inner(
    suite: &Suite,
    checkpoint: Option<&std::path::Path>,
) -> Result<TopTables, crate::error::HarnessError> {
    let space = DesignSpace::paper();
    let max_depth = *space.depths.iter().max().expect("non-empty depths");
    let indexes = space.index_specs_in_budget();
    let cells = match checkpoint {
        None => sweep_families(suite, &indexes, &space.updates, max_depth),
        Some(path) => crate::runner::sweep_families_checkpointed(
            suite,
            &indexes,
            &space.updates,
            max_depth,
            path,
        )?
        .into_complete()?,
    };
    Ok(rank_tables(&space.in_budget_stats(&cells)))
}

/// Ranks the in-budget schemes of a sweep into Tables 8–11.
fn rank_tables(all: &[SchemeStats]) -> TopTables {
    TopTables {
        table8: ranked(
            all,
            UpdateMode::Direct,
            RankBy::Pvp,
            "Table 8: top 10 PVP, direct update",
        ),
        table9: ranked(
            all,
            UpdateMode::Forwarded,
            RankBy::Pvp,
            "Table 9: top 10 PVP, forwarded update",
        ),
        table10: ranked(
            all,
            UpdateMode::Direct,
            RankBy::Sensitivity,
            "Table 10: top 10 sensitivity, direct update",
        ),
        table11: ranked(
            all,
            UpdateMode::Forwarded,
            RankBy::Sensitivity,
            "Table 11: top 10 sensitivity, forwarded update",
        ),
    }
}

#[derive(Clone, Copy, PartialEq)]
enum RankBy {
    Pvp,
    Sensitivity,
}

fn ranked(all: &[SchemeStats], update: UpdateMode, by: RankBy, title: &str) -> String {
    let mut filtered: Vec<&SchemeStats> =
        all.iter().filter(|s| s.scheme.update == update).collect();
    filtered.sort_by(|a, b| {
        let (ka, kb) = match by {
            RankBy::Pvp => (
                (a.mean.pvp, a.mean.sensitivity),
                (b.mean.pvp, b.mean.sensitivity),
            ),
            RankBy::Sensitivity => (
                (a.mean.sensitivity, a.mean.pvp),
                (b.mean.sensitivity, b.mean.pvp),
            ),
        };
        kb.partial_cmp(&ka).expect("rates are finite")
    });
    let rows: Vec<Vec<String>> = filtered
        .iter()
        .take(10)
        .map(|s| {
            vec![
                s.scheme.to_string(),
                s.size_log2().to_string(),
                rate(s.mean.prevalence),
                rate(s.mean.pvp),
                rate(s.mean.sensitivity),
            ]
        })
        .collect();
    table(title, &["scheme", "size", "prev", "pvp", "sens"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_tables_have_ten_rows_each() {
        let suite = Suite::generate(0.02, 5);
        let t = top_tables(&suite);
        for (name, tbl) in [
            ("t8", &t.table8),
            ("t9", &t.table9),
            ("t10", &t.table10),
            ("t11", &t.table11),
        ] {
            // Header (3 lines) + 10 ranked rows.
            assert_eq!(tbl.lines().count(), 13, "{name}:\n{tbl}");
        }
        // The paper's headline shapes: deep intersection wins PVP, deep
        // union wins sensitivity.
        assert!(
            t.table8.contains("inter("),
            "table 8 should be inter-dominated:\n{}",
            t.table8
        );
        assert!(
            t.table10.contains("union("),
            "table 10 should be union-dominated:\n{}",
            t.table10
        );
    }

    #[test]
    fn pruned_search_ranks_like_the_full_grid() {
        let suite = Suite::generate(0.02, 5);
        let space = DesignSpace::paper();
        let full = sweep_families(&suite, &space.index_specs(), &space.updates, 4);
        assert_eq!(full.len(), 324 * 2);
        assert_eq!(
            top_tables(&suite),
            rank_tables(&space.in_budget_stats(&full))
        );
    }
}
