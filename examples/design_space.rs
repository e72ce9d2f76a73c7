//! Sweep a reduced predictor design space and print the frontier: the
//! schemes that are not dominated on (sensitivity, PVP, cost).
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use csp::harness::runner::{sweep_families, Suite};
use csp::harness::space::DesignSpace;
use csp::harness::SchemeStats;

fn main() {
    let suite = Suite::generate(0.1, 7);
    let space = DesignSpace::small();
    let cells = sweep_families(&suite, &space.index_specs_in_budget(), &space.updates, 4);
    let all = space.in_budget_stats(&cells);
    println!("evaluated {} schemes over 7 benchmarks\n", all.len());

    // Pareto frontier on (sensitivity, pvp), cost as tie-breaker.
    let mut frontier: Vec<&SchemeStats> = Vec::new();
    for s in &all {
        let dominated = all.iter().any(|o| {
            (o.mean.sensitivity > s.mean.sensitivity && o.mean.pvp >= s.mean.pvp)
                || (o.mean.sensitivity >= s.mean.sensitivity && o.mean.pvp > s.mean.pvp)
        });
        if !dominated {
            frontier.push(s);
        }
    }
    frontier.sort_by(|a, b| b.mean.pvp.partial_cmp(&a.mean.pvp).expect("finite"));

    println!(
        "{:34} {:>4} {:>6} {:>6}",
        "Pareto-optimal scheme", "size", "pvp", "sens"
    );
    for s in frontier {
        println!(
            "{:34} {:>4} {:>6.3} {:>6.3}",
            s.scheme.to_string(),
            s.size_log2(),
            s.mean.pvp,
            s.mean.sensitivity
        );
    }
    println!(
        "\nPick from the top for bandwidth-constrained machines (sure bets only),\n\
         from the bottom when spare bandwidth lets you chase every opportunity."
    );
}
