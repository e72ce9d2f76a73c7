//! Tables 8–11 against a committed golden capture.
//!
//! `tests/golden/top_tables_s0.02_seed5.txt` holds the four ranked tables
//! of `top_tables(&Suite::generate(0.02, 5))`, joined in order with one
//! blank line between them. Any change to key streams, the scoring
//! kernel, the design-space grid or the ranking that moves one digit of
//! the paper's search output fails here.

use csp::harness::experiments::top_tables;
use csp::harness::Suite;

const GOLDEN: &str = include_str!("golden/top_tables_s0.02_seed5.txt");

#[test]
fn tables_8_to_11_match_the_golden_capture() {
    let t = top_tables(&Suite::generate(0.02, 5));
    let got = format!("{}\n{}\n{}\n{}\n", t.table8, t.table9, t.table10, t.table11);
    for (n, (g, want)) in got.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(g, want, "first difference at golden line {}", n + 1);
    }
    assert_eq!(got.lines().count(), GOLDEN.lines().count(), "line count");
    assert_eq!(got, GOLDEN);
}
