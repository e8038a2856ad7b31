//! The table cells' fault boundary under injected solver faults. The quick
//! Table III grid runs once with `sat::solve` armed to panic and once with
//! `smt::check` armed to answer a spurious unknown; every cell must still
//! resolve, a panic as `CRASH` and a spurious unknown as `T.O`. Cells whose
//! queries are discharged by rewriting never reach a faulted site, so the
//! test asks for the fault's effect in at least one cell, not in all.
//!
//! Failpoints are process-global, so this file holds one test and runs as
//! a test binary of its own.

use pug_bench::{render_rows, table3_rows, Outcome};
use pugpara::failpoints::{self, Fault};
use std::time::Duration;

/// Cells of the quick Table III grid: two kernels, four columns each.
const QUICK_CELLS: usize = 8;

/// The quick Table III grid's outcomes with `site` armed with `fault`, and
/// the rendered grid for failure messages.
fn faulted_grid(site: &str, fault: Fault) -> (Vec<Outcome>, String) {
    failpoints::arm(site, fault);
    let rows = table3_rows(Duration::from_secs(20), true);
    failpoints::reset();
    let rendered = render_rows(&format!("quick Table III, {site} = {fault:?}"), &rows);
    (rows.into_iter().flat_map(|r| r.cells).map(|(_, o)| o).collect(), rendered)
}

#[test]
fn every_cell_resolves_under_solver_faults() {
    let (cells, grid) = faulted_grid("sat::solve", Fault::Panic);
    assert_eq!(cells.len(), QUICK_CELLS, "{grid}");
    assert!(cells.iter().any(|o| matches!(o, Outcome::Crash(_))), "{grid}");

    let (cells, grid) = faulted_grid("smt::check", Fault::SpuriousUnknown);
    assert_eq!(cells.len(), QUICK_CELLS, "{grid}");
    assert!(cells.iter().any(|o| matches!(o, Outcome::Timeout)), "{grid}");
    assert!(!cells.iter().any(|o| matches!(o, Outcome::Crash(_))), "{grid}");
}
