//! Assembling and rendering the paper's Tables II and III.

use crate::cells::{self, Outcome};
use std::time::Duration;

/// One rendered table row.
#[derive(Clone, Debug)]
pub struct TableRow {
    pub kernel: String,
    pub cells: Vec<(String, Outcome)>,
}

/// Run one labeled cell inside the [`cells::run_cell`] fault boundary.
fn cell(label: &str, f: impl FnOnce() -> Outcome) -> (String, Outcome) {
    (label.to_string(), cells::run_cell(f))
}

/// Table II — equivalence checking of *bug-free* kernels.
///
/// Columns follow the paper: non-parameterized at n = 4, 8, 16(+C.),
/// 32(+C.), then parameterized −C. and +C. `quick` limits the grid to the
/// cheap rows/columns (`repro-tables --quick`).
pub fn table2_rows(timeout: Duration, quick: bool) -> Vec<TableRow> {
    let mut rows = Vec::new();
    let transpose_bits: &[u32] = if quick { &[8, 16] } else { &[8, 16, 32] };
    for &bits in transpose_bits {
        let mut cells_row = vec![
            cell("n=4", || cells::transpose_nonparam(bits, 4, false, timeout)),
            cell("n=8", || cells::transpose_nonparam(bits, 8, false, timeout)),
            cell("n=16(+C.)", || cells::transpose_nonparam(bits, 16, true, timeout)),
        ];
        if !quick {
            cells_row
                .push(cell("n=32(+C.)", || cells::transpose_nonparam(bits, 32, true, timeout)));
        }
        cells_row.push(cell("param -C.", || cells::transpose_param(bits, false, timeout)));
        cells_row.push(cell("param +C.", || cells::transpose_param(bits, true, timeout)));
        rows.push(TableRow { kernel: format!("Transpose ({bits}b)"), cells: cells_row });
    }
    let reduction_bits: &[u32] = &[8, 12];
    for &bits in reduction_bits {
        let mut cells_row = vec![
            cell("n=4", || cells::reduction_nonparam(bits, 4, timeout)),
            cell("n=8", || cells::reduction_nonparam(bits, 8, timeout)),
        ];
        if !quick {
            cells_row.push(cell("n=16", || cells::reduction_nonparam(bits, 16, timeout)));
        }
        cells_row.push(cell("param -C.", || cells::reduction_param(bits, false, timeout)));
        cells_row.push(cell("param +C.", || cells::reduction_param(bits, true, timeout)));
        rows.push(TableRow { kernel: format!("Reduction ({bits}b)"), cells: cells_row });
    }
    rows
}

/// Table III — equivalence checking of *buggy* kernel versions.
pub fn table3_rows(timeout: Duration, quick: bool) -> Vec<TableRow> {
    let mut rows = Vec::new();
    let transpose_bits: &[u32] = if quick { &[16] } else { &[16, 32] };
    for &bits in transpose_bits {
        rows.push(TableRow {
            kernel: format!("Transpose ({bits}b)"),
            cells: vec![
                cell("n=4", || cells::transpose_buggy_nonparam(bits, 4, timeout)),
                cell("n=8", || cells::transpose_buggy_nonparam(bits, 8, timeout)),
                cell("n=16", || cells::transpose_buggy_nonparam(bits, 16, timeout)),
                cell("param", || cells::transpose_buggy_param(bits, timeout)),
            ],
        });
    }
    let reduction_bits: &[u32] = if quick { &[8] } else { &[8, 16, 32] };
    for &bits in reduction_bits {
        rows.push(TableRow {
            kernel: format!("Reduction ({bits}b)"),
            cells: vec![
                cell("n=4", || cells::reduction_buggy_nonparam(bits, 4, timeout)),
                cell("n=8", || cells::reduction_buggy_nonparam(bits, 8, timeout)),
                cell("n=16", || cells::reduction_buggy_nonparam(bits, 16, timeout)),
                cell("param", || cells::reduction_buggy_param(bits, timeout)),
            ],
        });
    }
    rows
}

/// Render rows as fixed-width text in the paper's layout, re-printing the
/// header whenever the column set changes (the transpose and reduction
/// sub-tables have different n columns, as in the paper). Bug-expected
/// tables (Table III) read `s*` as "bug found in s seconds".
pub fn render_rows(title: &str, rows: &[TableRow]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let mut last_header: Option<Vec<String>> = None;
    for row in rows {
        let header: Vec<String> = row.cells.iter().map(|(c, _)| c.clone()).collect();
        if last_header.as_ref() != Some(&header) {
            out.push_str(&format!("{:<18}", "Kernel"));
            for c in &header {
                out.push_str(&format!("{c:>14}"));
            }
            out.push('\n');
            out.push_str(&"-".repeat(18 + 14 * header.len()));
            out.push('\n');
            last_header = Some(header);
        }
        out.push_str(&format!("{:<18}", row.kernel));
        for (_, o) in &row.cells {
            out.push_str(&format!("{:>14}", o.to_string()));
        }
        out.push('\n');
    }
    out
}

/// Scaling experiment: the non-parameterized blow-up in n, against the
/// constant-size parameterized check — the quantitative form of the paper's
/// "PUG explodes in complexity when confronted with a growing number of
/// threads" / "GKLEE … exceeding resources at about 2K threads". Run at 16
/// bits where blocks up to 128 threads stay wrap-free.
pub fn scaling_rows(timeout: Duration) -> Vec<TableRow> {
    vec![
        // v0 vs v2: structurally different reduction trees — the solver must
        // prove the sums equal, with cost growing steeply in n.
        TableRow {
            kernel: "Reduce v0/v2 (8b)".into(),
            cells: vec![
                cell("n=4", || cells::reduction_v2_nonparam(8, 4, timeout)),
                cell("n=8", || cells::reduction_v2_nonparam(8, 8, timeout)),
                cell("n=16", || cells::reduction_v2_nonparam(8, 16, timeout)),
                cell("param v0/v1", || cells::reduction_param(8, false, timeout)),
            ],
        },
        // Transpose with *symbolic* matrix sizes: store-chain resolution
        // cannot fold the addresses, so the chain depth (= n) hits the solver.
        TableRow {
            kernel: "Transpose -C (8b)".into(),
            cells: vec![
                cell("n=4", || cells::transpose_nonparam(8, 4, false, timeout)),
                cell("n=16", || cells::transpose_nonparam(8, 16, false, timeout)),
                cell("n=64", || cells::transpose_nonparam(8, 64, false, timeout)),
                cell("n=144", || cells::transpose_nonparam(8, 144, false, timeout)),
                cell("param -C.", || cells::transpose_param(8, false, timeout)),
            ],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cheapest_cells() {
        // One cheap cell per family keeps the harness wired end-to-end.
        let t = Duration::from_secs(60);
        let a = cells::transpose_nonparam(8, 4, true, t);
        assert!(matches!(a, Outcome::Verified(_)), "transpose n=4: {a}");
        let b = cells::reduction_param(8, false, t);
        assert!(matches!(b, Outcome::Verified(_)), "reduction param: {b}");
        let c = cells::transpose_buggy_param(8, t);
        assert!(matches!(c, Outcome::Starred(_)), "buggy transpose: {c}");
    }

    #[test]
    fn rendering_layout() {
        let rows = vec![TableRow {
            kernel: "Demo".into(),
            cells: vec![
                ("n=4".into(), Outcome::Verified(Duration::from_millis(120))),
                ("param".into(), Outcome::Timeout),
            ],
        }];
        let s = render_rows("Table X", &rows);
        assert!(s.contains("Demo"));
        assert!(s.contains("0.12"));
        assert!(s.contains("T.O"));
    }

    #[test]
    fn cell_boundary_catches_panics() {
        let o = cells::run_cell(|| panic!("seeded cell panic"));
        assert_eq!(o.to_string(), "CRASH");
        assert!(matches!(o, Outcome::Crash(m) if m.contains("seeded cell panic")));
    }

    #[test]
    fn block_mapping_matches_paper() {
        assert_eq!(cells::transpose_block(4), (2, 2));
        assert_eq!(cells::transpose_block(8), (4, 2)); // non-square → `*`
        assert_eq!(cells::transpose_block(16), (4, 4));
        assert_eq!(cells::transpose_block(32), (8, 4)); // non-square → `*`
    }
}
