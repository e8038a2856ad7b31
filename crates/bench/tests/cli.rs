//! `repro-tables` rejects a bad argument with exit code 2 and the usage
//! line before it runs anything: an unknown table name, the deleted
//! wall-clock benchmark flags, whose work the `work_counts` test of the
//! root package does now, and the deleted smoke modes, whose checks
//! `cell_faults.rs` and `tests/trace_parity.rs` make now.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_with_usage() {
    let cases: [&[&str]; 5] = [
        &["--table", "foo"],
        &["--bench-json", "x"],
        &["--baseline", "x"],
        &["--fault-injection"],
        &["--trace", "x"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro-tables"))
            .args(args)
            .output()
            .expect("repro-tables starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro-tables"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed {}", String::from_utf8_lossy(&out.stdout));
    }
}
