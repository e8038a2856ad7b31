//! Golden-file tests for front-end diagnostics.
//!
//! Each case feeds a malformed kernel through the parse → typecheck
//! pipeline and snapshots the *exact* rendered diagnostic (phase, span,
//! message) against `tests/golden/<name>.txt`. Diagnostics are part of
//! the tool's user interface: a reworded message, a lost line number, or
//! a phase misattribution is a regression even when the error is still
//! detected.
//!
//! To refresh after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p pug-cuda --test golden_diagnostics
//! ```
//!
//! then review the diff like any other code change.

use pug_cuda::{check_kernel, parse_kernel};
use std::fs;
use std::path::PathBuf;

/// Run the front end on `src` and render the first diagnostic.
fn diagnose(src: &str) -> String {
    match parse_kernel(src) {
        Err(e) => e.to_string(),
        Ok(k) => match check_kernel(&k) {
            Err(e) => e.to_string(),
            Ok(_) => "no diagnostic (accepted)".to_string(),
        },
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.txt"))
}

/// Compare (or, under `UPDATE_GOLDEN=1`, record) one snapshot.
fn check_golden(name: &str, src: &str) -> Result<(), String> {
    let actual = format!("input:\n{src}\ndiagnostic:\n{}\n", diagnose(src));
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &actual).unwrap();
        return Ok(());
    }
    let expected = fs::read_to_string(&path).map_err(|e| {
        format!("{name}: cannot read {} ({e}); run with UPDATE_GOLDEN=1 to record", path.display())
    })?;
    if expected != actual {
        return Err(format!(
            "{name}: diagnostic drifted from golden file {}\n--- expected\n{expected}\n--- actual\n{actual}",
            path.display()
        ));
    }
    Ok(())
}

/// The corpus: (snapshot name, malformed source). Every case must
/// produce a diagnostic — an input that starts being accepted shows up
/// as a "no diagnostic (accepted)" snapshot mismatch.
const CASES: &[(&str, &str)] = &[
    ("lex_stray_symbol", "void k(int *d) {\n  d[0] = @;\n}"),
    ("lex_unterminated_comment", "void k(int *d) {\n  /* no closing\n  d[0] = 1;\n}"),
    ("parse_do_while", "void k(int *d) {\n  do { d[0] = 1; } while (0);\n}"),
    ("parse_missing_semicolon", "void k(int *d) {\n  d[0] = 1\n  d[1] = 2;\n}"),
    ("parse_unclosed_brace", "void k(int *d) {\n  if (tid.x < 4) {\n    d[0] = 1;\n}"),
    ("parse_missing_index", "void k(int *d) {\n  d[] = 1;\n}"),
    ("parse_bad_for_header", "void k(int *d) {\n  for (int i = 0; ; ; i++) d[i] = i;\n}"),
    ("parse_postcond_malformed", "void k(int *d) {\n  postcond(d[0] ==);\n}"),
    ("type_float_local", "void k(int *d) {\n  float f = 1;\n  d[0] = 0;\n}"),
    ("type_undeclared_variable", "void k(int *d) {\n  d[0] = q;\n}"),
    ("type_array_used_as_scalar", "void k(int *d) {\n  d = 1;\n}"),
    ("type_scalar_indexed", "void k(int *d, int n) {\n  d[0] = n[1];\n}"),
];

/// [`CASES`] plus the generated ones: one level past the parser's nesting
/// cap, 255 paren groups under `d[0] =` (level 2) put the `1` at level 257.
fn cases() -> Vec<(&'static str, String)> {
    let mut cases: Vec<(&str, String)> = CASES.iter().map(|&(n, s)| (n, s.to_string())).collect();
    let parens = 255;
    let (open, close) = ("(".repeat(parens), ")".repeat(parens));
    let deep = format!("void k(int *d) {{\n  d[0] = {open}1{close};\n}}");
    cases.push(("parse_nesting_too_deep", deep));
    cases
}

#[test]
fn diagnostics_match_golden_files() {
    let failures: Vec<String> =
        cases().iter().filter_map(|(name, src)| check_golden(name, src).err()).collect();
    assert!(failures.is_empty(), "{} golden mismatches:\n{}", failures.len(), failures.join("\n"));
}

/// Meta-check: every case in the corpus actually errors. Keeps the golden
/// corpus honest — a "no diagnostic (accepted)" snapshot can only get in
/// by someone committing it past both this test and review.
#[test]
fn every_case_produces_a_diagnostic() {
    for (name, src) in cases() {
        let diagnostic = diagnose(&src);
        assert_ne!(diagnostic, "no diagnostic (accepted)", "case {name} no longer errors:\n{src}");
    }
}

/// Meta-check: no orphaned golden files for deleted cases.
#[test]
fn no_orphaned_golden_files() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for entry in fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        assert!(
            cases().iter().any(|(name, _)| *name == stem),
            "orphaned golden file {} — delete it or re-add its case",
            path.display()
        );
    }
}
