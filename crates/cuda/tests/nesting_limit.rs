//! Hostile nesting cannot overflow the stack.
//!
//! Every shape below once aborted the whole process (a stack overflow
//! cannot be caught) when loaded on a 2 MiB thread, the stack size of the
//! threads that load `pug-serve` jobs. Now each one loads at the deepest accepted
//! level, [`MAX_NESTING`], and fails one level further and at about 10,000
//! levels with a structured diagnostic. Each shape's builder takes a depth
//! in the parser's levels (see [`MAX_NESTING`]), so these tests also pin
//! how the levels are counted.

use pug_cuda::parser::MAX_NESTING;
use pug_cuda::{check_kernel, parse_kernel};

/// Stack size of the daemon's pool workers, which load every job.
const JOB_STACK: usize = 2 << 20;

/// A kernel whose right-hand side `a[i] = …` (level 2) is `expr`.
fn assign(expr: String) -> String {
    format!("void k(int *a, int i) {{\n  a[i] = {expr};\n}}")
}

/// A kernel whose body is `body`.
fn kernel(body: String) -> String {
    format!("void k(int *a, int i) {{\n  {body}\n}}")
}

/// Builds a kernel whose deepest node sits at the given level.
type Shape = fn(usize) -> String;

/// The shapes, by name. `wrap(open, inner, close, n)` nests `open … close`
/// `n` times.
fn shapes() -> Vec<(&'static str, Shape)> {
    fn wrap(open: &str, inner: &str, close: &str, n: usize) -> String {
        format!("{}{inner}{}", open.repeat(n), close.repeat(n))
    }
    /// The innermost operand of a two-levels-per-step shape: one more
    /// paren group when the depth is odd.
    fn odd_level(d: usize) -> &'static str {
        if d % 2 == 1 {
            "(i)"
        } else {
            "i"
        }
    }
    vec![
        // A paren group is a level: `i` sits at 2 + n.
        ("nested (", |d| assign(wrap("(", "i", ")", d - 2))),
        // The negation and its paren group are a level each.
        ("nested -(", |d| assign(wrap("-(", odd_level(d), ")", (d - 2) / 2))),
        // The `+` node and the paren group of its right operand.
        ("nested a[i] + (", |d| assign(wrap("a[i] + (", odd_level(d), ")", (d - 2) / 2))),
        ("nested a[", |d| assign(wrap("a[", "i", "]", d - 2))),
        // Each `if` is a statement level; its braces add none.
        ("nested if", |d| kernel(wrap("if (i) { ", "a[i] = i;", " }", d - 2))),
        // A bare block is a level of its own.
        ("nested {", |d| kernel(wrap("{ ", "a[i] = i;", " }", d - 2))),
        ("prefix - chain", |d| assign(format!("{}i", "- ".repeat(d - 2)))),
        // One level per operator, and `a[i]` reaches one below its node.
        ("flat a[i] + a[i] + … chain", |d| assign(format!("{}a[i]", "a[i] + ".repeat(d - 3)))),
    ]
}

/// Parse and type-check `src` on a job-sized stack; the diagnostic, if any.
fn load_on_job_stack(src: String) -> Option<String> {
    std::thread::Builder::new()
        .stack_size(JOB_STACK)
        .spawn(move || {
            let kernel = parse_kernel(&src).map_err(|e| e.to_string())?;
            check_kernel(&kernel).map_err(|e| e.to_string())?;
            Ok::<(), String>(())
        })
        .expect("spawn a job-sized thread")
        .join()
        .expect("the load returns instead of crashing")
        .err()
}

#[test]
fn every_shape_loads_at_the_deepest_accepted_level() {
    for (name, build) in shapes() {
        assert_eq!(load_on_job_stack(build(MAX_NESTING)), None, "{name} at depth {MAX_NESTING}");
    }
}

#[test]
fn every_shape_fails_one_level_deeper_and_far_deeper() {
    let expected = format!("nesting deeper than {MAX_NESTING} levels");
    for (name, build) in shapes() {
        for depth in [MAX_NESTING + 1, 10_000] {
            let err = load_on_job_stack(build(depth))
                .unwrap_or_else(|| panic!("{name} at depth {depth} was accepted"));
            assert!(err.starts_with("parse error at "), "{name} at depth {depth}: {err}");
            assert!(err.ends_with(&expected), "{name} at depth {depth}: {err}");
        }
    }
}
