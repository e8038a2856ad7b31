//! Front-end edge cases beyond the unit tests: operator corner cases,
//! diagnostics quality, and the exact paper listings.

use pug_cuda::ast::{walk_stmts, BinOp, Expr, Stmt};
use pug_cuda::{check_kernel, parse_expr, parse_kernel, parse_program};

#[test]
fn paper_listing_naive_transpose_verbatim() {
    // §II listing, as printed in the paper (short builtin names).
    let src = r#"
void naiveTranspose (int *odata, int* idata, int width, int height) {
    int xIndex = bid.x * bdim.x + tid.x;
    int yIndex = bid.y * bdim.y + tid.y;
    if (xIndex < width && yIndex < height) {
        int index_in = xIndex + width * yIndex;
        int index_out = yIndex + height * xIndex;
        odata[index_out] = idata[index_in];
    }
    int i, j;
    postcond(i < width && j < height =>
        odata[i * height + j] == idata[j * width + i]);
}
"#;
    let k = parse_kernel(src).unwrap();
    check_kernel(&k).unwrap();
    assert_eq!(k.name, "naiveTranspose");
}

#[test]
fn paper_listing_loop_pair() {
    // §IV-E loop pair, as printed (with >>= and *=).
    let src = r#"
void a(int *sdata) {
    for (unsigned int k = bdim.x / 2; k > 0; k >>= 2) {
        if ((tid.x % (2 * k)) == 0) sdata[tid.x] += sdata[tid.x + k];
        __syncthreads();
    }
}
void b(int *sdata) {
    for (unsigned int k = 1; k < bdim.x; k *= 2) {
        int index = 2 * k * tid.x;
        if (index < bdim.x) sdata[index] += sdata[index + k];
        __syncthreads();
    }
}
"#;
    let ks = parse_program(src).unwrap();
    assert_eq!(ks.len(), 2);
    for k in &ks {
        check_kernel(k).unwrap();
    }
}

#[test]
fn precedence_mod_binds_like_mul() {
    let e = parse_expr("a % b + c").unwrap();
    let Expr::Binary { op: BinOp::Add, lhs, .. } = e else { panic!() };
    assert!(matches!(*lhs, Expr::Binary { op: BinOp::Rem, .. }));
}

#[test]
fn precedence_shift_below_additive() {
    let e = parse_expr("a << b + c").unwrap();
    let Expr::Binary { op: BinOp::Shl, rhs, .. } = e else { panic!() };
    assert!(matches!(*rhs, Expr::Binary { op: BinOp::Add, .. }));
}

#[test]
fn bitand_below_equality() {
    // C gotcha: a & b == c parses as a & (b == c).
    let e = parse_expr("a & b == c").unwrap();
    assert!(matches!(e, Expr::Binary { op: BinOp::BitAnd, .. }));
}

#[test]
fn unary_chains() {
    let e = parse_expr("-~!x").unwrap();
    assert!(matches!(e, Expr::Unary { .. }));
    let e2 = parse_expr("- - 5").unwrap();
    assert!(matches!(e2, Expr::Unary { .. }));
}

#[test]
fn dangling_else_binds_inner() {
    let src = "void k(int *d) { if (tid.x < 1) if (tid.x < 2) d[0] = 1; else d[1] = 2; }";
    let k = parse_kernel(src).unwrap();
    let Stmt::If { then, els, .. } = &k.body[0] else { panic!() };
    assert!(els.is_empty(), "else must bind to the inner if");
    let Stmt::If { els: inner_els, .. } = &then[0] else { panic!() };
    assert_eq!(inner_els.len(), 1);
}

#[test]
fn walk_stmts_is_pre_order_and_skips_for_headers() {
    let src = "void k(int *d) {
        if (tid.x < 1) { d[0] = 1; } else { d[1] = 2; }
        for (int i = 0; i < 2; i = i + 5) { d[i] = 3; }
        d[2] = 4;
    }";
    let k = parse_kernel(src).unwrap();
    let visited: Vec<String> = walk_stmts(&k.body)
        .map(|s| match s {
            Stmt::If { .. } => "if".to_string(),
            Stmt::For { .. } => "for".to_string(),
            Stmt::Assign { rhs: Expr::Int(v), .. } => v.to_string(),
            other => format!("{other:?}"),
        })
        .collect();
    assert_eq!(visited, ["if", "1", "2", "for", "3", "4"]);
}

#[test]
fn empty_statements_and_blocks() {
    let k = parse_kernel("void k(int *d) { ;; { } d[0] = 1; ; }").unwrap();
    check_kernel(&k).unwrap();
}

#[test]
fn error_messages_carry_position() {
    let err = parse_kernel("void k(int *d) {\n  d[0] = @;\n}").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("2:"), "line number expected in: {msg}");
}

#[test]
fn reserved_spec_names_need_parens() {
    // `assert` as an identifier without a call is just an ident.
    let k = parse_kernel("void k(int *d, int n) { int assert2 = n; d[0] = assert2; }").unwrap();
    check_kernel(&k).unwrap();
}

#[test]
fn for_without_init_or_update() {
    let src = "void k(int *d) { int i = 0; for (; i < 4; ) { d[i] = i; i++; } }";
    let k = parse_kernel(src).unwrap();
    check_kernel(&k).unwrap();
}

#[test]
fn do_keyword_is_rejected_cleanly() {
    assert!(parse_kernel("void k(int *d) { do { d[0] = 1; } while (0); }").is_err());
}

#[test]
fn pointer_and_bracket_params_agree() {
    let a = parse_kernel("void k(int *d) { d[0] = 1; }").unwrap();
    let b = parse_kernel("void k(int d[]) { d[0] = 1; }").unwrap();
    assert_eq!(a.params, b.params);
}

#[test]
fn shared_scalar_rejected_as_array_use() {
    // a __shared__ scalar declaration parses (dims empty ⇒ plain scalar)
    let k = parse_kernel("void k(int *d) { __shared__ int x; x = 1; d[0] = x; }").unwrap();
    check_kernel(&k).unwrap();
}

#[test]
fn float_keyword_in_body_rejected_at_typecheck() {
    let k = parse_kernel("void k(int *d) { float f = 1; d[0] = 0; }").unwrap();
    assert!(check_kernel(&k).is_err());
}

#[test]
fn deeply_nested_expression_parses() {
    let mut e = String::from("x");
    for _ in 0..64 {
        e = format!("({e} + 1)");
    }
    let src = format!("void k(int *d, int x) {{ d[0] = {e}; }}");
    let k = parse_kernel(&src).unwrap();
    check_kernel(&k).unwrap();
}

#[test]
fn hex_literals_and_masks() {
    let k = parse_kernel("void k(int *d) { d[tid.x & 0xF] = 0xff; }").unwrap();
    check_kernel(&k).unwrap();
}

#[test]
fn all_compound_assignments_roundtrip() {
    for op in ["+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="] {
        let src = format!("void k(int *d) {{ d[tid.x] {op} 3; }}");
        let k = parse_kernel(&src).unwrap_or_else(|e| panic!("{op}: {e}"));
        check_kernel(&k).unwrap_or_else(|e| panic!("{op}: {e}"));
    }
}

#[test]
fn ternary_in_index() {
    let k = parse_kernel("void k(int *d, int n) { d[tid.x < n ? tid.x : 0] = 1; }").unwrap();
    check_kernel(&k).unwrap();
}
