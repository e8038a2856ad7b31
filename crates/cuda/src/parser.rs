//! Recursive-descent parser with full C expression precedence.
//!
//! Nesting is capped at [`MAX_NESTING`] levels, so neither the parser's own
//! recursion nor the type checker's and the IR passes' recursion over the
//! tree can exhaust a thread's stack on hostile input.

use crate::ast::*;
use crate::error::FrontendError;
use crate::lexer::lex;
use crate::token::{Span, Tok, Token};

/// Deepest nesting level the parser accepts.
///
/// A level is a statement, an expression node, or a grouping that makes no
/// node of its own (a parenthesized expression, a unary `+`, a cast, a bare
/// `{ }` block). A kernel's top-level statements sit at level 1 and every
/// child one level below its parent, so statements and expressions count
/// together. A left-associative chain such as `a + b + c` is one level per
/// operator: a loop builds it, but every later pass recurses down it.
pub const MAX_NESTING: usize = 256;

/// Parse a source file containing one or more kernels.
pub fn parse_program(src: &str) -> Result<Vec<Kernel>, FrontendError> {
    let mut p = Parser::new(lex(src)?);
    let mut kernels = Vec::new();
    while p.peek() != &Tok::Eof {
        kernels.push(p.kernel()?);
    }
    if kernels.is_empty() {
        return Err(FrontendError::parse(Span::default(), "no kernel found"));
    }
    Ok(kernels)
}

/// Parse a source file expected to contain exactly one kernel.
pub fn parse_kernel(src: &str) -> Result<Kernel, FrontendError> {
    let ks = parse_program(src)?;
    if ks.len() != 1 {
        return Err(FrontendError::parse(
            Span::default(),
            format!("expected exactly one kernel, found {}", ks.len()),
        ));
    }
    Ok(ks.into_iter().next().expect("length checked"))
}

/// Parse a standalone expression (used by the assertion-language API).
pub fn parse_expr(src: &str) -> Result<Expr, FrontendError> {
    let mut p = Parser::new(lex(src)?);
    let e = p.expr()?;
    p.expect(Tok::Eof)?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting level of the node being parsed.
    level: usize,
    /// Deepest level the current [`Parser::measured`] parse has reached.
    deepest: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Parser {
        Parser { tokens, pos: 0, level: 1, deepest: 1 }
    }

    /// Note that the tree reaches `level`, failing past [`MAX_NESTING`].
    fn reach(&mut self, level: usize, span: Span) -> Result<(), FrontendError> {
        if level > MAX_NESTING {
            return Err(FrontendError::parse(
                span,
                format!("nesting deeper than {MAX_NESTING} levels"),
            ));
        }
        self.deepest = self.deepest.max(level);
        Ok(())
    }

    /// Parse with `f` one level down.
    fn deeper<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, FrontendError>,
    ) -> Result<T, FrontendError> {
        self.level += 1;
        let parsed = f(self);
        self.level -= 1;
        parsed
    }

    /// Parse with `f` at this level, and say how deep the result reaches.
    fn measured<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, FrontendError>,
    ) -> Result<(T, usize), FrontendError> {
        let outer = std::mem::replace(&mut self.deepest, self.level);
        let parsed = f(self)?;
        let reached = self.deepest;
        self.deepest = outer.max(reached);
        Ok((parsed, reached))
    }

    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek_nth(&self, n: usize) -> &Tok {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: Tok) -> bool {
        if self.peek() == &t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok) -> Result<(), FrontendError> {
        if self.peek() == &t {
            self.bump();
            Ok(())
        } else {
            Err(FrontendError::parse(
                self.span(),
                format!("expected {t}, found {}", self.peek()),
            ))
        }
    }

    fn ident(&mut self) -> Result<String, FrontendError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(FrontendError::parse(self.span(), format!("expected identifier, found {other}"))),
        }
    }

    // ------------------------------------------------------------- kernels

    fn kernel(&mut self) -> Result<Kernel, FrontendError> {
        // optional qualifiers
        while matches!(self.peek(), Tok::KwGlobal | Tok::KwDevice) {
            self.bump();
        }
        // return type: void or a scalar type (ignored)
        if !self.eat(Tok::KwVoid) {
            let _ = self.scalar_type()?;
        }
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                params.push(self.param()?);
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        let body = self.block()?;
        Ok(Kernel { name, params, body })
    }

    fn param(&mut self) -> Result<Param, FrontendError> {
        let ty = self.scalar_type()?;
        let is_ptr = self.eat(Tok::Star);
        let name = self.ident()?;
        // `int data[]` is accepted as a pointer parameter too.
        let is_array = if self.eat(Tok::LBracket) {
            self.expect(Tok::RBracket)?;
            true
        } else {
            false
        };
        let kind = if is_ptr || is_array {
            ParamKind::GlobalArray { elem: ty }
        } else {
            ParamKind::Value { ty }
        };
        Ok(Param { name, kind })
    }

    /// `[const] (unsigned [int] | int | bool | float | double | long …)`
    fn scalar_type(&mut self) -> Result<Scalar, FrontendError> {
        self.eat(Tok::KwConst);
        let t = match self.peek().clone() {
            Tok::KwUnsigned => {
                self.bump();
                // optional `int`/`long`/`short`/`char`
                if matches!(self.peek(), Tok::KwInt | Tok::KwLong | Tok::KwShort | Tok::KwChar) {
                    self.bump();
                }
                Scalar::Uint
            }
            Tok::KwSigned => {
                self.bump();
                if matches!(self.peek(), Tok::KwInt | Tok::KwLong | Tok::KwShort | Tok::KwChar) {
                    self.bump();
                }
                Scalar::Int
            }
            Tok::KwInt | Tok::KwLong | Tok::KwShort | Tok::KwChar => {
                self.bump();
                Scalar::Int
            }
            Tok::KwBool => {
                self.bump();
                Scalar::Bool
            }
            Tok::KwFloat | Tok::KwDouble => {
                self.bump();
                Scalar::Float
            }
            other => {
                return Err(FrontendError::parse(self.span(), format!("expected a type, found {other}")))
            }
        };
        self.eat(Tok::KwConst);
        Ok(t)
    }

    fn is_type_start(&self) -> bool {
        matches!(
            self.peek(),
            Tok::KwInt
                | Tok::KwUnsigned
                | Tok::KwSigned
                | Tok::KwBool
                | Tok::KwFloat
                | Tok::KwDouble
                | Tok::KwLong
                | Tok::KwShort
                | Tok::KwChar
                | Tok::KwConst
                | Tok::KwShared
        )
    }

    // ---------------------------------------------------------- statements

    fn block(&mut self) -> Result<Vec<Stmt>, FrontendError> {
        self.expect(Tok::LBrace)?;
        let mut out = Vec::new();
        while !self.eat(Tok::RBrace) {
            if self.peek() == &Tok::Eof {
                return Err(FrontendError::parse(self.span(), "unterminated block"));
            }
            self.stmt_into(&mut out)?;
        }
        Ok(out)
    }

    /// Parse a single statement; it may expand to several (e.g. `int i, j;`).
    fn stmt_into(&mut self, out: &mut Vec<Stmt>) -> Result<(), FrontendError> {
        let span = self.span();
        self.reach(self.level, span)?;
        // The statement's children sit one level down. An error ends the
        // whole parse, so the early returns below need not restore it.
        self.level += 1;
        match self.peek().clone() {
            Tok::Semi => {
                self.bump();
                out.push(Stmt::Nop);
            }
            Tok::LBrace => {
                let inner = self.block()?;
                out.extend(inner);
            }
            Tok::KwSyncthreads => {
                self.bump();
                self.expect(Tok::LParen)?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                out.push(Stmt::Barrier { span });
            }
            Tok::KwIf => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let then = self.stmt_or_block()?;
                let els = if self.eat(Tok::KwElse) { self.stmt_or_block()? } else { Vec::new() };
                out.push(Stmt::If { cond, then, els, span });
            }
            Tok::KwFor => {
                self.bump();
                self.expect(Tok::LParen)?;
                let init = if self.peek() == &Tok::Semi {
                    self.bump();
                    Box::new(Stmt::Nop)
                } else if self.is_type_start() {
                    let mut decls = Vec::new();
                    self.decl_into(&mut decls)?;
                    if decls.len() != 1 {
                        return Err(FrontendError::parse(
                            span,
                            "for-initializer must declare exactly one variable",
                        ));
                    }
                    Box::new(decls.remove(0))
                } else {
                    let s = self.simple_assign()?;
                    self.expect(Tok::Semi)?;
                    Box::new(s)
                };
                let cond = if self.peek() == &Tok::Semi { Expr::Bool(true) } else { self.expr()? };
                self.expect(Tok::Semi)?;
                let update = if self.peek() == &Tok::RParen {
                    Box::new(Stmt::Nop)
                } else {
                    Box::new(self.simple_assign()?)
                };
                self.expect(Tok::RParen)?;
                let body = self.stmt_or_block()?;
                out.push(Stmt::For { init, cond, update, body, span });
            }
            Tok::KwWhile => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let body = self.stmt_or_block()?;
                out.push(Stmt::While { cond, body, span });
            }
            Tok::KwReturn => {
                self.bump();
                self.expect(Tok::Semi)?;
                // `return;` in a kernel is a no-op at the end of a void body.
                out.push(Stmt::Nop);
            }
            Tok::Ident(name) if is_spec_keyword(&name) && self.peek_nth(1) == &Tok::LParen => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                out.push(match name.as_str() {
                    "assert" => Stmt::Assert { cond, span },
                    "assume" => Stmt::Assume { cond, span },
                    "requires" => Stmt::Requires { cond, span },
                    "postcond" => Stmt::Postcond { cond, span },
                    _ => unreachable!("spec keyword checked"),
                });
            }
            _ if self.is_type_start() => {
                self.decl_into(out)?;
            }
            _ => {
                let s = self.simple_assign()?;
                self.expect(Tok::Semi)?;
                out.push(s);
            }
        }
        self.level -= 1;
        Ok(())
    }

    fn stmt_or_block(&mut self) -> Result<Vec<Stmt>, FrontendError> {
        if self.peek() == &Tok::LBrace {
            self.block()
        } else {
            let mut v = Vec::new();
            self.stmt_into(&mut v)?;
            Ok(v)
        }
    }

    /// Declarations, possibly `__shared__`, with comma-separated declarators.
    fn decl_into(&mut self, out: &mut Vec<Stmt>) -> Result<(), FrontendError> {
        let span = self.span();
        let shared = self.eat(Tok::KwShared);
        let ty = self.scalar_type()?;
        loop {
            self.eat(Tok::Star); // local pointer declarators are treated as arrays
            let name = self.ident()?;
            let mut dims = Vec::new();
            while self.eat(Tok::LBracket) {
                dims.push(self.expr()?);
                self.expect(Tok::RBracket)?;
            }
            let init = if self.eat(Tok::Assign) { Some(self.expr()?) } else { None };
            out.push(Stmt::Decl { ty, name, dims, init, shared, span });
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        self.expect(Tok::Semi)?;
        Ok(())
    }

    /// Assignment-ish statements without the trailing semicolon:
    /// `lhs = e`, `lhs op= e`, `lhs++`, `++lhs`.
    fn simple_assign(&mut self) -> Result<Stmt, FrontendError> {
        let span = self.span();
        // prefix increment / decrement
        if matches!(self.peek(), Tok::PlusPlus | Tok::MinusMinus) {
            let inc = self.bump() == Tok::PlusPlus;
            let lhs = self.lvalue()?;
            return Ok(incdec(lhs, inc, span));
        }
        let lhs = self.lvalue()?;
        let op = match self.peek().clone() {
            Tok::Assign => None,
            Tok::PlusAssign => Some(BinOp::Add),
            Tok::MinusAssign => Some(BinOp::Sub),
            Tok::StarAssign => Some(BinOp::Mul),
            Tok::SlashAssign => Some(BinOp::Div),
            Tok::PercentAssign => Some(BinOp::Rem),
            Tok::AmpAssign => Some(BinOp::BitAnd),
            Tok::PipeAssign => Some(BinOp::BitOr),
            Tok::CaretAssign => Some(BinOp::BitXor),
            Tok::ShlAssign => Some(BinOp::Shl),
            Tok::ShrAssign => Some(BinOp::Shr),
            Tok::PlusPlus => {
                self.bump();
                return Ok(incdec(lhs, true, span));
            }
            Tok::MinusMinus => {
                self.bump();
                return Ok(incdec(lhs, false, span));
            }
            other => {
                return Err(FrontendError::parse(
                    span,
                    format!("expected an assignment operator, found {other}"),
                ))
            }
        };
        self.bump();
        let rhs = self.expr()?;
        Ok(Stmt::Assign { lhs, op, rhs, span })
    }

    fn lvalue(&mut self) -> Result<LValue, FrontendError> {
        let name = self.ident()?;
        let mut indices = Vec::new();
        while self.eat(Tok::LBracket) {
            indices.push(self.expr()?);
            self.expect(Tok::RBracket)?;
        }
        Ok(LValue { name, indices })
    }

    // --------------------------------------------------------- expressions

    /// Lowest precedence: implication (right-associative, assertion lang).
    fn expr(&mut self) -> Result<Expr, FrontendError> {
        let (lhs, reached) = self.measured(Self::ternary)?;
        let span = self.span();
        if self.eat(Tok::Implies) {
            self.reach(reached + 1, span)?;
            let rhs = self.deeper(Self::expr)?;
            return Ok(Expr::bin(BinOp::Imp, lhs, rhs));
        }
        Ok(lhs)
    }

    fn ternary(&mut self) -> Result<Expr, FrontendError> {
        let (cond, reached) = self.measured(|p| p.binary(0))?;
        let span = self.span();
        if self.eat(Tok::Question) {
            self.reach(reached + 1, span)?;
            let then = self.deeper(Self::expr)?;
            self.expect(Tok::Colon)?;
            let els = self.deeper(Self::ternary)?;
            return Ok(Expr::Ternary {
                cond: Box::new(cond),
                then: Box::new(then),
                els: Box::new(els),
            });
        }
        Ok(cond)
    }

    /// Left-associative binary operators of precedence `prec` and tighter:
    /// `operand (op operand)*`. Each operator pushes everything parsed so
    /// far one level down, so the chain's depth is checked as it grows.
    fn binary(&mut self, prec: usize) -> Result<Expr, FrontendError> {
        let operand = |p: &mut Self| {
            if prec + 1 == BINARY_PRECEDENCES {
                p.unary()
            } else {
                p.binary(prec + 1)
            }
        };
        let (mut lhs, mut deepest) = self.measured(operand)?;
        while let Some(op) = binary_op(prec, self.peek()) {
            let span = self.span();
            self.bump();
            let (rhs, reached) = self.measured(operand)?;
            deepest = deepest.max(reached) + 1;
            self.reach(deepest, span)?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, FrontendError> {
        self.reach(self.level, self.span())?;
        let op = match self.peek() {
            Tok::Minus => Some(UnOp::Neg),
            Tok::Bang => Some(UnOp::Not),
            Tok::Tilde => Some(UnOp::BitNot),
            Tok::Plus => {
                self.bump();
                return self.deeper(Self::unary);
            }
            Tok::LParen if self.is_cast() => {
                // (int) e / (unsigned) e — casts are width-preserving no-ops
                self.bump();
                let _ = self.scalar_type()?;
                self.expect(Tok::RParen)?;
                return self.deeper(Self::unary);
            }
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let arg = self.deeper(Self::unary)?;
            return Ok(Expr::Unary { op, arg: Box::new(arg) });
        }
        self.postfix()
    }

    fn is_cast(&self) -> bool {
        matches!(
            self.peek_nth(1),
            Tok::KwInt
                | Tok::KwUnsigned
                | Tok::KwSigned
                | Tok::KwBool
                | Tok::KwFloat
                | Tok::KwDouble
                | Tok::KwLong
                | Tok::KwShort
                | Tok::KwChar
        )
    }

    fn postfix(&mut self) -> Result<Expr, FrontendError> {
        let span = self.span();
        match self.peek().clone() {
            Tok::Int(n) => {
                self.bump();
                Ok(Expr::Int(n))
            }
            Tok::KwTrue => {
                self.bump();
                Ok(Expr::Bool(true))
            }
            Tok::KwFalse => {
                self.bump();
                Ok(Expr::Bool(false))
            }
            Tok::LParen => {
                self.bump();
                let e = self.deeper(Self::expr)?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => {
                self.bump();
                // builtin member access: tid.x / threadIdx.y / …
                if self.peek() == &Tok::Dot {
                    if let Some(mk) = builtin_base(&name) {
                        self.bump();
                        let dim_name = self.ident()?;
                        let dim = match dim_name.as_str() {
                            "x" => Dim::X,
                            "y" => Dim::Y,
                            "z" => Dim::Z,
                            other => {
                                return Err(FrontendError::parse(
                                    span,
                                    format!("unknown dimension `.{other}` on {name}"),
                                ))
                            }
                        };
                        return Ok(Expr::Builtin(mk(dim)));
                    }
                    return Err(FrontendError::parse(
                        span,
                        format!("member access is only supported on thread-geometry builtins, not `{name}`"),
                    ));
                }
                // call
                if self.peek() == &Tok::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if self.peek() != &Tok::RParen {
                        loop {
                            args.push(self.deeper(Self::expr)?);
                            if !self.eat(Tok::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen)?;
                    return Ok(Expr::Call { name, args });
                }
                // indexing
                if self.peek() == &Tok::LBracket {
                    let mut indices = Vec::new();
                    while self.eat(Tok::LBracket) {
                        indices.push(self.deeper(Self::expr)?);
                        self.expect(Tok::RBracket)?;
                    }
                    return Ok(Expr::Index { base: name, indices });
                }
                Ok(Expr::Ident(name))
            }
            other => Err(FrontendError::parse(span, format!("unexpected token {other} in expression"))),
        }
    }
}

/// Precedence levels of the left-associative binary operators.
const BINARY_PRECEDENCES: usize = 10;

/// The operator `t` denotes at precedence `prec`, loosest (`||`) first.
fn binary_op(prec: usize, t: &Tok) -> Option<BinOp> {
    let op = match (prec, t) {
        (0, Tok::OrOr) => BinOp::Or,
        (1, Tok::AndAnd) => BinOp::And,
        (2, Tok::Pipe) => BinOp::BitOr,
        (3, Tok::Caret) => BinOp::BitXor,
        (4, Tok::Amp) => BinOp::BitAnd,
        (5, Tok::EqEq) => BinOp::Eq,
        (5, Tok::NotEq) => BinOp::Ne,
        (6, Tok::Lt) => BinOp::Lt,
        (6, Tok::Le) => BinOp::Le,
        (6, Tok::Gt) => BinOp::Gt,
        (6, Tok::Ge) => BinOp::Ge,
        (7, Tok::Shl) => BinOp::Shl,
        (7, Tok::Shr) => BinOp::Shr,
        (8, Tok::Plus) => BinOp::Add,
        (8, Tok::Minus) => BinOp::Sub,
        (9, Tok::Star) => BinOp::Mul,
        (9, Tok::Slash) => BinOp::Div,
        (9, Tok::Percent) => BinOp::Rem,
        _ => return None,
    };
    Some(op)
}

fn incdec(lhs: LValue, inc: bool, span: Span) -> Stmt {
    Stmt::Assign {
        lhs,
        op: Some(if inc { BinOp::Add } else { BinOp::Sub }),
        rhs: Expr::Int(1),
        span,
    }
}

fn is_spec_keyword(name: &str) -> bool {
    matches!(name, "assert" | "assume" | "requires" | "postcond")
}

fn builtin_base(name: &str) -> Option<fn(Dim) -> Builtin> {
    match name {
        "threadIdx" | "tid" => Some(Builtin::Tid),
        "blockIdx" | "bid" => Some(Builtin::Bid),
        "blockDim" | "bdim" => Some(Builtin::Bdim),
        "gridDim" | "gdim" => Some(Builtin::Gdim),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_naive_transpose() {
        let src = r#"
__global__ void naiveTranspose(int *odata, int *idata, int width, int height) {
    int xIndex = blockIdx.x * blockDim.x + threadIdx.x;
    int yIndex = blockIdx.y * blockDim.y + threadIdx.y;
    if (xIndex < width && yIndex < height) {
        int index_in = xIndex + width * yIndex;
        int index_out = yIndex + height * xIndex;
        odata[index_out] = idata[index_in];
    }
}
"#;
        let k = parse_kernel(src).unwrap();
        assert_eq!(k.name, "naiveTranspose");
        assert_eq!(k.array_params(), vec!["odata", "idata"]);
        assert_eq!(k.scalar_params(), vec!["width", "height"]);
        assert_eq!(k.body.len(), 3);
    }

    #[test]
    fn parses_shared_2d_array_and_barrier() {
        let src = r#"
__global__ void k(int *o, int *i) {
    __shared__ int block[bdim.x][bdim.x + 1];
    block[tid.y][tid.x] = i[tid.x];
    __syncthreads();
    o[tid.x] = block[tid.x][tid.y];
}
"#;
        let k = parse_kernel(src).unwrap();
        let Stmt::Decl { name, dims, shared, .. } = &k.body[0] else {
            panic!("expected decl")
        };
        assert_eq!(name, "block");
        assert_eq!(dims.len(), 2);
        assert!(shared);
        assert!(matches!(k.body[2], Stmt::Barrier { .. }));
    }

    #[test]
    fn parses_for_loop_with_compound_update() {
        let src = r#"
void k(int *d) {
    for (unsigned int s = 1; s < bdim.x; s *= 2) {
        d[tid.x] += d[tid.x + s];
        __syncthreads();
    }
}
"#;
        let k = parse_kernel(src).unwrap();
        let Stmt::For { init, cond, update, body, .. } = &k.body[0] else {
            panic!("expected for")
        };
        assert!(matches!(**init, Stmt::Decl { ty: Scalar::Uint, .. }));
        assert!(matches!(cond, Expr::Binary { op: BinOp::Lt, .. }));
        assert!(matches!(**update, Stmt::Assign { op: Some(BinOp::Mul), .. }));
        assert_eq!(body.len(), 2);
    }

    #[test]
    fn expression_precedence() {
        // a + b * c << 2 == d && e || f
        let e = parse_expr("a + b * c << 2 == d && e || f").unwrap();
        // top must be ||
        let Expr::Binary { op: BinOp::Or, lhs, .. } = e else { panic!("top is ||") };
        let Expr::Binary { op: BinOp::And, lhs, .. } = *lhs else { panic!("next is &&") };
        let Expr::Binary { op: BinOp::Eq, lhs, .. } = *lhs else { panic!("next is ==") };
        let Expr::Binary { op: BinOp::Shl, .. } = *lhs else { panic!("next is <<") };
    }

    #[test]
    fn ternary_and_implication() {
        let e = parse_expr("i < n => a[i] == b ? c : d").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::Imp, .. }));
        let e2 = parse_expr("x ? y : z ? u : v").unwrap();
        // right-associative ternary
        let Expr::Ternary { els, .. } = e2 else { panic!() };
        assert!(matches!(*els, Expr::Ternary { .. }));
    }

    #[test]
    fn modulo_and_increment() {
        let src = r#"
void k(int *d) {
    if ((tid.x % (2 * 4)) == 0) d[tid.x]++;
    int i = 0;
    i++;
    ++i;
    i--;
}
"#;
        let k = parse_kernel(src).unwrap();
        assert!(k.body.len() >= 4);
    }

    #[test]
    fn postcond_with_free_vars() {
        let src = r#"
void k(int *odata, int *idata, int width, int height) {
    int i, j;
    postcond(i < width && j < height => odata[i * height + j] == idata[j * width + i]);
}
"#;
        let k = parse_kernel(src).unwrap();
        assert!(matches!(k.body.last(), Some(Stmt::Postcond { .. })));
    }

    #[test]
    fn short_builtin_names() {
        let e = parse_expr("bid.x * bdim.x + tid.x").unwrap();
        let Expr::Binary { op: BinOp::Add, rhs, .. } = e else { panic!() };
        assert_eq!(*rhs, Expr::Builtin(Builtin::Tid(Dim::X)));
    }

    #[test]
    fn cast_is_noop() {
        let e = parse_expr("(int)x + (unsigned int)y").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::Add, .. }));
    }

    #[test]
    fn error_on_member_of_ordinary_var() {
        assert!(parse_expr("foo.x").is_err());
    }

    #[test]
    fn multiple_kernels_in_one_file() {
        let src = "void a(int *x) { x[tid.x] = 1; } void b(int *y) { y[tid.x] = 2; }";
        let ks = parse_program(src).unwrap();
        assert_eq!(ks.len(), 2);
        assert_eq!(ks[0].name, "a");
        assert_eq!(ks[1].name, "b");
    }
}
