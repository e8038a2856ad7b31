//! Abstract syntax of the CUDA C kernel subset.
//!
//! The subset covers what the paper's corpus needs: integer scalars
//! (signed/unsigned), pointer parameters (global memory), `__shared__`
//! 1D/2D arrays, the thread-geometry builtins, barriers, structured control
//! flow, and the specification statements `requires`/`assume`/`assert`/
//! `postcond` (the paper's assertion language, §III).

use crate::token::Span;

/// A thread-geometry dimension selector.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Dim {
    X,
    Y,
    Z,
}

impl Dim {
    /// Position of the dimension in an `[x, y, z]` array.
    pub fn index(self) -> usize {
        match self {
            Dim::X => 0,
            Dim::Y => 1,
            Dim::Z => 2,
        }
    }
}

/// CUDA builtin variables (both long and short spellings are accepted:
/// `threadIdx.x` and `tid.x`, etc., matching the paper's notation).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Builtin {
    /// `threadIdx` / `tid`
    Tid(Dim),
    /// `blockIdx` / `bid`
    Bid(Dim),
    /// `blockDim` / `bdim`
    Bdim(Dim),
    /// `gridDim` / `gdim`
    Gdim(Dim),
}

/// Scalar types. `float`/`double` parse but are rejected by the type checker
/// with the paper's own caveat (PUGpara "currently lacks the ability to
/// handle float numbers").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scalar {
    Int,
    Uint,
    Bool,
    Float,
}

impl Scalar {
    /// Signedness used to pick signed vs unsigned SMT comparisons.
    pub fn is_signed(self) -> bool {
        matches!(self, Scalar::Int)
    }
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnOp {
    Neg,
    Not,
    BitNot,
}

/// Binary operators (C semantics over the configured bit width).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// `=>` — implication (assertion language).
    Imp,
}

impl BinOp {
    /// True for the comparison operators producing Bool.
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }

    /// True for the short-circuit logical operators.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

/// Expressions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Expr {
    Int(u64),
    Bool(bool),
    Ident(String),
    Builtin(Builtin),
    /// `a[i]` or `a[i][j]`.
    Index { base: String, indices: Vec<Expr> },
    Unary { op: UnOp, arg: Box<Expr> },
    Binary { op: BinOp, lhs: Box<Expr>, rhs: Box<Expr> },
    /// `c ? t : e`.
    Ternary { cond: Box<Expr>, then: Box<Expr>, els: Box<Expr> },
    /// Builtin calls: `min`, `max`.
    Call { name: String, args: Vec<Expr> },
}

impl Expr {
    /// Binary-node constructor used by the parser and tests.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }
}

/// Assignment targets: a scalar variable or an array element.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LValue {
    pub name: String,
    pub indices: Vec<Expr>,
}

/// Statements.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Stmt {
    /// Declaration, possibly `__shared__`, possibly an array.
    Decl {
        ty: Scalar,
        name: String,
        /// Array dimension extents (empty for scalars). Extents may mention
        /// builtins, e.g. `block[bdim.x][bdim.x + 1]`.
        dims: Vec<Expr>,
        init: Option<Expr>,
        shared: bool,
        span: Span,
    },
    /// `lhs op= rhs`; `op == None` is a plain assignment.
    Assign { lhs: LValue, op: Option<BinOp>, rhs: Expr, span: Span },
    If { cond: Expr, then: Vec<Stmt>, els: Vec<Stmt>, span: Span },
    For { init: Box<Stmt>, cond: Expr, update: Box<Stmt>, body: Vec<Stmt>, span: Span },
    While { cond: Expr, body: Vec<Stmt>, span: Span },
    /// `__syncthreads()`.
    Barrier { span: Span },
    /// Specification statements (the paper's assertion language).
    Assert { cond: Expr, span: Span },
    Assume { cond: Expr, span: Span },
    /// Pre-condition on inputs/configuration.
    Requires { cond: Expr, span: Span },
    /// Post-condition; free scalar identifiers are implicitly universally
    /// quantified (the paper's `postcond(i < width && j < height => …)`).
    Postcond { cond: Expr, span: Span },
    /// Empty statement.
    Nop,
}

/// Every statement of `stmts` and of the blocks nested in them, in
/// pre-order: a statement comes before its blocks, an `if`'s then-branch
/// before its else-branch, and a loop's body right after the loop. A `for`
/// loop's init and update statements are not visited.
pub fn walk_stmts(stmts: &[Stmt]) -> impl Iterator<Item = &Stmt> {
    let mut stack = vec![stmts.iter()];
    std::iter::from_fn(move || loop {
        let Some(s) = stack.last_mut()?.next() else {
            stack.pop();
            continue;
        };
        match s {
            Stmt::If { then, els, .. } => {
                stack.push(els.iter());
                stack.push(then.iter());
            }
            Stmt::For { body, .. } | Stmt::While { body, .. } => stack.push(body.iter()),
            _ => {}
        }
        return Some(s);
    })
}

/// Kernel parameter kinds.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ParamKind {
    /// Pointer parameter — a global-memory array (symbolic input/output).
    GlobalArray { elem: Scalar },
    /// Scalar parameter — a symbolic input value.
    Value { ty: Scalar },
}

/// A kernel parameter.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Param {
    pub name: String,
    pub kind: ParamKind,
}

/// A parsed kernel.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Kernel {
    pub name: String,
    pub params: Vec<Param>,
    pub body: Vec<Stmt>,
}

impl Kernel {
    /// Names of the global-array parameters, in declaration order.
    pub fn array_params(&self) -> Vec<&str> {
        self.params
            .iter()
            .filter(|p| matches!(p.kind, ParamKind::GlobalArray { .. }))
            .map(|p| p.name.as_str())
            .collect()
    }

    /// Names of the scalar parameters, in declaration order.
    pub fn scalar_params(&self) -> Vec<&str> {
        self.params
            .iter()
            .filter(|p| matches!(p.kind, ParamKind::Value { .. }))
            .map(|p| p.name.as_str())
            .collect()
    }
}
