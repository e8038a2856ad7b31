//! Differential testing of the CDCL solver against exhaustive enumeration on
//! random CNF instances, plus structured hard families.

use pug_sat::{Budget, Cnf, Lit, SolveResult, Solver, Var};
use pug_testutil::TestRng;

/// Exhaustively decide satisfiability of a small CNF.
fn brute_force(cnf: &Cnf) -> bool {
    assert!(cnf.num_vars <= 20);
    (0u32..1 << cnf.num_vars).any(|bits| {
        let assignment: Vec<bool> = (0..cnf.num_vars).map(|i| bits >> i & 1 == 1).collect();
        cnf.eval(&assignment)
    })
}

fn solve(cnf: &Cnf) -> SolveResult {
    let mut s = Solver::new();
    if !cnf.load(&mut s) {
        return SolveResult::Unsat;
    }
    let r = s.solve(&Budget::unlimited());
    if r == SolveResult::Sat {
        // Verify the model actually satisfies the formula.
        let assignment: Vec<bool> =
            (0..cnf.num_vars).map(|i| s.model_value(Var(i as u32))).collect();
        assert!(cnf.eval(&assignment), "solver returned a non-model");
    }
    r
}

fn random_cnf(rng: &mut TestRng, num_vars: usize, num_clauses: usize, width: usize) -> Cnf {
    let clauses = (0..num_clauses)
        .map(|_| {
            let len = rng.gen_range(1..=width);
            (0..len)
                .map(|_| Lit::new(Var(rng.gen_range(0..num_vars) as u32), rng.gen_bool(0.5)))
                .collect()
        })
        .collect();
    Cnf { num_vars, clauses }
}

#[test]
fn differential_random_3sat() {
    let mut rng = TestRng::seed_from_u64(0x5eed);
    for round in 0..500 {
        let nv = rng.gen_range(1..=10);
        let nc = rng.gen_range(1..=45);
        let cnf = random_cnf(&mut rng, nv, nc, 3);
        let expect = brute_force(&cnf);
        let got = solve(&cnf) == SolveResult::Sat;
        assert_eq!(got, expect, "round {round}: mismatch on\n{}", cnf.to_dimacs());
    }
}

#[test]
fn differential_wide_clauses() {
    let mut rng = TestRng::seed_from_u64(0xfeed);
    for round in 0..200 {
        let nv = rng.gen_range(2..=12);
        let nc = rng.gen_range(1..=60);
        let cnf = random_cnf(&mut rng, nv, nc, 6);
        let expect = brute_force(&cnf);
        let got = solve(&cnf) == SolveResult::Sat;
        assert_eq!(got, expect, "round {round}: mismatch on\n{}", cnf.to_dimacs());
    }
}

#[test]
fn incremental_assumptions_match_clause_addition() {
    // Solving F under assumption l must agree with solving F ∧ {l}.
    let mut rng = TestRng::seed_from_u64(0xabcd);
    for _ in 0..200 {
        let nv = rng.gen_range(2..=8);
        let nc = rng.gen_range(1..=30);
        let cnf = random_cnf(&mut rng, nv, nc, 3);
        let a = Lit::new(Var(rng.gen_range(0..nv) as u32), rng.gen_bool(0.5));

        let mut inc = Solver::new();
        let ok = cnf.load(&mut inc);
        let under_assumption = if ok {
            inc.solve_with(&[a], &Budget::unlimited())
        } else {
            SolveResult::Unsat
        };

        let mut mono = Cnf { num_vars: cnf.num_vars, clauses: cnf.clauses.clone() };
        mono.clauses.push(vec![a]);
        let with_clause = solve(&mono);
        assert_eq!(under_assumption, with_clause, "cnf:\n{}\nassumption {a:?}", cnf.to_dimacs());
    }
}

#[test]
fn solver_reuse_across_calls() {
    // The solver stays usable and consistent across many solve calls with
    // interleaved clause additions (the SMT layer relies on this).
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..8).map(|_| s.new_var()).collect();
    assert_eq!(s.solve(&Budget::unlimited()), SolveResult::Sat);
    s.add_clause(&[vars[0].pos(), vars[1].pos()]);
    assert_eq!(s.solve(&Budget::unlimited()), SolveResult::Sat);
    s.add_clause(&[vars[0].neg()]);
    assert_eq!(s.solve(&Budget::unlimited()), SolveResult::Sat);
    assert!(s.model_value(vars[1]));
    s.add_clause(&[vars[1].neg()]);
    assert_eq!(s.solve(&Budget::unlimited()), SolveResult::Unsat);
}

#[test]
fn pigeonhole_family_unsat() {
    for holes in 2..=5usize {
        let pigeons = holes + 1;
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> =
            (0..pigeons).map(|_| (0..holes).map(|_| s.new_var()).collect()).collect();
        for row in &p {
            let clause: Vec<Lit> = row.iter().map(|v| v.pos()).collect();
            s.add_clause(&clause);
        }
        #[allow(clippy::needless_range_loop)] // h/i/j symmetry reads better indexed
        for h in 0..holes {
            for i in 0..pigeons {
                for j in (i + 1)..pigeons {
                    s.add_clause(&[p[i][h].neg(), p[j][h].neg()]);
                }
            }
        }
        assert_eq!(s.solve(&Budget::unlimited()), SolveResult::Unsat, "PHP({pigeons},{holes})");
    }
}

/// The solver agrees with brute force on arbitrary small CNFs
/// (property-style: 64 generated cases, reproducible from the seed).
#[test]
fn prop_matches_brute_force() {
    let mut rng = TestRng::seed_from_u64(0x9e3779b9);
    for case in 0..64u32 {
        let nv = rng.gen_range(1usize..8);
        let nc = rng.gen_range(0usize..25);
        let clauses: Vec<Vec<Lit>> = (0..nc)
            .map(|_| {
                let len = rng.gen_range(1usize..4);
                (0..len)
                    .map(|_| Lit::new(Var(rng.gen_range(0u32..8) % nv as u32), rng.gen_bool(0.5)))
                    .collect()
            })
            .collect();
        let cnf = Cnf { num_vars: nv, clauses };
        assert_eq!(
            solve(&cnf) == SolveResult::Sat,
            brute_force(&cnf),
            "case {case}: mismatch on\n{}",
            cnf.to_dimacs()
        );
    }
}

/// Two solvers fed the same calls, plus a record of every clause, over a
/// gate-level circuit: a variable is free (a circuit input, or a query
/// guard) or an AND/XOR gate of earlier literals, so enumerating the inputs
/// decides any clause set over the circuit.
#[derive(Default)]
struct Twin {
    solvers: [Solver; 2],
    cnf: Cnf,
    /// Per variable: `Some((xor, a, b))` for a gate, `None` when free.
    gates: Vec<Option<(bool, Lit, Lit)>>,
    guards: Vec<Var>,
}

impl Twin {
    fn var(&mut self, gate: Option<(bool, Lit, Lit)>) -> Var {
        let [v, w] = self.solvers.each_mut().map(Solver::new_var);
        assert_eq!(v, w);
        self.gates.push(gate);
        self.cnf.num_vars += 1;
        v
    }

    fn add(&mut self, clause: &[Lit]) {
        for s in &mut self.solvers {
            s.add_clause(clause);
        }
        self.cnf.clauses.push(clause.to_vec());
    }

    fn and(&mut self, a: Lit, b: Lit) -> Lit {
        let g = self.var(Some((false, a, b))).pos();
        self.add(&[!g, a]);
        self.add(&[!g, b]);
        self.add(&[g, !a, !b]);
        g
    }

    fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let g = self.var(Some((true, a, b))).pos();
        self.add(&[!g, a, b]);
        self.add(&[!g, !a, !b]);
        self.add(&[g, !a, b]);
        self.add(&[g, a, !b]);
        g
    }

    /// `x * y` modulo `2^len`, by shift-and-add.
    fn mul(&mut self, x: &[Lit], y: &[Lit]) -> Vec<Lit> {
        let mut acc: Vec<Lit> = x.iter().map(|&xi| self.and(xi, y[0])).collect();
        for (j, &yj) in y.iter().enumerate().skip(1) {
            let mut carry: Option<Lit> = None;
            for i in j..x.len() {
                let bit = self.and(x[i - j], yj);
                let sum = self.xor(acc[i], bit);
                let next = carry.map(|c| self.xor(sum, c)).unwrap_or(sum);
                let c1 = self.and(acc[i], bit);
                carry = Some(match carry {
                    None => c1,
                    Some(c) => {
                        let c2 = self.and(sum, c);
                        !self.and(!c1, !c2)
                    }
                });
                acc[i] = next;
            }
        }
        acc
    }

    /// Solve a query whose clauses are all guarded by a fresh literal,
    /// check the answer, then retire the guard as `SolveSession` does.
    fn query(&mut self, clauses: &[Vec<Lit>], when: &str) {
        let g = self.var(None);
        self.guards.push(g);
        for c in clauses {
            let mut guarded = vec![g.neg()];
            guarded.extend_from_slice(c);
            self.add(&guarded);
        }
        let [a, b] =
            self.solvers.each_mut().map(|s| s.solve_with(&[g.pos()], &Budget::unlimited()));
        assert_eq!(a, b, "{when}");
        assert_eq!(a == SolveResult::Sat, self.brute_force(g), "{when}");
        if a == SolveResult::Sat {
            let s = &self.solvers[0];
            let model: Vec<bool> =
                (0..self.cnf.num_vars).map(|v| s.model_value(Var(v as u32))).collect();
            assert!(self.cnf.eval(&model), "{when}: the model breaks a clause");
        }
        self.check(when);
        self.add(&[g.neg()]);
        for s in &mut self.solvers {
            s.simplify();
        }
        self.check(&format!("{when}, retired"));
    }

    /// After every call: identical search on both solvers, and a byte and
    /// clause count that match the live clauses.
    fn check(&self, when: &str) {
        let [a, b] = &self.solvers;
        assert_eq!(a.stats(), b.stats(), "{when}: same calls, different search");
        let lits: usize = a.clauses().map(<[Lit]>::len).sum();
        assert_eq!(a.clause_db_bytes(), 4 * lits, "{when}: byte count");
        assert_eq!(a.num_clauses(), a.clauses().count(), "{when}: live clause count");
    }

    /// Is the recorded CNF satisfiable with `active` true and every other
    /// guard false? Enumerates the inputs (the free variables that are not
    /// guards) 64 assignments per word.
    fn brute_force(&self, active: Var) -> bool {
        let inputs: Vec<Var> = (0..self.gates.len() as u32)
            .map(Var)
            .filter(|v| self.gates[v.index()].is_none() && !self.guards.contains(v))
            .collect();
        let words = (1usize << inputs.len()).div_ceil(64);
        let mut val = vec![Vec::new(); self.gates.len()];
        for (j, x) in inputs.iter().enumerate() {
            val[x.index()] = (0..words)
                .map(|w| (0..64).fold(0u64, |acc, t| acc | ((((w * 64 + t) >> j) & 1) as u64) << t))
                .collect();
        }
        for &g in &self.guards {
            val[g.index()] = vec![if g == active { !0 } else { 0 }; words];
        }
        let word = |val: &[Vec<u64>], l: Lit, w: usize| {
            if l.is_positive() { val[l.var().index()][w] } else { !val[l.var().index()][w] }
        };
        for v in 0..self.gates.len() {
            if let Some((xor, a, b)) = self.gates[v] {
                val[v] = (0..words)
                    .map(|w| {
                        let (x, y) = (word(&val, a, w), word(&val, b, w));
                        if xor { x ^ y } else { x & y }
                    })
                    .collect();
            }
        }
        let mut sat = vec![!0u64; words];
        for c in &self.cnf.clauses {
            for (w, s) in sat.iter_mut().enumerate() {
                *s &= c.iter().fold(0, |acc, &l| acc | word(&val, l, w));
            }
        }
        sat.iter().any(|&s| s != 0)
    }
}

/// Incremental use the way `SolveSession` drives the solver: permanent
/// clauses accumulate, each query's clauses are guarded by a fresh literal
/// `g` and solved under the assumption `g`, and the guard is then retired
/// with the unit `¬g` plus `simplify()`. The first query, that an 8-bit
/// product commutes, takes tens of thousands of conflicts, so the
/// learnt-clause database is reduced (and the clause arena compacted)
/// several times mid-solve. After every call the answer must match
/// exhaustive enumeration of the 16 input bits, a model must satisfy
/// every clause, the byte count must match the live clauses, and both
/// solvers must report identical statistics.
#[test]
fn guarded_queries_match_enumeration_across_compactions() {
    const BITS: usize = 8;
    let mut rng = TestRng::seed_from_u64(0x6a7d);
    let mut t = Twin::default();
    let a: Vec<Lit> = (0..BITS).map(|_| t.var(None).pos()).collect();
    let b: Vec<Lit> = (0..BITS).map(|_| t.var(None).pos()).collect();
    let ab = t.mul(&a, &b);
    let ba = t.mul(&b, &a);

    let differ: Vec<Lit> = ab.iter().zip(&ba).map(|(&x, &y)| t.xor(x, y)).collect();
    t.query(&[differ], "a*b != b*a");

    let inputs: Vec<Lit> = a.iter().chain(&b).copied().collect();
    // A random literal of `lits`, with a random sign.
    let pick = |rng: &mut TestRng, lits: &[Lit]| {
        let l = lits[rng.gen_range(0..lits.len())];
        if rng.gen_bool(0.5) {
            l
        } else {
            !l
        }
    };
    for q in 0..12 {
        match q % 3 {
            // The product equals a random constant.
            0 => {
                let c = rng.gen_range(0u32..1 << BITS);
                let bits: Vec<Vec<Lit>> = (0..BITS)
                    .map(|i| vec![if c >> i & 1 == 1 { ab[i] } else { !ab[i] }])
                    .collect();
                t.query(&bits, &format!("query {q}: a*b == {c}"));
            }
            // Random clauses over the inputs.
            1 => {
                let clauses: Vec<Vec<Lit>> = (0..rng.gen_range(4..=24))
                    .map(|_| (0..3).map(|_| pick(&mut rng, &inputs)).collect())
                    .collect();
                t.query(&clauses, &format!("query {q}: random clauses"));
            }
            // A permanent fact about one input bit, then a product bit.
            _ => {
                let fact = pick(&mut rng, &inputs);
                t.add(&[fact]);
                let bit = pick(&mut rng, &ab);
                t.query(&[vec![bit]], &format!("query {q}: product bit"));
            }
        }
    }
}
