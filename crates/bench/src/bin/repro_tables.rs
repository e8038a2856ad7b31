//! `repro-tables` — regenerate the paper's Tables II and III.
//!
//! ```text
//! repro-tables [--table 2|3|scaling|all] [--timeout SECS] [--quick]
//!              [--fault-injection] [--trace PATH] [--explain]
//! ```
//!
//! Prints each table in the paper's layout: per-cell SMT time in seconds,
//! `s*` for (correctly) detected non-equivalence, `T.O` for budget
//! exhaustion. The paper used a 5-minute timeout on a 2012 laptop with Z3;
//! the default here is 60 s per cell with the built-in solver.
//!
//! The other modes replace the tables: `--fault-injection` runs a quick
//! Table III grid under each injectable fault, `--trace PATH` writes and
//! validates one traced check's JSONL, and `--explain` prints verdict
//! narratives for the explain corpus. A bad argument exits 2 with the
//! usage line.

use pug_bench::{render_rows, table2_rows, table3_rows, Outcome};
use pug_sat::failpoints::{self, Fault};
use std::time::Duration;

struct Args {
    table: String,
    timeout: Duration,
    quick: bool,
    fault_injection: bool,
    trace: Option<String>,
    explain: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        table: "all".into(),
        timeout: Duration::from_secs(60),
        quick: false,
        fault_injection: false,
        trace: None,
        explain: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--table" => {
                let t = it.next().unwrap_or_else(|| usage("missing table"));
                if !matches!(t.as_str(), "2" | "3" | "scaling" | "all") {
                    usage(&format!("unknown table {t}"));
                }
                args.table = t;
            }
            "--timeout" => {
                let v = it.next().unwrap_or_else(|| usage("missing timeout"));
                let secs: u64 = v.parse().unwrap_or_else(|_| usage("bad timeout"));
                args.timeout = Duration::from_secs(secs);
            }
            "--quick" => args.quick = true,
            "--fault-injection" => args.fault_injection = true,
            "--trace" => args.trace = Some(it.next().unwrap_or_else(|| usage("missing path"))),
            "--explain" => args.explain = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    args
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: repro-tables [--table 2|3|scaling|all] [--timeout SECS] [--quick] \
         [--fault-injection] [--trace PATH] [--explain]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Smoke-test the fault boundaries: arm each injectable fault in turn, run
/// a quick table grid, and demand that every cell still resolves — panics
/// as `CRASH`, injected exhaustion as `T.O`, the rest normally. Exits
/// non-zero if any grid comes back short.
fn fault_injection_smoke(timeout: Duration) {
    let scenarios: &[(&str, Fault)] = &[
        ("sat::solve", Fault::Panic),
        ("smt::check", Fault::SpuriousUnknown),
        ("bench::cell", Fault::BudgetExhausted),
    ];
    // Silence the default panic hook's backtrace spam: injected panics are
    // expected and rendered as CRASH cells.
    std::panic::set_hook(Box::new(|_| {}));
    let mut failures = 0;
    for &(site, fault) in scenarios {
        failpoints::reset();
        failpoints::arm(site, fault);
        let rows = table3_rows(timeout, true);
        failpoints::reset();
        let total: usize = rows.iter().map(|r| r.cells.len()).sum();
        let crashed = rows
            .iter()
            .flat_map(|r| &r.cells)
            .filter(|(_, o)| matches!(o, Outcome::Crash(_)))
            .count();
        let timed_out = rows
            .iter()
            .flat_map(|r| &r.cells)
            .filter(|(_, o)| matches!(o, Outcome::Timeout))
            .count();
        // Cells whose queries are discharged syntactically never reach the
        // faulted site, so demand the injected effect *somewhere* (and, for
        // the unconditional per-cell fault, everywhere) — the hard
        // requirement is that every cell resolved at all.
        let ok = match fault {
            Fault::Panic => crashed > 0,
            Fault::SpuriousUnknown => timed_out > 0 && crashed == 0,
            Fault::BudgetExhausted => timed_out == total && crashed == 0,
        };
        println!(
            "fault {site} = {fault:?}: {total} cells completed \
             ({crashed} CRASH, {timed_out} T.O) — {}",
            if ok { "ok" } else { "UNEXPECTED" }
        );
        if !ok {
            println!("{}", render_rows("grid under fault", &rows));
            failures += 1;
        }
    }
    let _ = std::panic::take_hook();
    if failures > 0 {
        eprintln!("fault-injection smoke: {failures} scenario(s) failed");
        std::process::exit(1);
    }
    println!("fault-injection smoke: all faults survived, every cell resolved");
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.trace {
        // Trace smoke: one fully traced verification, JSONL export,
        // re-parse, structural validation. CI fails on a broken trace.
        match pug_bench::trace_smoke(path) {
            Ok(summary) => println!("{summary}"),
            Err(e) => {
                eprintln!("trace smoke: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if args.explain {
        // Verdict narratives for the explain corpus's pairs.
        print!("{}", pug_bench::explain_rows(args.quick));
        return;
    }
    if args.fault_injection {
        fault_injection_smoke(args.timeout);
        return;
    }
    println!(
        "PUGpara reproduction — per-cell SMT time (s); `s*` = non-equivalence \
         reported; T.O = over {}s budget\n",
        args.timeout.as_secs()
    );
    if args.table == "2" || args.table == "all" {
        let rows = table2_rows(args.timeout, args.quick);
        println!(
            "{}",
            render_rows("Table II — equivalence checking of bug-free SDK kernels", &rows)
        );
        println!(
            "(paper: Transpose n=8/32 are `*` — non-square blocks are not equivalent; \
             Reduction's generic method blows up on n; param columns finish fast)\n"
        );
    }
    if args.table == "scaling" || args.table == "all" {
        let rows = pug_bench::scaling_rows(args.timeout);
        println!(
            "{}",
            render_rows(
                "Scaling — non-parameterized blow-up in n vs constant parameterized check",
                &rows
            )
        );
        println!();
    }
    if args.table == "3" || args.table == "all" {
        let rows = table3_rows(args.timeout, args.quick);
        println!(
            "{}",
            render_rows("Table III — equivalence checking of buggy kernel versions", &rows)
        );
        println!(
            "(every cell should be `s*`: the seeded bug is found; the parameterized \
             column stays fast while the non-parameterized times grow with n)"
        );
    }
}
