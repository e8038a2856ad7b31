//! `repro-tables` — regenerate the paper's Tables II and III.
//!
//! ```text
//! repro-tables [--table 2|3|scaling|all] [--timeout SECS] [--quick] [--explain]
//! ```
//!
//! Prints each table in the paper's layout: per-cell SMT time in seconds,
//! `s*` for (correctly) detected non-equivalence, `T.O` for budget
//! exhaustion. The paper used a 5-minute timeout on a 2012 laptop with Z3;
//! the default here is 60 s per cell with the built-in solver.
//!
//! `--explain` replaces the tables with verdict narratives for the explain
//! corpus. A bad argument exits 2 with the usage line.

use pug_bench::{render_rows, table2_rows, table3_rows};
use std::time::Duration;

struct Args {
    table: String,
    timeout: Duration,
    quick: bool,
    explain: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        table: "all".into(),
        timeout: Duration::from_secs(60),
        quick: false,
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
        "usage: repro-tables [--table 2|3|scaling|all] [--timeout SECS] [--quick] [--explain]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn main() {
    let args = parse_args();
    if args.explain {
        // Verdict narratives for the explain corpus's pairs.
        print!("{}", pug_bench::explain_rows(args.quick));
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
