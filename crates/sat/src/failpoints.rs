//! Hand-rolled fault-injection hooks ("failpoints").
//!
//! The resilience layer must be testable: the integration suite needs to
//! *force* a solver panic, a budget exhaustion, or a spurious `Unknown` at a
//! named site and then prove the runner survives. External failpoint crates
//! are off the table (offline builds), so this is a minimal registry:
//!
//! * [`arm`]`("site", Fault::Panic)` makes the next [`check`]`("site")`
//!   report the fault (sticky until [`disarm`]ed);
//! * instrumented sites call [`check`] and act on the returned fault;
//! * the fast path for unarmed processes is a single relaxed atomic load —
//!   effectively free, which is why the hooks are compiled unconditionally
//!   instead of hiding behind a cargo feature (they are then also *tested*
//!   unconditionally).
//!
//! Sites are plain strings namespaced by layer (`sat::solve`,
//! `smt::check`, `runner::param`, …). Tests that arm global
//! state must use distinct sites (or serialize) since the registry is
//! process-wide.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// The faults a site can be armed with.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Panic at the site (exercises `catch_unwind` isolation).
    Panic,
    /// Behave as if the resource budget was just exhausted.
    BudgetExhausted,
    /// Return an `Unknown`/indeterminate answer even though resources
    /// remain (exercises the degradation ladder's escalation path).
    SpuriousUnknown,
}

static ANY_ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> MutexGuard<'static, HashMap<String, Fault>> {
    static REG: OnceLock<Mutex<HashMap<String, Fault>>> = OnceLock::new();
    // Poison recovery: an armed `Fault::Panic` unwinds through call stacks
    // that may hold this lock's caller frames; the map itself is never
    // left mid-mutation, so the guard stays valid.
    REG.get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Arm `site` with `fault`. Sticky until [`disarm`]/[`reset`].
pub fn arm(site: &str, fault: Fault) {
    registry().insert(site.to_string(), fault);
    ANY_ARMED.store(true, Ordering::Release);
}

/// Disarm one site.
pub fn disarm(site: &str) {
    let mut reg = registry();
    reg.remove(site);
    if reg.is_empty() {
        ANY_ARMED.store(false, Ordering::Release);
    }
}

/// Disarm every site.
pub fn reset() {
    registry().clear();
    ANY_ARMED.store(false, Ordering::Release);
}

/// The fault armed at `site`, if any. Near-zero cost while nothing is
/// armed anywhere in the process.
#[inline]
pub fn check(site: &str) -> Option<Fault> {
    if !ANY_ARMED.load(Ordering::Acquire) {
        return None;
    }
    registry().get(site).copied()
}

/// Convenience for sites whose only response to [`Fault::Panic`] is to
/// panic; returns the remaining fault kinds for the caller to interpret.
#[inline]
pub fn trip(site: &str) -> Option<Fault> {
    match check(site) {
        Some(Fault::Panic) => panic!("failpoint `{site}` armed with Fault::Panic"),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_is_none() {
        assert_eq!(check("tests::nowhere"), None);
    }

    #[test]
    fn arm_check_disarm_cycle() {
        arm("tests::cycle", Fault::SpuriousUnknown);
        assert_eq!(check("tests::cycle"), Some(Fault::SpuriousUnknown));
        // sticky until disarmed
        assert_eq!(check("tests::cycle"), Some(Fault::SpuriousUnknown));
        disarm("tests::cycle");
        assert_eq!(check("tests::cycle"), None);
    }

    #[test]
    #[should_panic(expected = "failpoint `tests::boom`")]
    fn trip_panics_on_panic_fault() {
        arm("tests::boom", Fault::Panic);
        // Disarm even though we panic: keep the registry clean for siblings.
        struct Guard;
        impl Drop for Guard {
            fn drop(&mut self) {
                disarm("tests::boom");
            }
        }
        let _g = Guard;
        let _ = trip("tests::boom");
    }
}
