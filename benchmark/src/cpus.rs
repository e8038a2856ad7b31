//! Spreading the set-up probes over the CPUs.
//!
//! On a shared machine one CPU can run a quarter slower than another for
//! minutes at a time (while another tenant uses its hardware sibling). A
//! probe process starts on its parent's CPU, so without spreading, every
//! set-up of a run landed on the same CPU, and `setup_s` read one of two
//! values depending on which.

use std::mem::size_of;

/// glibc's `cpu_set_t`: a bit mask over 1024 CPUs.
#[repr(C)]
struct CpuSet([u64; 16]);

impl CpuSet {
    fn has(&self, cpu: usize) -> bool {
        self.0[cpu / 64] >> (cpu % 64) & 1 == 1
    }

    fn only(cpu: usize) -> CpuSet {
        let mut set = CpuSet([0; 16]);
        set.0[cpu / 64] = 1 << (cpu % 64);
        set
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The calling thread's CPU mask, if it can be read.
fn get() -> Option<CpuSet> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a writable `cpu_set_t` of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut set) };
    (rc == 0).then_some(set)
}

/// Restrict the calling thread to `mask`; a failure leaves it as it was.
fn set(mask: &CpuSet) {
    // SAFETY: `mask` is a readable `cpu_set_t` of exactly the size passed,
    // and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, size_of::<CpuSet>(), mask) };
}

/// Call `f(i)` for `i` in `0..n` with the calling thread restricted to
/// one of its allowed CPUs in turn, so that a process `f` starts runs on
/// that CPU. The thread's own mask is restored afterwards. Where the mask
/// cannot be read, the calls run unrestricted.
pub fn round_robin<T>(n: usize, mut f: impl FnMut(usize) -> T) -> Vec<T> {
    let Some(all) = get() else {
        return (0..n).map(f).collect();
    };
    let cpus: Vec<usize> = (0..1024).filter(|&c| all.has(c)).collect();
    let out = (0..n)
        .map(|i| {
            set(&CpuSet::only(cpus[i % cpus.len()]));
            f(i)
        })
        .collect();
    set(&all);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spreads_calls_over_the_allowed_cpus_and_restores_the_mask() {
        let before = get().expect("readable mask");
        let allowed: Vec<usize> = (0..1024).filter(|&c| before.has(c)).collect();
        let seen = round_robin(2 * allowed.len(), |_| {
            let now = get().unwrap();
            let on: Vec<usize> = (0..1024).filter(|&c| now.has(c)).collect();
            assert_eq!(on.len(), 1, "restricted to one CPU");
            on[0]
        });
        let mut expect = allowed.clone();
        expect.extend(&allowed);
        assert_eq!(seen, expect);
        assert_eq!(get().unwrap().0, before.0);
    }
}
