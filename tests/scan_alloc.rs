//! The probe hot path's allocation claim, tested as an allocation count.
//!
//! A scan's heap allocations may grow with what it *finds* (the
//! responsive set) but not with what it merely *walks*. Adding 32 dead
//! /24s to a plan adds 8 192 probes and 32 prefix walks; with per-size
//! group memoisation, in-place replies and worker-local network
//! counters, it must add no allocation — on the wire path and on the
//! logical path, over a lossy, duplicating network.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use tass::core::ProbePlan;
use tass::model::{HostSet, Protocol};
use tass::net::Prefix;
use tass::scan::{Blocklist, FaultConfig, Responder, ScanConfig, ScanEngine, SimNetwork};

/// Counts allocations (and reallocations) while `COUNTING` is set.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a relaxed statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this layout, and the
        // caller upholds `GlobalAlloc::realloc`'s contract
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn prefix(s: &str) -> Prefix {
    s.parse().expect("valid prefix")
}

#[test]
fn dead_prefixes_add_no_allocation() {
    // plan A: four /24s, every 5th address live; plan B: A plus 32 dead /24s
    let live: Vec<Prefix> = (0..4).map(|i| prefix(&format!("10.0.{i}.0/24"))).collect();
    let hosts: Vec<u32> = live
        .iter()
        .flat_map(|p| (p.first()..=p.last()).step_by(5))
        .collect();
    let responder = Responder::new().with_service(Protocol::Http, HostSet::from_addrs(hosts));
    let network = Arc::new(SimNetwork::new(responder, FaultConfig::lossy(), 3));
    let engine = ScanEngine::new(Arc::clone(&network));
    let plan_a = ProbePlan::Prefixes(live.clone());
    let mut with_dead = live;
    with_dead.extend((0..32).map(|i| prefix(&format!("10.1.{i}.0/24"))));
    let plan_b = ProbePlan::Prefixes(with_dead);

    // both paths run in this one test: the allocation counter is global,
    // so concurrently running tests would count each other's allocations
    for wire_level in [true, false] {
        let cfg = ScanConfig::for_port(80)
            .unlimited_rate()
            .threads(1)
            .blocklist(Blocklist::empty())
            .wire_level(wire_level);
        let count = |plan: &ProbePlan| {
            ALLOCS.store(0, Relaxed);
            COUNTING.store(true, Relaxed);
            let report = engine
                .run_plan(plan, 0, &[], &cfg)
                .expect("v4 plans stream");
            COUNTING.store(false, Relaxed);
            (ALLOCS.load(Relaxed), report)
        };
        count(&plan_a); // warm-up: one-time lazy initialisation
        let (allocs_a, report_a) = count(&plan_a);
        let before = network.stats();
        let (allocs_b, report_b) = count(&plan_b);
        let after = network.stats();
        assert_eq!(report_b.probes_sent, report_a.probes_sent + 32 * 256);
        assert_eq!(report_b.responsive, report_a.responsive);
        // the network really lost and duplicated some of plan B's probes
        assert!(
            after.probes_lost > before.probes_lost,
            "wire_level {wire_level}"
        );
        assert!(
            after.duplicated > before.duplicated,
            "wire_level {wire_level}"
        );
        assert_eq!(
            allocs_b, allocs_a,
            "wire_level {wire_level}: 32 dead /24s must add no allocation ({allocs_a} → {allocs_b})"
        );
    }
}
