//! Pins the text → artifact path to one pass per program fact: a
//! compile allocates a size-independent number of times on top of the
//! amortised growth of its output vectors (no per-instruction or
//! per-block allocation), and a compile-cache hit allocates exactly as
//! often for a long program as for a short one (no program-sized pass
//! at all on a hit).
//!
//! The whole file is one test on purpose: the counting allocator is
//! global, and concurrently running tests' allocations would pollute
//! the counts.

use quape_core::{CompiledJob, QuapeConfig};
use quape_qpu::{BehavioralQpuFactory, MeasurementModel};
use quape_server::{JobRequest, JobServer, JobSource, PackerConfig, ServerConfig};
use quape_workloads::feedback::feedback_chain;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation (alloc + realloc) flowing through the global
/// allocator. Deallocations are not counted: the test is about churn.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations made by `f`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocs();
    let out = f();
    (out, allocs() - before)
}

/// Allocations of one `CompiledJob::compile` of a `rounds`-round FMR
/// chain (the program is built outside the count).
fn compile_allocs(rounds: usize) -> u64 {
    let program = feedback_chain(0, rounds).expect("valid chain");
    let (job, n) = counted(|| CompiledJob::compile(QuapeConfig::uniprocessor(), program));
    job.expect("chain compiles");
    n
}

/// Allocations of a cache-hit `JobServer::submit` of the `rounds`-round
/// chain's text, on a fresh packing server whose only earlier submit is
/// the miss that compiled it.
fn hit_submit_allocs(rounds: usize) -> u64 {
    let cfg = QuapeConfig::uniprocessor();
    let text = feedback_chain(0, rounds).expect("valid chain").to_string();
    let server = JobServer::new(ServerConfig {
        threads: 1,
        ..ServerConfig::default().packer(PackerConfig::default())
    });
    let request = || {
        JobRequest::new(
            "chain",
            JobSource::Text(text.clone()),
            cfg.clone(),
            BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 }),
            4,
        )
    };
    let miss = server.submit(request()).expect("miss compiles");
    let hit = request();
    let (handle, n) = counted(|| server.submit(hit).expect("hit submits"));
    assert_eq!(server.cache_stats().compiles, 1, "the second submit hits");
    drop((miss, handle));
    n
}

#[test]
fn compile_and_cache_hit_submit_pay_no_program_sized_allocation() {
    // Warm-up: lazily initialised statics (thread ids, the obs registry)
    // allocate once per process; keep them out of the first count.
    compile_allocs(10);
    hit_submit_allocs(10);

    let short = compile_allocs(10);
    let long = compile_allocs(1000);
    assert!(
        long <= short + 64,
        "compiling a 1000-round chain allocated {long} times, the 10-round one {short}: \
         something allocates per instruction or per block"
    );

    let short = hit_submit_allocs(10);
    let long = hit_submit_allocs(1000);
    assert_eq!(
        long, short,
        "a cache-hit submit of the 1000-round text allocated {long} times, \
         the 10-round one {short}: the hit path walks the program"
    );
}
