//! The serving workload, `catalog`, on the fleet configuration every
//! serving measurement uses: `FrontDoor` (default admission) → `Router`
//! (one shard per CPU, one worker each, sticky placement) → `JobServer`
//! (default cache, default packer, observability off).
//!
//! Load comes from one generator thread, in a closed loop. Waiter threads
//! block in `AdmittedJob::handle` and `FleetHandle::wait` so each
//! completion is seen when it happens; they do no other work.
//!
//! The router keeps every accepted request until it is drained, so the
//! timed duration is served in epochs, each on a fresh, warmed fleet.
//! Fleet start-up, warm-up and drain fall outside the timed windows;
//! start-up and warm-up are timed as `setup_s`. Latency, throughput and
//! set-up time are medians over epochs: a shared host's CPUs can slow
//! down for seconds at a time, and a slow epoch should move one sample,
//! not the run's figure.

use crate::rng::{mix_all, Rng};
use crate::stats::{mean, median, percentile, us};
use crate::trace::{SpanLog, REQUEST};
use crate::{Args, Report};
use quape::core::BatchAggregate;
use quape::isa::LoweredProgram;
use quape::prelude::*;
use quape::router::AdmittedJob;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const TENANTS: [&str; 4] = ["t0", "t1", "t2", "t3"];

/// `catalog`'s closed-loop window: jobs kept outstanding. Four keep both
/// shards of a 2-CPU fleet busy and let the packer pack about a seventh of
/// the jobs; eight serve no more jobs per second, and bursts of host load
/// then move p50 and p99 about twice as far.
const CATALOG_WINDOW: usize = 4;
/// Catalog size: distinct programs (the fleet caches 64 per shard).
const CATALOG_SIZE: usize = 1024;
/// Zipf exponent of catalog popularity.
const ZIPF_S: f64 = 1.0;
/// Jobs served before each catalog epoch's timed window, to bring the
/// compile caches to their steady state.
const CATALOG_WARM_JOBS: usize = 256;
/// Jobs per catalog epoch: a fixed count, so the memory the router
/// retains per epoch does not depend on throughput.
const CATALOG_EPOCH_JOBS: usize = 3000;

/// One request of a plan.
#[derive(Clone, Copy)]
struct Served {
    idx: u64,
    /// Index into the workload's distinct program texts.
    program: usize,
    shots: u64,
    priority: Priority,
    tenant: usize,
    base_seed: u64,
}

/// Distinct program texts of a workload and the machine they run on.
struct Inputs {
    texts: Vec<String>,
    cfg: QuapeConfig,
}

impl Inputs {
    fn request(&self, s: &Served, name: String) -> JobRequest {
        let factory =
            BehavioralQpuFactory::new(self.cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 });
        JobRequest::new(
            name,
            JobSource::Text(self.texts[s.program].clone()),
            self.cfg.clone(),
            factory,
            s.shots,
        )
        .base_seed(s.base_seed)
        .priority(s.priority)
        .tenant(TENANTS[s.tenant])
    }

    /// The solo oracle of one request: assemble, compile and run on a
    /// single-thread engine.
    fn oracle(&self, program: usize, shots: u64, base_seed: u64) -> BatchAggregate {
        let parsed = assemble(&self.texts[program]).expect("workload text assembles");
        let job = CompiledJob::compile(self.cfg.clone(), parsed).expect("workload compiles");
        let factory =
            BehavioralQpuFactory::new(self.cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 });
        ShotEngine::new(job, factory)
            .base_seed(base_seed)
            .threads(1)
            .run(shots)
            .aggregate
    }
}

fn priority_of(class: u64) -> Priority {
    match class {
        0 => Priority::Low,
        1 => Priority::Normal,
        _ => Priority::High,
    }
}

/// The fleet the catalog is served by.
fn start_fleet() -> FrontDoor {
    FrontDoor::new(
        RouterConfig {
            shards: crate::host::nproc(),
            placement: Placement::StickyByDigest,
            shard: ServerConfig {
                threads: 1,
                packer: Some(PackerConfig::default()),
                ..ServerConfig::default()
            },
            ..RouterConfig::default()
        },
        AdmissionConfig::default(),
    )
}

type Key = (usize, u64, u64);

/// The first aggregate seen per (program, shots, base seed); every later
/// result of the same key must equal it, and the gate checks each one
/// against its solo oracle.
#[derive(Default)]
struct Reps(Mutex<HashMap<Key, BatchAggregate>>);

impl Reps {
    fn check(&self, key: Key, aggregate: &BatchAggregate) -> bool {
        let mut reps = self.0.lock().expect("reps poisoned");
        match reps.get(&key) {
            Some(rep) => rep == aggregate,
            None => {
                reps.insert(key, aggregate.clone());
                true
            }
        }
    }

    /// Compares every representative with its oracle on `threads`
    /// threads; returns the keys that differ.
    fn verify(&self, inputs: &Inputs, threads: usize) -> Vec<Key> {
        let reps: Vec<(Key, BatchAggregate)> = self
            .0
            .lock()
            .expect("reps poisoned")
            .iter()
            .map(|(k, a)| (*k, a.clone()))
            .collect();
        let chunk = reps.len().div_ceil(threads.max(1)).max(1);
        std::thread::scope(|scope| {
            let workers: Vec<_> = reps
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .filter(|((p, shots, seed), rep)| {
                                inputs.oracle(*p, *shots, *seed) != *rep
                            })
                            .map(|(k, _)| *k)
                            .collect::<Vec<Key>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("oracle worker panicked"))
                .collect()
        })
    }
}

/// A submitted request on its way to a waiter.
struct Pending {
    s: Served,
    submit_start: Instant,
    submit_end: Instant,
    admitted: AdmittedJob,
}

/// One finished request, as the benchmark saw it.
#[derive(Clone, Copy)]
struct Done {
    shots: u64,
    submit_start: Instant,
    submit_end: Instant,
    handle_at: Instant,
    done_at: Instant,
    ok: bool,
    cache_hit: bool,
    compile_wall: Duration,
    server_latency: Duration,
    queue_wait_shots: u64,
}

impl Done {
    /// End-to-end latency: from the submit call to the observed
    /// completion.
    fn latency(&self) -> Duration {
        self.done_at.saturating_duration_since(self.submit_start)
    }
}

fn wait_one(p: Pending, reps: &Reps, log: Option<&SpanLog>) -> Done {
    let handle_start = Instant::now();
    let handle = p.admitted.handle();
    let handle_at = Instant::now();
    let outcome = handle.and_then(|h| h.wait());
    let done_at = Instant::now();
    let queue_wait_shots = p
        .admitted
        .dispatch_seq()
        .map_or(0, |d| d.saturating_sub(p.admitted.arrival_seq()));
    let mut done = Done {
        shots: p.s.shots,
        submit_start: p.submit_start,
        submit_end: p.submit_end,
        handle_at,
        done_at,
        ok: false,
        cache_hit: false,
        compile_wall: Duration::ZERO,
        server_latency: Duration::ZERO,
        queue_wait_shots,
    };
    if let Ok(r) = outcome {
        done.ok = !r.cancelled
            && r.shots == p.s.shots
            && reps.check((p.s.program, p.s.shots, p.s.base_seed), &r.aggregate);
        done.cache_hit = r.cache_hit;
        done.compile_wall = r.compile_wall;
        done.server_latency = r.latency;
    }
    if let Some(log) = log {
        let id = p.s.idx;
        log.extend([
            span(id, REQUEST, "", p.submit_start, done_at),
            span(id, "front.submit", REQUEST, p.submit_start, p.submit_end),
            span(id, "front.handle", REQUEST, handle_start, handle_at),
            span(id, "front.wait", REQUEST, handle_at, done_at),
        ]);
    }
    done
}

fn span(
    id: u64,
    name: &'static str,
    parent: &'static str,
    start: Instant,
    end: Instant,
) -> crate::trace::Span {
    crate::trace::Span {
        id,
        name,
        parent,
        start,
        end,
    }
}

/// The generator's ends of the waiter pool (hand submitted requests over,
/// take finished ones back) and what it measured of itself.
struct Lanes<'a> {
    pending: &'a Sender<Pending>,
    done: &'a Receiver<Done>,
    dones: Vec<Done>,
    /// How late each request was sent behind the completion that freed
    /// its slot, µs.
    lag_us: Vec<f64>,
}

/// Runs `body` (the generator) with one waiter thread per outstanding
/// request; returns the generator's value, every finished request, and
/// the generator's lags.
fn with_waiters<R>(
    reps: &Reps,
    log: Option<&SpanLog>,
    body: impl FnOnce(&mut Lanes) -> R,
) -> (R, Vec<Done>, Vec<f64>) {
    let (pending_tx, pending_rx) = channel::<Pending>();
    let (done_tx, done_rx) = channel::<Done>();
    let pending_rx = Mutex::new(pending_rx);
    std::thread::scope(|scope| {
        for _ in 0..CATALOG_WINDOW {
            let done_tx = done_tx.clone();
            let pending_rx = &pending_rx;
            scope.spawn(move || loop {
                let next = pending_rx.lock().expect("pending queue poisoned").recv();
                let Ok(p) = next else { return };
                if done_tx.send(wait_one(p, reps, log)).is_err() {
                    return;
                }
            });
        }
        drop(done_tx);
        let mut lanes = Lanes {
            pending: &pending_tx,
            done: &done_rx,
            dones: Vec::new(),
            lag_us: Vec::new(),
        };
        let value = body(&mut lanes);
        let Lanes {
            mut dones, lag_us, ..
        } = lanes;
        drop(pending_tx);
        dones.extend(done_rx.iter());
        (value, dones, lag_us)
    })
}

/// Submits `s` through the front door; `None` when it was refused.
fn submit(front: &FrontDoor, req: JobRequest, s: Served) -> Option<Pending> {
    let submit_start = Instant::now();
    let admitted = front.submit(req);
    let submit_end = Instant::now();
    admitted.ok().map(|admitted| Pending {
        s,
        submit_start,
        submit_end,
        admitted,
    })
}

/// What one epoch measured.
#[derive(Default)]
struct Epoch {
    dones: Vec<Done>,
    refused: u64,
    elapsed: Duration,
    lag_us: Vec<f64>,
    cache: (u64, u64, u64, u64),
    packs_formed: u64,
    jobs_packed: u64,
    pack_declined: u64,
    combine_cache_hits: u64,
    shard_jobs: Vec<u64>,
    rerouted: u64,
    shed: u64,
    /// Per epoch: (p50, p99) end-to-end latency, µs.
    percentiles: Vec<(f64, f64)>,
    /// Per epoch: (jobs/s, shots/s) of correct results.
    rates: Vec<(f64, f64)>,
}

impl Epoch {
    /// The median over epochs of each epoch's p50 and p99 latency: one
    /// stall of the fleet moves one epoch's figures, not the run's.
    fn latency_us(&self) -> (f64, f64) {
        let p50: Vec<f64> = self.percentiles.iter().map(|p| p.0).collect();
        let p99: Vec<f64> = self.percentiles.iter().map(|p| p.1).collect();
        (median(&p50), median(&p99))
    }

    fn absorb(&mut self, other: Epoch) {
        self.dones.extend(other.dones);
        self.refused += other.refused;
        self.elapsed += other.elapsed;
        self.lag_us.extend(other.lag_us);
        self.cache.0 += other.cache.0;
        self.cache.1 += other.cache.1;
        self.cache.2 += other.cache.2;
        self.cache.3 += other.cache.3;
        self.packs_formed += other.packs_formed;
        self.jobs_packed += other.jobs_packed;
        self.pack_declined += other.pack_declined;
        self.combine_cache_hits += other.combine_cache_hits;
        if self.shard_jobs.len() < other.shard_jobs.len() {
            self.shard_jobs.resize(other.shard_jobs.len(), 0);
        }
        for (a, b) in self.shard_jobs.iter_mut().zip(&other.shard_jobs) {
            *a += b;
        }
        self.rerouted += other.rerouted;
        self.shed += other.shed;
        self.percentiles.extend(other.percentiles);
        self.rates.extend(other.rates);
    }
}

fn fleet_counters(front: &FrontDoor) -> [u64; 8] {
    let snap = front.router().fleet_snapshot();
    let mut c = [0u64; 8];
    for s in &snap.shards {
        c[0] += s.cache.hits;
        c[1] += s.cache.misses;
        c[2] += s.cache.evictions;
        c[3] += s.cache.compiles;
        c[4] += s.packer.packs_formed;
        c[5] += s.packer.jobs_packed;
        c[6] += s.packer.declined;
        c[7] += s.packer.combine_cache_hits;
    }
    c
}

/// Serves one epoch of `CATALOG_EPOCH_JOBS` requests from `stream` on
/// `front` (already warmed) and drains it.
fn serve_epoch(
    front: FrontDoor,
    inputs: &Inputs,
    stream: &mut CatalogStream,
    reps: &Reps,
    log: Option<&SpanLog>,
) -> Epoch {
    let before = fleet_counters(&front);
    let shed_before = front.shed_count();
    let start = Instant::now();
    let (refused, dones, lag_us) = with_waiters(reps, log, |lanes| {
        closed_loop(
            &front,
            inputs,
            stream,
            CATALOG_WINDOW,
            CATALOG_EPOCH_JOBS,
            'r',
            lanes,
        )
    });
    let last = dones.iter().map(|d| d.done_at).max().unwrap_or(start);
    let latency: Vec<f64> = dones.iter().map(|d| us(d.latency())).collect();
    let percentiles = vec![(percentile(&latency, 50.0), percentile(&latency, 99.0))];
    let elapsed = last.saturating_duration_since(start).as_secs_f64();
    let ok = dones.iter().filter(|d| d.ok);
    let rates = vec![(
        ok.clone().count() as f64 / elapsed,
        ok.map(|d| d.shots).sum::<u64>() as f64 / elapsed,
    )];
    let after = fleet_counters(&front);
    let d = |i: usize| after[i] - before[i];
    let shed = front.shed_count() - shed_before;
    let rerouted = front.router().recovered_jobs();
    let mut shard_jobs = vec![0u64; front.router().shard_count()];
    for routed in front.drain().expect("fleet drains") {
        if routed
            .result
            .as_ref()
            .is_ok_and(|r| r.name.starts_with('r'))
        {
            shard_jobs[routed.shard] += 1;
        }
    }
    Epoch {
        dones,
        refused,
        elapsed: last.saturating_duration_since(start),
        lag_us,
        cache: (d(0), d(1), d(2), d(3)),
        packs_formed: d(4),
        jobs_packed: d(5),
        pack_declined: d(6),
        combine_cache_hits: d(7),
        shard_jobs,
        rerouted,
        shed,
        percentiles,
        rates,
    }
}

/// Sends `count` requests of `jobs`, keeping `window` of them outstanding,
/// and waits for all of them. Requests are named `prefix` + index.
/// Returns the number of refused requests.
fn closed_loop(
    front: &FrontDoor,
    inputs: &Inputs,
    jobs: &mut dyn Iterator<Item = Served>,
    window: usize,
    count: usize,
    prefix: char,
    lanes: &mut Lanes,
) -> u64 {
    let (mut outstanding, mut sent, mut refused) = (0usize, 0usize, 0u64);
    let mut freed: Vec<Instant> = Vec::new();
    loop {
        while outstanding < window && sent < count {
            let Some(s) = jobs.next() else { break };
            let req = inputs.request(&s, format!("{prefix}{}", s.idx));
            sent += 1;
            if let Some(at) = freed.pop() {
                lanes.lag_us.push(us(at.elapsed()));
            }
            match submit(front, req, s) {
                Some(p) => {
                    lanes.pending.send(p).expect("waiters alive");
                    outstanding += 1;
                }
                None => refused += 1,
            }
        }
        if outstanding == 0 {
            return refused;
        }
        let done = lanes.done.recv().expect("waiters alive");
        freed.push(done.done_at);
        lanes.dones.push(done);
        outstanding -= 1;
    }
}

// ------------------------------------------------------------------ catalog

/// Bytes a generator emits per unit (round, Clifford, block) of its
/// parameter, for sizing catalog programs to a target length.
fn catalog_program(kind: usize, target: usize, variant: usize, rng: &mut Rng) -> Program {
    use quape::workloads::feedback::{feedback_chain, mrce_feedback_chain, rus_block};
    use quape::workloads::multiprogramming::combine;
    use quape::workloads::pulse::pulse_train;
    use quape::workloads::rb::rb_program;
    let qubit = rng.below(2) as u16;
    let units = |bytes_per_unit: usize| (target / bytes_per_unit).max(1) + variant;
    match kind {
        0 => feedback_chain(qubit, units(71)).expect("chain generates"),
        1 => mrce_feedback_chain(qubit, units(39)).expect("MRCE chain generates"),
        2 => {
            let group = CliffordGroup::new();
            rb_program(&group, qubit, units(29) as u32, rng.next_u64())
                .expect("RB generates")
                .program
        }
        3 => {
            let blocks = units(110).min(64);
            combine(&vec![rus_block(0).expect("RUS generates"); blocks])
                .expect("RUS bundle combines")
        }
        _ => pulse_train(4, units(44)).expect("pulse train generates"),
    }
}

/// The catalog: `CATALOG_SIZE` distinct programs, ranked by popularity.
/// Rank `r` has size class `r % 16` (0.1 KB to 100 KB, log-spaced) and
/// generator `(r / 16) % 5`. Like `mixed_traffic`'s pool, the catalog is
/// fixed; the workload seed draws the traffic over it. (A seeded catalog
/// would re-deal which shard sticky placement gives each popular program,
/// and with it the fleet's balance, on every seed.)
fn catalog_inputs() -> Inputs {
    let mut rng = Rng::new(0xCA7A_1096);
    let texts = (0..CATALOG_SIZE)
        .map(|r| {
            let class = r % 16;
            let target = (100.0 * 1000f64.powf(class as f64 / 15.0)) as usize;
            let kind = (r / 16) % 5;
            let program = catalog_program(kind, target, r / 80, &mut rng);
            format!("# catalog entry {r}\n{program}")
        })
        .collect();
    Inputs {
        texts,
        cfg: QuapeConfig::uniprocessor(),
    }
}

/// The catalog request stream: Zipf-ranked programs, 1–2 shots (5:1),
/// three priorities, four tenants; one base seed per (program, shots).
struct CatalogStream {
    rng: Rng,
    cdf: Vec<f64>,
    seed: u64,
    next: u64,
}

impl CatalogStream {
    fn new(seed: u64) -> Self {
        let weights: Vec<f64> = (1..=CATALOG_SIZE)
            .map(|r| (r as f64).powf(-ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        CatalogStream {
            rng: Rng::new(mix_all(&[seed, 0x57E])),
            cdf,
            seed,
            next: 0,
        }
    }
}

impl Iterator for CatalogStream {
    type Item = Served;

    fn next(&mut self) -> Option<Served> {
        let u = self.rng.next_f64();
        let program = self.cdf.partition_point(|c| *c < u).min(CATALOG_SIZE - 1);
        let shots = [1, 1, 1, 1, 1, 2][self.rng.below(6) as usize];
        let priority = priority_of(self.rng.below(3));
        let tenant = self.rng.below(TENANTS.len() as u64) as usize;
        let idx = self.next;
        self.next += 1;
        Some(Served {
            idx,
            program,
            shots,
            priority,
            tenant,
            base_seed: mix_all(&[self.seed, program as u64, shots]),
        })
    }
}

fn warm_catalog(front: &FrontDoor, inputs: &Inputs, stream: &mut CatalogStream, reps: &Reps) {
    let _ = with_waiters(reps, None, |lanes| {
        closed_loop(
            front,
            inputs,
            stream,
            CATALOG_WINDOW,
            CATALOG_WARM_JOBS,
            'w',
            lanes,
        )
    });
}

/// The `catalog` workload.
pub fn run_catalog(args: &Args) -> Report {
    let reps = Reps::default();
    let mut stream = CatalogStream::new(args.seed);
    let log = SpanLog::new();
    let (mut plain, mut traced) = (Epoch::default(), Epoch::default());
    let mut setups = Vec::new();
    let mut inputs = None;
    // Epochs of a fixed job count until the timed windows add up to
    // `--seconds`; a traced run alternates untraced and traced epochs and
    // ends on a traced one. Each epoch starts with the whole set-up, timed:
    // the catalog's texts, a fresh fleet and its warm-up. `setup_s` is the
    // median, so it sees the same host as the rates do.
    let mut epochs = 0;
    while epochs == 0
        || (plain.elapsed + traced.elapsed).as_secs_f64() < args.seconds
        || (args.trace && epochs % 2 == 1)
    {
        // The previous epoch's catalog goes before the next one is built,
        // so at most one is resident.
        inputs = None;
        let start = Instant::now();
        let built = catalog_inputs();
        let front = start_fleet();
        warm_catalog(&front, &built, &mut stream, &reps);
        setups.push(start.elapsed().as_secs_f64());
        let inputs = inputs.insert(built);
        let is_traced = args.trace && epochs % 2 == 1;
        let e = serve_epoch(front, inputs, &mut stream, &reps, is_traced.then_some(&log));
        if is_traced {
            traced.absorb(e)
        } else {
            plain.absorb(e)
        }
        epochs += 1;
    }
    let inputs = inputs.expect("at least one epoch ran");
    let mut report = Report::default();
    let kib: Vec<f64> = inputs
        .texts
        .iter()
        .map(|t| t.len() as f64 / 1024.0)
        .collect();
    report.note(format!(
        "catalog: {} programs, {:.2}..{:.1} KiB (median {:.1}), window {CATALOG_WINDOW}, {} epochs",
        inputs.texts.len(),
        percentile(&kib, 0.0),
        percentile(&kib, 100.0),
        median(&kib),
        epochs
    ));
    finish(
        args,
        &mut report,
        &inputs,
        &reps,
        median(&setups),
        plain,
        traced,
        &log,
    );
    report.spans = args.trace.then_some(log);
    report
}

// ------------------------------------------------------------------- common

/// The correctness gate and every metric of the catalog workload.
#[allow(clippy::too_many_arguments)]
fn finish(
    args: &Args,
    report: &mut Report,
    inputs: &Inputs,
    reps: &Reps,
    setup_s: f64,
    plain: Epoch,
    traced: Epoch,
    log: &SpanLog,
) {
    // Gate: every representative against its solo oracle.
    let wrong = reps.verify(inputs, crate::host::nproc());
    let all: Vec<&Done> = plain.dones.iter().chain(&traced.dones).collect();
    let wrong_jobs = all.iter().filter(|d| !d.ok).count() as u64;
    report.attempted += all.len() as u64 + plain.refused + traced.refused;
    report.failed += wrong_jobs + plain.refused + traced.refused;
    report.check(
        wrong.is_empty(),
        &format!(
            "{} request kinds differ from their solo oracle",
            wrong.len()
        ),
    );
    let (shor6, tr) = crate::kernels::paper_results(report);
    report.note(format!(
        "{} requests ({} refused, {} wrong), {} result kinds checked against solo oracles",
        all.len(),
        plain.refused + traced.refused,
        wrong_jobs,
        reps.0.lock().expect("reps poisoned").len()
    ));
    if args.trace {
        serving_layer_metrics(report, &traced, log);
        kernels_probe_and_replays(report, args, inputs, log);
        let overhead = traced.latency_us().0 / plain.latency_us().0;
        report.metric("trace.overhead_ratio", overhead, "x");
    } else {
        // Medians over epochs, like the latency figures.
        let jobs: Vec<f64> = plain.rates.iter().map(|r| r.0).collect();
        let shots: Vec<f64> = plain.rates.iter().map(|r| r.1).collect();
        report.metric("shots_per_sec", median(&shots), "1/s");
        report.metric("jobs_per_sec", median(&jobs), "1/s");
        let (p50, p99) = plain.latency_us();
        report.metric("latency_p50_us", p50, "us");
        report.metric("latency_p99_us", p99, "us");
        let per_epoch = plain.dones.len() / plain.percentiles.len().max(1);
        report.note(format!(
            "latency: median over {} epochs of ~{per_epoch} requests each ({} beyond p99){}",
            plain.percentiles.len(),
            per_epoch / 100,
            if per_epoch / 100 < 10 {
                ", too few"
            } else {
                ""
            }
        ));
        let rows: Vec<String> = plain
            .percentiles
            .iter()
            .map(|(p50, p99)| format!("{p50:.0}/{p99:.0}"))
            .collect();
        report.note(format!("per-epoch p50/p99 us: {}", rows.join(" ")));
        let rows: Vec<String> = plain.rates.iter().map(|(j, _)| format!("{j:.0}")).collect();
        report.note(format!("per-epoch jobs/s: {}", rows.join(" ")));
        report.metric("setup_s", setup_s, "s");
        report.end_to_end_common(shor6, tr);
    }
}

fn kernels_probe_and_replays(report: &mut Report, args: &Args, inputs: &Inputs, log: &SpanLog) {
    crate::kernels::core_probe(args.seed, report);
    let programs: Vec<(QuapeConfig, String)> = inputs
        .texts
        .iter()
        .take(160)
        .map(|t| (inputs.cfg.clone(), t.clone()))
        .collect();
    replay_text_metrics(report, &programs, 1, Some(log));
    crate::kernels::compiler_metric(report, Some(log));
}

fn serving_layer_metrics(report: &mut Report, e: &Epoch, log: &SpanLog) {
    let (hits, misses, evictions, compiles) = e.cache;
    report.metric(
        "server.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    report.metric("server.cache_evictions", evictions as f64, "count");
    report.metric("server.compiles", compiles as f64, "count");
    let compile_us: Vec<f64> = e.dones.iter().map(|d| us(d.compile_wall)).collect();
    report.metric(
        "server.compile_wall_us_p50",
        percentile(&compile_us, 50.0),
        "us",
    );
    report.metric(
        "server.compile_wall_us_p99",
        percentile(&compile_us, 99.0),
        "us",
    );
    let exec_us: Vec<f64> = e
        .dones
        .iter()
        .map(|d| us(d.server_latency.saturating_sub(d.compile_wall)))
        .collect();
    report.metric("server.exec_us_p50", percentile(&exec_us, 50.0), "us");
    report.metric("server.exec_us_p99", percentile(&exec_us, 99.0), "us");
    report.metric("server.packs_formed", e.packs_formed as f64, "count");
    report.metric(
        "server.jobs_packed_ratio",
        e.jobs_packed as f64 / e.dones.len().max(1) as f64,
        "ratio",
    );
    report.metric("server.pack_declined", e.pack_declined as f64, "count");
    report.metric(
        "server.combine_cache_hits",
        e.combine_cache_hits as f64,
        "count",
    );
    let shard_jobs: Vec<f64> = e.shard_jobs.iter().map(|&n| n as f64).collect();
    let skew = shard_jobs.iter().cloned().fold(0.0, f64::max) / mean(&shard_jobs).max(1e-9);
    report.metric("router.shard_jobs_skew", skew, "x");
    report.metric("router.rerouted", e.rerouted as f64, "count");
    let submit_us: Vec<f64> = e
        .dones
        .iter()
        .map(|d| us(d.submit_end - d.submit_start))
        .collect();
    report.metric("front.submit_us_p50", percentile(&submit_us, 50.0), "us");
    report.metric("front.submit_us_p99", percentile(&submit_us, 99.0), "us");
    let dispatch_us: Vec<f64> = e
        .dones
        .iter()
        .map(|d| us(d.handle_at.saturating_duration_since(d.submit_start)))
        .collect();
    report.metric(
        "front.dispatch_wait_us_p50",
        percentile(&dispatch_us, 50.0),
        "us",
    );
    report.metric(
        "front.dispatch_wait_us_p99",
        percentile(&dispatch_us, 99.0),
        "us",
    );
    let queue: Vec<f64> = e.dones.iter().map(|d| d.queue_wait_shots as f64).collect();
    report.metric(
        "front.queue_wait_shots_p99",
        percentile(&queue, 99.0),
        "shots",
    );
    report.metric("front.shed", e.shed as f64, "count");
    let assembles = e.dones.iter().filter(|d| !d.cache_hit).count();
    report.metric("isa.assemble_calls", assembles as f64, "count");
    report.metric("loadgen.lag_p99_us", percentile(&e.lag_us, 99.0), "us");
    report.metric(
        "ledger.unattributed_share",
        log.unattributed_share(REQUEST),
        "ratio",
    );
}

/// The serving-layer ledger of a workload that bypasses the serving path
/// (`kernels`): every count is zero.
pub fn idle_serving_metrics(report: &mut Report) {
    for (name, unit) in [
        ("server.cache_hit_ratio", "ratio"),
        ("server.cache_evictions", "count"),
        ("server.compiles", "count"),
        ("server.compile_wall_us_p50", "us"),
        ("server.compile_wall_us_p99", "us"),
        ("server.exec_us_p50", "us"),
        ("server.exec_us_p99", "us"),
        ("server.packs_formed", "count"),
        ("server.jobs_packed_ratio", "ratio"),
        ("server.pack_declined", "count"),
        ("server.combine_cache_hits", "count"),
        ("router.shard_jobs_skew", "x"),
        ("router.rerouted", "count"),
        ("front.submit_us_p50", "us"),
        ("front.submit_us_p99", "us"),
        ("front.dispatch_wait_us_p50", "us"),
        ("front.dispatch_wait_us_p99", "us"),
        ("front.queue_wait_shots_p99", "shots"),
        ("front.shed", "count"),
        ("isa.assemble_calls", "count"),
        ("loadgen.lag_p99_us", "us"),
    ] {
        report.metric(name, 0.0, unit);
    }
}

/// Replays assemble, `LoweredProgram::lower` and `CompiledJob::compile`
/// on `programs` (`reps` passes) and reports their cost per KiB of text
/// or per thousand instructions.
pub fn replay_text_metrics(
    report: &mut Report,
    programs: &[(QuapeConfig, String)],
    reps: usize,
    log: Option<&SpanLog>,
) {
    let (mut asm_s, mut lower_s, mut compile_s) = (0.0, 0.0, 0.0);
    let (mut kib, mut kops) = (0.0, 0.0);
    let mut id = crate::trace::REPLAY_IDS;
    for _ in 0..reps {
        for (cfg, text) in programs {
            let t0 = Instant::now();
            let program = assemble(text).expect("replayed text assembles");
            let t1 = Instant::now();
            let lowered = LoweredProgram::lower(&program, &cfg.timings);
            let t2 = Instant::now();
            std::hint::black_box(lowered);
            let t3 = Instant::now();
            let ops = program.instructions().len() as f64 / 1000.0;
            let job =
                CompiledJob::compile(cfg.clone(), program).expect("replayed program compiles");
            let t4 = Instant::now();
            std::hint::black_box(job);
            asm_s += (t1 - t0).as_secs_f64();
            lower_s += (t2 - t1).as_secs_f64();
            compile_s += (t4 - t3).as_secs_f64();
            kib += text.len() as f64 / 1024.0;
            kops += ops;
            if let Some(log) = log {
                log.record(id, "isa.assemble", "", t0, t1);
                log.record(id, "isa.lower", "", t1, t2);
                log.record(id, "core.compile", "", t3, t4);
            }
            id += 1;
        }
    }
    report.metric("isa.assemble_us_per_kib", asm_s * 1e6 / kib.max(1e-9), "us");
    report.metric("isa.lower_us_per_kop", lower_s * 1e6 / kops.max(1e-9), "us");
    report.metric(
        "core.compile_us_per_kop",
        compile_s * 1e6 / kops.max(1e-9),
        "us",
    );
}
