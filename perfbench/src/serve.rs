//! The serving workload `serve_mixed`: `ConcurrentServe` answering
//! link-score query micro-batches while 100-event slabs stream in.
//!
//! Two threads: this one is the load generator, and one writer thread
//! calls `drain_queue`. The generator runs an open loop at fixed query
//! and slab rates (latency from each operation's due time), then a
//! closed loop — queries back to back, slabs still on their schedule —
//! that measures query capacity.

use crate::host;
use crate::metrics::Report;
use crate::stats::{drive, median, tail, Clock, Op, OpTiming, Stream};
use disttgl_core::serve::{QueryRequest, ServeSession};
use disttgl_core::{
    ConcurrentOptions, ConcurrentServe, ModelConfig, ReaderContext, SnapshotAnswer, TgnModel,
};
use disttgl_data::{generators, Dataset};
use disttgl_graph::{batching, Event};
use disttgl_tensor::{seeded_rng, timing};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Wikipedia-analog scale: 78,737 events, 4,614 nodes.
const SCALE: f64 = 0.5;
/// Offered query micro-batches per second in the open loop.
const QUERY_HZ: f64 = 150.0;
/// Offered ingest slabs per second (open and closed loop).
const SLAB_HZ: f64 = 15.0;
/// Events per ingest slab.
const SLAB_EVENTS: usize = 100;
/// Link-score pairs per query micro-batch.
const QUERY_PAIRS: usize = 8;
/// Distinct query micro-batches, cycled.
const QUERY_POOL: usize = 256;
/// Every this many answers is kept for the serialized-replay gate.
const SAMPLE_EVERY: u64 = 8;
/// Warm-up ingest slab size.
const WARM_SLAB: usize = 600;
/// Set-ups per run, half before the load and half after it; `setup_s`
/// is the fastest, so a noisy stretch of the host does not set it.
const SETUP_REPS: usize = 16;
/// Share of `--seconds` spent in the open loop; the closed loop follows.
const OPEN_SHARE: f64 = 2.0 / 3.0;
/// Closed-loop seconds left uncounted after the switch from the open
/// loop.
const CLOSED_WARM_SECS: f64 = 1.0;
/// Closed-loop counting window; capacity is the median window rate.
const WINDOW_SECS: f64 = 0.5;

/// Inputs derived from the seed.
struct Inputs {
    dataset: Dataset,
    model: TgnModel,
    warm_end: usize,
}

impl Inputs {
    fn build(seed: u64) -> Self {
        let dataset = generators::wikipedia(SCALE, seed);
        let mut mc = ModelConfig::compact(dataset.edge_features.cols());
        // No pre-trained static table exists for an untrained model.
        mc.static_memory = false;
        let model = TgnModel::new(mc, &mut seeded_rng(seed));
        let (train_end, _) = dataset.graph.chronological_split(0.70, 0.15);
        Inputs {
            dataset,
            model,
            warm_end: train_end / 2,
        }
    }

    /// A session that has ingested the first half of the train split.
    fn warm(&self) -> ServeSession<'_> {
        let mut s = ServeSession::new(&self.model, &self.dataset, None);
        for r in batching::chronological_batches(0..self.warm_end, WARM_SLAB) {
            s.ingest(&self.dataset.graph.events()[r])
                .expect("chronological warm-up slab");
        }
        s
    }

    /// The slabs after the warm prefix, in stream order.
    fn slabs(&self) -> Vec<Vec<Event>> {
        self.dataset.graph.events()[self.warm_end..]
            .chunks_exact(SLAB_EVENTS)
            .map(<[Event]>::to_vec)
            .collect()
    }

    /// `QUERY_POOL` micro-batches of pairs drawn from the warm prefix,
    /// all asked as of just after the last event of the stream.
    fn queries(&self, seed: u64) -> Vec<Vec<QueryRequest>> {
        let events = &self.dataset.graph.events()[..self.warm_end];
        let t = self.dataset.graph.events().last().expect("events").t + 1.0;
        let mut state = seed ^ 0x5e4e_u64;
        let mut pick = || &events[(splitmix(&mut state) % events.len() as u64) as usize];
        (0..QUERY_POOL)
            .map(|_| {
                (0..QUERY_PAIRS)
                    .map(|_| QueryRequest::LinkScore {
                        src: pick().src,
                        dst: pick().dst,
                        t,
                    })
                    .collect()
            })
            .collect()
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Wall clock in seconds from `base`; sleeps coarsely, then spins the
/// last stretch so operations start close to their due time.
struct RealClock {
    base: Instant,
}

impl Clock for RealClock {
    fn now(&mut self) -> f64 {
        self.base.elapsed().as_secs_f64()
    }
    fn sleep_until(&mut self, t: f64) {
        let ahead = t - self.now();
        if ahead > 300e-6 {
            std::thread::sleep(Duration::from_secs_f64(ahead - 200e-6));
        }
        while self.now() < t {
            std::hint::spin_loop();
        }
    }
}

/// What the writer thread measured.
#[derive(Default)]
struct WriterLog {
    drain_secs: f64,
    /// Apply time per slab: each `drain_queue` call's time shared
    /// evenly among the slabs it applied.
    slab_secs: Vec<f64>,
    drain_calls: u64,
    /// Due time → visible (end of the applying `drain_queue`), per slab.
    visible: Vec<f64>,
}

/// State shared by the generator and the writer.
struct Shared<'a> {
    serve: ConcurrentServe<'a>,
    /// Due times (seconds from `base`) of admitted slabs, in admission
    /// order — the order `drain_queue` applies them.
    admitted_due: Mutex<Vec<f64>>,
    base: Instant,
}

impl Shared<'_> {
    /// Drains until `stop` is raised and the queue is empty.
    fn writer(&self, stop: &AtomicBool) -> WriterLog {
        let mut log = WriterLog::default();
        loop {
            let t = Instant::now();
            let n = self.serve.drain_queue();
            if n > 0 {
                let end = Instant::now();
                log.drain_secs += (end - t).as_secs_f64();
                let per_slab = (end - t).as_secs_f64() / n as f64;
                log.slab_secs.extend(std::iter::repeat_n(per_slab, n));
                log.drain_calls += 1;
                let end = (end - self.base).as_secs_f64();
                let due = self.admitted_due.lock().expect("due list");
                let from = log.visible.len();
                log.visible
                    .extend(due[from..from + n].iter().map(|d| end - d));
            } else if stop.load(Ordering::Acquire) && self.serve.queued_events() == 0 {
                return log;
            } else {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }

    /// Offers one slab; false when admission control refused it.
    fn offer(&self, slab: &[Event], due: f64) -> bool {
        // The due time is listed before the enqueue so the writer finds
        // it for any slab it can drain.
        let mut list = self.admitted_due.lock().expect("due list");
        list.push(due);
        let ok = self.serve.enqueue_ingest(slab.to_vec()).is_ok();
        if !ok {
            list.pop();
        }
        ok
    }
}

/// The load generator's side of the run.
struct Load<'s, 'a> {
    shared: &'s Shared<'a>,
    jobs: &'s [Vec<QueryRequest>],
    slabs: &'s [Vec<Event>],
    cx: ReaderContext,
    /// Queries issued so far (picks the micro-batch and the samples).
    queries: u64,
    /// `(micro-batch, answer)` kept for the serialized-replay gate.
    samples: Vec<(usize, SnapshotAnswer)>,
    /// Slab indices in admission order.
    admitted: Vec<usize>,
    enqueue_secs: f64,
}

impl Load<'_, '_> {
    fn query(&mut self, report: &mut Report) {
        let i = self.queries;
        self.queries += 1;
        let job = i as usize % QUERY_POOL;
        match self.shared.serve.query(&self.jobs[job], &mut self.cx) {
            Ok(a) => {
                report.op(true);
                if i.is_multiple_of(SAMPLE_EVERY) {
                    self.samples.push((job, a));
                }
            }
            Err(e) => {
                eprintln!("perfbench: query {i} failed: {e}");
                report.op(false);
            }
        }
    }

    fn slab(&mut self, k: usize, due: f64, report: &mut Report) {
        let t = Instant::now();
        let ok = self.shared.offer(&self.slabs[k], due);
        self.enqueue_secs += t.elapsed().as_secs_f64();
        report.op(ok);
        if ok {
            self.admitted.push(k);
        }
    }
}

/// Set-up times (whole, dataset generation) of `reps` set-ups:
/// dataset, model and warm ingest.
fn time_setups(seed: u64, reps: usize, whole: &mut Vec<f64>, generate: &mut Vec<f64>) {
    for _ in 0..reps {
        let t = Instant::now();
        let inputs = Inputs::build(seed);
        generate.push(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(inputs.warm()));
        whole.push(t.elapsed().as_secs_f64());
    }
}

fn fastest(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn serve_mixed(seed: u64, seconds: u64, report: &mut Report) {
    let (mut setup_times, mut gen_times) = (Vec::new(), Vec::new());
    time_setups(seed, SETUP_REPS / 2, &mut setup_times, &mut gen_times);

    let inputs = Inputs::build(seed);
    let slabs = inputs.slabs();
    let jobs = inputs.queries(seed);
    let shared = Shared {
        serve: ConcurrentServe::from_session(inputs.warm(), ConcurrentOptions::default()),
        admitted_due: Mutex::new(Vec::new()),
        base: Instant::now(),
    };
    let open_secs = seconds as f64 * OPEN_SHARE;

    let mut load = Load {
        shared: &shared,
        jobs: &jobs,
        slabs: &slabs,
        cx: ReaderContext::new(),
        queries: 0,
        samples: Vec::new(),
        admitted: Vec::new(),
        enqueue_secs: 0.0,
    };
    let mut query_t: Vec<OpTiming> = Vec::new();
    let mut late_max = 0.0f64;
    let mut window_qps: Vec<f64> = Vec::new();
    let stop = AtomicBool::new(false);
    let kernels0 = timing::snapshot();
    let log = std::thread::scope(|s| {
        let writer = s.spawn(|| shared.writer(&stop));
        let mut clock = RealClock { base: shared.base };
        let mut slab_stream = Stream::new(0.0, SLAB_HZ, slabs.len() as u64);
        // Open loop: both streams on their schedules.
        drive(
            &mut Stream::new(0.0, QUERY_HZ, u64::MAX),
            &mut slab_stream,
            &mut clock,
            open_secs,
            |op, due, _| match op {
                Op::Query(_) => load.query(report),
                Op::Slab(k) => load.slab(k as usize, due, report),
            },
            |op, t| {
                late_max = late_max.max(t.wait());
                if let Op::Query(_) = op {
                    query_t.push(t);
                }
            },
        );
        // Closed loop: queries back to back, slabs on schedule, counted
        // in fixed windows once the core has settled at its sustained
        // speed.
        let mut window = (clock.now() + CLOSED_WARM_SECS, 0u64);
        while clock.now() < seconds as f64 {
            while let Some(due) = slab_stream.due().filter(|&d| d <= clock.now()) {
                late_max = late_max.max(clock.now() - due);
                let (k, _) = slab_stream.take().expect("due slab");
                load.slab(k as usize, due, report);
            }
            load.query(report);
            let now = clock.now();
            if now > window.0 {
                window.1 += 1;
            }
            if now >= window.0 + WINDOW_SECS {
                window_qps.push(window.1 as f64 / (now - window.0));
                window = (now, 0);
            }
        }
        stop.store(true, Ordering::Release);
        writer.join().expect("writer thread")
    });
    let kernels = timing::snapshot() - kernels0;
    let Load {
        mut samples,
        admitted,
        enqueue_secs,
        ..
    } = load;

    // Metrics.
    let lat: Vec<f64> = query_t.iter().map(|t| t.latency() * 1e3).collect();
    let q = tail(&lat, 0.99);
    let service = tail(
        &query_t
            .iter()
            .map(|t| t.service() * 1e3)
            .collect::<Vec<_>>(),
        0.99,
    );
    let wait = tail(
        &query_t.iter().map(|t| t.wait() * 1e3).collect::<Vec<_>>(),
        0.99,
    );
    let vis = tail(
        &log.visible.iter().map(|v| v * 1e3).collect::<Vec<_>>(),
        0.99,
    );
    // Ingest capacity: events one writer applies per second at the
    // median slab apply time.
    report.set(
        "throughput_per_s",
        SLAB_EVENTS as f64 / median(&log.slab_secs),
    );
    report.set("serve.query_capacity_qps", median(&window_qps));
    report.set("latency_p50_ms", q.p50);
    report.set("peak_rss_mb", host::peak_rss_mb());
    report.set("serve.query_samples", q.samples as f64);
    report.set("serve.query_tail_pct", q.tail_q * 100.0);
    report.set("serve.query_tail_ms", q.tail);
    report.set("serve.query_service_p50_ms", service.p50);
    report.set("serve.query_service_tail_ms", service.tail);
    report.set("serve.query_wait_tail_ms", wait.tail);
    report.set("serve.ingest_visible_p50_ms", vis.p50);
    report.set("serve.ingest_visible_tail_ms", vis.tail);
    report.set("serve.slab_tail_pct", vis.tail_q * 100.0);
    report.set("serve.drain_ms", log.drain_secs * 1e3);
    report.set("serve.drain_calls", log.drain_calls as f64);
    report.set("serve.enqueue_ms", enqueue_secs * 1e3);
    let st = shared.serve.stats();
    report.set(
        "serve.clean_frac",
        st.clean_queries as f64 / st.queries_answered.max(1) as f64,
    );
    report.set("serve.repaired_queries", st.repaired_queries as f64);
    report.set("serve.resampled_queries", st.resampled_queries as f64);
    report.set("serve.repaired_rows", st.repaired_rows as f64);
    report.set(
        "serve.backpressure_rejections",
        st.backpressure_rejections as f64,
    );
    report.set("serve.max_queue_depth", st.max_queue_depth as f64);
    report.set("gen.late_max_ms", late_max * 1e3);
    report.set("tensor.matmul_ms", kernels.matmul_secs * 1e3);
    report.set("tensor.gru_ms", kernels.gru_secs * 1e3);
    report.set("tensor.softmax_ms", kernels.softmax_secs * 1e3);
    report.set("tensor.gather_ms", kernels.gather_secs * 1e3);
    report.note("offered_query_hz", QUERY_HZ);
    report.note("offered_slab_hz", SLAB_HZ);
    report.note("open_loop_queries", q.samples);
    report.note(
        "closed_loop_queries",
        st.queries_answered as usize - q.samples,
    );
    report.note("closed_loop_window_qps", format!("{window_qps:?}"));
    report.note("slabs_admitted", admitted.len());
    report.note("answers_checked", samples.len());

    // Gates, outside every timed region.
    report.gate(
        "every admitted slab was applied, none rejected",
        shared.serve.watermark() == admitted.len() as u64 && st.events_rejected == 0,
    );
    let mut oracle = inputs.warm();
    samples.sort_by_key(|(_, a)| a.watermark);
    let mut next = samples.iter().peekable();
    let mut mismatches = 0usize;
    for w in 0..=admitted.len() as u64 {
        while let Some((job, a)) = next.next_if(|(_, a)| a.watermark == w) {
            let replayed = oracle.query(&jobs[*job]).expect("replayed query");
            mismatches += usize::from(replayed != a.responses);
        }
        if let Some(&k) = admitted.get(w as usize) {
            oracle.ingest(&slabs[k]).expect("replayed slab");
        }
    }
    report.gate(
        &format!(
            "{} sampled answers equal a serialized replay at their watermark ({mismatches} differ)",
            samples.len()
        ),
        mismatches == 0 && next.peek().is_none(),
    );
    report.gate(
        "final memory checksum equals the serialized replay's",
        oracle.memory_checksum() == shared.serve.memory_checksum(),
    );

    // The second half of the set-ups, after `peak_rss_mb` was read.
    time_setups(
        seed,
        SETUP_REPS - SETUP_REPS / 2,
        &mut setup_times,
        &mut gen_times,
    );
    report.set("setup_s", fastest(&setup_times));
    report.set("data.generate_ms", fastest(&gen_times) * 1e3);
    report.note("setup_median_s", median(&setup_times));
}
