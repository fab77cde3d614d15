//! The training workloads: `train_seq` (`train_single`, 1×1×1) and
//! `train_dist` (`train_distributed`, 1×2×1) on the same Wikipedia
//! analog, model, batch and event-epochs.

use crate::host;
use crate::metrics::Report;
use crate::stats::{median, tail};
use disttgl_cluster::ClusterSpec;
use disttgl_core::{
    evaluate, occurrence_rows, replay_memory, train_distributed, train_single_traced,
    BatchPreparer, ModelConfig, ParallelConfig, RunResult, StaticMemory, TgnModel, TrainConfig,
};
use disttgl_data::{generators, Dataset, NegativeStore};
use disttgl_graph::{batching, TCsr};
use disttgl_tensor::{seeded_rng, timing};
use std::time::{Duration, Instant};

/// Wikipedia-analog scale: 7,874 events, 461 nodes, 172-d features.
const SCALE: f64 = 0.05;
/// Single-GPU-equivalent epochs; a multiple of j·k = 2, so both
/// workloads train the train split twice.
const EPOCHS: usize = 2;
/// Trainer calls per run, at least (the determinism gate compares them).
const MIN_JOBS: usize = 2;
/// Dataset generations per run, taken in [`SETUP_GROUPS`] groups spread
/// through the run (one group before each of the first trainer calls);
/// `setup_s` is the fastest, so a noisy stretch of the host does not
/// set it.
const SETUP_GROUPS: usize = 4;
const SETUP_PER_GROUP: usize = 24;

fn config(seed: u64, parallel: ParallelConfig) -> TrainConfig {
    let mut cfg = TrainConfig::new(parallel);
    cfg.local_batch = 600;
    cfg.epochs = EPOCHS;
    cfg.eval_every_epoch = false;
    cfg.seed = seed;
    cfg
}

/// The timed dataset generations of one run.
struct Setup {
    seed: u64,
    groups: usize,
    times: Vec<f64>,
}

impl Setup {
    /// Runs the first group; returns the dataset the run trains on.
    fn start(seed: u64) -> (Self, Dataset) {
        let mut s = Setup {
            seed,
            groups: 0,
            times: Vec::with_capacity(SETUP_GROUPS * SETUP_PER_GROUP),
        };
        let d = s.group().expect("first set-up group");
        (s, d)
    }

    /// Runs the next group, if any is left; returns its last dataset.
    fn group(&mut self) -> Option<Dataset> {
        if self.groups == SETUP_GROUPS {
            return None;
        }
        self.groups += 1;
        let mut d = None;
        for _ in 0..SETUP_PER_GROUP {
            let t = Instant::now();
            d = Some(generators::wikipedia(SCALE, self.seed));
            self.times.push(secs(t));
        }
        d
    }

    /// Runs the groups left and reports the fastest generation.
    fn finish(mut self, report: &mut Report) {
        while self.group().is_some() {}
        let fastest = self.times.iter().copied().fold(f64::INFINITY, f64::min);
        report.set("setup_s", fastest);
        report.set("data.generate_ms", fastest * 1e3);
        report.note("setup_median_s", median(&self.times));
    }
}

fn train_events(d: &Dataset) -> f64 {
    let (train_end, _) = d.graph.chronological_split(0.70, 0.15);
    (train_end * EPOCHS) as f64
}

/// A per-layer metric read from a finished trainer call.
type JobField = (&'static str, fn(&Job) -> f64);

/// One trainer call, timed from outside.
struct Job {
    wall: f64,
    result: RunResult,
    /// Final training-time memory checksums (one per replica).
    checksums: Vec<u64>,
}

impl Job {
    /// `train_single`, with the final memory it trained into.
    fn single(d: &Dataset, mc: &ModelConfig, cfg: &TrainConfig) -> Self {
        let t = Instant::now();
        let (result, state) = train_single_traced(d, mc, cfg);
        let wall = secs(t);
        Job {
            wall,
            result,
            checksums: vec![state.checksum()],
        }
    }

    /// `train_distributed`, with each replica's final memory checksum.
    fn distributed(d: &Dataset, mc: &ModelConfig, cfg: &TrainConfig, spec: ClusterSpec) -> Self {
        let t = Instant::now();
        let result = train_distributed(d, mc, cfg, spec);
        let wall = secs(t);
        let checksums = result.memory_checksums.clone();
        Job {
            wall,
            result,
            checksums,
        }
    }

    /// Completed without an abort and with a finite loss throughout.
    fn ok(&self) -> bool {
        !self.result.aborted
            && self.result.abort_reports.is_empty()
            && !self.result.loss_history.is_empty()
            && self.result.loss_history.iter().all(|l| l.is_finite())
            && self.result.test_metric.is_finite()
    }
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs jobs until `seconds` have passed (at least [`MIN_JOBS`]), with
/// a set-up group before each of the first.
fn jobs(
    seconds: u64,
    setup: &mut Setup,
    mut one: impl FnMut() -> Job,
    report: &mut Report,
) -> Vec<Job> {
    let t = Instant::now();
    let mut out: Vec<Job> = Vec::new();
    while out.len() < MIN_JOBS || t.elapsed() < Duration::from_secs(seconds) {
        if !out.is_empty() {
            setup.group();
        }
        let job = one();
        report.op(job.ok());
        out.push(job);
    }
    out
}

/// End-to-end metrics and the gates every training run applies.
fn report_jobs(d: &Dataset, jobs: &[Job], report: &mut Report) {
    let events = train_events(d);
    let eps: Vec<f64> = jobs.iter().map(|j| events / j.wall).collect();
    let walls: Vec<f64> = jobs.iter().map(|j| j.wall * 1e3).collect();
    report.set("throughput_per_s", median(&eps));
    // The wall time a user waits for a trained model; on a train
    // workload it carries the same measurement as the throughput.
    report.set("latency_p50_ms", median(&walls));
    report.set("peak_rss_mb", host::peak_rss_mb());
    let first = &jobs[0].result;
    report.set("core.eval.test_mrr", first.test_metric);
    report.note("jobs", jobs.len());
    report.note("train_events_per_job", events);
    report.note("test_mrr", first.test_metric);
    report.note("job_events_per_s", format!("{eps:?}"));
    report.gate(
        "repeated jobs of one seed give identical losses, test MRR and final memory",
        !jobs[0].checksums.is_empty()
            && jobs.iter().all(|j| {
                same_bits(&j.result.loss_history, &first.loss_history)
                    && j.result.test_metric.to_bits() == first.test_metric.to_bits()
                    && j.checksums == jobs[0].checksums
            }),
    );
    let (early, late) = loss_thirds(&first.loss_history);
    report.note("loss_first_third", early);
    report.note("loss_last_third", late);
    report.gate(
        "training lowers the loss: last third of the steps below the first",
        late < early && first.test_metric > 0.0 && first.test_metric <= 1.0,
    );
}

/// Mean loss over the first and the last third of the steps.
fn loss_thirds(losses: &[f32]) -> (f64, f64) {
    let n = (losses.len() / 3).max(1);
    let mean = |s: &[f32]| s.iter().map(|&l| f64::from(l)).sum::<f64>() / s.len() as f64;
    (mean(&losses[..n]), mean(&losses[losses.len() - n..]))
}

/// `train_seq`: `train_single` at 1×1×1. With `trace`, every job is
/// paired with the traced rebuild of its loop.
pub fn train_seq(seed: u64, seconds: u64, trace: bool, report: &mut Report) {
    let (mut setup, d) = Setup::start(seed);
    let mc = ModelConfig::compact(d.edge_features.cols());
    let cfg = config(seed, ParallelConfig::single());
    if !trace {
        let jobs = jobs(seconds, &mut setup, || Job::single(&d, &mc, &cfg), report);
        setup.finish(report);
        report_jobs(&d, &jobs, report);
        return;
    }

    // Traced run: the rebuilt loop first (so its evaluation RSS growth
    // is measured in a process whose peak no earlier job has raised),
    // then the untraced call it must reproduce, repeated in pairs.
    let t = Instant::now();
    let mut traced: Vec<Traced> = Vec::new();
    let mut plain: Vec<Job> = Vec::new();
    while plain.len() < MIN_JOBS || t.elapsed() < Duration::from_secs(seconds) {
        if !plain.is_empty() {
            setup.group();
        }
        traced.push(Traced::run(&d, &mc, &cfg));
        let job = Job::single(&d, &mc, &cfg);
        report.op(job.ok());
        plain.push(job);
    }
    setup.finish(report);
    let events = train_events(&d);
    let eps_plain = median(&plain.iter().map(|j| events / j.wall).collect::<Vec<_>>());
    let eps_traced = median(&traced.iter().map(|j| events / j.wall).collect::<Vec<_>>());
    report.note("untraced_events_per_s", eps_plain);
    report.note("traced_events_per_s", eps_traced);
    report.set("trace_overhead_frac", 1.0 - eps_traced / eps_plain);

    let oracle = &plain[0];
    report.gate(
        "traced rebuild reproduces train_single's loss history, test MRR and final memory bit for bit",
        traced.iter().all(|tr| {
            same_bits(&tr.loss_history, &oracle.result.loss_history)
                && tr.test_mrr.to_bits() == oracle.result.test_metric.to_bits()
                && oracle.checksums == [tr.memory_checksum]
        }),
    );
    report_jobs(&d, &plain, report);

    // Per-layer figures: medians over the traced jobs.
    for name in Traced::PARTS.iter().chain(Traced::ATTRIBUTED) {
        let v: Vec<f64> = traced.iter().map(|tr| tr.ms(name)).collect();
        report.set(name, median(&v));
    }
    let residual: Vec<f64> = traced.iter().map(Traced::residual_ms).collect();
    report.set("step.residual_ms", median(&residual));
    // The partition sums to the traced job's wall, not the plain call's.
    report.set(
        "job.wall_ms",
        median(&traced.iter().map(|tr| tr.wall * 1e3).collect::<Vec<_>>()),
    );
    // The timers cover the loop between them, so what they miss is
    // small; a large residual means the partition lost a part.
    report.gate(
        "traced parts cover the traced wall: 0 <= residual <= 2% of it",
        traced
            .iter()
            .all(|tr| (0.0..=0.02 * tr.wall * 1e3).contains(&tr.residual_ms())),
    );
    let steps: Vec<f64> = traced
        .iter()
        .flat_map(|tr| tr.step_ms.iter().copied())
        .collect();
    let st = tail(&steps, 0.99);
    report.set("step.count", traced[0].step_ms.len() as f64);
    report.set("step.p50_ms", st.p50);
    report.set("step.tail_ms", st.tail);
    report.set("step.tail_pct", st.tail_q * 100.0);
    report.note("step_samples", st.samples);
    report.set("mem.rows_read", traced[0].rows_read as f64);
    report.set(
        "core.batch.fold_ratio",
        traced[0].occurrence_rows as f64 / traced[0].rows_read.max(1) as f64,
    );
    report.set("core.eval.rss_growth_mb", traced[0].rss_growth_mb);
    report.note(
        "partition",
        format!(
            "[{}]",
            Traced::PARTS
                .iter()
                .chain(["step.residual_ms"].iter())
                .map(|p| host::json_str(p))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
}

/// `train_dist`: `train_distributed` at 1×2×1 with the default prefetch
/// and speculative gather. The traced run reads the breakdown the
/// trainer returns; it adds no timers of its own.
pub fn train_dist(seed: u64, seconds: u64, trace: bool, report: &mut Report) {
    let (mut setup, d) = Setup::start(seed);
    let mc = ModelConfig::compact(d.edge_features.cols());
    let cfg = config(seed, ParallelConfig::new(1, 2, 1));
    let jobs = jobs(
        seconds,
        &mut setup,
        || Job::distributed(&d, &mc, &cfg, ClusterSpec::new(1, 2)),
        report,
    );
    setup.finish(report);
    report_jobs(&d, &jobs, report);
    if !trace {
        return;
    }
    let per_job = |f: fn(&Job) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
    // `mem_wait_secs` is spent inside the trainer's prep window, so the
    // partition takes prep without it.
    let residual = |j: &Job| {
        let t = &j.result.timing;
        (j.wall - t.prep_secs - t.compute_secs - t.allreduce_secs) * 1e3
    };
    let fields: [JobField; 16] = [
        ("dist.prep_ms", |j| {
            let t = &j.result.timing;
            (t.prep_secs - t.mem_wait_secs) * 1e3
        }),
        ("dist.mem_wait_ms", |j| j.result.timing.mem_wait_secs * 1e3),
        ("dist.compute_ms", |j| j.result.timing.compute_secs * 1e3),
        ("dist.allreduce_ms", |j| {
            j.result.timing.allreduce_secs * 1e3
        }),
        ("dist.residual_ms", residual),
        ("job.wall_ms", |j| j.wall * 1e3),
        ("tensor.matmul_ms", |j| j.result.timing.matmul_secs * 1e3),
        ("tensor.gru_ms", |j| j.result.timing.gru_secs * 1e3),
        ("tensor.softmax_ms", |j| j.result.timing.softmax_secs * 1e3),
        ("tensor.gather_ms", |j| j.result.timing.gather_secs * 1e3),
        ("mem.daemon.rows_read", |j| j.result.daemon_rows_read as f64),
        ("mem.daemon.spec_rows", |j| j.result.daemon_spec_rows as f64),
        ("mem.daemon.delta_rows", |j| {
            j.result.daemon_delta_rows as f64
        }),
        ("mem.daemon.payload_bytes", |j| {
            j.result.daemon_payload_bytes as f64
        }),
        ("mem.daemon.stale_frac", |j| {
            j.result.daemon_delta_rows as f64 / j.result.daemon_spec_rows.max(1) as f64
        }),
        ("cluster.comm.allreduce_bytes", |j| {
            j.result.comm_bytes as f64
        }),
    ];
    for (name, f) in fields {
        report.set(name, per_job(f));
    }
    report.gate(
        "memory wait nests in prep, and the breakdown fits in the outer wall",
        jobs.iter().all(|j| {
            let t = &j.result.timing;
            t.mem_wait_secs <= t.prep_secs && residual(j) >= 0.0
        }),
    );
    report.note(
        "partition",
        "[\"dist.prep_ms\",\"dist.mem_wait_ms\",\"dist.compute_ms\",\"dist.allreduce_ms\",\"dist.residual_ms\"]",
    );
}

/// One traced rebuild of `train_single`'s sequential loop from public
/// calls, each wrapped in a timer.
struct Traced {
    wall: f64,
    /// Milliseconds per metric name.
    ms: Vec<(&'static str, f64)>,
    step_ms: Vec<f64>,
    rows_read: usize,
    occurrence_rows: usize,
    rss_growth_mb: f64,
    loss_history: Vec<f32>,
    test_mrr: f64,
    /// Checksum of the memory after the last epoch.
    memory_checksum: u64,
}

impl Traced {
    /// Disjoint timed parts of the job; with `step.residual_ms` they
    /// sum to the job's wall time.
    const PARTS: &'static [&'static str] = &[
        "graph.tcsr_build_ms",
        "core.static_pretrain_ms",
        "data.negative_store_ms",
        "core.batch.prepare_static_ms",
        "mem.read_ms",
        "core.batch.complete_ms",
        "core.model.forward_ms",
        "mem.write_ms",
        "core.model.backward_ms",
        "nn.adam.step_ms",
        "core.eval.replay_ms",
        "core.eval.test_ms",
    ];
    /// Attributions that overlap the parts above.
    const ATTRIBUTED: &'static [&'static str] = &[
        "nn.attention.layer0_ms",
        "tensor.matmul_ms",
        "tensor.gru_ms",
        "tensor.softmax_ms",
        "tensor.gather_ms",
    ];

    fn ms(&self, name: &str) -> f64 {
        self.ms
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .sum()
    }

    fn residual_ms(&self) -> f64 {
        self.wall * 1e3 - Self::PARTS.iter().map(|p| self.ms(p)).sum::<f64>()
    }

    /// Mirrors the sequential path of `train_single` (same seeds, same
    /// order of memory reads and writes); the write is applied from the
    /// eager-write sink, which splits the step into forward and backward.
    fn run(d: &Dataset, mc: &ModelConfig, cfg: &TrainConfig) -> Self {
        let mut acc = [0.0f64; 12];
        let job = Instant::now();

        let t = Instant::now();
        let csr = TCsr::build(&d.graph);
        acc[0] += secs(t);
        let (train_end, val_end) = d.graph.chronological_split(0.70, 0.15);
        let mut rng = seeded_rng(cfg.seed);
        let mut model = TgnModel::new(mc.clone(), &mut rng);
        let mut adam = model.optimizer(cfg.scaled_lr());
        let t = Instant::now();
        let static_mem = mc
            .static_memory
            .then(|| StaticMemory::pretrain(d, mc.d_mem, train_end, 10, cfg.seed ^ 0x5747));
        acc[1] += secs(t);
        let t = Instant::now();
        let store = NegativeStore::generate(
            &d.graph,
            train_end,
            cfg.neg_groups,
            cfg.train_negs,
            cfg.seed ^ 0x4e45,
        );
        acc[2] += secs(t);

        let prep = BatchPreparer::new(d, &csr, mc);
        let mut memory = mc.new_memory(d.graph.num_nodes());
        let batches = batching::chronological_batches(0..train_end, cfg.local_batch);
        let kernels0 = timing::snapshot();
        let mut loss_history = Vec::new();
        let mut step_ms = Vec::new();
        let (mut rows_read, mut occurrence) = (0usize, 0usize);
        for epoch in 0..cfg.epochs {
            memory.reset();
            for range in &batches {
                let step = Instant::now();
                let negs = store.slice(store.group_for_epoch(epoch), range.clone());
                let t = Instant::now();
                let sb = prep.prepare_static(range.clone(), &[negs], cfg.train_negs);
                acc[3] += secs(t);
                rows_read += sb.read_rows();
                let t = Instant::now();
                let full = memory.read(sb.nodes());
                acc[4] += secs(t);
                let t = Instant::now();
                let batch = prep.complete(sb, full);
                acc[5] += secs(t);
                occurrence += occurrence_rows(batch.pos.roots.len(), &batch.pos.hops)
                    + batch
                        .negs
                        .iter()
                        .map(|n| occurrence_rows(n.negs.len(), &n.hops))
                        .sum::<usize>();

                model.params.zero_grads();
                let fwd = Instant::now();
                let (mut sink_in, mut sink_out) = (fwd, fwd);
                let out = model.train_step_eager_write(
                    &batch.pos,
                    batch.negs.first(),
                    static_mem.as_ref(),
                    |w| {
                        sink_in = Instant::now();
                        memory.write(&w);
                        sink_out = Instant::now();
                    },
                );
                let done = Instant::now();
                acc[6] += (sink_in - fwd).as_secs_f64();
                acc[7] += (sink_out - sink_in).as_secs_f64();
                acc[8] += (done - sink_out).as_secs_f64();
                let t = Instant::now();
                model.params.clip_grad_norm(5.0);
                adam.step(&mut model.params);
                acc[9] += secs(t);
                loss_history.push(out.loss);
                step_ms.push(step.elapsed().as_secs_f64() * 1e3);
            }
        }
        let kernels = timing::snapshot() - kernels0;
        let layer0 = model.layer_embed_secs().first().copied().unwrap_or(0.0);

        let rss_before = host::rss_mb();
        let mut test_mem = memory.clone();
        let t = Instant::now();
        if val_end > train_end {
            replay_memory(
                &model,
                mc,
                d,
                &csr,
                &mut test_mem,
                static_mem.as_ref(),
                train_end..val_end,
                cfg.local_batch,
            );
        }
        acc[10] += secs(t);
        let t = Instant::now();
        let test = evaluate(
            &model,
            mc,
            d,
            &csr,
            &mut test_mem,
            static_mem.as_ref(),
            val_end..d.graph.num_events(),
            cfg.local_batch,
            cfg.eval_negs,
            cfg.seed ^ 0x7e57,
        );
        acc[11] += secs(t);
        let rss_growth_mb = host::peak_rss_mb() - rss_before;
        let wall = job.elapsed().as_secs_f64();

        let mut ms: Vec<(&'static str, f64)> = Self::PARTS
            .iter()
            .zip(acc)
            .map(|(n, s)| (*n, s * 1e3))
            .collect();
        ms.extend([
            ("nn.attention.layer0_ms", layer0 * 1e3),
            ("tensor.matmul_ms", kernels.matmul_secs * 1e3),
            ("tensor.gru_ms", kernels.gru_secs * 1e3),
            ("tensor.softmax_ms", kernels.softmax_secs * 1e3),
            ("tensor.gather_ms", kernels.gather_secs * 1e3),
        ]);
        Traced {
            wall,
            ms,
            step_ms,
            rows_read,
            occurrence_rows: occurrence,
            rss_growth_mb,
            loss_history,
            test_mrr: test.metric,
            memory_checksum: memory.checksum(),
        }
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}
