//! Evaluation: MRR for temporal link prediction (49 sampled negatives,
//! paper §4) and F1-micro for dynamic edge classification.
//!
//! Evaluation walks the given event range chronologically, scoring each
//! batch **before** applying its memory write-back (the same reversed
//! order as training — predictions never see their own events), and
//! keeps updating a private copy of the node memory as it goes.
//!
//! Both entry points run on [`InferenceEngine`]s:
//! [`evaluate`] walks the range through the full scored forward, while
//! [`replay_memory`] advances memory on the engine's sampling-free
//! `memory_write` fast path — the write is a pure function of the
//! roots' memory rows, so skipping the neighbor expansion and
//! attention stack leaves the memory trajectory bit-identical (the
//! `core::engine` contract) at a fraction of the replay cost.
//!
//! # Chunked negative scoring
//!
//! A link batch's `B·K` negatives dwarf its `2B` positives (K = 49 in
//! the paper), and embedding them as one part holds every key/value
//! row of the attention stack alive at once. [`evaluate`] therefore
//! embeds the positives as one part — the write-back needs the whole
//! batch — and scores the negatives in chunks of about
//! [`NEG_CHUNK_ROOTS`] roots on a scoped pool of workers, one
//! [`InferenceEngine`] each. Every chunk samples and reads its own
//! rows from the batch-start memory (shared, read-only) and writes its
//! logits into a disjoint slice of the batch's `B·K` buffer; loss and
//! MRR are computed once over the assembled vectors. Per-row purity
//! (the `core::engine` contract) makes the result bit-identical to
//! the single-part [`InferenceEngine::infer_step`] at any chunk size
//! and worker count.

use crate::batch::BatchPreparer;
use crate::config::ModelConfig;
use crate::engine::{link_loss, InferenceEngine, PartRef};
use crate::model::TgnModel;
use crate::static_mem::StaticMemory;
use disttgl_data::{Dataset, EvalNegatives, Task};
use disttgl_graph::TemporalAdjacency;
use disttgl_mem::MemoryState;
use disttgl_nn::loss;
use disttgl_tensor::Matrix;
use std::ops::Range;
use std::sync::Mutex;

/// Negative roots embedded per chunk: 16 events at K = 49. Bounds the
/// evaluation working set independently of the batch size.
const NEG_CHUNK_ROOTS: usize = 800;

/// Evaluation outcome: MRR for link tasks, F1-micro for classification.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalResult {
    /// The task metric (MRR or F1-micro).
    pub metric: f64,
    /// Mean model loss over the range.
    pub loss: f64,
    /// Events evaluated.
    pub events: usize,
}

/// Evaluates `model` over `range`, starting from `memory` (typically a
/// snapshot of the training memory, or a fresh zero state replayed to
/// the range start). `memory` is advanced in place.
#[allow(clippy::too_many_arguments)]
pub fn evaluate(
    model: &TgnModel,
    cfg: &ModelConfig,
    dataset: &Dataset,
    adj: &dyn TemporalAdjacency,
    memory: &mut MemoryState,
    static_mem: Option<&StaticMemory>,
    range: Range<usize>,
    batch_size: usize,
    eval_negs: usize,
    seed: u64,
) -> EvalResult {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    evaluate_with_workers(
        model, cfg, dataset, adj, memory, static_mem, range, batch_size, eval_negs, seed, workers,
    )
}

/// [`evaluate`] scoring link negatives on at most `workers` threads
/// (the caller's thread included).
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_with_workers(
    model: &TgnModel,
    cfg: &ModelConfig,
    dataset: &Dataset,
    adj: &dyn TemporalAdjacency,
    memory: &mut MemoryState,
    static_mem: Option<&StaticMemory>,
    range: Range<usize>,
    batch_size: usize,
    eval_negs: usize,
    seed: u64,
    workers: usize,
) -> EvalResult {
    let prep = BatchPreparer::new(dataset, adj, cfg);
    let mut engines: Vec<InferenceEngine> = (0..workers.max(1))
        .map(|_| InferenceEngine::new())
        .collect();
    let mut sampler = EvalNegatives::new(&dataset.graph, seed);
    let mut total_loss = 0.0f64;
    let mut batches = 0usize;
    let mut pos_all = Vec::new();
    let mut neg_all = Vec::new();
    let mut f1_logits: Vec<Matrix> = Vec::new();
    let mut f1_labels: Vec<Matrix> = Vec::new();

    for batch_range in disttgl_graph::batching::chronological_batches(range.clone(), batch_size) {
        let b = batch_range.len();
        match dataset.task {
            Task::LinkPrediction => {
                // Exclude each event's true destination from its
                // negatives (collisions matter at reproduction scale).
                let events = &dataset.graph.events()[batch_range.clone()];
                let negs: Vec<u32> = events
                    .iter()
                    .flat_map(|e| sampler.draw_excluding(eval_negs, e.dst))
                    .collect();
                let p = prep.prepare(batch_range, &[], eval_negs, memory).pos;
                let engine = &mut engines[0];
                let pe = engine.embed_part(model, PartRef::positive(&p), static_mem);
                let write = model.build_write(
                    &p.srcs,
                    &p.dsts,
                    &p.times,
                    &p.event_feats,
                    &pe.s_hat_roots,
                    &pe.root_ts,
                );
                let src_emb = pe.emb.slice_rows(0, b);
                let pos_logits = engine.score_pairs(model, &src_emb, &pe.emb.slice_rows(b, 2 * b));
                let mut neg_logits = Matrix::zeros(b * eval_negs, 1);
                score_negatives(
                    &mut engines,
                    model,
                    &prep,
                    memory,
                    static_mem,
                    &src_emb,
                    &p.times,
                    &negs,
                    eval_negs,
                    neg_logits.as_mut_slice(),
                );
                total_loss += link_loss(&pos_logits, &neg_logits) as f64;
                pos_all.extend_from_slice(pos_logits.as_slice());
                neg_all.extend_from_slice(neg_logits.as_slice());
                memory.write(&write);
            }
            Task::EdgeClassification => {
                let prepared = prep.prepare(batch_range, &[], 1, memory);
                let out = engines[0].infer_step(model, &prepared.pos, None, static_mem);
                total_loss += out.loss as f64;
                let logits = Matrix::from_vec(b, cfg.num_classes, out.pos_scores.clone());
                f1_logits.push(logits);
                f1_labels.push(prepared.pos.labels.clone().expect("labels"));
                memory.write(&out.write);
            }
        }
        batches += 1;
    }

    let metric = match dataset.task {
        Task::LinkPrediction => loss::mrr(&pos_all, &neg_all, eval_negs),
        Task::EdgeClassification => {
            let logits_refs: Vec<&Matrix> = f1_logits.iter().collect();
            let labels_refs: Vec<&Matrix> = f1_labels.iter().collect();
            if logits_refs.is_empty() {
                0.0
            } else {
                loss::f1_micro(&Matrix::vcat(&logits_refs), &Matrix::vcat(&labels_refs))
            }
        }
    };
    EvalResult {
        metric,
        loss: if batches > 0 {
            total_loss / batches as f64
        } else {
            0.0
        },
        events: range.len(),
    }
}

/// Scores one batch's negatives into `out` (`B·K` logits, event-major):
/// `negs` holds `k` destinations per event, `times` the `B` event
/// times and `src_emb` the `B` source embeddings. Chunks of
/// [`NEG_CHUNK_ROOTS`] roots are handed out to one worker per engine,
/// capped at the chunk count; the caller's thread runs `engines[0]`.
#[allow(clippy::too_many_arguments)]
fn score_negatives(
    engines: &mut [InferenceEngine],
    model: &TgnModel,
    prep: &BatchPreparer<'_>,
    memory: &MemoryState,
    static_mem: Option<&StaticMemory>,
    src_emb: &Matrix,
    times: &[f32],
    negs: &[u32],
    k: usize,
    out: &mut [f32],
) {
    assert!(k > 0, "link evaluation needs at least one negative");
    let chunk_events = (NEG_CHUNK_ROOTS / k).max(1);
    let n_chunks = times.len().div_ceil(chunk_events);
    let chunks = Mutex::new(out.chunks_mut(chunk_events * k).enumerate());
    let work = |engine: &mut InferenceEngine| loop {
        let Some((c, dst)) = chunks.lock().expect("chunk queue").next() else {
            break;
        };
        let events = c * chunk_events..c * chunk_events + dst.len() / k;
        let neg = prep.prepare_negative(
            &negs[events.start * k..events.end * k],
            &times[events.clone()],
            k,
            memory,
        );
        let emb = engine
            .embed_part(model, PartRef::negative(&neg), static_mem)
            .emb;
        let src_rep = TgnModel::repeat_rows_for(&src_emb.slice_rows(events.start, events.end), k);
        dst.copy_from_slice(engine.score_pairs(model, &src_rep, &emb).as_slice());
    };
    let n_workers = engines.len().min(n_chunks);
    if let Some((first, rest)) = engines[..n_workers].split_first_mut() {
        let work = &work;
        std::thread::scope(|s| {
            for engine in rest {
                s.spawn(move || work(engine));
            }
            work(first);
        });
    }
}

/// Replays `range` through the model (no scoring) purely to advance
/// `memory` — used to position a fresh memory at a split boundary.
///
/// Runs the engine's sampling-free memory path: the write-back never
/// reads the attention stack, so the produced memory trajectory is
/// bit-identical to a full forward replay at the same batch
/// boundaries while skipping neighbor expansion entirely (`adj` and
/// `static_mem` are accepted for signature compatibility but never
/// consulted).
#[allow(clippy::too_many_arguments)]
pub fn replay_memory(
    model: &TgnModel,
    _cfg: &ModelConfig,
    dataset: &Dataset,
    _adj: &dyn TemporalAdjacency,
    memory: &mut MemoryState,
    _static_mem: Option<&StaticMemory>,
    range: Range<usize>,
    batch_size: usize,
) {
    let mut engine = InferenceEngine::new();
    for batch_range in disttgl_graph::batching::chronological_batches(range, batch_size) {
        let events = &dataset.graph.events()[batch_range];
        let (w, _) = engine.memory_write_events(model, dataset, events, memory);
        memory.write(&w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disttgl_data::generators;
    use disttgl_graph::TCsr;
    use disttgl_tensor::seeded_rng;

    /// The single-part reference: every batch prepared with one
    /// serialized read and scored by one [`InferenceEngine::infer_step`]
    /// with all `B·K` negatives as one part — the same negative draws,
    /// metric and loss bookkeeping as [`evaluate`].
    #[allow(clippy::too_many_arguments)]
    fn single_part_reference(
        model: &TgnModel,
        cfg: &ModelConfig,
        d: &Dataset,
        adj: &dyn TemporalAdjacency,
        memory: &mut MemoryState,
        static_mem: Option<&StaticMemory>,
        range: Range<usize>,
        batch_size: usize,
        k: usize,
        seed: u64,
    ) -> EvalResult {
        let prep = BatchPreparer::new(d, adj, cfg);
        let mut engine = InferenceEngine::new();
        let mut sampler = EvalNegatives::new(&d.graph, seed);
        let (mut pos, mut neg, mut logits, mut labels) = (vec![], vec![], vec![], vec![]);
        let (mut total_loss, mut batches) = (0.0f64, 0usize);
        for r in disttgl_graph::batching::chronological_batches(range.clone(), batch_size) {
            let out = match d.task {
                Task::LinkPrediction => {
                    let negs: Vec<u32> = d.graph.events()[r.clone()]
                        .iter()
                        .flat_map(|e| sampler.draw_excluding(k, e.dst))
                        .collect();
                    let b = prep.prepare(r, &[&negs], k, memory);
                    let out = engine.infer_step(model, &b.pos, Some(&b.negs[0]), static_mem);
                    pos.extend_from_slice(&out.pos_scores);
                    neg.extend_from_slice(&out.neg_scores);
                    out
                }
                Task::EdgeClassification => {
                    let b = prep.prepare(r, &[], 1, memory);
                    let out = engine.infer_step(model, &b.pos, None, static_mem);
                    let n = b.pos.len();
                    logits.push(Matrix::from_vec(n, cfg.num_classes, out.pos_scores.clone()));
                    labels.push(b.pos.labels.clone().expect("labels"));
                    out
                }
            };
            total_loss += out.loss as f64;
            memory.write(&out.write);
            batches += 1;
        }
        let metric = match d.task {
            Task::LinkPrediction => loss::mrr(&pos, &neg, k),
            Task::EdgeClassification => loss::f1_micro(
                &Matrix::vcat(&logits.iter().collect::<Vec<_>>()),
                &Matrix::vcat(&labels.iter().collect::<Vec<_>>()),
            ),
        };
        EvalResult {
            metric,
            loss: total_loss / batches as f64,
            events: range.len(),
        }
    }

    /// Evaluates `range` (after replaying the events before it) with
    /// the single-part reference and with chunked scoring on one and
    /// two workers; all three must agree bit for bit on the metric,
    /// the loss and the final memory.
    fn assert_chunked_matches_reference(
        d: &Dataset,
        cfg: &ModelConfig,
        static_mem: bool,
        range: Range<usize>,
        batch_size: usize,
        k: usize,
    ) {
        let csr = TCsr::build(&d.graph);
        let mut rng = seeded_rng(21);
        let model = TgnModel::new(cfg.clone(), &mut rng);
        let sm = static_mem.then(|| StaticMemory::pretrain(d, cfg.d_mem, range.start, 2, 4));
        let mut start = cfg.new_memory(d.graph.num_nodes());
        replay_memory(&model, cfg, d, &csr, &mut start, None, 0..range.start, 64);

        let mut ref_mem = start.clone();
        let reference = single_part_reference(
            &model,
            cfg,
            d,
            &csr,
            &mut ref_mem,
            sm.as_ref(),
            range.clone(),
            batch_size,
            k,
            17,
        );
        for workers in [1, 2] {
            let mut mem = start.clone();
            let got = evaluate_with_workers(
                &model,
                cfg,
                d,
                &csr,
                &mut mem,
                sm.as_ref(),
                range.clone(),
                batch_size,
                k,
                17,
                workers,
            );
            let ctx = format!("{workers} workers, batch {batch_size}, K = {k}");
            assert_eq!(
                got.metric.to_bits(),
                reference.metric.to_bits(),
                "metric, {ctx}"
            );
            assert_eq!(got.loss.to_bits(), reference.loss.to_bits(), "loss, {ctx}");
            assert_eq!(got.events, reference.events, "{ctx}");
            assert_eq!(mem.checksum(), ref_mem.checksum(), "memory, {ctx}");
        }
    }

    fn link_cfg(d: &Dataset, n_layers: usize) -> ModelConfig {
        let mut cfg = ModelConfig::compact(d.edge_features.cols()).with_layers(n_layers);
        cfg.n_neighbors = 4;
        cfg
    }

    /// K = 49 (16-event chunks): batches of 50 and a 20-event tail
    /// split into chunks of 16 + 16 + 16 + 2 and 16 + 4, with static
    /// memory on.
    #[test]
    fn chunked_eval_k49_one_layer_matches_single_part() {
        let d = generators::wikipedia(0.005, 31);
        let cfg = link_cfg(&d, 1);
        assert_chunked_matches_reference(&d, &cfg, true, 300..420, 50, 49);
    }

    /// K = 9 (88-event chunks) through a two-layer stack: a batch of
    /// 100 splits 88 + 12, its 30-event tail is one short chunk.
    #[test]
    fn chunked_eval_k9_two_layers_matches_single_part() {
        let d = generators::wikipedia(0.005, 32);
        let cfg = link_cfg(&d, 2);
        assert_chunked_matches_reference(&d, &cfg, false, 300..430, 100, 9);
    }

    /// K = 1 (800-event chunks) on the per-occurrence readout path: a
    /// batch of 850 splits 800 + 50.
    #[test]
    fn chunked_eval_k1_per_occurrence_matches_single_part() {
        let d = generators::wikipedia(0.01, 33);
        let mut cfg = link_cfg(&d, 1);
        cfg.dedup_readout = false;
        assert_chunked_matches_reference(&d, &cfg, false, 100..1000, 850, 1);
    }

    /// Classification scores no negatives; its path is unchanged and
    /// still matches the single-part reference at any worker count.
    #[test]
    fn chunked_eval_classification_matches_single_part() {
        let d = generators::gdelt(2e-5, 34);
        let mut cfg = ModelConfig::compact(d.edge_features.cols()).with_classes(56);
        cfg.n_neighbors = 4;
        assert_chunked_matches_reference(&d, &cfg, false, 64..192, 30, 1);
    }

    #[test]
    fn untrained_model_scores_near_chance() {
        let d = generators::wikipedia(0.005, 31);
        let csr = TCsr::build(&d.graph);
        let mut cfg = ModelConfig::compact(d.edge_features.cols());
        cfg.n_neighbors = 5;
        let mut rng = seeded_rng(1);
        let model = TgnModel::new(cfg.clone(), &mut rng);
        let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
        let res = evaluate(&model, &cfg, &d, &csr, &mut mem, None, 0..256, 64, 9, 5);
        // With 9 negatives, chance MRR ≈ Σ(1/r)/10 ≈ 0.29; an untrained
        // model should land in a broad band around it, far from 1.0.
        assert!(
            res.metric > 0.05 && res.metric < 0.7,
            "metric {}",
            res.metric
        );
        assert_eq!(res.events, 256);
        assert!(res.loss > 0.0);
    }

    #[test]
    fn replay_then_evaluate_is_deterministic() {
        let d = generators::mooc(0.002, 13);
        let csr = TCsr::build(&d.graph);
        let mut cfg = ModelConfig::compact(0);
        cfg.n_neighbors = 5;
        let mut rng = seeded_rng(2);
        let model = TgnModel::new(cfg.clone(), &mut rng);

        let run = || {
            let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
            replay_memory(&model, &cfg, &d, &csr, &mut mem, None, 0..200, 50);
            evaluate(&model, &cfg, &d, &csr, &mut mem, None, 200..400, 50, 9, 7)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn classification_eval_produces_f1() {
        let d = generators::gdelt(2e-5, 17);
        let csr = TCsr::build(&d.graph);
        let mut cfg = ModelConfig::compact(d.edge_features.cols()).with_classes(56);
        cfg.n_neighbors = 5;
        let mut rng = seeded_rng(3);
        let model = TgnModel::new(cfg.clone(), &mut rng);
        let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
        let res = evaluate(&model, &cfg, &d, &csr, &mut mem, None, 0..128, 32, 1, 9);
        assert!((0.0..=1.0).contains(&res.metric));
        assert_eq!(res.events, 128);
    }
}
