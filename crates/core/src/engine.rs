//! The task-agnostic **inference engine**: the gradient-free forward
//! walk of the model — memory gather → folded GRU update → `L`-layer
//! temporal attention → decoder — extracted out of the trainers so
//! offline evaluation (`crate::evaluate` / `crate::replay_memory`) and
//! the online serving plane (`crate::serve`) run the **same
//! arithmetic** through one code path.
//!
//! # Scratch reuse
//!
//! An [`InferenceEngine`] owns the same per-part scratch arena the
//! trainer uses ([`crate::model`]'s `StepScratch`), so steady-state
//! inference allocates nothing for the memory-update stage: evaluation
//! walks a split with one engine, a serving session holds one engine
//! for its whole lifetime. [`TgnModel::infer_step`] remains as a
//! convenience that spins up a throwaway engine per call.
//!
//! # Bit-identity contracts
//!
//! * Per-row purity: every stage (GRU, static combine, Φ, attention
//!   over a root's own slots, decoder) is row-independent, so a root's
//!   embedding — and a candidate pair's score — does not depend on
//!   what else shares the micro-batch. Co-batching evaluation parts or
//!   serving requests re-orders the arithmetic, never changes it.
//! * [`InferenceEngine::memory_write`] is the memory-update half
//!   alone: the write-back reads nothing but the roots' `ŝ` rows, so
//!   skipping the attention stack (and the neighbor sampling feeding
//!   it) leaves the produced [`MemoryWrite`] bit-identical to a full
//!   [`InferenceEngine::infer_step`] over the same events —
//!   `replay_memory` and `ServeSession::ingest` advance node memory on
//!   this fast path. `tests/serve_equivalence.rs` pins both contracts.

use crate::batch::{edge_feature_rows, NegativePart, PositivePart, ReadoutIndex, ReadoutView};
use crate::model::{pos_roots, pos_times, Head, StepScratch, TgnModel};
use crate::static_mem::StaticMemory;
use crate::MemoryAccess;
use crate::StepOutput;
use disttgl_data::Dataset;
use disttgl_graph::{Event, NeighborBlock};
use disttgl_mem::MemoryWrite;
use disttgl_nn::loss;
use disttgl_tensor::Matrix;

/// Borrowed view of one embed input: a root set, its multi-hop
/// frontier, and the (possibly folded) memory readout covering the
/// union of all frontiers — exactly the per-part layout of
/// `core::batch`, without requiring a [`PositivePart`] wrapper (the
/// serving plane assembles these from raw requests).
#[derive(Clone, Copy)]
pub struct PartRef<'a> {
    /// Root nodes (`R` rows).
    pub roots: &'a [u32],
    /// Query time of each root.
    pub times: &'a [f32],
    /// Per-hop supporting-neighbor blocks (`hops.len() == n_layers`).
    pub hops: &'a [NeighborBlock],
    /// Memory/mail rows of the part (per-occurrence, or one row per
    /// unique node when `uniq` is set).
    pub readout: &'a ReadoutView,
    /// Unique-node index of the folded readout.
    pub uniq: Option<&'a ReadoutIndex>,
    /// Per-hop edge features of the neighbor slots.
    pub nbr_feats: &'a [Matrix],
}

impl<'a> PartRef<'a> {
    /// Views a prepared positive part.
    pub fn positive(pos: &'a PositivePart) -> Self {
        Self {
            roots: pos_roots(pos),
            times: pos_times(pos),
            hops: &pos.hops,
            readout: &pos.readout,
            uniq: pos.uniq.as_ref(),
            nbr_feats: &pos.nbr_feats,
        }
    }

    /// Views a prepared negative part.
    pub fn negative(neg: &'a NegativePart) -> Self {
        Self {
            roots: &neg.negs,
            times: &neg.times,
            hops: &neg.hops,
            readout: &neg.readout,
            uniq: neg.uniq.as_ref(),
            nbr_feats: &neg.nbr_feats,
        }
    }
}

/// One embedded root set: the attention-stack outputs plus the updated
/// memory rows the write-back consumes.
pub struct PartEmbedding {
    /// Root embeddings, `R × d_emb`.
    pub emb: Matrix,
    /// Updated memory `ŝ` of the roots, `R × d_mem`.
    pub s_hat_roots: Matrix,
    /// Effective memory-update timestamp of each root.
    pub root_ts: Vec<f32>,
}

/// Reusable gradient-free forward walker (see the module docs).
#[derive(Default)]
pub struct InferenceEngine {
    scratch: StepScratch,
}

impl InferenceEngine {
    /// A fresh engine (scratch grows to the working set on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Embeds one root set through the full stack (memory update +
    /// `L`-layer attention). Gradient-free; reuses the engine's
    /// positive-part scratch.
    pub fn embed_part(
        &mut self,
        model: &TgnModel,
        part: PartRef<'_>,
        static_mem: Option<&StaticMemory>,
    ) -> PartEmbedding {
        let (emb, s_hat_roots, root_ts, _) = model.embed(
            part.roots,
            part.times,
            part.hops,
            part.readout,
            part.uniq,
            part.nbr_feats,
            static_mem,
            &mut self.scratch.pos,
        );
        PartEmbedding {
            emb,
            s_hat_roots,
            root_ts,
        }
    }

    /// Scores pre-computed embedding pairs through the model's decoder
    /// head, row for row: the link predictor's logit (`n × 1`) or the
    /// classifier's per-class logits (`n × num_classes`).
    pub fn score_pairs(&self, model: &TgnModel, src_emb: &Matrix, dst_emb: &Matrix) -> Matrix {
        match model.head() {
            Head::Link(pred) => pred.infer(&model.params, src_emb, dst_emb),
            Head::Class(clf) => clf.infer(&model.params, src_emb, dst_emb),
        }
    }

    /// The **memory-update half** of a batch, without sampling or
    /// attention: reads one folded row per unique root from `mem`,
    /// runs the GRU update, and builds the delayed-update write-back
    /// for the events `(srcs[e], dsts[e], times[e])` with edge
    /// features `event_feats` — bit-identical to the `MemoryWrite` a
    /// full forward over the same events produces (see module docs).
    /// The caller decides when to apply the returned write.
    pub fn memory_write(
        &mut self,
        model: &TgnModel,
        srcs: &[u32],
        dsts: &[u32],
        times: &[f32],
        event_feats: &Matrix,
        mem: &mut dyn MemoryAccess,
    ) -> MemoryWrite {
        debug_assert_eq!(srcs.len(), dsts.len());
        debug_assert_eq!(srcs.len(), times.len());
        let mut roots = Vec::with_capacity(2 * srcs.len());
        roots.extend_from_slice(srcs);
        roots.extend_from_slice(dsts);
        let uniq = ReadoutIndex::build(&roots);
        let readout = ReadoutView::whole(mem.read(&uniq.unique_nodes));
        let (s_hat_roots, root_ts) =
            model.fold_memory_update(&readout, &uniq, roots.len(), &mut self.scratch.pos);
        model.build_write(srcs, dsts, times, event_feats, &s_hat_roots, &root_ts)
    }

    /// [`InferenceEngine::memory_write`] for a raw chronological event
    /// slab: decomposes the events, gathers their edge features from
    /// the dataset's table (by `eid`), and returns the write together
    /// with the number of unique memory rows the update gathered —
    /// the one code path behind both `replay_memory` and
    /// `ServeSession::ingest`.
    pub fn memory_write_events(
        &mut self,
        model: &TgnModel,
        dataset: &Dataset,
        events: &[Event],
        mem: &mut dyn MemoryAccess,
    ) -> (MemoryWrite, usize) {
        let srcs: Vec<u32> = events.iter().map(|e| e.src).collect();
        let dsts: Vec<u32> = events.iter().map(|e| e.dst).collect();
        let times: Vec<f32> = events.iter().map(|e| e.t).collect();
        let eids: Vec<u32> = events.iter().map(|e| e.eid).collect();
        let feats = edge_feature_rows(dataset, &eids);
        let mut roots = Vec::with_capacity(2 * srcs.len());
        roots.extend_from_slice(&srcs);
        roots.extend_from_slice(&dsts);
        let rows_read = ReadoutIndex::build(&roots).num_unique();
        let write = self.memory_write(model, &srcs, &dsts, &times, &feats, mem);
        (write, rows_read)
    }

    /// One gradient-free step over a prepared batch: embeddings,
    /// decoder scores, loss, and the batch's `MemoryWrite` (returned,
    /// not applied). This is the arithmetic of the historical
    /// `TgnModel::infer_step`, now scratch-reusing across calls.
    /// Link-prediction scoring needs `neg`; passing `None` on a link
    /// model yields the memory-maintenance pass (write only, no
    /// scores).
    pub fn infer_step(
        &mut self,
        model: &TgnModel,
        pos: &PositivePart,
        neg: Option<&NegativePart>,
        static_mem: Option<&StaticMemory>,
    ) -> StepOutput {
        let b = pos.len();
        let scratch = &mut self.scratch;
        let (pos_emb, s_hat_roots, root_ts, _) = model.embed(
            pos_roots(pos),
            pos_times(pos),
            &pos.hops,
            &pos.readout,
            pos.uniq.as_ref(),
            &pos.nbr_feats,
            static_mem,
            &mut scratch.pos,
        );
        let write = model.build_write(
            &pos.srcs,
            &pos.dsts,
            &pos.times,
            &pos.event_feats,
            &s_hat_roots,
            &root_ts,
        );
        let src_emb = pos_emb.slice_rows(0, b);
        let dst_emb = pos_emb.slice_rows(b, 2 * b);

        match (model.head(), neg) {
            (Head::Link(pred), Some(neg)) => {
                let kneg = neg.negs.len() / b;
                let (neg_emb, _, _, _) = model.embed(
                    &neg.negs,
                    &neg.times,
                    &neg.hops,
                    &neg.readout,
                    neg.uniq.as_ref(),
                    &neg.nbr_feats,
                    static_mem,
                    &mut scratch.neg,
                );
                let pos_logits = pred.infer(&model.params, &src_emb, &dst_emb);
                let src_rep = TgnModel::repeat_rows_for(&src_emb, kneg);
                let neg_logits = pred.infer(&model.params, &src_rep, &neg_emb);
                StepOutput {
                    loss: link_loss(&pos_logits, &neg_logits),
                    pos_scores: pos_logits.into_vec(),
                    neg_scores: neg_logits.into_vec(),
                    write,
                }
            }
            (Head::Class(clf), _) => {
                let logits = clf.infer(&model.params, &src_emb, &dst_emb);
                let l = pos
                    .labels
                    .as_ref()
                    .map(|lab| loss::multi_label_bce(&logits, lab).0)
                    .unwrap_or(0.0);
                StepOutput {
                    loss: l,
                    pos_scores: logits.into_vec(),
                    neg_scores: Vec::new(),
                    write,
                }
            }
            (Head::Link(_), None) => {
                // Memory-maintenance pass (no scoring): used when
                // replaying a stream purely to advance node memory.
                StepOutput {
                    loss: 0.0,
                    pos_scores: Vec::new(),
                    neg_scores: Vec::new(),
                    write,
                }
            }
        }
    }
}

/// Gradient-free link-prediction loss of one scored batch: the mean of
/// the positive logits' BCE against 1 and the negative logits' BCE
/// against 0 (both `n × 1`).
pub(crate) fn link_loss(pos_logits: &Matrix, neg_logits: &Matrix) -> f32 {
    let ones = Matrix::full(pos_logits.rows(), 1, 1.0);
    let zeros = Matrix::zeros(neg_logits.rows(), 1);
    let (lp, _) = loss::bce_with_logits(pos_logits, &ones);
    let (ln, _) = loss::bce_with_logits(neg_logits, &zeros);
    0.5 * (lp + ln)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchPreparer;
    use crate::config::ModelConfig;
    use disttgl_data::{generators, NegativeStore};
    use disttgl_graph::TCsr;
    use disttgl_mem::MemoryState;
    use disttgl_tensor::seeded_rng;

    fn setup() -> (disttgl_data::Dataset, TCsr, ModelConfig) {
        let d = generators::wikipedia(0.005, 11);
        let csr = TCsr::build(&d.graph);
        let mut cfg = ModelConfig::compact(d.edge_features.cols());
        cfg.n_neighbors = 5;
        (d, csr, cfg)
    }

    /// A reused engine must match the throwaway-scratch path bit for
    /// bit across consecutive, differently-shaped batches.
    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        let (d, csr, cfg) = setup();
        let mut rng = seeded_rng(1);
        let model = TgnModel::new(cfg.clone(), &mut rng);
        let prep = BatchPreparer::new(&d, &csr, &cfg);
        let store = NegativeStore::generate(&d.graph, 128, 1, 1, 3);
        let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
        let mut engine = InferenceEngine::new();
        for range in [0..48usize, 48..64, 64..128] {
            let negs = store.slice(0, range.clone());
            let batch = prep.prepare(range, &[negs], 1, &mut mem);
            let reused = engine.infer_step(&model, &batch.pos, Some(&batch.negs[0]), None);
            let fresh = model.infer_step(&batch.pos, Some(&batch.negs[0]), None);
            assert_eq!(reused.loss, fresh.loss);
            assert_eq!(reused.pos_scores, fresh.pos_scores);
            assert_eq!(reused.neg_scores, fresh.neg_scores);
            assert_eq!(reused.write.mem, fresh.write.mem);
            assert_eq!(reused.write.mail, fresh.write.mail);
            mem.write(&reused.write);
        }
    }

    /// The sampling-free memory write must equal the full forward's
    /// write on every batch of a replayed stream.
    #[test]
    fn memory_write_matches_full_forward_write() {
        let (d, csr, cfg) = setup();
        let mut rng = seeded_rng(2);
        let model = TgnModel::new(cfg.clone(), &mut rng);
        let prep = BatchPreparer::new(&d, &csr, &cfg);
        let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
        let mut engine = InferenceEngine::new();
        for range in [0..40usize, 40..80, 80..120] {
            let batch = prep.prepare(range.clone(), &[], 1, &mut mem);
            let full = model.infer_step(&batch.pos, None, None);
            let events = &d.graph.events()[range];
            let srcs: Vec<u32> = events.iter().map(|e| e.src).collect();
            let dsts: Vec<u32> = events.iter().map(|e| e.dst).collect();
            let times: Vec<f32> = events.iter().map(|e| e.t).collect();
            let fast = engine.memory_write(
                &model,
                &srcs,
                &dsts,
                &times,
                &batch.pos.event_feats,
                &mut mem,
            );
            assert_eq!(fast.nodes, full.write.nodes);
            assert_eq!(fast.mem, full.write.mem);
            assert_eq!(fast.mail, full.write.mail);
            assert_eq!(fast.mem_ts, full.write.mem_ts);
            assert_eq!(fast.mail_ts, full.write.mail_ts);
            mem.write(&fast);
        }
    }

    /// `embed_part` + `score_pairs` decompose `infer_step`'s link
    /// scoring exactly (the serving plane's query path).
    #[test]
    fn embed_and_score_match_infer_step() {
        let (d, csr, cfg) = setup();
        let mut rng = seeded_rng(3);
        let model = TgnModel::new(cfg.clone(), &mut rng);
        let prep = BatchPreparer::new(&d, &csr, &cfg);
        let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
        let store = NegativeStore::generate(&d.graph, 32, 1, 1, 5);
        let batch = prep.prepare(0..32, &[store.slice(0, 0..32)], 1, &mut mem);
        let oracle = model.infer_step(&batch.pos, Some(&batch.negs[0]), None);

        let mut engine = InferenceEngine::new();
        let pe = engine.embed_part(&model, PartRef::positive(&batch.pos), None);
        let b = batch.pos.len();
        let scores = engine.score_pairs(
            &model,
            &pe.emb.slice_rows(0, b),
            &pe.emb.slice_rows(b, 2 * b),
        );
        assert_eq!(scores.into_vec(), oracle.pos_scores);
        let ne = engine.embed_part(&model, PartRef::negative(&batch.negs[0]), None);
        let src_rep = TgnModel::repeat_rows_for(&pe.emb.slice_rows(0, b), 1);
        let neg_scores = engine.score_pairs(&model, &src_rep, &ne.emb);
        assert_eq!(neg_scores.into_vec(), oracle.neg_scores);
    }
}
