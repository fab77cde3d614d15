//! Crash-safe checkpoint/restore.
//!
//! # Crash-consistency contract
//!
//! DistTGL's serialized memory epochs give the training loop natural
//! crash-consistent boundaries: at an epoch (sequential) or schedule
//! unit (distributed — one step boundary `S·b`, where every memory
//! daemon has served exactly `S·b` turns) the model replicas, optimizer
//! state, and every node-memory replica are simultaneously quiescent.
//! Checkpoints are taken **only** at those boundaries, so a restored
//! run replays the remaining schedule **bit-identically** to an
//! uninterrupted one: same losses, same validation metrics, same final
//! memory digests (`tests/checkpoint_equivalence.rs` pins this).
//!
//! What makes bit-identical resume possible without serializing live
//! RNG state: every random stream in the trainer is derived afresh
//! from `cfg.seed` xor a per-use constant (weights, static-memory
//! pretrain, negative store, per-epoch eval), so the checkpoint only
//! needs the *seed* — which travels inside the config fingerprint —
//! plus the consumed-work counters (`units_done`, `iteration`).
//!
//! # Format
//!
//! A fixed header followed by one checksummed payload:
//!
//! ```text
//! magic    8 B   b"DTGLCKP1"
//! version  4 B   u32 LE (currently 1)
//! kind     1 B   1 = training, 2 = serving
//! length   8 B   u64 LE payload byte count
//! digest   8 B   u64 LE FNV-1a over the payload bytes
//! payload  ...   kind-specific sections (see below)
//! ```
//!
//! Payload sections reuse the length-prefixed binary frames of
//! `disttgl_data::persist` (the dataset-snapshot plumbing), so every
//! decode path reports *which* section was truncated. `f64` values are
//! stored as `to_bits()` u64 — exact round-trip, no text formatting.
//!
//! # Failure semantics
//!
//! Everything here returns [`CheckpointError`]; nothing panics on
//! malformed input. A truncated, bit-flipped, or wrong-magic file is
//! **recoverable** ([`CheckpointError::Io`] / [`CheckpointError::Corrupt`]
//! — fall back to an older checkpoint or a fresh start). Resuming
//! under a different configuration is **operator error**
//! ([`CheckpointError::Mismatch`] — the trajectory would silently
//! diverge, so it is refused). Writes go through a `.tmp` +
//! atomic-rename dance: a crash mid-save never clobbers the previous
//! checkpoint.

use crate::config::{ModelConfig, TrainConfig};
use crate::metrics::ConvergencePoint;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use disttgl_data::persist::{
    byte_len, get_f32s, get_matrix, get_u64s, put_f32s, put_matrix, put_u64s, truncated,
};
use disttgl_graph::TCsrEntry;
use disttgl_mem::MemoryState;
use disttgl_tensor::Matrix;
use std::fmt;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// File magic: "DisTGL CheckPoint v1".
pub const MAGIC: &[u8; 8] = b"DTGLCKP1";
/// Current format version.
pub const VERSION: u32 = 1;

const KIND_TRAIN: u8 = 1;
const KIND_SERVE: u8 = 2;

/// Why a checkpoint could not be saved, loaded, or applied.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem-level failure (also wraps section truncation from
    /// the frame decoders).
    Io(io::Error),
    /// The bytes are not a valid checkpoint: bad magic, unsupported
    /// version, wrong kind, digest mismatch, or an internally
    /// inconsistent payload. Recoverable — try an older checkpoint.
    Corrupt(String),
    /// The checkpoint is valid but belongs to a different run
    /// configuration; resuming would silently diverge, so it is
    /// refused. Operator error, not data loss.
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint/config mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// FNV-1a over the payload — the same cheap content digest the memory
/// checksums use; catches torn writes and bit rot, not adversaries.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The JSON fingerprint stored in training checkpoints: model shapes +
/// the trajectory-shaping subset of the train config (see
/// [`TrainConfig::fingerprint_config`]).
pub fn fingerprint(model_cfg: &ModelConfig, cfg: &TrainConfig) -> String {
    let model = serde_json::to_string(model_cfg).expect("model config serializes");
    let train = serde_json::to_string(&cfg.fingerprint_config()).expect("train config serializes");
    format!("{model}\n{train}")
}

/// Checkpoint filename for the checkpoint taken after `units_done`
/// completed units inside `dir`.
pub fn checkpoint_path(dir: &str, units_done: usize) -> PathBuf {
    Path::new(dir).join(format!("ckpt_{units_done:04}.bin"))
}

// ---------------------------------------------------------------------
// Shared sub-frames.

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u64_le(s.len() as u64);
    buf.put_slice(s.as_bytes());
}

fn get_string(buf: &mut Bytes, what: &str) -> io::Result<String> {
    if buf.remaining() < 8 {
        return Err(truncated(what));
    }
    let n = buf.get_u64_le() as usize;
    if buf.remaining() < n {
        return Err(truncated(what));
    }
    let raw = buf.take_bytes(n).to_vec();
    String::from_utf8(raw)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, format!("{what}: not UTF-8")))
}

fn put_f64(buf: &mut BytesMut, v: f64) {
    buf.put_u64_le(v.to_bits());
}

fn get_f64(buf: &mut Bytes, what: &str) -> io::Result<f64> {
    if buf.remaining() < 8 {
        return Err(truncated(what));
    }
    Ok(f64::from_bits(buf.get_u64_le()))
}

fn get_u64(buf: &mut Bytes, what: &str) -> io::Result<u64> {
    if buf.remaining() < 8 {
        return Err(truncated(what));
    }
    Ok(buf.get_u64_le())
}

/// Serializes one [`MemoryState`] replica: matrices, timestamp
/// vectors, write sequence, per-node versions.
fn put_memory(buf: &mut BytesMut, state: &MemoryState) {
    put_matrix(buf, &state.mem_matrix());
    put_f32s(buf, state.mem_ts_all());
    put_matrix(buf, &state.mail_matrix());
    put_f32s(buf, state.mail_ts_all());
    buf.put_u64_le(state.version());
    put_u64s(buf, state.node_versions());
}

fn get_memory(buf: &mut Bytes) -> Result<MemoryState, CheckpointError> {
    let mem = get_matrix(buf)?;
    let mem_ts = get_f32s(buf, "memory mem_ts")?;
    let mail = get_matrix(buf)?;
    let mail_ts = get_f32s(buf, "memory mail_ts")?;
    let write_seq = get_u64(buf, "memory write_seq")?;
    let node_version = get_u64s(buf, "memory node versions")?;
    let n = mem.rows();
    if mail.rows() != n || mem_ts.len() != n || mail_ts.len() != n || node_version.len() != n {
        return Err(CheckpointError::Corrupt(format!(
            "memory part shapes disagree ({} mem rows, {} mail rows, {} mem_ts, {} mail_ts, {} versions)",
            n,
            mail.rows(),
            mem_ts.len(),
            mail_ts.len(),
            node_version.len()
        )));
    }
    Ok(MemoryState::from_parts(
        mem,
        mem_ts,
        mail,
        mail_ts,
        write_seq,
        node_version,
    ))
}

// ---------------------------------------------------------------------
// Training checkpoints.

/// Everything a crashed training run needs to resume bit-identically.
#[derive(Clone, Debug)]
pub struct TrainCheckpoint {
    /// Config fingerprint (see [`fingerprint`]); resume refuses a
    /// checkpoint whose fingerprint disagrees with the live config.
    pub fingerprint: String,
    /// Completed checkpoint units: single-GPU epochs (sequential) or
    /// schedule units = step-boundary multiples (distributed).
    pub units_done: usize,
    /// Training iterations completed (rank 0's count).
    pub iteration: usize,
    /// Events trained so far (throughput accounting).
    pub events_trained: u64,
    /// Flattened model weights (registration order).
    pub weights: Vec<f32>,
    /// Adam step counter.
    pub adam_t: u64,
    /// Flattened Adam state (first moments, then second moments).
    pub adam_state: Vec<f32>,
    /// Loss history up to the boundary.
    pub loss_history: Vec<f32>,
    /// Convergence points up to the boundary.
    pub convergence: Vec<ConvergencePoint>,
    /// Pre-trained static memory table, when the model uses one —
    /// saved so resume skips the pretrain pass (and stays exact even
    /// if the pretrain recipe evolves across code versions).
    pub static_table: Option<Matrix>,
    /// One captured node-memory replica per memory group (`k` entries;
    /// sequential runs save none — the epoch-start reset makes the
    /// memory derivable).
    pub memories: Vec<MemoryState>,
    /// Per-group daemon resume turn (`start_turn` for
    /// `MemoryDaemon::spawn_with`), parallel to `memories`.
    pub start_turns: Vec<u64>,
}

impl TrainCheckpoint {
    /// Serializes into the framed format and writes via `.tmp` +
    /// rename so a crash mid-save never corrupts an existing file.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        write_framed(path, KIND_TRAIN, &self.payload())
    }

    /// The exact framed bytes [`TrainCheckpoint::save`] persists.
    /// Fault injection uses this to model a torn write: a truncated
    /// prefix of these bytes fails the digest check on load.
    pub fn to_framed_bytes(&self) -> Vec<u8> {
        frame(KIND_TRAIN, &self.payload())
    }

    fn payload(&self) -> BytesMut {
        let mut payload = BytesMut::new();
        put_string(&mut payload, &self.fingerprint);
        payload.put_u64_le(self.units_done as u64);
        payload.put_u64_le(self.iteration as u64);
        payload.put_u64_le(self.events_trained);
        put_f32s(&mut payload, &self.weights);
        payload.put_u64_le(self.adam_t);
        put_f32s(&mut payload, &self.adam_state);
        put_f32s(&mut payload, &self.loss_history);
        payload.put_u64_le(self.convergence.len() as u64);
        for p in &self.convergence {
            payload.put_u64_le(p.iteration as u64);
            put_f64(&mut payload, p.wall_secs);
            put_f64(&mut payload, p.metric);
        }
        match &self.static_table {
            Some(t) => {
                payload.put_u8(1);
                put_matrix(&mut payload, t);
            }
            None => payload.put_u8(0),
        }
        payload.put_u64_le(self.memories.len() as u64);
        for m in &self.memories {
            put_memory(&mut payload, m);
        }
        put_u64s(&mut payload, &self.start_turns);
        payload
    }

    /// Loads and validates a [`TrainCheckpoint::save`] file.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let mut buf = read_framed(path, KIND_TRAIN)?;
        let fingerprint = get_string(&mut buf, "fingerprint")?;
        let units_done = get_u64(&mut buf, "units_done")? as usize;
        let iteration = get_u64(&mut buf, "iteration")? as usize;
        let events_trained = get_u64(&mut buf, "events_trained")?;
        let weights = get_f32s(&mut buf, "weights")?;
        let adam_t = get_u64(&mut buf, "adam_t")?;
        let adam_state = get_f32s(&mut buf, "adam state")?;
        let loss_history = get_f32s(&mut buf, "loss history")?;
        let n_conv = get_u64(&mut buf, "convergence count")? as usize;
        if n_conv > buf.remaining() / 24 {
            return Err(CheckpointError::Corrupt(format!(
                "convergence count {n_conv} exceeds remaining payload"
            )));
        }
        let mut convergence = Vec::with_capacity(n_conv);
        for _ in 0..n_conv {
            convergence.push(ConvergencePoint {
                iteration: get_u64(&mut buf, "convergence iteration")? as usize,
                wall_secs: get_f64(&mut buf, "convergence wall")?,
                metric: get_f64(&mut buf, "convergence metric")?,
            });
        }
        if buf.remaining() < 1 {
            return Err(truncated("static table flag").into());
        }
        let static_table = if buf.get_u8() == 1 {
            Some(get_matrix(&mut buf)?)
        } else {
            None
        };
        let n_mem = get_u64(&mut buf, "memory count")? as usize;
        if n_mem > 4096 {
            return Err(CheckpointError::Corrupt(format!(
                "implausible memory replica count {n_mem}"
            )));
        }
        let mut memories = Vec::with_capacity(n_mem);
        for _ in 0..n_mem {
            memories.push(get_memory(&mut buf)?);
        }
        let start_turns = get_u64s(&mut buf, "daemon start turns")?;
        if start_turns.len() != memories.len() {
            return Err(CheckpointError::Corrupt(format!(
                "{} start turns for {} memory replicas",
                start_turns.len(),
                memories.len()
            )));
        }
        if buf.remaining() != 0 {
            return Err(CheckpointError::Corrupt(format!(
                "{} trailing bytes after payload",
                buf.remaining()
            )));
        }
        Ok(Self {
            fingerprint,
            units_done,
            iteration,
            events_trained,
            weights,
            adam_t,
            adam_state,
            loss_history,
            convergence,
            static_table,
            memories,
            start_turns,
        })
    }

    /// Refuses resume under a configuration whose fingerprint differs.
    pub fn check_fingerprint(
        &self,
        model_cfg: &ModelConfig,
        cfg: &TrainConfig,
    ) -> Result<(), CheckpointError> {
        let live = fingerprint(model_cfg, cfg);
        if self.fingerprint != live {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint was taken under a different configuration\n  saved: {}\n  live:  {}",
                self.fingerprint.replace('\n', " | "),
                live.replace('\n', " | ")
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Serving checkpoints.

/// The mutable state of a `ServeSession`: everything the ingest path
/// has accumulated beyond the constructor inputs. Restore rebuilds the
/// session from the same training artifacts and grafts this back in;
/// queries then answer bit-identically to the pre-crash session.
#[derive(Clone, Debug)]
pub struct ServeCheckpoint {
    /// Model-config fingerprint (serving has no train config).
    pub fingerprint: String,
    /// Live node memory (post all applied ingests).
    pub memory: MemoryState,
    /// Per-node adjacency slices of the dynamic T-CSR.
    pub adj: Vec<Vec<TCsrEntry>>,
    /// Events appended to the adjacency.
    pub num_events: usize,
    /// Stream head (newest appended timestamp; −∞ when empty).
    pub stream_head: f32,
    /// Events ingested through the session (monotone counter).
    pub ingested: u64,
}

impl ServeCheckpoint {
    /// Serializes and writes via `.tmp` + rename.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut payload = BytesMut::new();
        put_string(&mut payload, &self.fingerprint);
        put_memory(&mut payload, &self.memory);
        payload.put_u64_le(self.adj.len() as u64);
        for slice in &self.adj {
            payload.put_u64_le(slice.len() as u64);
            for e in slice {
                payload.put_u32_le(e.nbr);
                payload.put_f32_le(e.t);
                payload.put_u32_le(e.eid);
            }
        }
        payload.put_u64_le(self.num_events as u64);
        payload.put_f32_le(self.stream_head);
        payload.put_u64_le(self.ingested);
        write_framed(path, KIND_SERVE, &payload)
    }

    /// Loads and validates a [`ServeCheckpoint::save`] file. The
    /// adjacency invariants (time-sorted slices, entries behind the
    /// stream head, endpoint ranges, entry/event count consistency)
    /// are re-validated by `DynamicTCsr::from_parts` at restore.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let mut buf = read_framed(path, KIND_SERVE)?;
        let fingerprint = get_string(&mut buf, "fingerprint")?;
        let memory = get_memory(&mut buf)?;
        let n_nodes = get_u64(&mut buf, "adjacency node count")? as usize;
        if n_nodes != memory.num_nodes() {
            return Err(CheckpointError::Corrupt(format!(
                "{} adjacency nodes vs {} memory nodes",
                n_nodes,
                memory.num_nodes()
            )));
        }
        let mut adj = Vec::with_capacity(n_nodes);
        for node in 0..n_nodes {
            let len = get_u64(&mut buf, "adjacency slice length")? as usize;
            if buf.remaining() < byte_len(len, 12, "adjacency slice")? {
                return Err(truncated(&format!("adjacency slice of node {node}")).into());
            }
            let mut slice = Vec::with_capacity(len);
            for _ in 0..len {
                slice.push(TCsrEntry {
                    nbr: buf.get_u32_le(),
                    t: buf.get_f32_le(),
                    eid: buf.get_u32_le(),
                });
            }
            adj.push(slice);
        }
        let num_events = get_u64(&mut buf, "event count")? as usize;
        if buf.remaining() < 4 {
            return Err(truncated("stream head").into());
        }
        let stream_head = buf.get_f32_le();
        let ingested = get_u64(&mut buf, "ingested counter")?;
        if buf.remaining() != 0 {
            return Err(CheckpointError::Corrupt(format!(
                "{} trailing bytes after payload",
                buf.remaining()
            )));
        }
        Ok(Self {
            fingerprint,
            memory,
            adj,
            num_events,
            stream_head,
            ingested,
        })
    }
}

// ---------------------------------------------------------------------
// Framing.

fn frame(kind: u8, payload: &BytesMut) -> Vec<u8> {
    let mut out = Vec::with_capacity(29 + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn write_framed(path: &Path, kind: u8, payload: &BytesMut) -> Result<(), CheckpointError> {
    let out = frame(kind, payload);
    // Atomic publish: write the sibling .tmp, then rename over the
    // target. A crash at any point leaves either the old file or
    // nothing — never a torn checkpoint under the real name.
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&out)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Parses the frame header and verifies the payload digest, returning
/// `(kind, payload)`.
fn read_any(path: &Path) -> Result<(u8, Bytes), CheckpointError> {
    let mut raw = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut raw)?;
    if raw.len() < 29 {
        return Err(CheckpointError::Corrupt(format!(
            "file too short for a header ({} bytes)",
            raw.len()
        )));
    }
    if &raw[..8] != MAGIC {
        return Err(CheckpointError::Corrupt("bad magic".into()));
    }
    let version = u32::from_le_bytes(raw[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(CheckpointError::Corrupt(format!(
            "unsupported format version {version} (this build reads {VERSION})"
        )));
    }
    let kind = raw[12];
    let len = u64::from_le_bytes(raw[13..21].try_into().unwrap()) as usize;
    let digest = u64::from_le_bytes(raw[21..29].try_into().unwrap());
    let payload = &raw[29..];
    if payload.len() != len {
        return Err(CheckpointError::Corrupt(format!(
            "payload length {} does not match header {}",
            payload.len(),
            len
        )));
    }
    if fnv1a(payload) != digest {
        return Err(CheckpointError::Corrupt(
            "payload digest mismatch (torn write or bit rot)".into(),
        ));
    }
    Ok((kind, Bytes::from(payload.to_vec())))
}

/// Structural validation without decoding the payload: magic, version,
/// length, and digest must all check out. Returns the kind byte
/// (1 = training, 2 = serving). `core::recover::CheckpointStore` uses
/// this to skip torn/corrupt files cheaply during its newest-first
/// scan and retention GC.
pub fn validate_file(path: &Path) -> Result<u8, CheckpointError> {
    read_any(path).map(|(kind, _)| kind)
}

fn read_framed(path: &Path, want_kind: u8) -> Result<Bytes, CheckpointError> {
    let (kind, payload) = read_any(path)?;
    if kind != want_kind {
        return Err(CheckpointError::Corrupt(format!(
            "wrong checkpoint kind {kind} (wanted {want_kind})"
        )));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use disttgl_mem::MemoryWrite;

    fn sample_memory(seed: u32) -> MemoryState {
        let mut m = MemoryState::new(6, 3, 4);
        m.reset();
        for s in 0..3u32 {
            let nodes = vec![(s + seed) % 6, (s + seed + 2) % 6];
            let n = nodes.len();
            m.write(&MemoryWrite {
                nodes,
                mem: Matrix::full(n, 3, s as f32 + 0.5),
                mem_ts: vec![s as f32; n],
                mail: Matrix::full(n, 4, s as f32 * 2.0),
                mail_ts: vec![s as f32 + 0.25; n],
            });
        }
        m
    }

    fn sample_train_ckpt(dir: &Path) -> (TrainCheckpoint, PathBuf) {
        let ckpt = TrainCheckpoint {
            fingerprint: "model\ntrain".into(),
            units_done: 3,
            iteration: 42,
            events_trained: 4200,
            weights: vec![0.25, -1.5, 3.0],
            adam_t: 42,
            adam_state: vec![0.1; 6],
            loss_history: vec![0.9, 0.7, 0.5],
            convergence: vec![ConvergencePoint {
                iteration: 14,
                wall_secs: 1.25,
                metric: 0.61,
            }],
            static_table: Some(Matrix::full(6, 2, 0.125)),
            memories: vec![sample_memory(0), sample_memory(1)],
            start_turns: vec![12, 12],
        };
        let path = dir.join("ckpt.bin");
        (ckpt, path)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("disttgl_ckpt_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn train_checkpoint_roundtrips_exactly() {
        let dir = tmpdir("train_rt");
        let (ckpt, path) = sample_train_ckpt(&dir);
        ckpt.save(&path).unwrap();
        let back = TrainCheckpoint::load(&path).unwrap();
        assert_eq!(back.fingerprint, ckpt.fingerprint);
        assert_eq!(back.units_done, 3);
        assert_eq!(back.iteration, 42);
        assert_eq!(back.events_trained, 4200);
        assert_eq!(back.weights, ckpt.weights);
        assert_eq!(back.adam_t, 42);
        assert_eq!(back.adam_state, ckpt.adam_state);
        assert_eq!(back.loss_history, ckpt.loss_history);
        assert_eq!(back.convergence.len(), 1);
        assert_eq!(back.convergence[0].wall_secs, 1.25);
        assert_eq!(back.convergence[0].metric, 0.61);
        assert_eq!(back.static_table, ckpt.static_table);
        assert_eq!(back.memories.len(), 2);
        for (a, b) in back.memories.iter().zip(&ckpt.memories) {
            assert_eq!(a.checksum(), b.checksum());
            assert_eq!(a.node_versions(), b.node_versions());
            assert_eq!(a.version(), b.version());
        }
        assert_eq!(back.start_turns, vec![12, 12]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_detected_not_panicked() {
        let dir = tmpdir("corrupt");
        let (ckpt, path) = sample_train_ckpt(&dir);
        ckpt.save(&path).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Bit flip in the payload → digest mismatch.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            TrainCheckpoint::load(&path),
            Err(CheckpointError::Corrupt(_))
        ));

        // Truncation → length mismatch.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(matches!(
            TrainCheckpoint::load(&path),
            Err(CheckpointError::Corrupt(_))
        ));

        // Wrong magic.
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        std::fs::write(&path, &bad_magic).unwrap();
        assert!(matches!(
            TrainCheckpoint::load(&path),
            Err(CheckpointError::Corrupt(_))
        ));

        // Wrong kind: a serve loader refuses a train checkpoint.
        std::fs::write(&path, &good).unwrap();
        assert!(matches!(
            ServeCheckpoint::load(&path),
            Err(CheckpointError::Corrupt(_))
        ));

        // Missing file → Io.
        assert!(matches!(
            TrainCheckpoint::load(&dir.join("absent.bin")),
            Err(CheckpointError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_checkpoint_roundtrips_including_empty_stream() {
        let dir = tmpdir("serve_rt");
        let path = dir.join("serve.bin");
        let ckpt = ServeCheckpoint {
            fingerprint: "model".into(),
            memory: sample_memory(2),
            adj: vec![
                vec![TCsrEntry {
                    nbr: 1,
                    t: 0.5,
                    eid: 0,
                }],
                vec![TCsrEntry {
                    nbr: 0,
                    t: 0.5,
                    eid: 0,
                }],
                Vec::new(),
                Vec::new(),
                Vec::new(),
                Vec::new(),
            ],
            num_events: 1,
            stream_head: 0.5,
            ingested: 7,
        };
        ckpt.save(&path).unwrap();
        let back = ServeCheckpoint::load(&path).unwrap();
        assert_eq!(back.adj, ckpt.adj);
        assert_eq!(back.num_events, 1);
        assert_eq!(back.stream_head, 0.5);
        assert_eq!(back.ingested, 7);
        assert_eq!(back.memory.checksum(), ckpt.memory.checksum());

        // −∞ stream head (virgin session) survives the f32 framing.
        let empty = ServeCheckpoint {
            fingerprint: "model".into(),
            memory: sample_memory(0),
            adj: vec![Vec::new(); 6],
            num_events: 0,
            stream_head: f32::NEG_INFINITY,
            ingested: 0,
        };
        empty.save(&path).unwrap();
        let back = ServeCheckpoint::load(&path).unwrap();
        assert_eq!(back.stream_head, f32::NEG_INFINITY);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A crafted adjacency-slice length whose byte size wraps `usize`
    /// is refused with a typed error instead of panicking the
    /// allocation.
    #[test]
    fn overflowing_adjacency_length_is_refused() {
        let dir = tmpdir("adj_overflow");
        let path = dir.join("serve.bin");
        let mut payload = BytesMut::new();
        put_string(&mut payload, "model");
        put_memory(&mut payload, &sample_memory(0));
        payload.put_u64_le(6);
        payload.put_u64_le(1 << 62);
        std::fs::write(&path, frame(KIND_SERVE, &payload)).unwrap();
        assert!(matches!(
            ServeCheckpoint::load(&path),
            Err(CheckpointError::Io(e)) if e.kind() == io::ErrorKind::InvalidData
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let mc = ModelConfig::compact(4);
        let cfg = TrainConfig::new(crate::config::ParallelConfig::single());
        let ckpt = TrainCheckpoint {
            fingerprint: fingerprint(&mc, &cfg),
            units_done: 0,
            iteration: 0,
            events_trained: 0,
            weights: Vec::new(),
            adam_t: 0,
            adam_state: Vec::new(),
            loss_history: Vec::new(),
            convergence: Vec::new(),
            static_table: None,
            memories: Vec::new(),
            start_turns: Vec::new(),
        };
        assert!(ckpt.check_fingerprint(&mc, &cfg).is_ok());
        // Checkpoint bookkeeping fields do NOT fingerprint.
        let relocated = cfg.clone().checkpoint_every(5, "/elsewhere");
        assert!(ckpt.check_fingerprint(&mc, &relocated).is_ok());
        // Trajectory-shaping fields do.
        let mut different = cfg.clone();
        different.seed ^= 1;
        assert!(matches!(
            ckpt.check_fingerprint(&mc, &different),
            Err(CheckpointError::Mismatch(_))
        ));
    }
}
