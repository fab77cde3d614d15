//! Dataset persistence.
//!
//! The paper pre-samples mini-batches and stores them on NVMe so the
//! training critical path never touches the sampler ("we sample the
//! mini-batch in advance and store them on the two NVMe SSDs",
//! §4.0.2). The analogous capability here is snapshotting a generated
//! dataset — graph, features, labels — so that long experiment suites
//! regenerate bit-identical inputs without re-running the generators.
//!
//! Format: a one-line JSON header (name/task/shape metadata) followed
//! by little-endian `f32`/`u32` binary sections framed with `bytes` —
//! JSON alone would bloat feature matrices ~4×.

use crate::dataset::{Dataset, Task};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use disttgl_graph::{Event, TemporalGraph};
use disttgl_tensor::Matrix;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

#[derive(Serialize, Deserialize)]
struct Header {
    name: String,
    num_nodes: usize,
    num_events: usize,
    bipartite_boundary: Option<u32>,
    edge_dim: usize,
    num_classes: usize,
    task: String,
}

/// Frames a matrix as `rows:u64 cols:u64 data:[f32]` (little-endian).
///
/// Shared with `core::checkpoint`, which reuses this snapshot plumbing
/// for model/memory sections of the checkpoint format.
pub fn put_matrix(buf: &mut BytesMut, m: &Matrix) {
    buf.put_u64_le(m.rows() as u64);
    buf.put_u64_le(m.cols() as u64);
    for &v in m.as_slice() {
        buf.put_f32_le(v);
    }
}

/// Reads back a [`put_matrix`] frame, with context on truncation.
pub fn get_matrix(buf: &mut Bytes) -> io::Result<Matrix> {
    if buf.remaining() < 16 {
        return Err(truncated("matrix header"));
    }
    let rows = buf.get_u64_le() as usize;
    let cols = buf.get_u64_le() as usize;
    let n = rows
        .checked_mul(cols)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "matrix shape overflow"))?;
    if buf.remaining() < byte_len(n, 4, "matrix body")? {
        return Err(truncated("matrix body"));
    }
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(buf.get_f32_le());
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

/// Frames a slice of `f32` as `len:u64 data:[f32]`.
pub fn put_f32s(buf: &mut BytesMut, vals: &[f32]) {
    buf.put_u64_le(vals.len() as u64);
    for &v in vals {
        buf.put_f32_le(v);
    }
}

/// Reads back a [`put_f32s`] frame.
pub fn get_f32s(buf: &mut Bytes, what: &str) -> io::Result<Vec<f32>> {
    let n = get_len(buf, what)?;
    if buf.remaining() < byte_len(n, 4, what)? {
        return Err(truncated(what));
    }
    Ok((0..n).map(|_| buf.get_f32_le()).collect())
}

/// Frames a slice of `u64` as `len:u64 data:[u64]`.
pub fn put_u64s(buf: &mut BytesMut, vals: &[u64]) {
    buf.put_u64_le(vals.len() as u64);
    for &v in vals {
        buf.put_u64_le(v);
    }
}

/// Reads back a [`put_u64s`] frame.
pub fn get_u64s(buf: &mut Bytes, what: &str) -> io::Result<Vec<u64>> {
    let n = get_len(buf, what)?;
    if buf.remaining() < byte_len(n, 8, what)? {
        return Err(truncated(what));
    }
    Ok((0..n).map(|_| buf.get_u64_le()).collect())
}

/// Frames a slice of `u32` as `len:u64 data:[u32]`.
pub fn put_u32s(buf: &mut BytesMut, vals: &[u32]) {
    buf.put_u64_le(vals.len() as u64);
    for &v in vals {
        buf.put_u32_le(v);
    }
}

/// Reads back a [`put_u32s`] frame.
pub fn get_u32s(buf: &mut Bytes, what: &str) -> io::Result<Vec<u32>> {
    let n = get_len(buf, what)?;
    if buf.remaining() < byte_len(n, 4, what)? {
        return Err(truncated(what));
    }
    Ok((0..n).map(|_| buf.get_u32_le()).collect())
}

/// Reads one length prefix, guarding against truncation and absurd
/// lengths that would make the follow-up allocation unbounded.
fn get_len(buf: &mut Bytes, what: &str) -> io::Result<usize> {
    if buf.remaining() < 8 {
        return Err(truncated(what));
    }
    let n = buf.get_u64_le();
    usize::try_from(n).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{what}: length overflow"),
        )
    })
}

/// Byte size of `n` items of `width` bytes each. A crafted length
/// prefix can make the product wrap to a small number that passes the
/// truncation guard and then panics the allocation, so the product is
/// checked and an overflow reported as `InvalidData`.
pub fn byte_len(n: usize, width: usize, what: &str) -> io::Result<usize> {
    n.checked_mul(width).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{what}: length overflow"),
        )
    })
}

/// `UnexpectedEof` with section context — every decode path names the
/// section it was reading so corruption reports are actionable.
pub fn truncated(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, what.to_string())
}

impl Dataset {
    /// Serializes the dataset to `w`.
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        let header = Header {
            name: self.name.clone(),
            num_nodes: self.graph.num_nodes(),
            num_events: self.graph.num_events(),
            bipartite_boundary: self.graph.bipartite_boundary(),
            edge_dim: self.edge_features.cols(),
            num_classes: self.num_classes(),
            task: match self.task {
                Task::LinkPrediction => "link".into(),
                Task::EdgeClassification => "class".into(),
            },
        };
        let header_json = serde_json::to_string(&header)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        writeln!(w, "{header_json}")?;

        let mut buf = BytesMut::new();
        for e in self.graph.events() {
            buf.put_u32_le(e.src);
            buf.put_u32_le(e.dst);
            buf.put_f32_le(e.t);
            buf.put_u32_le(e.eid);
        }
        put_matrix(&mut buf, &self.edge_features);
        match &self.labels {
            Some(l) => {
                buf.put_u8(1);
                put_matrix(&mut buf, l);
            }
            None => buf.put_u8(0),
        }
        w.write_all(&buf)
    }

    /// Deserializes a dataset produced by [`Dataset::save`].
    pub fn load(r: &mut impl Read) -> io::Result<Dataset> {
        // Header line.
        let mut header_bytes = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            r.read_exact(&mut byte)?;
            if byte[0] == b'\n' {
                break;
            }
            header_bytes.push(byte[0]);
        }
        let header: Header = serde_json::from_slice(&header_bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;

        let mut rest = Vec::new();
        r.read_to_end(&mut rest)?;
        let mut buf = Bytes::from(rest);

        if buf.remaining() < byte_len(header.num_events, 16, "event log")? {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "event log"));
        }
        let mut events = Vec::with_capacity(header.num_events);
        for _ in 0..header.num_events {
            events.push(Event {
                src: buf.get_u32_le(),
                dst: buf.get_u32_le(),
                t: buf.get_f32_le(),
                eid: buf.get_u32_le(),
            });
        }
        let mut graph = TemporalGraph::new(header.num_nodes, events);
        if let Some(b) = header.bipartite_boundary {
            graph = graph.with_bipartite_boundary(b);
        }
        let edge_features = get_matrix(&mut buf)?;
        if buf.remaining() < 1 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "label flag"));
        }
        let labels = if buf.get_u8() == 1 {
            Some(get_matrix(&mut buf)?)
        } else {
            None
        };
        let task = match header.task.as_str() {
            "link" => Task::LinkPrediction,
            "class" => Task::EdgeClassification,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown task {other}"),
                ))
            }
        };
        let d = Dataset {
            name: header.name,
            graph,
            edge_features,
            labels,
            task,
        };
        d.validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn roundtrip_link_dataset() -> io::Result<()> {
        let d = generators::wikipedia(0.005, 33);
        let mut buf = Vec::new();
        d.save(&mut buf)?;
        let loaded = Dataset::load(&mut buf.as_slice())?;
        assert_eq!(loaded.name, d.name);
        assert_eq!(loaded.graph.events(), d.graph.events());
        assert_eq!(loaded.edge_features, d.edge_features);
        assert_eq!(
            loaded.graph.bipartite_boundary(),
            d.graph.bipartite_boundary()
        );
        assert_eq!(loaded.task, d.task);
        assert!(loaded.labels.is_none());
        Ok(())
    }

    #[test]
    fn roundtrip_classification_dataset() -> io::Result<()> {
        let d = generators::gdelt(2e-5, 34);
        let mut buf = Vec::new();
        d.save(&mut buf)?;
        let loaded = Dataset::load(&mut buf.as_slice())?;
        assert_eq!(loaded.labels, d.labels);
        assert_eq!(loaded.task, Task::EdgeClassification);
        loaded
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(())
    }

    #[test]
    fn roundtrip_zero_edge_dim() -> io::Result<()> {
        let d = generators::mooc(0.002, 35);
        let mut buf = Vec::new();
        d.save(&mut buf)?;
        let loaded = Dataset::load(&mut buf.as_slice())?;
        assert_eq!(loaded.edge_features.cols(), 0);
        assert_eq!(loaded.graph.num_events(), d.graph.num_events());
        Ok(())
    }

    #[test]
    fn truncated_input_is_rejected() -> io::Result<()> {
        let d = generators::mooc(0.002, 36);
        let mut buf = Vec::new();
        d.save(&mut buf)?;
        let truncated = &buf[..buf.len() / 2];
        assert!(Dataset::load(&mut &truncated[..]).is_err());
        Ok(())
    }

    #[test]
    fn scalar_frames_roundtrip_and_reject_truncation() -> io::Result<()> {
        let mut buf = BytesMut::new();
        put_f32s(&mut buf, &[1.5, -2.0]);
        put_u64s(&mut buf, &[7, u64::MAX]);
        put_u32s(&mut buf, &[3, 4, 5]);
        let full: Vec<u8> = buf.to_vec();
        let mut b = Bytes::from(full.clone());
        assert_eq!(get_f32s(&mut b, "f")?, vec![1.5, -2.0]);
        assert_eq!(get_u64s(&mut b, "u")?, vec![7, u64::MAX]);
        assert_eq!(get_u32s(&mut b, "v")?, vec![3, 4, 5]);
        assert_eq!(b.remaining(), 0);
        let mut cut = Bytes::from(full[..full.len() - 1].to_vec());
        assert!(get_f32s(&mut cut, "f")
            .and_then(|_| get_u64s(&mut cut, "u"))
            .and_then(|_| get_u32s(&mut cut, "v"))
            .is_err());
        Ok(())
    }

    /// Asserts that decoding `frame` fails with `InvalidData` (a
    /// length whose byte size wraps `usize`) rather than panicking.
    fn assert_overflow<T: std::fmt::Debug>(
        frame: &[u8],
        decode: impl FnOnce(&mut Bytes) -> io::Result<T>,
    ) {
        let mut b = Bytes::from(frame.to_vec());
        let err = decode(&mut b).expect_err("overflowing length must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn overflowing_matrix_shape_is_refused() {
        let mut buf = BytesMut::new();
        buf.put_u64_le(1 << 62);
        buf.put_u64_le(1);
        assert_overflow(&buf, get_matrix);
    }

    #[test]
    fn overflowing_f32_length_is_refused() {
        let mut buf = BytesMut::new();
        buf.put_u64_le(1 << 62);
        assert_overflow(&buf, |b| get_f32s(b, "f"));
    }

    #[test]
    fn overflowing_u64_length_is_refused() {
        let mut buf = BytesMut::new();
        buf.put_u64_le(1 << 61);
        assert_overflow(&buf, |b| get_u64s(b, "u"));
    }

    #[test]
    fn overflowing_u32_length_is_refused() {
        let mut buf = BytesMut::new();
        buf.put_u64_le(1 << 62);
        assert_overflow(&buf, |b| get_u32s(b, "v"));
    }

    #[test]
    fn overflowing_event_count_is_refused() {
        let d = generators::mooc(0.002, 37);
        let mut buf = Vec::new();
        d.save(&mut buf).unwrap();
        let newline = buf.iter().position(|&c| c == b'\n').unwrap();
        let header = std::str::from_utf8(&buf[..newline]).unwrap();
        let count = format!("\"num_events\":{}", d.graph.num_events());
        assert!(header.contains(&count), "{header}");
        let crafted = header.replace(&count, &format!("\"num_events\":{}", 1u64 << 60));
        let mut file = crafted.into_bytes();
        file.extend_from_slice(&buf[newline..]);
        let err = Dataset::load(&mut file.as_slice()).expect_err("overflowing count");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn garbage_header_is_rejected() {
        let garbage = b"not json\nrest";
        assert!(Dataset::load(&mut &garbage[..]).is_err());
    }
}
