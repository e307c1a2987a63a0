//! Whole-model-set snapshots: `Lmkg::save`/`Lmkg::load`.
//!
//! A snapshot captures everything the execution phase needs — the graph
//! summary, every model entry (with encoders, scalers, outlier buffers and,
//! while its weights are trainable f32, hyperparameters), and the
//! decomposition target — so
//! a server restarts from disk in milliseconds instead of retraining, and N
//! replicas can serve one trained artifact.
//!
//! Layered on the per-model formats the `lmkg-nn` crate already defines
//! (`LMKGNN1` f32 param walks, `LMKGQT1` frozen stacks, `LMKGQM1` frozen
//! ResMADEs), framed as:
//!
//! ```text
//! magic "LMKGSET1" | u32 version | summary | u32 max_covered_size
//!                  | u32 entry-count | per entry: key, u8 tag, payload
//! ```
//!
//! The entry tag is the model family plus whether its weight store is
//! frozen: 0 = LMKG-S f32, 1 = LMKG-U f32, 2 = LMKG-S int8/bf16,
//! 3 = LMKG-U int8/bf16. A frozen payload carries no training config (the
//! precision itself is the mode byte of the nested `LMKGQT1`/`LMKGQM1`).
//!
//! All integers little-endian. f32 architectures are rebuilt deterministically
//! from the persisted hyperparameters (same seed → same init → same
//! parameter visitation order), so a loaded set answers every query
//! **bitwise-identically** to the set that was saved — the property the
//! cold-start parity tests pin.
//!
//! Checksums, generations, and atomic publish live one level up in
//! `lmkg-modelstore`; this module is the pure byte format.

use crate::framework::{Lmkg, ModelEntry, ModelKey};
use crate::outliers::OutlierBuffer;
use crate::summary::GraphSummary;
use crate::supervised::{LmkgS, LmkgSConfig, QueryEncoder};
use crate::unsupervised::{LmkgU, LmkgUConfig};
use lmkg_data::sampler::SamplingStrategy;
use lmkg_encoder::{CardinalityScaler, SgEncoder};
use lmkg_nn::serialize::LoadError;
use lmkg_nn::{Made, Sequential};
use lmkg_store::{NodeId, NodeTerm, PredId, PredTerm, Query, QueryShape, TriplePattern, VarId};
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Leading bytes of every model-set snapshot.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"LMKGSET1";
const VERSION: u32 = 1;

/// Why saving or loading a model-set snapshot failed.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying stream failed (including truncation mid-value).
    Io(io::Error),
    /// The stream does not begin with the `LMKGSET1` magic.
    BadMagic,
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion(u32),
    /// A tag or count in the stream is outside its valid range.
    Corrupt(String),
    /// Restoring a parameter walk failed (architecture drift).
    Params(LoadError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            SnapshotError::BadMagic => write!(f, "bad magic: not an LMKG model-set snapshot"),
            SnapshotError::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::Params(e) => write!(f, "parameter restore failed: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Params(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<LoadError> for SnapshotError {
    fn from(e: LoadError) -> Self {
        match e {
            LoadError::Io(io) => SnapshotError::Io(io),
            other => SnapshotError::Params(other),
        }
    }
}

// ---------------------------------------------------------------------------
// Primitive (de)serializers.

fn w_u8<W: Write>(w: &mut W, v: u8) -> io::Result<()> {
    w.write_all(&[v])
}
fn w_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_f32<W: Write>(w: &mut W, v: f32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn r_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}
fn r_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}
fn r_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}
fn r_f32<R: Read>(r: &mut R) -> io::Result<f32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(f32::from_le_bytes(b))
}
fn r_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn r_usize<R: Read>(r: &mut R) -> io::Result<usize> {
    Ok(r_u64(r)? as usize)
}

fn shape_tag(shape: QueryShape) -> u8 {
    match shape {
        QueryShape::Star => 0,
        QueryShape::Chain => 1,
        QueryShape::Single => 2,
        QueryShape::Other => 3,
    }
}

fn shape_from_tag(tag: u8) -> Result<QueryShape, SnapshotError> {
    Ok(match tag {
        0 => QueryShape::Star,
        1 => QueryShape::Chain,
        2 => QueryShape::Single,
        3 => QueryShape::Other,
        other => return Err(SnapshotError::Corrupt(format!("query-shape tag {other}"))),
    })
}

fn write_query<W: Write>(w: &mut W, q: &Query) -> io::Result<()> {
    w_u32(w, q.triples.len() as u32)?;
    for t in &q.triples {
        let node = |w: &mut W, term: NodeTerm| -> io::Result<()> {
            match term {
                NodeTerm::Var(v) => {
                    w_u8(w, 0)?;
                    w_u32(w, u32::from(v.0))
                }
                NodeTerm::Bound(n) => {
                    w_u8(w, 1)?;
                    w_u32(w, n.0)
                }
            }
        };
        node(w, t.s)?;
        match t.p {
            PredTerm::Var(v) => {
                w_u8(w, 0)?;
                w_u32(w, u32::from(v.0))?;
            }
            PredTerm::Bound(p) => {
                w_u8(w, 1)?;
                w_u32(w, p.0)?;
            }
        }
        node(w, t.o)?;
    }
    Ok(())
}

fn read_query<R: Read>(r: &mut R) -> Result<Query, SnapshotError> {
    let n = r_u32(r)? as usize;
    if n > 1 << 20 {
        return Err(SnapshotError::Corrupt(format!("query of {n} triples")));
    }
    let mut triples = Vec::with_capacity(n);
    for _ in 0..n {
        let node = |r: &mut R| -> Result<NodeTerm, SnapshotError> {
            let tag = r_u8(r)?;
            let v = r_u32(r)?;
            Ok(match tag {
                0 => NodeTerm::Var(VarId(v as u16)),
                1 => NodeTerm::Bound(NodeId(v)),
                other => return Err(SnapshotError::Corrupt(format!("node-term tag {other}"))),
            })
        };
        let s = node(r)?;
        let ptag = r_u8(r)?;
        let pval = r_u32(r)?;
        let p = match ptag {
            0 => PredTerm::Var(VarId(pval as u16)),
            1 => PredTerm::Bound(PredId(pval)),
            other => return Err(SnapshotError::Corrupt(format!("pred-term tag {other}"))),
        };
        let o = node(r)?;
        triples.push(TriplePattern::new(s, p, o));
    }
    Ok(Query::new(triples))
}

fn write_outliers<W: Write>(w: &mut W, buf: &OutlierBuffer) -> io::Result<()> {
    w_u32(w, buf.capacity() as u32)?;
    let entries = buf.sorted_entries();
    w_u32(w, entries.len() as u32)?;
    for (q, card) in &entries {
        write_query(w, q)?;
        w_u64(w, *card)?;
    }
    Ok(())
}

fn read_outliers<R: Read>(r: &mut R) -> Result<OutlierBuffer, SnapshotError> {
    let capacity = r_u32(r)? as usize;
    let n = r_u32(r)? as usize;
    if n > capacity {
        return Err(SnapshotError::Corrupt(format!(
            "outlier buffer holds {n} entries over capacity {capacity}"
        )));
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let q = read_query(r)?;
        let card = r_u64(r)?;
        entries.push((q, card));
    }
    Ok(OutlierBuffer::from_entries(capacity, entries))
}

/// The encoder tag byte is always 0 (SG-Encoding), kept so the format
/// stays byte-compatible.
fn write_encoder<W: Write>(w: &mut W, enc: &QueryEncoder) -> io::Result<()> {
    let QueryEncoder::Sg(sg) = enc;
    w_u8(w, 0)?;
    w_u64(w, sg.node_domain() as u64)?;
    w_u64(w, sg.pred_domain() as u64)?;
    w_u32(w, sg.max_nodes as u32)?;
    w_u32(w, sg.max_edges as u32)
}

fn read_encoder<R: Read>(r: &mut R) -> Result<QueryEncoder, SnapshotError> {
    match r_u8(r)? {
        0 => {
            let node_domain = r_usize(r)?;
            let pred_domain = r_usize(r)?;
            let max_nodes = r_u32(r)? as usize;
            let max_edges = r_u32(r)? as usize;
            if max_nodes == 0 || max_edges == 0 {
                return Err(SnapshotError::Corrupt("zero-capacity SG encoder".into()));
            }
            Ok(QueryEncoder::Sg(SgEncoder::new(
                node_domain,
                pred_domain,
                max_nodes,
                max_edges,
            )))
        }
        other => Err(SnapshotError::Corrupt(format!("encoder tag {other}"))),
    }
}

fn write_scaler<W: Write>(w: &mut W, scaler: &CardinalityScaler) -> io::Result<()> {
    w_f64(w, scaler.min_log())?;
    w_f64(w, scaler.max_log())
}

fn read_scaler<R: Read>(r: &mut R) -> Result<CardinalityScaler, SnapshotError> {
    let min_log = r_f64(r)?;
    let max_log = r_f64(r)?;
    if !(min_log.is_finite() && max_log.is_finite() && max_log > min_log) {
        return Err(SnapshotError::Corrupt(format!("scaler bounds ({min_log}, {max_log})")));
    }
    Ok(CardinalityScaler::from_bounds(min_log, max_log))
}

/// The loss byte is always 0 (mean q-error, the one loss), kept so the
/// format stays byte-compatible.
fn write_s_config<W: Write>(w: &mut W, cfg: &LmkgSConfig) -> io::Result<()> {
    w_u32(w, cfg.hidden.len() as u32)?;
    for &h in &cfg.hidden {
        w_u32(w, h as u32)?;
    }
    w_f32(w, cfg.dropout)?;
    w_u32(w, cfg.epochs as u32)?;
    w_u32(w, cfg.batch_size as u32)?;
    w_f32(w, cfg.learning_rate)?;
    w_u8(w, 0)?;
    w_f32(w, cfg.q_error_max_exp)?;
    w_f32(w, cfg.grad_clip)?;
    w_u32(w, cfg.outlier_buffer as u32)?;
    w_u64(w, cfg.seed)
}

fn read_s_config<R: Read>(r: &mut R) -> Result<LmkgSConfig, SnapshotError> {
    let n = r_u32(r)? as usize;
    if n == 0 || n > 64 {
        return Err(SnapshotError::Corrupt(format!("{n} hidden layers")));
    }
    let mut hidden = Vec::with_capacity(n);
    for _ in 0..n {
        hidden.push(r_u32(r)? as usize);
    }
    let dropout = r_f32(r)?;
    let epochs = r_u32(r)? as usize;
    let batch_size = r_u32(r)? as usize;
    let learning_rate = r_f32(r)?;
    let loss = r_u8(r)?;
    if loss != 0 {
        return Err(SnapshotError::Corrupt(format!("loss tag {loss}")));
    }
    let q_error_max_exp = r_f32(r)?;
    let grad_clip = r_f32(r)?;
    let outlier_buffer = r_u32(r)? as usize;
    let seed = r_u64(r)?;
    Ok(LmkgSConfig {
        hidden,
        dropout,
        epochs,
        batch_size,
        learning_rate,
        q_error_max_exp,
        grad_clip,
        outlier_buffer,
        seed,
    })
}

fn write_u_config<W: Write>(w: &mut W, cfg: &LmkgUConfig) -> io::Result<()> {
    w_u32(w, cfg.hidden as u32)?;
    w_u32(w, cfg.blocks as u32)?;
    w_u32(w, cfg.embed_dim as u32)?;
    w_u32(w, cfg.epochs as u32)?;
    w_u32(w, cfg.batch_size as u32)?;
    w_f32(w, cfg.learning_rate)?;
    w_u64(w, cfg.train_samples as u64)?;
    w_u8(
        w,
        match cfg.strategy {
            SamplingStrategy::RandomWalk => 0,
            SamplingStrategy::Uniform => 1,
        },
    )?;
    w_u32(w, cfg.particles as u32)?;
    w_u64(w, cfg.max_node_domain as u64)?;
    w_u64(w, cfg.seed)
}

fn read_u_config<R: Read>(r: &mut R) -> Result<LmkgUConfig, SnapshotError> {
    let hidden = r_u32(r)? as usize;
    let blocks = r_u32(r)? as usize;
    let embed_dim = r_u32(r)? as usize;
    // The ResMADE the entry rebuilds asserts both are positive.
    if hidden == 0 || embed_dim == 0 {
        return Err(SnapshotError::Corrupt(format!(
            "LMKG-U hidden width {hidden}, embedding dimensionality {embed_dim}"
        )));
    }
    let epochs = r_u32(r)? as usize;
    let batch_size = r_u32(r)? as usize;
    let learning_rate = r_f32(r)?;
    let train_samples = r_usize(r)?;
    let strategy = match r_u8(r)? {
        0 => SamplingStrategy::RandomWalk,
        1 => SamplingStrategy::Uniform,
        other => return Err(SnapshotError::Corrupt(format!("sampling-strategy tag {other}"))),
    };
    let particles = r_u32(r)? as usize;
    let max_node_domain = r_usize(r)?;
    let seed = r_u64(r)?;
    Ok(LmkgUConfig {
        hidden,
        blocks,
        embed_dim,
        epochs,
        batch_size,
        learning_rate,
        train_samples,
        strategy,
        particles,
        max_node_domain,
        seed,
    })
}

// ---------------------------------------------------------------------------
// Per-entry payloads.

fn write_entry<W: Write>(w: &mut W, entry: &ModelEntry) -> io::Result<()> {
    match entry {
        ModelEntry::S(m) => match m.config() {
            Some(cfg) => {
                w_u8(w, 0)?;
                write_encoder(w, m.encoder())?;
                write_s_config(w, cfg)?;
                match m.scaler() {
                    Some(s) => {
                        w_u8(w, 1)?;
                        write_scaler(w, s)?;
                    }
                    None => w_u8(w, 0)?,
                }
                write_outliers(w, m.outliers())?;
                m.save_params(w)?;
            }
            None => {
                w_u8(w, 2)?;
                write_encoder(w, m.encoder())?;
                write_scaler(
                    w,
                    m.scaler().expect("a frozen LMKG-S was trained before it was quantized"),
                )?;
                write_outliers(w, m.outliers())?;
                m.model().save_quantized(w)?;
            }
        },
        ModelEntry::U(m) => match m.config() {
            Some(cfg) => {
                w_u8(w, 1)?;
                write_u_config(w, cfg)?;
                w_u8(w, shape_tag(m.shape()))?;
                w_u32(w, m.k() as u32)?;
                w_f64(w, m.n_total())?;
                let (nodes, preds) = m.vocab_sizes();
                w_u64(w, nodes as u64)?;
                w_u64(w, preds as u64)?;
                lmkg_nn::serialize::save_params(m.made(), w)?;
            }
            None => {
                w_u8(w, 3)?;
                w_u8(w, shape_tag(m.shape()))?;
                w_u32(w, m.k() as u32)?;
                w_f64(w, m.n_total())?;
                w_u32(w, m.particles() as u32)?;
                w_u64(w, m.seed())?;
                m.made().save_quantized(w)?;
            }
        },
    }
    Ok(())
}

fn read_entry<R: Read>(r: &mut R) -> Result<ModelEntry, SnapshotError> {
    match r_u8(r)? {
        0 => {
            let encoder = read_encoder(r)?;
            let cfg = read_s_config(r)?;
            let scaler = match r_u8(r)? {
                0 => None,
                1 => Some(read_scaler(r)?),
                other => return Err(SnapshotError::Corrupt(format!("scaler flag {other}"))),
            };
            let outliers = read_outliers(r)?;
            let mut model = LmkgS::new(encoder, cfg);
            model.load_params(r).map_err(|e| {
                // `LmkgS::load_params` folds the typed error into io; the
                // stream position is lost either way, so Io is faithful.
                SnapshotError::Io(e)
            })?;
            if let Some(s) = scaler {
                model.set_scaler(s);
            }
            model.set_outliers(outliers);
            Ok(ModelEntry::S(model))
        }
        1 => {
            let cfg = read_u_config(r)?;
            let shape = shape_from_tag(r_u8(r)?)?;
            if !matches!(shape, QueryShape::Star | QueryShape::Chain) {
                return Err(SnapshotError::Corrupt(format!("LMKG-U over {shape} queries")));
            }
            let k = r_u32(r)? as usize;
            if k == 0 {
                return Err(SnapshotError::Corrupt("LMKG-U tuple size 0".into()));
            }
            let n_total = r_f64(r)?;
            let node_vocab = r_usize(r)?;
            let pred_vocab = r_usize(r)?;
            let mut model = LmkgU::from_parts(cfg, shape, k, n_total, node_vocab, pred_vocab);
            model.load_made_params(r)?;
            Ok(ModelEntry::U(model))
        }
        2 => {
            let encoder = read_encoder(r)?;
            let scaler = read_scaler(r)?;
            let outliers = read_outliers(r)?;
            let model = Sequential::load_quantized(r)?;
            Ok(ModelEntry::S(LmkgS::from_frozen_parts(
                encoder, model, scaler, outliers,
            )))
        }
        3 => {
            let shape = shape_from_tag(r_u8(r)?)?;
            let k = r_u32(r)? as usize;
            let n_total = r_f64(r)?;
            let particles = r_u32(r)? as usize;
            let seed = r_u64(r)?;
            let made = Made::load_quantized(r)?;
            Ok(ModelEntry::U(LmkgU::from_frozen_parts(
                made, shape, k, n_total, particles, seed,
            )))
        }
        other => Err(SnapshotError::Corrupt(format!("model-entry tag {other}"))),
    }
}

fn write_key<W: Write>(w: &mut W, key: &ModelKey) -> io::Result<()> {
    match key.shape {
        None => w_u8(w, 0)?,
        Some(s) => w_u8(w, 1 + shape_tag(s))?,
    }
    w_u32(w, key.min_size as u32)?;
    w_u32(w, key.max_size as u32)
}

fn read_key<R: Read>(r: &mut R) -> Result<ModelKey, SnapshotError> {
    let shape = match r_u8(r)? {
        0 => None,
        tag => Some(shape_from_tag(tag - 1)?),
    };
    let min_size = r_u32(r)? as usize;
    let max_size = r_u32(r)? as usize;
    Ok(ModelKey {
        shape,
        min_size,
        max_size,
    })
}

fn write_summary<W: Write>(w: &mut W, s: &GraphSummary) -> io::Result<()> {
    w_u64(w, s.num_nodes() as u64)?;
    w_u64(w, s.num_preds() as u64)?;
    w_u64(w, s.num_triples() as u64)?;
    for vec in [s.pred_counts(), s.pred_subjects(), s.pred_objects()] {
        for &v in vec {
            w_u64(w, v)?;
        }
    }
    Ok(())
}

fn read_summary<R: Read>(r: &mut R) -> Result<GraphSummary, SnapshotError> {
    let num_nodes = r_usize(r)?;
    let num_preds = r_usize(r)?;
    let num_triples = r_usize(r)?;
    if num_preds > 1 << 28 {
        return Err(SnapshotError::Corrupt(format!("{num_preds} predicates")));
    }
    let mut vecs = Vec::with_capacity(3);
    for _ in 0..3 {
        let mut v = Vec::with_capacity(num_preds);
        for _ in 0..num_preds {
            v.push(r_u64(r)?);
        }
        vecs.push(v);
    }
    let pred_objects = vecs.pop().expect("three vectors");
    let pred_subjects = vecs.pop().expect("three vectors");
    let pred_counts = vecs.pop().expect("three vectors");
    Ok(GraphSummary::from_parts(
        num_nodes,
        num_preds,
        num_triples,
        pred_counts,
        pred_subjects,
        pred_objects,
    ))
}

impl Lmkg {
    /// Serializes the whole model set — summary, every entry, routing
    /// metadata — to `writer`. Saving is a read-only walk over frozen
    /// models, so it works on a shared (`Arc`-held, serving) framework.
    pub fn save<W: Write>(&self, writer: &mut W) -> Result<(), SnapshotError> {
        writer.write_all(SNAPSHOT_MAGIC)?;
        w_u32(writer, VERSION)?;
        write_summary(writer, self.summary())?;
        w_u32(writer, self.max_covered_size() as u32)?;
        let entries = self.entries();
        w_u32(writer, entries.len() as u32)?;
        for (key, entry) in entries {
            write_key(writer, key)?;
            write_entry(writer, entry)?;
        }
        Ok(())
    }

    /// Restores a model set saved by [`Lmkg::save`]. The result answers
    /// every query bitwise-identically to the saved set.
    pub fn load<R: Read>(reader: &mut R) -> Result<Lmkg, SnapshotError> {
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic)?;
        if &magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r_u32(reader)?;
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let summary = Arc::new(read_summary(reader)?);
        let max_covered_size = r_u32(reader)? as usize;
        let count = r_u32(reader)? as usize;
        if count > 1 << 16 {
            return Err(SnapshotError::Corrupt(format!("{count} model entries")));
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let key = read_key(reader)?;
            let entry = read_entry(reader)?;
            entries.push((key, Arc::new(entry)));
        }
        Ok(Lmkg::from_parts(entries, summary, max_covered_size))
    }

    /// Serializes into a freshly allocated buffer.
    pub fn save_to_vec(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut buf = Vec::new();
        self.save(&mut buf)?;
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::tests::{graph, quick_cfg, supervised_set, unsupervised_set};
    use crate::framework::{Grouping, ModelType};
    use lmkg_data::workload::{self, WorkloadConfig};
    use lmkg_nn::quant::QuantMode;

    fn probe_queries(g: &lmkg_store::KnowledgeGraph) -> Vec<Query> {
        let mut queries = Vec::new();
        for (shape, size) in [(QueryShape::Star, 2), (QueryShape::Chain, 2), (QueryShape::Star, 4)] {
            let wl = WorkloadConfig::test_default(shape, size, 23);
            queries.extend(workload::generate(g, &wl).into_iter().take(6).map(|lq| lq.query));
        }
        queries
    }

    fn assert_bitwise_equal(a: &Lmkg, b: &Lmkg, queries: &[Query]) {
        assert_eq!(a.model_count(), b.model_count());
        assert_eq!(
            a.estimate_query_batch(queries)
                .iter()
                .map(|e| e.to_bits())
                .collect::<Vec<_>>(),
            b.estimate_query_batch(queries)
                .iter()
                .map(|e| e.to_bits())
                .collect::<Vec<_>>(),
            "loaded set must answer bitwise-identically"
        );
    }

    /// Save → load → save over one weight store of `set`: the loaded set
    /// answers bitwise-identically, keeps its footprint, and re-saves to the
    /// exact bytes (the format is canonical: deterministic outlier order, no
    /// map iteration).
    fn assert_roundtrips_bitwise(set: &Lmkg, mode: Option<QuantMode>) {
        let quantized = mode.map(|m| set.quantized(m));
        let set = quantized.as_ref().unwrap_or(set);
        assert!(set.model_count() > 0);
        let bytes = set.save_to_vec().unwrap();
        let loaded = Lmkg::load(&mut bytes.as_slice()).unwrap();
        assert_bitwise_equal(set, &loaded, &probe_queries(graph()));
        assert_eq!(loaded.total_memory_bytes(), set.total_memory_bytes());
        assert_eq!(
            loaded.save_to_vec().unwrap(),
            bytes,
            "{mode:?}: re-save must reproduce the bytes"
        );
    }

    #[test]
    fn supervised_set_roundtrips_bitwise() {
        assert_roundtrips_bitwise(supervised_set(), None);
    }

    #[test]
    fn unsupervised_set_roundtrips_bitwise() {
        assert_roundtrips_bitwise(unsupervised_set(), None);
    }

    #[test]
    fn quantized_sets_roundtrip_bitwise() {
        for set in [supervised_set(), unsupervised_set()] {
            for mode in [QuantMode::Int8, QuantMode::Bf16] {
                assert_roundtrips_bitwise(set, Some(mode));
            }
        }
    }

    #[test]
    fn load_rejects_bad_magic_and_version() {
        let err = Lmkg::load(&mut b"NOTASNAP0000".as_slice()).unwrap_err();
        assert!(matches!(err, SnapshotError::BadMagic), "{err}");

        let mut bytes = Vec::new();
        bytes.extend_from_slice(SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        let err = Lmkg::load(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, SnapshotError::UnsupportedVersion(99)), "{err}");
    }

    #[test]
    fn load_rejects_truncation_at_every_prefix_length() {
        let bytes = supervised_set().save_to_vec().unwrap();
        // A sweep of truncation points: every prefix must fail cleanly with
        // a typed error, never panic or return a half-restored set.
        for cut in [8, 12, 40, bytes.len() / 4, bytes.len() / 2, bytes.len() - 1] {
            let err = Lmkg::load(&mut bytes[..cut].to_vec().as_slice()).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Io(_) | SnapshotError::Corrupt(_)),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    /// Where the first entry's tag byte sits in a save of a set over
    /// [`graph`]: after magic, version, summary, covered size, entry count
    /// and the first `ModelKey` (1 + 4 + 4 bytes).
    fn first_entry_tag_at() -> usize {
        8 + 4 + (3 + 3 * graph().num_preds()) * 8 + 4 + 4 + 9
    }

    #[test]
    fn load_rejects_corrupt_entry_tag() {
        let mut bytes = supervised_set().save_to_vec().unwrap();
        bytes[first_entry_tag_at()] = 0xEE;
        let err = Lmkg::load(&mut bytes.as_slice()).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Corrupt(_) | SnapshotError::Io(_)),
            "unexpected {err:?}"
        );
    }

    /// Zeroes the `u32` at `offset` into the config of the first (f32
    /// LMKG-U) entry of a saved [`unsupervised_set`] — checking it held
    /// `field` — and asserts the load returns `Corrupt` instead of
    /// panicking in the ResMADE the entry rebuilds.
    fn assert_zeroed_u_config_field_is_corrupt(offset: usize, field: u32) {
        let mut bytes = unsupervised_set().save_to_vec().unwrap();
        let tag = first_entry_tag_at();
        assert_eq!(bytes[tag], 1, "the first entry is an f32 LMKG-U");
        let at = tag + 1 + offset;
        assert_eq!(bytes[at..at + 4], field.to_le_bytes(), "config layout moved");
        bytes[at..at + 4].fill(0);
        let err = Lmkg::load(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "unexpected {err:?}");
    }

    #[test]
    fn load_rejects_lmkg_u_with_zero_hidden_width() {
        assert_zeroed_u_config_field_is_corrupt(0, 32);
    }

    #[test]
    fn load_rejects_lmkg_u_with_zero_embed_dim() {
        assert_zeroed_u_config_field_is_corrupt(8, 8);
    }

    #[test]
    fn eviction_converges_below_budget_and_keeps_dominant_cells() {
        let g = graph();
        let mut cfg = quick_cfg(ModelType::Supervised, Grouping::Specialized);
        cfg.sizes = vec![2, 3];
        let lmkg = Lmkg::build(g, &cfg); // 2 shapes × 2 sizes = 4 models
        assert_eq!(lmkg.model_count(), 4);

        // Star-2 dominates the workload; chain-3 is never queried.
        let usage = [
            ((QueryShape::Star, 2), 1000u64),
            ((QueryShape::Chain, 2), 50),
            ((QueryShape::Star, 3), 10),
            ((QueryShape::Chain, 3), 0),
        ];
        let sizes = lmkg.entry_sizes();
        let largest = sizes.iter().map(|&(_, b)| b).max().unwrap();
        // A budget that forces dropping some but not all models.
        let budget = lmkg.total_memory_bytes() - largest / 2;
        let (evicted_set, dropped) = lmkg.evict_to_budget(budget, &usage);
        assert!(dropped >= 1, "budget under total must evict");
        assert!(
            evicted_set.total_memory_bytes() <= budget,
            "{} > budget {budget}",
            evicted_set.total_memory_bytes()
        );
        // The dominant cell survives and answers bitwise-identically.
        assert!(evicted_set.covers(QueryShape::Star, 2));
        let wl = WorkloadConfig::test_default(QueryShape::Star, 2, 23);
        let queries: Vec<Query> = workload::generate(g, &wl)
            .into_iter()
            .take(8)
            .map(|lq| lq.query)
            .collect();
        assert_eq!(
            lmkg.estimate_query_batch(&queries)
                .iter()
                .map(|e| e.to_bits())
                .collect::<Vec<_>>(),
            evicted_set
                .estimate_query_batch(&queries)
                .iter()
                .map(|e| e.to_bits())
                .collect::<Vec<_>>(),
        );
        // The zero-count cell went first.
        assert!(!evicted_set.covers(QueryShape::Chain, 3));
        // Eviction is deterministic.
        let (again, dropped_again) = lmkg.evict_to_budget(budget, &usage);
        assert_eq!(dropped, dropped_again);
        assert_eq!(again.model_count(), evicted_set.model_count());
    }

    #[test]
    fn eviction_never_drops_the_last_cover_of_a_live_cell() {
        let g = graph();
        let lmkg = supervised_set(); // one size-2 model
        let usage = [((QueryShape::Star, 2), 100u64)];
        // An impossible budget: the only model covers live traffic, so
        // eviction stops above budget instead of uncovering it.
        let (kept, dropped) = lmkg.evict_to_budget(0, &usage);
        assert_eq!(dropped, 0);
        assert!(kept.covers(QueryShape::Star, 2));

        // With no observed traffic, the same budget drops everything.
        let (emptied, dropped_all) = lmkg.evict_to_budget(0, &[]);
        assert_eq!(dropped_all, lmkg.model_count());
        assert_eq!(emptied.model_count(), 0);
        // The summary fallback still answers.
        let wl = WorkloadConfig::test_default(QueryShape::Star, 2, 5);
        let q = workload::generate(g, &wl).remove(0).query;
        assert!(emptied.estimate_query(&q) >= 1.0);
    }
}
