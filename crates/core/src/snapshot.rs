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
//! All integers little-endian. Loading reads a byte slice through
//! [`lmkg_nn::bytes`], and checks every size it reads against the bytes left
//! before allocating for it: a count of vectors, entries or triples, a
//! weight matrix's `rows × cols`, and the parameter count of a network
//! rebuilt from a stored config. A size that cannot fit is `Corrupt` before
//! anything is allocated for it. f32 architectures are rebuilt deterministically
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
use crate::unsupervised::{made_config, tuple_spaces, LmkgU, LmkgUConfig, MAX_PARTICLES};
use lmkg_data::sampler::SamplingStrategy;
use lmkg_encoder::{CardinalityScaler, SgEncoder};
use lmkg_nn::bytes;
use lmkg_nn::serialize::LoadError;
use lmkg_nn::{Made, Sequential};
use lmkg_store::{NodeId, NodeTerm, PredId, PredTerm, Query, QueryShape, TriplePattern, VarId};
use std::fmt;
use std::io::{self, Write};
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
    /// A tag, count or size in the stream is outside its valid range
    /// (including every `InvalidData` from the nested formats).
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
        match e.kind() {
            io::ErrorKind::InvalidData => SnapshotError::Corrupt(e.to_string()),
            _ => SnapshotError::Io(e),
        }
    }
}

impl From<LoadError> for SnapshotError {
    fn from(e: LoadError) -> Self {
        match e {
            LoadError::Io(io) => io.into(),
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

fn read_query(r: &mut &[u8]) -> Result<Query, SnapshotError> {
    let n = bytes::u32(r)? as usize;
    // Three terms of a tag byte and a u32 each.
    let n = bytes::len(r, n, 15)?;
    let var = |v: u32| {
        u16::try_from(v)
            .map(VarId)
            .map_err(|_| SnapshotError::Corrupt(format!("variable id {v}")))
    };
    let mut triples = Vec::with_capacity(n);
    for _ in 0..n {
        let node = |r: &mut &[u8]| -> Result<NodeTerm, SnapshotError> {
            let tag = bytes::u8(r)?;
            let v = bytes::u32(r)?;
            Ok(match tag {
                0 => NodeTerm::Var(var(v)?),
                1 => NodeTerm::Bound(NodeId(v)),
                other => return Err(SnapshotError::Corrupt(format!("node-term tag {other}"))),
            })
        };
        let s = node(r)?;
        let ptag = bytes::u8(r)?;
        let pval = bytes::u32(r)?;
        let p = match ptag {
            0 => PredTerm::Var(var(pval)?),
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

fn read_outliers(r: &mut &[u8]) -> Result<OutlierBuffer, SnapshotError> {
    let capacity = bytes::u32(r)? as usize;
    let n = bytes::u32(r)? as usize;
    // An empty query and its cardinality.
    let n = bytes::len(r, n, 12)?;
    if n > capacity {
        return Err(SnapshotError::Corrupt(format!(
            "outlier buffer holds {n} entries over capacity {capacity}"
        )));
    }
    let entries = (0..n).map(|_| Ok((read_query(r)?, bytes::u64(r)?)));
    let entries = entries.collect::<Result<_, SnapshotError>>()?;
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

fn read_encoder(r: &mut &[u8]) -> Result<QueryEncoder, SnapshotError> {
    match bytes::u8(r)? {
        0 => {
            let node_domain = bytes::u64(r)? as usize;
            let pred_domain = bytes::u64(r)? as usize;
            let max_nodes = bytes::u32(r)? as usize;
            let max_edges = bytes::u32(r)? as usize;
            if max_nodes == 0 || max_edges == 0 {
                return Err(SnapshotError::Corrupt("zero-capacity SG encoder".into()));
            }
            let encoder = QueryEncoder::Sg(SgEncoder::new(node_domain, pred_domain, max_nodes, max_edges));
            // Every later `width()` on this encoder is then safe.
            if encoder.checked_width().is_none() {
                return Err(SnapshotError::Corrupt(format!(
                    "SG encoder of {max_nodes} nodes × {max_edges} edges"
                )));
            }
            Ok(encoder)
        }
        other => Err(SnapshotError::Corrupt(format!("encoder tag {other}"))),
    }
}

fn write_scaler<W: Write>(w: &mut W, scaler: &CardinalityScaler) -> io::Result<()> {
    w_f64(w, scaler.min_log())?;
    w_f64(w, scaler.max_log())
}

fn read_scaler(r: &mut &[u8]) -> Result<CardinalityScaler, SnapshotError> {
    let min_log = bytes::f64(r)?;
    let max_log = bytes::f64(r)?;
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

fn read_s_config(r: &mut &[u8]) -> Result<LmkgSConfig, SnapshotError> {
    let n = bytes::u32(r)? as usize;
    if n == 0 || n > lmkg_nn::layers::MAX_HIDDEN_LAYERS {
        return Err(SnapshotError::Corrupt(format!("{n} hidden layers")));
    }
    let hidden = (0..n).map(|_| Ok(bytes::u32(r)? as usize)).collect::<io::Result<_>>()?;
    let dropout = bytes::f32(r)?;
    if !(0.0..1.0).contains(&dropout) {
        return Err(SnapshotError::Corrupt(format!("dropout {dropout}")));
    }
    let epochs = bytes::u32(r)? as usize;
    let batch_size = bytes::u32(r)? as usize;
    let learning_rate = bytes::f32(r)?;
    let loss = bytes::u8(r)?;
    if loss != 0 {
        return Err(SnapshotError::Corrupt(format!("loss tag {loss}")));
    }
    let q_error_max_exp = bytes::f32(r)?;
    let grad_clip = bytes::f32(r)?;
    let outlier_buffer = bytes::u32(r)? as usize;
    let seed = bytes::u64(r)?;
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

fn read_u_config(r: &mut &[u8]) -> Result<LmkgUConfig, SnapshotError> {
    let hidden = bytes::u32(r)? as usize;
    let blocks = bytes::u32(r)? as usize;
    let embed_dim = bytes::u32(r)? as usize;
    // The ResMADE the entry rebuilds asserts both are positive.
    if hidden == 0 || embed_dim == 0 {
        return Err(SnapshotError::Corrupt(format!(
            "LMKG-U hidden width {hidden}, embedding dimensionality {embed_dim}"
        )));
    }
    let epochs = bytes::u32(r)? as usize;
    let batch_size = bytes::u32(r)? as usize;
    let learning_rate = bytes::f32(r)?;
    let train_samples = bytes::u64(r)? as usize;
    let strategy = match bytes::u8(r)? {
        0 => SamplingStrategy::RandomWalk,
        1 => SamplingStrategy::Uniform,
        other => return Err(SnapshotError::Corrupt(format!("sampling-strategy tag {other}"))),
    };
    let particles = read_particles(r)?;
    let max_node_domain = bytes::u64(r)? as usize;
    let seed = bytes::u64(r)?;
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

/// `Corrupt` unless the f32 parameters of a network about to be rebuilt
/// from a stored config (`None`: more than `usize` counts) fit in the
/// bytes left.
fn check_params(r: &[u8], count: Option<usize>, what: &str) -> Result<(), SnapshotError> {
    match count.map(|n| bytes::len(r, n, 4)) {
        Some(Ok(_)) => Ok(()),
        _ => Err(SnapshotError::Corrupt(format!(
            "{what} larger than the {} bytes left",
            r.len()
        ))),
    }
}

fn read_entry(r: &mut &[u8]) -> Result<ModelEntry, SnapshotError> {
    match bytes::u8(r)? {
        0 => {
            let encoder = read_encoder(r)?;
            let cfg = read_s_config(r)?;
            let scaler = match bytes::u8(r)? {
                0 => None,
                1 => Some(read_scaler(r)?),
                other => return Err(SnapshotError::Corrupt(format!("scaler flag {other}"))),
            };
            let outliers = read_outliers(r)?;
            check_params(r, LmkgS::param_count_for(&encoder, &cfg), "LMKG-S network")?;
            let mut model = LmkgS::new(encoder, cfg);
            model.load_params(r)?;
            if let Some(s) = scaler {
                model.set_scaler(s);
            }
            model.set_outliers(outliers);
            Ok(ModelEntry::S(model))
        }
        1 => {
            let cfg = read_u_config(r)?;
            let (shape, k) = read_u_cell(r)?;
            let n_total = bytes::f64(r)?;
            let node_vocab = bytes::u64(r)? as usize;
            let pred_vocab = bytes::u64(r)? as usize;
            check_params(r, made_config(&cfg, k, node_vocab, pred_vocab).param_count(), "ResMADE")?;
            let mut model = LmkgU::from_parts(cfg, shape, k, n_total, node_vocab, pred_vocab);
            model.load_made_params(r)?;
            Ok(ModelEntry::U(model))
        }
        2 => {
            let encoder = read_encoder(r)?;
            let scaler = read_scaler(r)?;
            let outliers = read_outliers(r)?;
            let model = Sequential::load_quantized(r)?;
            if model.io_widths() != Some((encoder.width(), 1)) {
                return Err(SnapshotError::Corrupt(format!(
                    "LMKG-S network maps {:?} for a {}-wide encoder and a 1-wide estimate",
                    model.io_widths(),
                    encoder.width()
                )));
            }
            Ok(ModelEntry::S(LmkgS::from_frozen_parts(
                encoder, model, scaler, outliers,
            )))
        }
        3 => {
            let (shape, k) = read_u_cell(r)?;
            let n_total = bytes::f64(r)?;
            let particles = read_particles(r)?;
            let seed = bytes::u64(r)?;
            let made = Made::load_quantized(r)?;
            // The length test bounds the file's `k` before `tuple_spaces`
            // allocates for it.
            let spaces = &made.config().spaces;
            if spaces.len() != 2 * k + 1 || *spaces != tuple_spaces(k) {
                return Err(SnapshotError::Corrupt(format!(
                    "ResMADE over {} positions for tuple size {k}",
                    spaces.len()
                )));
            }
            Ok(ModelEntry::U(LmkgU::from_frozen_parts(
                made, shape, k, n_total, particles, seed,
            )))
        }
        other => Err(SnapshotError::Corrupt(format!("model-entry tag {other}"))),
    }
}

/// An LMKG-U particle count, at most [`MAX_PARTICLES`].
fn read_particles(r: &mut &[u8]) -> Result<usize, SnapshotError> {
    let particles = bytes::u32(r)? as usize;
    if particles > MAX_PARTICLES {
        return Err(SnapshotError::Corrupt(format!(
            "{particles} particles, over the limit of {MAX_PARTICLES}"
        )));
    }
    Ok(particles)
}

/// The `(shape, k)` cell of an LMKG-U entry: a star or chain tuple space of
/// at least one triple. Each of the `2k + 1` positions has at least a byte
/// of weights in the ResMADE that follows, which bounds `k` before
/// `tuple_spaces` allocates for it.
fn read_u_cell(r: &mut &[u8]) -> Result<(QueryShape, usize), SnapshotError> {
    let shape = shape_from_tag(bytes::u8(r)?)?;
    if !matches!(shape, QueryShape::Star | QueryShape::Chain) {
        return Err(SnapshotError::Corrupt(format!("LMKG-U over {shape} queries")));
    }
    let k = bytes::u32(r)? as usize;
    let k = bytes::len(r, k, 2)?;
    if k == 0 {
        return Err(SnapshotError::Corrupt("LMKG-U tuple size 0".into()));
    }
    Ok((shape, k))
}

fn write_key<W: Write>(w: &mut W, key: &ModelKey) -> io::Result<()> {
    match key.shape {
        None => w_u8(w, 0)?,
        Some(s) => w_u8(w, 1 + shape_tag(s))?,
    }
    w_u32(w, key.min_size as u32)?;
    w_u32(w, key.max_size as u32)
}

fn read_key(r: &mut &[u8]) -> Result<ModelKey, SnapshotError> {
    let shape = match bytes::u8(r)? {
        0 => None,
        tag => Some(shape_from_tag(tag - 1)?),
    };
    let min_size = bytes::u32(r)? as usize;
    let max_size = bytes::u32(r)? as usize;
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

fn read_summary(r: &mut &[u8]) -> Result<GraphSummary, SnapshotError> {
    let num_nodes = bytes::u64(r)? as usize;
    let num_preds = bytes::u64(r)? as usize;
    let num_triples = bytes::u64(r)? as usize;
    // Three u64 vectors of `num_preds` each.
    let num_preds = bytes::len(r, num_preds, 24)?;
    let mut vec = || (0..num_preds).map(|_| bytes::u64(r)).collect::<io::Result<Vec<u64>>>();
    let (pred_counts, pred_subjects, pred_objects) = (vec()?, vec()?, vec()?);
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
    pub fn load(reader: &mut &[u8]) -> Result<Lmkg, SnapshotError> {
        if bytes::take(reader, SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = bytes::u32(reader)?;
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let summary = Arc::new(read_summary(reader)?);
        let max_covered_size = bytes::u32(reader)? as usize;
        let count = bytes::u32(reader)? as usize;
        // A key and an entry tag.
        let count = bytes::len(reader, count, 10)?;
        let entries = (0..count).map(|_| Ok((read_key(reader)?, Arc::new(read_entry(reader)?))));
        let entries = entries.collect::<Result<_, SnapshotError>>()?;
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

    /// Overwrites the `u32` at `offset` past the first entry's tag byte of
    /// a saved set — checking it held `field` — with `bad`, and asserts the
    /// load returns `Corrupt` instead of panicking or allocating for it.
    fn assert_patched_entry_field_is_corrupt(mut bytes: Vec<u8>, offset: usize, field: u32, bad: u32) {
        let at = first_entry_tag_at() + 1 + offset;
        assert_eq!(bytes[at..at + 4], field.to_le_bytes(), "entry layout moved");
        bytes[at..at + 4].copy_from_slice(&bad.to_le_bytes());
        let err = Lmkg::load(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "unexpected {err:?}");
    }

    /// Zeroes the `u32` at `offset` into the config of the first (f32
    /// LMKG-U) entry of a saved [`unsupervised_set`] — checking it held
    /// `field` — and asserts the load returns `Corrupt` instead of
    /// panicking in the ResMADE the entry rebuilds.
    fn assert_zeroed_u_config_field_is_corrupt(offset: usize, field: u32) {
        let bytes = unsupervised_set().save_to_vec().unwrap();
        assert_eq!(bytes[first_entry_tag_at()], 1, "the first entry is an f32 LMKG-U");
        assert_patched_entry_field_is_corrupt(bytes, offset, field, 0);
    }

    #[test]
    fn load_rejects_lmkg_u_with_zero_hidden_width() {
        assert_zeroed_u_config_field_is_corrupt(0, 32);
    }

    #[test]
    fn load_rejects_lmkg_u_with_zero_embed_dim() {
        assert_zeroed_u_config_field_is_corrupt(8, 8);
    }

    /// A particle count above [`MAX_PARTICLES`] loads as `Corrupt`, in the
    /// f32 entry's config and in the frozen entry's header alike — never
    /// as an estimator whose first estimate sizes its sampler by it.
    #[test]
    fn load_rejects_lmkg_u_with_too_many_particles() {
        let bad = MAX_PARTICLES as u32 + 1;
        let f32_set = unsupervised_set().save_to_vec().unwrap();
        assert_eq!(f32_set[first_entry_tag_at()], 1, "the first entry is an f32 LMKG-U");
        // hidden, blocks, embed_dim, epochs, batch size, learning rate,
        // train samples (u64), strategy byte, then the particles.
        assert_patched_entry_field_is_corrupt(f32_set, 33, 64, bad);
        let frozen = unsupervised_set().quantized(QuantMode::Int8).save_to_vec().unwrap();
        assert_eq!(frozen[first_entry_tag_at()], 3, "the first entry is a frozen LMKG-U");
        // Shape byte, k, n_total (f64), then the particles.
        assert_patched_entry_field_is_corrupt(frozen, 13, 64, bad);
    }

    /// A variable id past `u16` in a stored outlier query loads as
    /// `Corrupt` instead of being truncated into another variable.
    #[test]
    fn load_rejects_an_outlier_query_variable_past_u16() {
        let bytes = supervised_set().save_to_vec().unwrap();
        assert_eq!(bytes[first_entry_tag_at()], 0, "the first entry is an f32 LMKG-S");
        // The SG encoder (25 bytes), the config with one hidden layer (45),
        // the scaler (flag and two f64s), then the outlier buffer: capacity,
        // entry count and the first query's triple count, then that query's
        // subject — a tag byte and a u32.
        let outliers = 25 + 45 + 17;
        let first = first_entry_tag_at() + 1 + outliers;
        let count = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        assert!(count(first + 4) >= 1 && count(first + 8) >= 1, "entry layout moved");
        let subject = first + 12;
        assert!(bytes[subject] <= 1, "entry layout moved");
        let mut patched = bytes.clone();
        patched[subject] = 0;
        patched[subject + 1..subject + 5].copy_from_slice(&(u32::from(u16::MAX) + 1).to_le_bytes());
        let err = Lmkg::load(&mut patched.as_slice()).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "unexpected {err:?}");
    }

    /// A stored parameter shape that disagrees with the network an f32
    /// LMKG-S entry rebuilds is `Params(ShapeMismatch)`, as it is for an
    /// f32 LMKG-U entry — not an I/O error.
    #[test]
    fn load_reports_an_lmkg_s_shape_mismatch_as_params() {
        let mut bytes = supervised_set().save_to_vec().unwrap();
        let walk = bytes
            .windows(8)
            .position(|w| w == b"LMKGNN1\0")
            .expect("an f32 entry holds a parameter walk");
        // Magic and parameter count, then the first `rows, cols`: swapping
        // them keeps every byte count and breaks only the shape.
        let shape = walk + 12;
        let (rows, cols) = (bytes[shape..shape + 4].to_vec(), bytes[shape + 4..shape + 8].to_vec());
        assert_ne!(rows, cols);
        bytes[shape..shape + 4].copy_from_slice(&cols);
        bytes[shape + 4..shape + 8].copy_from_slice(&rows);
        let err = Lmkg::load(&mut bytes.as_slice()).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Params(LoadError::ShapeMismatch { index: 0, .. })),
            "unexpected {err:?}"
        );
    }

    /// A dropout outside `[0, 1)` in the config of the first (f32 LMKG-S)
    /// entry of a saved [`supervised_set`] loads as `Corrupt` instead of
    /// panicking in the `Dropout` layer the entry rebuilds.
    #[test]
    fn load_rejects_lmkg_s_with_dropout_outside_the_unit_interval() {
        let bytes = supervised_set().save_to_vec().unwrap();
        let tag = first_entry_tag_at();
        assert_eq!(bytes[tag], 0, "the first entry is an f32 LMKG-S");
        // The SG encoder (tag, two u64 domains, two u32 capacities), then
        // the config: one hidden layer of width 64, then the dropout.
        let at = tag + 1 + 25 + 8;
        assert_eq!(
            bytes[at - 8..at + 4],
            [1, 64, 0].map(u32::to_le_bytes).concat(),
            "config layout moved"
        );
        Lmkg::load(&mut bytes.as_slice()).expect("the unpatched set loads");
        for dropout in [1.5, 1.0, -0.25, f32::NAN, f32::INFINITY] {
            let mut patched = bytes.clone();
            patched[at..at + 4].copy_from_slice(&dropout.to_le_bytes());
            let err = Lmkg::load(&mut patched.as_slice()).unwrap_err();
            assert!(matches!(err, SnapshotError::Corrupt(_)), "dropout {dropout}: {err:?}");
        }
    }

    /// A frozen LMKG-U entry is held to the checks an f32 one gets: a star
    /// or chain cell, `k ≥ 1`, and a ResMADE with the `2k + 1` positions of
    /// that tuple. A patched shape or size byte loads as `Corrupt` — never
    /// as a set whose first estimate panics in a batcher worker.
    #[test]
    fn load_rejects_frozen_lmkg_u_with_a_patched_shape_or_size() {
        let bytes = unsupervised_set().quantized(QuantMode::Int8).save_to_vec().unwrap();
        let tag = first_entry_tag_at();
        assert_eq!(bytes[tag], 3, "the first entry is a frozen LMKG-U");
        let (shape_at, k_at) = (tag + 1, tag + 2);
        assert_eq!(bytes[k_at..k_at + 4], 2u32.to_le_bytes(), "entry layout moved");
        Lmkg::load(&mut bytes.as_slice()).expect("the unpatched set loads");

        let single_or_other = [shape_tag(QueryShape::Single), shape_tag(QueryShape::Other)];
        for shape in single_or_other {
            let mut patched = bytes.clone();
            patched[shape_at] = shape;
            let err = Lmkg::load(&mut patched.as_slice()).unwrap_err();
            assert!(matches!(err, SnapshotError::Corrupt(_)), "shape {shape}: {err:?}");
        }
        for k in [0u32, 1, 3, u32::MAX] {
            let mut patched = bytes.clone();
            patched[k_at..k_at + 4].copy_from_slice(&k.to_le_bytes());
            let err = Lmkg::load(&mut patched.as_slice()).unwrap_err();
            assert!(matches!(err, SnapshotError::Corrupt(_)), "k = {k}: {err:?}");
        }
    }

    /// A frozen LMKG-S entry whose network does not read the encoder's
    /// width loads as `Corrupt` instead of panicking in its first forward.
    #[test]
    fn load_rejects_frozen_lmkg_s_whose_encoder_disagrees_with_its_network() {
        let set = supervised_set();
        let (key, entry) = &set.entries()[0];
        let ModelEntry::S(m) = &**entry else {
            panic!("a supervised set holds LMKG-S entries")
        };
        let width = m.encoder().width();
        let frozen_with = |encoder: QueryEncoder| {
            let frozen = LmkgS::from_frozen_parts(
                encoder,
                m.model().quantized(QuantMode::Int8),
                *m.scaler().expect("trained"),
                m.outliers().clone(),
            );
            let parts = vec![(*key, Arc::new(ModelEntry::S(frozen)))];
            Lmkg::from_parts(parts, Arc::new(set.summary().clone()), set.max_covered_size())
                .save_to_vec()
                .unwrap()
        };
        let good = frozen_with(m.encoder().clone());
        Lmkg::load(&mut good.as_slice()).expect("a consistent frozen entry loads");

        let g = graph();
        let wider = QueryEncoder::Sg(SgEncoder::capacity_for_size(g.num_nodes(), g.num_preds(), 3));
        assert_ne!(wider.width(), width);
        let err = Lmkg::load(&mut frozen_with(wider).as_slice()).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err:?}");
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
