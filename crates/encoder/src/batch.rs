//! Batched SG encoding.
//!
//! The learned estimators consume query features as row-major matrices
//! (batch rows × feature columns). [`SgEncoder::encode_batch`] produces
//! those rows in one pass over one contiguous buffer, so the estimation
//! path never round-trips through per-query allocations.

use crate::sg::{EncodeError, SgEncoder};
use lmkg_store::Query;

impl SgEncoder {
    /// Encodes a batch, appending one row per *accepted* query to `out`
    /// and returning one status per input query, in order. Rejected
    /// queries contribute no row, so `out` grows by exactly
    /// `width() × number-of-Ok-statuses` and accepted rows stay
    /// contiguous in input order.
    pub fn encode_batch<'q, I>(&self, queries: I, out: &mut Vec<f32>) -> Vec<Result<(), EncodeError>>
    where
        I: IntoIterator<Item = &'q Query>,
    {
        let w = self.width();
        let queries = queries.into_iter();
        let mut statuses = Vec::with_capacity(queries.size_hint().0);
        for q in queries {
            let base = out.len();
            out.resize(base + w, 0.0);
            let status = self.encode(q, &mut out[base..]);
            if status.is_err() {
                out.truncate(base);
            }
            statuses.push(status);
        }
        statuses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmkg_store::{NodeId, NodeTerm, PredId, PredTerm, TriplePattern, VarId};

    fn star(k: usize) -> Query {
        Query::new(
            (0..k)
                .map(|i| {
                    TriplePattern::new(
                        NodeTerm::Var(VarId(0)),
                        PredTerm::Bound(PredId(i as u32 % 3)),
                        NodeTerm::Bound(NodeId(i as u32)),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn batch_matches_per_query_rows() {
        let enc = SgEncoder::new(16, 3, 3, 2);
        let queries = [star(1), star(2)];
        let mut rows = Vec::new();
        let statuses = enc.encode_batch(queries.iter(), &mut rows);
        assert!(statuses.iter().all(Result::is_ok));
        assert_eq!(rows.len(), 2 * enc.width());
        for (i, q) in queries.iter().enumerate() {
            let single = enc.encode_vec(q).unwrap();
            assert_eq!(&rows[i * enc.width()..(i + 1) * enc.width()], &single[..]);
        }
    }

    #[test]
    fn rejected_queries_contribute_no_rows() {
        let enc = SgEncoder::new(16, 3, 2, 1); // capacity: 2 nodes, 1 edge
        let queries = [star(1), star(3), star(1)];
        let mut rows = Vec::new();
        let statuses = enc.encode_batch(queries.iter(), &mut rows);
        assert!(statuses[0].is_ok() && statuses[1].is_err() && statuses[2].is_ok());
        assert_eq!(rows.len(), 2 * enc.width());
        let single = enc.encode_vec(&queries[2]).unwrap();
        assert_eq!(&rows[enc.width()..], &single[..]);
    }
}
