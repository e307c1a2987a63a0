//! Term dictionaries mapping RDF terms (URIs / literals) to dense ids.
//!
//! LMKG uses a *single* node id space shared by subjects and objects
//! (paper §V-A1: "there is only a single node matrix and not two separate
//! ones"), plus a separate predicate id space. Dense ids are what every
//! encoding (the binary term codec, SG, the ResMADE's embeddings) operates
//! on.

use crate::fxhash::FxHashMap;
use std::fmt;

/// Identifier of a graph node (subject or object) in the shared node space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifier of a predicate (edge label).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PredId(pub u32);

impl NodeId {
    /// The raw index, usable for array addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl PredId {
    /// The raw index, usable for array addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for PredId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// An interning dictionary: string term ⇄ dense `u32` id.
///
/// Ids are assigned in first-seen order starting from 0, so a dictionary with
/// `n` terms uses exactly the id range `0..n` — the property the binary
/// codec and the embedding tables rely on.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    terms: Vec<Box<str>>,
    ids: FxHashMap<Box<str>, u32>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty dictionary with capacity for `n` terms.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            terms: Vec::with_capacity(n),
            ids: FxHashMap::with_capacity_and_hasher(n, Default::default()),
        }
    }

    /// Interns `term`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, term: &str) -> u32 {
        if let Some(&id) = self.ids.get(term) {
            return id;
        }
        let id = u32::try_from(self.terms.len()).expect("dictionary overflow: more than u32::MAX terms");
        let boxed: Box<str> = term.into();
        self.terms.push(boxed.clone());
        self.ids.insert(boxed, id);
        id
    }

    /// Looks up the id of `term` without interning.
    pub fn get(&self, term: &str) -> Option<u32> {
        self.ids.get(term).copied()
    }

    /// Resolves an id back to its term. Panics on out-of-range ids.
    pub fn resolve(&self, id: u32) -> &str {
        &self.terms[id as usize]
    }

    /// Resolves an id back to its term, if in range.
    pub fn try_resolve(&self, id: u32) -> Option<&str> {
        self.terms.get(id as usize).map(|s| &**s)
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.terms.iter().enumerate().map(|(i, t)| (i as u32, &**t))
    }

    /// Approximate heap memory used by the dictionary, in bytes.
    pub fn heap_bytes(&self) -> usize {
        let strings: usize = self.terms.iter().map(|t| t.len()).sum();
        // Each term is stored twice (vec + map key); map entries carry ~16B overhead.
        2 * strings + self.terms.len() * (std::mem::size_of::<Box<str>>() * 2 + 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_assigns_dense_ids_in_order() {
        let mut d = Dictionary::new();
        assert_eq!(d.intern("a"), 0);
        assert_eq!(d.intern("b"), 1);
        assert_eq!(d.intern("c"), 2);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern("x");
        assert_eq!(d.intern("x"), a);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn resolve_roundtrip() {
        let mut d = Dictionary::new();
        let terms = ["http://example.org/s", "\"literal\"", "ex:p"];
        let ids: Vec<u32> = terms.iter().map(|t| d.intern(t)).collect();
        for (t, id) in terms.iter().zip(ids) {
            assert_eq!(d.resolve(id), *t);
            assert_eq!(d.get(t), Some(id));
        }
    }

    #[test]
    fn get_missing_is_none() {
        let d = Dictionary::new();
        assert_eq!(d.get("nope"), None);
        assert_eq!(d.try_resolve(0), None);
    }

    #[test]
    fn iter_in_id_order() {
        let mut d = Dictionary::new();
        d.intern("z");
        d.intern("y");
        let collected: Vec<_> = d.iter().map(|(i, t)| (i, t.to_string())).collect();
        assert_eq!(collected, vec![(0, "z".to_string()), (1, "y".to_string())]);
    }
}
