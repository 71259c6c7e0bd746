//! String interning for report site tables.
//!
//! A race report names each shared site once: [`SiteInterner`] stores
//! each distinct string once and hands it back as a dense [`SiteId`], so
//! findings refer to sites by table index.
//!
//! Interning is append-only: an id, once handed out, resolves to the same
//! string for the interner's whole lifetime.

use std::collections::HashMap;

/// A dense handle to an interned string (see [`SiteInterner`]).
///
/// Ids are only meaningful relative to the interner that produced them;
/// they are *not* stable across processes and never persisted — codecs
/// materialize the string form.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u32);

/// An append-only string table handing out dense [`SiteId`]s.
///
/// # Examples
///
/// ```
/// use nodefz_trace::SiteInterner;
///
/// let mut t = SiteInterner::new();
/// let a = t.intern("lost # of # jobs");
/// let b = t.intern("lost # of # jobs");
/// assert_eq!(a, b);
/// assert_eq!(t.resolve(a), "lost # of # jobs");
/// ```
#[derive(Clone, Debug, Default)]
pub struct SiteInterner {
    ids: HashMap<String, SiteId>,
    names: Vec<String>,
}

impl SiteInterner {
    /// Creates an empty interner.
    pub fn new() -> SiteInterner {
        SiteInterner::default()
    }

    /// Interns `s` exactly as given; returns its id.
    ///
    /// The first call for a given string copies it; every later call is a
    /// hash lookup with no allocation.
    pub fn intern(&mut self, s: &str) -> SiteId {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = SiteId(u32::try_from(self.names.len()).expect("interner overflow"));
        self.ids.insert(s.to_string(), id);
        self.names.push(s.to_string());
        id
    }

    /// The string an id resolves to.
    ///
    /// # Panics
    ///
    /// Panics if `id` was produced by a different interner (out of range).
    pub fn resolve(&self, id: SiteId) -> &str {
        &self.names[id.0 as usize]
    }

    /// The id `s` already interned to, if any. Never allocates.
    pub fn lookup(&self, s: &str) -> Option<SiteId> {
        self.ids.get(s).copied()
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_string_same_id() {
        let mut t = SiteInterner::new();
        let a = t.intern("alpha");
        let b = t.intern("beta");
        assert_ne!(a, b);
        assert_eq!(t.intern("alpha"), a);
        assert_eq!(t.intern("beta"), b);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut t = SiteInterner::new();
        let id = t.intern("lost # of # jobs");
        assert_eq!(t.resolve(id), "lost # of # jobs");
        assert_eq!(t.lookup("lost # of # jobs"), Some(id));
        assert_eq!(t.lookup("never seen"), None);
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let mut t = SiteInterner::new();
        let ids: Vec<SiteId> = (0..100).map(|i| t.intern(&format!("site-{i}"))).collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.0 as usize, i);
            assert_eq!(t.resolve(*id), format!("site-{i}"));
        }
        assert_eq!(t.len(), 100);
        assert!(!t.is_empty());
        assert!(SiteInterner::new().is_empty());
    }
}
