//! The in-memory tier of the artifact cache: finished response bodies,
//! kept per representation within one byte budget.
//!
//! A body is a pure function of its [`Representation`]: the cache
//! fingerprint (code, experiment, scale, seed, campaign and CONFIRM
//! configuration) plus the format, the `artifact=` selector and the
//! encoding. So an entry can never go stale: a different build, key or
//! representation has a different key, and clearing the disk cache
//! changes no byte an entry would produce. Only the budget decides what
//! stays. At the budget an arbitrary entry is evicted, as the context
//! pool does, and a body larger than the whole budget is served but
//! never kept.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// A finished body: its chunks exactly as the connection writes them,
/// one per selected artifact, then the gzip trailer when gzip-encoded.
pub(crate) type Body = Arc<[Arc<[u8]>]>;

/// Which representation of which cache key a body is.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Representation {
    /// [`analysis::CacheKey::fingerprint`] of the request's key.
    pub(crate) fingerprint: u64,
    /// The `format=` value as asked (`text` when absent).
    pub(crate) format: String,
    /// The `artifact=` selector, if any.
    pub(crate) artifact: Option<String>,
    /// Whether the body is gzip-encoded.
    pub(crate) gzip: bool,
}

/// Bodies keyed by representation, holding at most `budget` body bytes.
pub(crate) struct BodyMemo {
    budget: usize,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    bodies: HashMap<Representation, Body>,
    bytes: usize,
}

/// The bytes a body holds: the sum of its chunks.
fn size(body: &Body) -> usize {
    body.iter().map(|chunk| chunk.len()).sum()
}

impl BodyMemo {
    /// An empty memo that keeps at most `budget` body bytes.
    pub(crate) fn new(budget: usize) -> Self {
        BodyMemo {
            budget,
            state: Mutex::new(State::default()),
        }
    }

    /// The body kept for `key`, if any.
    pub(crate) fn get(&self, key: &Representation) -> Option<Body> {
        self.lock().bodies.get(key).cloned()
    }

    /// Keeps `body` for `key`, evicting arbitrary entries until it fits.
    /// A body larger than the budget is not kept, and a key already kept
    /// (a concurrent render of the same bytes) keeps its first body.
    pub(crate) fn insert(&self, key: Representation, body: &Body) {
        let bytes = size(body);
        if bytes > self.budget {
            return;
        }
        let mut state = self.lock();
        if state.bodies.contains_key(&key) {
            return;
        }
        while state.bytes + bytes > self.budget {
            let Some(evict) = state.bodies.keys().next().cloned() else {
                break;
            };
            if let Some(old) = state.bodies.remove(&evict) {
                state.bytes -= size(&old);
            }
        }
        state.bytes += bytes;
        state.bodies.insert(key, Arc::clone(body));
    }

    /// `(entries, body bytes)` currently kept.
    #[cfg(test)]
    pub(crate) fn resident(&self) -> (usize, usize) {
        let state = self.lock();
        (state.bodies.len(), state.bytes)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // Every update leaves the map and its byte count consistent, so
        // a panicking holder cannot leave them torn.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> Representation {
        Representation {
            fingerprint: n,
            format: "text".to_string(),
            artifact: None,
            gzip: false,
        }
    }

    fn body(chunks: &[usize]) -> Body {
        chunks.iter().map(|&len| vec![7u8; len].into()).collect()
    }

    #[test]
    fn filling_past_the_budget_keeps_resident_bytes_within_it() {
        let memo = BodyMemo::new(1000);
        for n in 0..50 {
            memo.insert(key(n), &body(&[90, 60, 20]));
            let (entries, bytes) = memo.resident();
            assert!(bytes <= 1000, "{bytes} bytes after {n} inserts");
            assert_eq!(bytes, entries * 170, "the count matches the entries");
        }
        assert_eq!(memo.resident(), (5, 850), "full up to the budget");
        // The latest body is always kept: eviction makes room for it.
        assert!(memo.get(&key(49)).is_some());
    }

    #[test]
    fn a_body_larger_than_the_budget_is_not_kept() {
        let memo = BodyMemo::new(100);
        memo.insert(key(1), &body(&[40]));
        memo.insert(key(2), &body(&[60, 41]));
        assert_eq!(memo.get(&key(2)), None);
        assert_eq!(memo.resident(), (1, 40), "nothing evicted for it");
        memo.insert(key(3), &body(&[60]));
        assert_eq!(memo.resident(), (2, 100), "exactly at the budget fits");
    }

    #[test]
    fn each_representation_is_its_own_entry() {
        let memo = BodyMemo::new(1 << 20);
        let text = key(9);
        let variants = [
            Representation {
                gzip: true,
                ..text.clone()
            },
            Representation {
                format: "csv".to_string(),
                artifact: Some("a".to_string()),
                ..text.clone()
            },
            Representation {
                artifact: Some("a".to_string()),
                ..text.clone()
            },
        ];
        memo.insert(text.clone(), &body(&[1]));
        for (n, variant) in variants.iter().enumerate() {
            assert_eq!(memo.get(variant), None);
            memo.insert(variant.clone(), &body(&[n + 2]));
        }
        assert_eq!(memo.get(&text).map(|b| size(&b)), Some(1));
        // A second insert under a kept key keeps the first body.
        memo.insert(text.clone(), &body(&[50]));
        assert_eq!(memo.get(&text).map(|b| size(&b)), Some(1));
        assert_eq!(memo.resident(), (4, 1 + 2 + 3 + 4));
    }
}
