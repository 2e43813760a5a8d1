//! Content-addressed result cache over the canonical wire encoding.
//!
//! The `scanpower` workspace's experiments are deterministic functions of
//! their inputs: the same netlist, options and seed always produce the same
//! bytes, whatever the thread count or replay path. That determinism is
//! exactly what makes results *content-addressable* — a result can be
//! keyed by a hash of the canonical wire bytes of its inputs and replayed
//! from storage instead of recomputed, with no risk of serving a stale or
//! approximate answer.
//!
//! This crate provides the storage side of that contract:
//!
//! * [`CacheKey`] — a 128-bit content address, built from length-delimited
//!   input parts with [`KeyBuilder`] (a thin wrapper over
//!   [`ContentHasher`](scanpower_wire::ContentHasher)). Keys must include a
//!   domain tag and the producing crate's version so that encoding or
//!   algorithm changes invalidate old entries by construction.
//! * [`ResultCache`] — an N-way sharded in-memory store behind
//!   [`RwLock`](std::sync::RwLock) shards with least-recently-used eviction
//!   under a byte budget, plus an optional disk tier that persists entries
//!   as `<key>.wire` files and survives the process.
//! * [`CacheStats`] — hit/miss/eviction counters for observability; the
//!   suite's identity tests use them to *prove* a warm run was served from
//!   the cache instead of recomputed.
//!
//! The cache stores opaque wire-encoded byte strings ([`Wire`] messages).
//! [`ResultCache::get_decoded`] treats an entry that no longer decodes —
//! say, a disk file from an incompatible build — as a miss and drops it, so
//! corruption degrades to recomputation, never to an error.
//!
//! # Examples
//!
//! ```
//! use scanpower_cache::{CacheKey, KeyBuilder, ResultCache};
//!
//! let cache = ResultCache::in_memory();
//! let key = KeyBuilder::new("example").part(b"input bytes").finish();
//! assert_eq!(cache.get_decoded::<u64>(key), None);
//! cache.insert_encoded(key, &42u64);
//! assert_eq!(cache.get_decoded::<u64>(key), Some(42));
//! assert_eq!(cache.stats().hits, 1);
//! assert_eq!(cache.stats().misses, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod key;
mod store;

pub use key::{CacheKey, KeyBuilder};
pub use store::{CacheConfig, CacheStats, ResultCache};

pub use scanpower_wire::Wire;
