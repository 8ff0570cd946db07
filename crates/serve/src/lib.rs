//! # ants-serve — the content-addressed workload service
//!
//! Every report in this workspace is a pure function of (spec, seed,
//! commit): byte-identical across threads, granularities, chunk sizes,
//! and schedulers. That contract makes results *content-addressable* —
//! simulate once, cache by meaning, serve forever. This crate is the
//! serving layer:
//!
//! * [`Server`] — a local TCP daemon speaking newline-delimited JSON
//!   (one request line in, a stream of event lines out; see
//!   [`protocol`]). Workload specs are canonicalized at the *plan*
//!   level ([`ants_workload::WorkloadPlan::cache_descriptor`]), so two
//!   spellings of the same workload — reordered keys, comments,
//!   symbolic vs resolved strategy arguments — share one cache entry.
//! * [`cache`] — one directory per entry, each doubling as a `trend
//!   --record` snapshot (`ants trend history <cache>` works directly on
//!   the cache root). Hits replay the stored response byte for byte
//!   without touching the sweep pool; misses run on the shared pool,
//!   stream each cell's row the moment it exists, and persist
//!   atomically.
//! * **Gate mode** — a `gate` request re-resolves the spec, then diffs
//!   the result against the newest other cache entry for the same
//!   workload under [`ants_bench::GateThresholds`]; CI turns a failed
//!   gate into a nonzero exit via `ants query gate`.
//!
//! The CLI front ends are `ants serve` (daemon) and `ants query`
//! (client); [`client`] holds the plumbing they share with tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;

pub use cache::{cache_key, Entry};
pub use client::{discover_addr, request_lines, request_streamed};
pub use protocol::{Op, Request, Stats};
pub use server::{ServeOptions, Server};
