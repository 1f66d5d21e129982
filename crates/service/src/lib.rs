//! # pardict-service — a concurrent dictionary-serving engine
//!
//! The paper's complexity story (§3) is an *amortization* story: dictionary
//! preprocessing costs `O(d)` work once, after which every text costs `O(n)`
//! work — "preprocess once, match many". A one-shot CLI can't exhibit that;
//! a long-running service is the setting where it pays off. This crate is
//! that setting:
//!
//! * [`registry::Registry`] — named, versioned dictionaries with atomic
//!   hot-swap (in-flight requests keep the version they resolved; every
//!   reply names the version it was computed against) and a content-hash
//!   preprocessing cache so republishing identical patterns is free.
//! * [`engine::Engine`] — a bounded submission queue and worker pool that
//!   drains requests in batches onto one [`pardict_pram::Pram::par()`] per
//!   batch, attributing each request's exact ledger [`pardict_pram::Cost`]
//!   via `metered` and returning it in [`types::ResponseMeta`].
//! * Admission control — explicit [`types::ServiceError::Overloaded`]
//!   rejections when the queue is full, per-request deadlines, and a
//!   sequential Aho–Corasick fallback lane for texts too small to amortize
//!   the parallel constant factors.
//! * [`metrics::Metrics`] — lock-free counters and log₂ histograms
//!   (latency, ledger work/depth) with a plain-text report.
//! * [`front::Front`] — the one `std::net` TCP front end speaking the
//!   length-prefixed [`wire`] protocol (no external dependencies) in
//!   front of any [`front::Handler`]; [`server::Server`] is
//!   `Front<Engine>` and [`server::Client`] its blocking client; and
//!   [`selftest::run`] driving the whole stack with a seeded mixed
//!   workload including a mid-run hot swap.

#![warn(missing_docs)]

pub mod engine;
pub mod front;
pub mod metrics;
pub mod registry;
pub mod selftest;
pub mod server;
pub mod types;
pub mod wire;

pub use engine::{Engine, EngineConfig, Ticket};
pub use front::{Front, Handler};
pub use metrics::{HistogramSnapshot, Metrics, MetricsSnapshot, OpSnapshot};
pub use registry::{DictVersion, PublishOutcome, Registry};
pub use server::{Client, ClientConfig, Server};
pub use types::{
    Hit, Lane, OpKind, OpRequest, Reply, Request, Response, ResponseMeta, ServiceError,
};
