//! # tass-service — `tassd`, the resident scan-campaign service
//!
//! Batch experiments answer "what does strategy X score on source Y";
//! operating TASS as infrastructure asks a different question: many
//! tenants submitting campaigns against shared ground-truth sources,
//! with fairness, quotas, and restarts that don't lose work. This crate
//! is that daemon:
//!
//! * [`service`] — the core: per-tenant FIFO queues dispatched
//!   round-robin over a worker pool, token-bucket submission rates and
//!   pending-job quotas, and graceful shutdown that either **drains** or
//!   **checkpoints** (unfinished campaigns persist at a month boundary
//!   and resume byte-identical after restart, via
//!   [`tass_core::run_campaign_checkpointed`]);
//! * [`api`] — the JSON HTTP surface (`/v1/campaigns`, `/v1/sources`,
//!   `/v1/healthz`, and the chunked `/v1/campaigns/{id}/results/stream`)
//!   with a typed error vocabulary;
//! * [`httpd`] — a hand-rolled non-blocking HTTP/1.1 server: a small
//!   pool of epoll event loops driving per-connection state machines
//!   (the build environment has no async stack; the router is shaped
//!   like axum's so the API layer would port directly);
//! * [`client`] — the minimal blocking client the tests, the load bench
//!   and the CI smoke job use;
//! * [`sources`] — `NAME=SPEC` definitions for `tass-select serve
//!   --source`;
//! * [`signal`] — SIGINT/SIGTERM to a shutdown flag without a `libc`
//!   dependency.
//!
//! Results served over HTTP are **byte-identical** to local library
//! runs: the daemon stores `serde_json::to_string(&CampaignResult)` once
//! at completion and serves those bytes verbatim, and the result carries
//! its [`tass_core::CampaignJob`] identity (strategy spec + protocol +
//! seed) so a client can re-derive any result offline.

#![warn(missing_docs)]
// `signal` registers handlers through the C `signal` symbol and
// `httpd::sys` wraps the three epoll syscalls; everything else in the
// crate is safe code.
#![deny(unsafe_code)]

pub mod api;
pub mod client;
pub mod httpd;
pub mod service;
pub mod signal;
pub mod sources;

pub use client::HttpClient;
pub use httpd::{HttpServer, HttpdConfig, Router, StreamChunk};
pub use service::{
    JobView, ServiceConfig, ServiceCore, ServiceStats, ShutdownMode, ShutdownReport, SubmitError,
    SubmitRequest, Tassd, TenantQuota,
};
pub use sources::{add_source, add_source_with};
