#![warn(missing_docs)]
//! Yield-optimization-as-a-service: a std-only HTTP/1.1 job server over the
//! MOHECO campaign engine pool.
//!
//! The service accepts scenario×algo×seed job submissions as flat JSON
//! ([`moheco_bench::JobSpec`] — the same type `moheco-campaign` runs), queues
//! them FIFO behind a bounded queue (429 on overflow, never a silent drop),
//! executes them on a fixed pool of worker threads against a shared
//! tenant-partitioned [`moheco_bench::EnginePool`] (the pool
//! `moheco-campaign` runs on too), and streams each job's JSONL
//! rows back live via chunked transfer. Jobs are identified by their spec
//! fingerprint, so a killed job resubmitted to a fresh server over the same
//! data directory resumes from the rows already on disk — byte-identically,
//! via the exact `.spec` sidecar protocol the campaign runner uses.
//!
//! The workers wait in one place: the job [`Registry`]'s mutex and condvar,
//! which also hold every running job's [`moheco_bench::ExecutionCore`]. A
//! worker drives the job it dequeued and, with none, opens the next queued
//! job or runs one cell of a running job; cells run outside the lock.
//!
//! Everything is `std`: `TcpListener`, hand-rolled HTTP parsing
//! ([`http`]), one `Mutex`/`Condvar` registry. The build environment is
//! offline, so there is no tokio, hyper, or serde — and at this service's
//! scale (long-running simulation jobs, not microsecond request churn)
//! blocking threads are the simpler and entirely adequate model.

pub mod client;
pub mod http;
pub mod jobs;
pub mod server;

pub use client::{request, request_observed, Response};
pub use jobs::{job_path, JobRecord, JobState, Registry, ServiceCounters, Submit};
pub use server::{Server, ServerConfig};
