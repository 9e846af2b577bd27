//! Multi-session serving over the Relax VM.
//!
//! The paper's runtime story ends with one VM executing one program; a
//! serving deployment runs *many sessions of the same program* at once,
//! and keeps running them when workers fail. This crate supplies the
//! missing layer:
//!
//! - **[`ServeEngine`]** — owns one immutable [`relax_vm::Executable`]
//!   and a fixed pool of worker threads, each with a private
//!   [`relax_vm::Vm`] built from shared read-only parts
//!   ([`relax_vm::Vm::from_parts`]).
//! - **Bounded request queue** — one `Mutex<VecDeque>` and one
//!   `Condvar`; submissions beyond capacity are rejected with
//!   [`ServeError::QueueFull`] (backpressure), never buffered
//!   unboundedly.
//! - **Deadlines** — requests still queued past their deadline are shed
//!   with [`ServeError::DeadlineExceeded`] instead of executing late.
//! - **Shape batching** — the dequeue path groups queued requests whose
//!   arguments have identical concrete shapes, so one compiled kernel
//!   plan serves the whole batch.
//! - **Shared plan cache** — all workers share one
//!   [`relax_vm::SharedPlanCache`]: a shape specialized by any worker is
//!   a cache hit for every other.
//! - **Self-healing** — worker panics are contained at the worker loop
//!   and a supervisor thread respawns fresh VMs into failed slots (up
//!   to a restart budget, then quarantine); wedged workers are detected
//!   by heartbeat and replaced. In-flight requests on a lost worker
//!   resolve as [`ServeError::WorkerLost`] — a [`Ticket`] never hangs.
//! - **Retry with budgets** — an optional [`RetryPolicy`] re-enqueues
//!   transient failures (lost workers, overload refusals, kernel
//!   faults) with exponential backoff, bounded by an attempt budget and
//!   the request's own deadline.
//! - **Overload control** — an optional [`OverloadPolicy`] adds
//!   queue-depth watermarks: accept, then shed-lowest-deadline, then
//!   reject-new ([`AdmissionLevel`]).
//! - **Session serving** — [`SessionManager`] layers *stateful*
//!   generation sessions on top: each session owns a paged KV cache on
//!   a shared [`relax_vm::KvPagePool`], and a continuous-batching
//!   scheduler admits and retires sessions between decode iterations,
//!   interleaves prefill with decode, rolls failed steps back to their
//!   pre-step cache lengths, and evicts the earliest-deadline session
//!   under page-pool pressure.
//! - **Chaos harness** — [`chaos`] drives a workload under seeded
//!   random fault schedules and checks the engine's robustness
//!   invariants (typed resolution, bitwise-correct survivors,
//!   availability).
//! - **Telemetry** — [`EngineStats`] (queue depth, admission counters,
//!   retry/restart/quarantine counts, p50/p95/p99 latency from a
//!   bounded reservoir, aggregate cache hit rate) plus per-incarnation
//!   [`WorkerReport`]s at shutdown.
//!
//! ```
//! use relax_serve::{ServeConfig, ServeEngine};
//! # use relax_vm::{Executable, Instr, Value, VmFunction};
//! # let mut exec = Executable::default();
//! # exec.funcs.insert("id".into(), VmFunction {
//! #     name: "id".into(), num_params: 1, num_regs: 1,
//! #     instrs: vec![Instr::Ret { src: 0 }],
//! # });
//! let engine = ServeEngine::new(exec, ServeConfig::default());
//! let ticket = engine.submit("id", &[Value::Shape(vec![1])]).unwrap();
//! assert_eq!(ticket.wait().unwrap().as_shape(), Some(&[1i64][..]));
//! let report = engine.shutdown();
//! assert_eq!(report.stats.completed, 1);
//! ```

#![forbid(unsafe_code)]

pub mod chaos;
mod engine;
mod queue;
mod session;
mod supervisor;
mod telemetry;

pub use engine::{
    AdmissionLevel, OverloadPolicy, RetryOn, RetryPolicy, ServeConfig, ServeEngine, ServeError,
    Ticket,
};
pub use session::{
    SessionConfig, SessionError, SessionManager, SessionModelSpec, SessionOutput, SessionRequest,
    SessionStats, SessionTicket, SpeculativeSpec,
};
pub use telemetry::{EngineReport, EngineStats, LatencySummary, WorkerExit, WorkerReport};
