//! The allocation service: accept loop, worker pool, and the
//! request-lifecycle state machine.
//!
//! # The one rule
//!
//! **Every request gets exactly one terminal response.** Every path out
//! of the pipeline — malformed payload, admission denial, queue shed,
//! queue-expired deadline, solver success, proven infeasibility, budget
//! exhaustion, worker panic, even server shutdown with work still
//! queued — ends in a [`Response`] with a terminal [`Status`]. The
//! chaos suite's core assertion is that this holds under fault
//! injection.
//!
//! # Pipeline
//!
//! ```text
//! frame → parse → cache lookup ──hit──────────────────────→ Solved
//!                    │ miss
//!                 admission (token bucket) ──deny──────────→ Rejected{retry_after}
//!                    │ grant (clamp steps/deadline to tenant quota)
//!                 saturated? ──yes── ladder's greedy stage ─→ Solved | BestEffort
//!                    │ no
//!                 bounded EDF queue ──shed────────────────→ Rejected{retry_after}
//!                    │ pop (worker)
//!                 deadline already passed? ──yes──────────→ TimedOut
//!                    │ no
//!                 escalation ladder under Budget ─────────→ Solved | Infeasible
//!                    │ panic / budget out                    | BestEffort | TimedOut
//!                    └─ reply-then-die: the worker answers
//!                       terminally *before* its panic
//!                       propagates, and the supervisor
//!                       respawns it
//! ```
//!
//! Fault tolerance is structural, not exceptional: workers run under a
//! supervisor that respawns them after a panic, client disconnects flip
//! the request's shared cancel flag so the solver stops burning budget
//! on an answer nobody will read, and shutdown drains the queue into
//! rejections rather than silence.

use crate::admission::{Admission, AdmissionController, TenantConfig};
use crate::cache::SolutionCache;
use crate::protocol::{
    parse_addressed, write_frame, Command, CommandKind, Frame, FrameReader, Payload, Response,
    Status,
};
use crate::queue::{Pop, Push, WorkQueue};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use tela_model::{Budget, CanonicalForm, Problem, SolveOutcome};
use tela_trace::json::{self, Value};
use tela_trace::{write_jsonl, MetricValue, Tracer};
use telamalloc::{EscalationLadder, TelaConfig};

#[cfg(feature = "fault-inject")]
use tela_model::ServerFaultPlan;

/// How the service behaves under load.
#[derive(Debug)]
pub struct ServerConfig {
    /// Solver worker threads.
    pub workers: usize,
    /// Maximum concurrent client connections. Each connection costs a
    /// thread plus up to [`crate::protocol::MAX_FRAME_LEN`] of buffer,
    /// so the cap is the flood guard that per-request admission control
    /// (which runs after the thread exists) cannot be; connections over
    /// the cap get a terminal `Rejected{retry_after}` and are closed.
    pub max_connections: usize,
    /// Work-queue capacity; beyond it, pushes shed.
    pub queue_capacity: usize,
    /// Queue depth at which *new* admitted work degrades to the greedy
    /// heuristic instead of queuing for the full ladder.
    pub degrade_watermark: usize,
    /// Solution-cache capacity (canonical forms).
    pub cache_capacity: usize,
    /// Default per-tenant limits (overridable per tenant).
    pub admission: TenantConfig,
    /// Solver configuration for the escalation ladder; its tracer also
    /// records the server's request spans. Server counts live in
    /// [`ServerStats`] whether or not a tracer is on.
    pub tela: TelaConfig,
    /// Scripted server-level faults (chaos testing only).
    #[cfg(feature = "fault-inject")]
    pub fault_plan: Option<ServerFaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_connections: 128,
            queue_capacity: 64,
            degrade_watermark: 48,
            cache_capacity: 256,
            admission: TenantConfig::default(),
            tela: TelaConfig::default(),
            #[cfg(feature = "fault-inject")]
            fault_plan: None,
        }
    }
}

/// Monotonic counters describing everything the server has done: the
/// one store of server counts, always on. Cache hits and misses live in
/// [`SolutionCache`], queue depth in the queue.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Terminal responses issued, total and by status.
    pub responses: AtomicU64,
    /// `Solved` responses.
    pub solved: AtomicU64,
    /// `Infeasible` responses.
    pub infeasible: AtomicU64,
    /// `BestEffort` responses.
    pub best_effort: AtomicU64,
    /// `Rejected` responses (admission, shed, malformed, shutdown).
    pub rejected: AtomicU64,
    /// `TimedOut` responses.
    pub timed_out: AtomicU64,
    /// Jobs evicted by queue overflow.
    pub shed: AtomicU64,
    /// Admitted requests degraded to greedy-only under saturation.
    pub degraded: AtomicU64,
    /// Worker threads respawned after a panic.
    pub worker_respawns: AtomicU64,
    /// Full escalation-ladder solves actually run.
    pub solve_calls: AtomicU64,
    /// Requests whose client vanished before the terminal reply.
    pub disconnects: AtomicU64,
    /// Connections refused at accept because `max_connections` was
    /// reached (each also counts one `Rejected` response).
    pub conn_refused: AtomicU64,
    /// Failed `accept` calls (the loop sleeps and keeps serving).
    pub accept_errors: AtomicU64,
    /// `stats`/`trace` commands answered.
    pub introspections: AtomicU64,
}

impl ServerStats {
    fn record(&self, response: &Response) {
        self.responses.fetch_add(1, Ordering::Relaxed);
        let by_status = match response.status {
            Status::Solved => &self.solved,
            Status::Infeasible => &self.infeasible,
            Status::BestEffort => &self.best_effort,
            Status::Rejected => &self.rejected,
            Status::TimedOut => &self.timed_out,
        };
        by_status.fetch_add(1, Ordering::Relaxed);
    }

    /// Sum of the per-status counters (must equal `responses`: the
    /// zero-non-terminal invariant in countable form).
    pub fn terminal_total(&self) -> u64 {
        self.solved.load(Ordering::Relaxed)
            + self.infeasible.load(Ordering::Relaxed)
            + self.best_effort.load(Ordering::Relaxed)
            + self.rejected.load(Ordering::Relaxed)
            + self.timed_out.load(Ordering::Relaxed)
    }
}

/// One admitted unit of work, owned by the queue until a worker or the
/// shutdown drain answers it.
#[derive(Debug)]
struct Job {
    id: u64,
    /// Global admission ordinal (fault plans key on it).
    #[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
    ordinal: u64,
    problem: Problem,
    form: CanonicalForm,
    max_steps: u64,
    deadline: Instant,
    /// Flipped when the requesting client disconnects.
    cancel: Arc<AtomicBool>,
    /// Present when the request opted into tracing: a fresh per-request
    /// tracer the solve runs under, whose span events ride back in the
    /// terminal response. Isolation is structural — the tracer is
    /// created for this request and shared with nobody, so tenants can
    /// never see each other's spans.
    tracer: Option<Tracer>,
    reply: mpsc::Sender<Response>,
}

/// The allocation service. Construct once, then [`Server::serve`].
#[derive(Debug)]
pub struct Server {
    config: ServerConfig,
    admission: AdmissionController,
    cache: SolutionCache,
    queue: WorkQueue<Job>,
    ladder: EscalationLadder,
    stats: ServerStats,
    ordinal: AtomicU64,
    /// Live connection-thread count, bounded by `max_connections`.
    connections: AtomicUsize,
}

/// Poll interval for shutdown/disconnect observation.
const POLL: Duration = Duration::from_millis(20);

impl Server {
    /// Builds a server from `config`; every tenant gets
    /// `config.admission` as its limits.
    pub fn new(config: ServerConfig) -> Self {
        let admission = AdmissionController::new(config.admission.clone());
        Server::with_admission(admission, config)
    }

    /// Builds a server with an explicit admission controller (for
    /// per-tenant overrides beyond the config's default).
    pub fn with_admission(admission: AdmissionController, mut config: ServerConfig) -> Self {
        config.workers = config.workers.max(1);
        config.max_connections = config.max_connections.max(1);
        Server {
            cache: SolutionCache::new(config.cache_capacity),
            queue: WorkQueue::new(config.queue_capacity),
            ladder: EscalationLadder::new(config.tela.clone()),
            stats: ServerStats::default(),
            ordinal: AtomicU64::new(0),
            connections: AtomicUsize::new(0),
            admission,
            config,
        }
    }

    /// Live counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The solution cache (for tests and bench assertions).
    pub fn cache(&self) -> &SolutionCache {
        &self.cache
    }

    /// Runs the accept loop on `listener` until `shutdown` flips, then
    /// drains the queue into terminal rejections and joins every
    /// connection and worker thread.
    pub fn serve(&self, listener: TcpListener, shutdown: &AtomicBool) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        std::thread::scope(|scope| {
            for index in 0..self.config.workers {
                scope.spawn(move || self.supervise_worker(index));
            }
            while !shutdown.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((mut stream, _peer)) => {
                        // Bound concurrency *at accept*: admission
                        // control runs per-request, after a connection
                        // thread (and its frame buffer) already exists,
                        // so a connection flood has to be refused here.
                        if self.connections.fetch_add(1, Ordering::AcqRel)
                            >= self.config.max_connections
                        {
                            self.connections.fetch_sub(1, Ordering::AcqRel);
                            self.stats.conn_refused.fetch_add(1, Ordering::Relaxed);
                            // Short write timeout: the refusal must not
                            // let a slow client stall the accept loop.
                            let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
                            self.reply(
                                &mut stream,
                                Response::rejected(
                                    0,
                                    self.retry_hint_ms(),
                                    "server at connection capacity",
                                ),
                            );
                            continue;
                        }
                        scope.spawn(move || {
                            self.handle_connection(stream, shutdown);
                            self.connections.fetch_sub(1, Ordering::AcqRel);
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        // Accept failures (fd exhaustion, transient
                        // network errors) must not kill the service.
                        self.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            }
            // Drain: everything still queued gets an honest rejection
            // instead of silence. Workers observe the closed queue and
            // exit once their in-flight job (if any) is answered.
            for job in self.queue.close() {
                let _ = job
                    .reply
                    .send(Response::rejected(job.id, 1_000, "server shutting down"));
            }
        });
        Ok(())
    }

    fn tracer(&self) -> &tela_trace::Tracer {
        &self.config.tela.tracer
    }

    // ---- worker side -----------------------------------------------

    /// Runs `worker_loop` until clean exit, respawning it (in place, on
    /// this same supervisor thread) every time it panics. Panic isolation
    /// is the contract that lets `process_job` adopt reply-then-die.
    fn supervise_worker(&self, index: usize) {
        loop {
            match catch_unwind(AssertUnwindSafe(|| self.worker_loop(index))) {
                Ok(()) => return,
                Err(_) => {
                    self.stats.worker_respawns.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    fn worker_loop(&self, _index: usize) {
        loop {
            match self.queue.pop_timeout(POLL) {
                Pop::Closed => return,
                Pop::Empty => continue,
                Pop::Item(job) => self.process_job(job),
            }
        }
    }

    /// Solves one job and sends its terminal response. On a panic —
    /// scripted or organic — the terminal response is sent *first*, then
    /// the panic resumes so the supervisor replaces this worker: the
    /// client never pays for the server's crash with silence.
    fn process_job(&self, job: Job) {
        let now = Instant::now();
        if now >= job.deadline {
            // Spent its whole deadline waiting in the queue.
            self.send(
                &job.reply,
                attach_trace(
                    job.tracer.as_ref(),
                    Response::terminal(job.id, Status::TimedOut, "deadline expired in queue"),
                ),
            );
            return;
        }
        #[cfg(feature = "fault-inject")]
        if let Some(plan) = &self.config.fault_plan {
            if plan.worker_panics_on(job.ordinal) {
                self.send(
                    &job.reply,
                    attach_trace(
                        job.tracer.as_ref(),
                        Response::terminal(
                            job.id,
                            Status::BestEffort,
                            "worker fault while solving; degraded answer",
                        ),
                    ),
                );
                panic!("fault-inject: worker panic on request {}", job.ordinal);
            }
        }
        let budget = self.budget_for(&job);
        self.stats.solve_calls.fetch_add(1, Ordering::Relaxed);
        let ladder = self.ladder_for(job.tracer.as_ref());
        let result = catch_unwind(AssertUnwindSafe(|| ladder.solve(&job.problem, &budget)));
        let response = match result {
            Ok(result) => self.answer(&job, result.outcome, result.stats.steps),
            Err(payload) => {
                self.send(
                    &job.reply,
                    attach_trace(
                        job.tracer.as_ref(),
                        Response::terminal(
                            job.id,
                            Status::BestEffort,
                            "solver panicked; degraded answer",
                        ),
                    ),
                );
                resume_unwind(payload);
            }
        };
        self.send(&job.reply, attach_trace(job.tracer.as_ref(), response));
    }

    /// The ladder a job solves on: a traced request gets its own, wired
    /// to its own tracer; everyone else shares the server's.
    fn ladder_for(&self, tracer: Option<&Tracer>) -> Cow<'_, EscalationLadder> {
        match tracer {
            Some(tracer) => Cow::Owned(EscalationLadder::new(TelaConfig {
                tracer: tracer.clone(),
                ..self.config.tela.clone()
            })),
            None => Cow::Borrowed(&self.ladder),
        }
    }

    /// The terminal response for a finished solve of `job`, for both the
    /// worker and the saturated path. A solved placement is cached
    /// before it is returned.
    fn answer(&self, job: &Job, outcome: SolveOutcome, steps: u64) -> Response {
        let (status, detail) = match outcome {
            SolveOutcome::Solved(solution) => {
                self.cache.insert(&job.form, &solution);
                return Response {
                    id: job.id,
                    status: Status::Solved,
                    addresses: Some(solution.addresses().to_vec()),
                    retry_after_ms: None,
                    detail: String::new(),
                    cache_hit: false,
                    steps,
                    trace_jsonl: None,
                };
            }
            SolveOutcome::Infeasible => (Status::Infeasible, "proven infeasible".to_string()),
            SolveOutcome::BestEffort(_) if Instant::now() >= job.deadline => {
                (Status::TimedOut, "deadline expired mid-solve".to_string())
            }
            SolveOutcome::BestEffort(_) if job.cancel.load(Ordering::Acquire) => {
                (Status::BestEffort, "cancelled by client".to_string())
            }
            SolveOutcome::BestEffort(be) => (
                Status::BestEffort,
                format!(
                    "budget exhausted at stage {:?}; {} of {} buffers placed",
                    be.stage,
                    be.partial.len(),
                    job.problem.len()
                ),
            ),
            // A greedy miss on the saturated path. The full ladder's
            // contract says these never surface from it, but a terminal
            // answer beats trusting a contract.
            SolveOutcome::GaveUp | SolveOutcome::BudgetExceeded => {
                (Status::BestEffort, "solver gave up".to_string())
            }
        };
        Response {
            steps,
            ..Response::terminal(job.id, status, detail)
        }
    }

    fn budget_for(&self, job: &Job) -> Budget {
        let budget = Budget::unlimited()
            .with_max_steps(job.max_steps)
            .with_deadline(job.deadline)
            .with_cancel(job.cancel.clone());
        #[cfg(feature = "fault-inject")]
        if let Some(plan) = &self.config.fault_plan {
            if let Some(solver_plan) = plan.solver_plan_for(job.ordinal) {
                return budget.with_fault_injector(Arc::new(solver_plan.injector()));
            }
        }
        budget
    }

    // ---- connection side -------------------------------------------

    fn handle_connection(&self, mut stream: TcpStream, shutdown: &AtomicBool) {
        let _ = stream.set_read_timeout(Some(POLL));
        let _ = stream.set_nodelay(true);
        let mut reader = FrameReader::new();
        loop {
            if shutdown.load(Ordering::Acquire) {
                return;
            }
            match reader.poll(&mut stream) {
                Ok(Frame::Payload(payload)) => self.serve_request(&mut stream, &payload),
                Ok(Frame::Eof) => return,
                Ok(Frame::Pending) => {}
                Err(_) => {
                    // Oversized or non-UTF-8 frame: the stream is no
                    // longer parseable, so answer terminally and drop it.
                    self.reply(
                        &mut stream,
                        Response::terminal(0, Status::Rejected, "unparseable frame"),
                    );
                    return;
                }
            }
        }
    }

    /// Runs one request through the pipeline and writes its terminal
    /// response (requests on one connection are served in order).
    ///
    /// Introspection commands (`{"cmd": ...}`) are dispatched before the
    /// pipeline and answered inline; everything else gets a `server.request`
    /// span whose every event carries the request id.
    fn serve_request(&self, stream: &mut TcpStream, payload: &str) {
        let request = match parse_addressed(payload) {
            Ok(Payload::Command(command)) => return self.serve_command(stream, &command),
            Ok(Payload::Solve(request)) => request,
            Err((id, e)) => {
                let tracer = self.tracer().with_field("request", id);
                let span = tracer.begin("server", "request", vec![]);
                self.reply(
                    stream,
                    Response::terminal(id, Status::Rejected, format!("malformed request: {e}")),
                );
                self.end_request(&tracer, span, "rejected");
                return;
            }
        };
        let tracer = self.tracer().with_field("request", request.id);
        let span = tracer.begin("server", "request", vec![]);
        // Opt-in per-request tracing: a fresh wall-clock tracer whose
        // span events (and only this request's) ride back in the
        // terminal response.
        let request_tracer = request
            .trace
            .then(|| Tracer::wall().with_field("request", request.id));
        let problem = match tela_model::parse_problem(&request.problem) {
            Ok(problem) => problem,
            Err(e) => {
                self.reply(
                    stream,
                    Response::terminal(
                        request.id,
                        Status::Rejected,
                        format!("malformed problem: {e}"),
                    ),
                );
                self.end_request(&tracer, span, "rejected");
                return;
            }
        };

        // Cache hits are served before admission: answering from memory
        // costs nearly nothing, so even a throttled tenant gets them.
        let form = CanonicalForm::of(&problem);
        if let Some(solution) = self.cache.lookup(&form) {
            if let Some(rt) = &request_tracer {
                rt.instant("server", "cache_hit", vec![]);
            }
            self.reply(
                stream,
                attach_trace(
                    request_tracer.as_ref(),
                    Response {
                        id: request.id,
                        status: Status::Solved,
                        addresses: Some(solution.addresses().to_vec()),
                        retry_after_ms: None,
                        detail: String::new(),
                        cache_hit: true,
                        steps: 0,
                        trace_jsonl: None,
                    },
                ),
            );
            self.end_request(&tracer, span, "cache_hit");
            return;
        }

        let now = Instant::now();
        if let Admission::Denied { retry_after } = self.admission.try_admit_at(&request.tenant, now)
        {
            self.reply(
                stream,
                Response::rejected(
                    request.id,
                    (retry_after.as_millis() as u64).max(1),
                    format!("tenant '{}' over admission rate", request.tenant),
                ),
            );
            self.end_request(&tracer, span, "rejected");
            return;
        }
        let max_steps = self
            .admission
            .clamp_steps(&request.tenant, request.max_steps);
        let deadline = now
            + self.admission.clamp_deadline(
                &request.tenant,
                request.deadline_ms.map(Duration::from_millis),
            );
        let cancel = Arc::new(AtomicBool::new(false));
        let (reply_tx, reply_rx) = mpsc::channel();
        let job = Job {
            id: request.id,
            ordinal: self.ordinal.fetch_add(1, Ordering::Relaxed),
            problem,
            form,
            max_steps,
            deadline,
            cancel: Arc::clone(&cancel),
            tracer: request_tracer,
            reply: reply_tx,
        };

        // Graceful degradation: when the queue is saturated, admitted
        // work gets the ladder's greedy stage inline instead of a spot
        // in line it would mostly spend timing out.
        if self.queue.depth() >= self.config.degrade_watermark {
            self.stats.degraded.fetch_add(1, Ordering::Relaxed);
            let outcome = match self.ladder_for(job.tracer.as_ref()).greedy(&job.problem) {
                Some(solution) => SolveOutcome::Solved(solution),
                None => SolveOutcome::GaveUp,
            };
            let response = Response {
                detail: "degraded: greedy-only under load".to_string(),
                ..self.answer(&job, outcome, 0)
            };
            self.reply(stream, attach_trace(job.tracer.as_ref(), response));
            self.end_request(&tracer, span, "degraded");
            return;
        }

        match self.queue.push(job, deadline) {
            Push::Accepted => {}
            Push::Shed(shed) => {
                self.stats.shed.fetch_add(1, Ordering::Relaxed);
                let _ = shed.reply.send(Response::rejected(
                    shed.id,
                    self.retry_hint_ms(),
                    "queue full; earliest-deadline request shed",
                ));
            }
            Push::Closed(job) => {
                let _ = job
                    .reply
                    .send(Response::rejected(job.id, 1_000, "server shutting down"));
            }
        }
        // `job.reply` is the only sender left; a terminal response is
        // guaranteed by the worker, the shed path, or the shutdown
        // drain, so this loop always ends.
        let mut probe = [0u8; 1];
        let response = loop {
            match reply_rx.recv_timeout(POLL) {
                Ok(response) => break response,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // Liveness probe: a zero-byte peek means the peer
                    // sent FIN. TCP cannot distinguish a full close
                    // from a write-side shutdown, so half-close is
                    // *defined* as abandonment by this protocol: a
                    // client must keep its write side open until the
                    // terminal response arrives, or its in-flight solve
                    // is cancelled and answered best-effort.
                    if let Ok(0) = stream.peek(&mut probe) {
                        if !cancel.swap(true, Ordering::Release) {
                            self.stats.disconnects.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // Every sender died without answering — a bug, but
                    // the client still gets a terminal response.
                    break Response::terminal(
                        request.id,
                        Status::BestEffort,
                        "internal: reply channel dropped",
                    );
                }
            }
        };
        let tag = response.status.tag();
        self.reply(stream, response);
        self.end_request(&tracer, span, tag);
    }

    /// Backpressure hint after a shed: roughly one queue-drain's worth
    /// of time per queued entry, floored at 50ms.
    fn retry_hint_ms(&self) -> u64 {
        (self.queue.depth() as u64 * 20).max(50)
    }

    /// Writes a terminal response and records it. Write errors are
    /// swallowed: a vanished client doesn't un-terminate the request.
    fn reply(&self, stream: &mut TcpStream, response: Response) {
        self.stats.record(&response);
        let payload = crate::protocol::render_response(&response);
        let _ = write_frame(stream, &payload);
        let _ = stream.flush();
    }

    /// Sends a terminal response through a job's reply channel (the
    /// owning connection thread writes it to the wire and records it).
    fn send(&self, reply: &mpsc::Sender<Response>, response: Response) {
        let _ = reply.send(response);
    }

    fn end_request(&self, tracer: &Tracer, span: tela_trace::SpanId, outcome: &str) {
        if tracer.enabled() {
            tracer.end(
                span,
                "server",
                "request",
                vec![("outcome".into(), outcome.into())],
            );
        }
    }

    // ---- introspection ---------------------------------------------

    /// Answers a `stats`/`trace` command with one JSON snapshot frame.
    /// Command replies are not terminal [`Response`]s: they bypass
    /// [`ServerStats::record`] so introspection never perturbs the
    /// one-terminal-response accounting it reports on.
    fn serve_command(&self, stream: &mut TcpStream, command: &Command) {
        self.stats.introspections.fetch_add(1, Ordering::Relaxed);
        let body = match command.kind {
            CommandKind::Stats => ("stats".to_string(), self.stats_snapshot()),
            CommandKind::Trace => ("trace".to_string(), self.trace_snapshot()),
        };
        let reply = Value::Object(vec![("id".to_string(), Value::U64(command.id)), body]);
        let _ = write_frame(stream, &json::render(&reply));
        let _ = stream.flush();
    }

    /// The `stats` command body: counters/gauges/histogram quantiles
    /// from the metrics registry, queue depth, cache hit rate, and
    /// per-tenant admission stats.
    fn stats_snapshot(&self) -> Value {
        let mut map = BTreeMap::new();
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);

        let mut responses = BTreeMap::new();
        for (key, counter) in [
            ("total", &self.stats.responses),
            ("solved", &self.stats.solved),
            ("infeasible", &self.stats.infeasible),
            ("best_effort", &self.stats.best_effort),
            ("rejected", &self.stats.rejected),
            ("timed_out", &self.stats.timed_out),
        ] {
            responses.insert(key.to_string(), Value::U64(load(counter)));
        }
        map.insert("responses".to_string(), object(responses));

        let hits = self.cache.hits();
        let misses = self.cache.misses();
        let mut cache = BTreeMap::new();
        cache.insert("entries".to_string(), Value::U64(self.cache.len() as u64));
        cache.insert("hits".to_string(), Value::U64(hits));
        cache.insert("misses".to_string(), Value::U64(misses));
        cache.insert(
            "hit_rate_pct".to_string(),
            Value::U64(hits * 100 / (hits + misses).max(1)),
        );
        map.insert("cache".to_string(), object(cache));

        map.insert(
            "queue_depth".to_string(),
            Value::U64(self.queue.depth() as u64),
        );
        map.insert(
            "connections".to_string(),
            Value::U64(self.connections.load(Ordering::Relaxed) as u64),
        );
        for (key, counter) in [
            ("shed", &self.stats.shed),
            ("degraded", &self.stats.degraded),
            ("worker_respawns", &self.stats.worker_respawns),
            ("conn_refused", &self.stats.conn_refused),
            ("disconnects", &self.stats.disconnects),
            ("solve_calls", &self.stats.solve_calls),
            ("accept_errors", &self.stats.accept_errors),
            ("introspections", &self.stats.introspections),
        ] {
            map.insert(key.to_string(), Value::U64(load(counter)));
        }

        let mut tenants = BTreeMap::new();
        for (name, stats) in self.admission.tenant_stats() {
            let mut tenant = BTreeMap::new();
            tenant.insert("admitted".to_string(), Value::U64(stats.admitted));
            tenant.insert("denied".to_string(), Value::U64(stats.denied));
            tenants.insert(name, object(tenant));
        }
        map.insert("tenants".to_string(), object(tenants));

        map.insert("metrics".to_string(), self.metrics_snapshot());
        object(map)
    }

    /// The metrics registry as JSON: counters and gauges as numbers (a
    /// negative gauge stays negative, as in the trace JSONL), histograms
    /// as `{count, sum, min, max, p50, p90, p99}` objects.
    /// Empty when the server runs without a tracer.
    fn metrics_snapshot(&self) -> Value {
        let mut map = BTreeMap::new();
        let Some(trace) = self.tracer().snapshot() else {
            return object(map);
        };
        for entry in trace.metrics {
            let value = match entry.value {
                MetricValue::Counter(v) => Value::U64(v),
                MetricValue::Gauge(v) => match u64::try_from(v) {
                    Ok(v) => Value::U64(v),
                    Err(_) => Value::I64(v),
                },
                MetricValue::Histogram(h) => {
                    let mut hist = BTreeMap::new();
                    hist.insert("count".to_string(), Value::U64(h.count));
                    hist.insert("sum".to_string(), Value::U64(h.sum));
                    hist.insert(
                        "min".to_string(),
                        Value::U64(if h.count == 0 { 0 } else { h.min }),
                    );
                    hist.insert("max".to_string(), Value::U64(h.max));
                    for (tag, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
                        hist.insert(tag.to_string(), Value::U64(h.quantile(q).unwrap_or(0)));
                    }
                    object(hist)
                }
            };
            map.insert(entry.name, value);
        }
        object(map)
    }

    /// The `trace` command body: an aggregate span rollup of the
    /// server's shared trace — span keys, counts, totals, self times.
    /// Aggregates only: per-request span fields never leave the server
    /// through this surface, so one tenant cannot read another's
    /// request parameters. Reports `enabled: false` when the server
    /// runs without a tracer.
    fn trace_snapshot(&self) -> Value {
        let mut map = BTreeMap::new();
        let Some(trace) = self.tracer().snapshot() else {
            map.insert("enabled".to_string(), Value::Bool(false));
            return object(map);
        };
        map.insert("enabled".to_string(), Value::Bool(true));
        map.insert(
            "clock".to_string(),
            Value::Str(
                match trace.clock {
                    tela_trace::ClockMode::Wall => "wall",
                    tela_trace::ClockMode::Logical => "logical",
                }
                .to_string(),
            ),
        );
        let profile = tela_prof::rollup(&tela_prof::build_tree(&trace));
        map.insert("root_total".to_string(), Value::U64(profile.root_total));
        map.insert(
            "spans".to_string(),
            Value::Array(
                profile
                    .entries
                    .iter()
                    .map(|entry| {
                        let mut span = BTreeMap::new();
                        span.insert("span".to_string(), Value::Str(entry.key.clone()));
                        span.insert("count".to_string(), Value::U64(entry.count));
                        span.insert("total".to_string(), Value::U64(entry.total));
                        span.insert("self".to_string(), Value::U64(entry.self_time));
                        span.insert("max".to_string(), Value::U64(entry.max));
                        object(span)
                    })
                    .collect(),
            ),
        );
        object(map)
    }
}

/// A snapshot object with its keys in sorted order, so the reply bytes
/// do not depend on the order the fields were filled in.
fn object(map: BTreeMap<String, Value>) -> Value {
    Value::Object(map.into_iter().collect())
}

/// Serializes a per-request tracer's events into the response's
/// `trace_jsonl` field (a no-op for untraced requests).
fn attach_trace(tracer: Option<&Tracer>, mut response: Response) -> Response {
    if let Some(trace) = tracer.and_then(Tracer::snapshot) {
        response.trace_jsonl = Some(write_jsonl(&trace));
    }
    response
}
