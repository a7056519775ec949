//! Flight recorder: structured per-invocation lifecycle tracing with an
//! online invariant checker and Chrome-trace/Perfetto JSON export.
//!
//! Aggregate [`stats`](crate::stats) tell you *how much* time a run spent
//! where; they cannot tell you *which* squash cascade ate a request's
//! latency budget. The flight recorder fills that gap: engines emit one
//! [`TraceEvent`] per lifecycle transition (arrival, container acquire,
//! speculative launch, memoization hit, branch predict/resolve, squash with
//! cause and cascade depth, replay, retry/backoff, fault injection, commit,
//! terminal outcome), each stamped with [`SimTime`] — never wall-clock — so
//! a same-seed run reproduces the exact same event stream byte for byte.
//!
//! The recorder is a strict opt-in: a [`Tracer::disabled`] sink stores
//! nothing, checks nothing, and costs one branch per emission site, so the
//! measured engines are unperturbed when tracing is off.
//!
//! When enabled in checking mode, an [`InvariantChecker`] validates, online
//! and at end of run, that:
//!
//! 1. commit order is monotone per request (commit timestamps never go
//!    backwards, no slot commits twice, and commits only happen between
//!    arrival and the terminal event — slot *ids* are deliberately not
//!    required to increase, because fork branches commit interleaved),
//! 2. every launched execution reaches a terminal state — no leaked
//!    speculative slots after drain,
//! 3. `useful_core_time + squashed_core_time` equals the integrated busy
//!    core-time of the cluster (exact, in microseconds), and
//! 4. memoization tables never exceed their configured capacity.
//!
//! Violations are collected (not panicked) so a test can assert the list is
//! empty and a bench run can print them.

use crate::hash::{FxHashMap, FxHashSet};
use crate::time::{SimDuration, SimTime};

/// One of the paper's Fig. 3 response-time phases, used to label execution
/// spans on the per-node tracks of the exported trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Creating the container and its network stack.
    ContainerCreation,
    /// Injecting code and starting the runtime proxy.
    RuntimeSetup,
    /// Front-end / controller scheduling work.
    Platform,
    /// Hop between a function and its successor.
    Transfer,
    /// Handler execution on a core.
    Execution,
    /// Waiting out a retry backoff after a fault.
    RetryBackoff,
}

impl Phase {
    /// Every phase, in Fig. 3 presentation order. Useful for analyses that
    /// bucket time by phase.
    pub const ALL: [Phase; 6] = [
        Phase::ContainerCreation,
        Phase::RuntimeSetup,
        Phase::Platform,
        Phase::Transfer,
        Phase::Execution,
        Phase::RetryBackoff,
    ];

    /// Stable name used in the exported JSON.
    pub fn name(self) -> &'static str {
        match self {
            Phase::ContainerCreation => "container_creation",
            Phase::RuntimeSetup => "runtime_setup",
            Phase::Platform => "platform",
            Phase::Transfer => "transfer",
            Phase::Execution => "execution",
            Phase::RetryBackoff => "retry_backoff",
        }
    }
}

/// Why a speculative execution was squashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SquashCause {
    /// A branch resolved against the predicted direction.
    WrongPath,
    /// A successor was launched with a mispredicted input.
    WrongInput,
    /// A read-write ordering violation through global storage.
    Violation,
    /// An injected fault killed the execution.
    Fault,
}

impl SquashCause {
    /// Stable name used in the exported JSON.
    pub fn name(self) -> &'static str {
        match self {
            SquashCause::WrongPath => "wrong_path",
            SquashCause::WrongInput => "wrong_input",
            SquashCause::Violation => "violation",
            SquashCause::Fault => "fault",
        }
    }
}

/// The payload of one recorded lifecycle event.
///
/// Identifiers are plain integers (request id, program-order slot index,
/// function id, node index) so the recorder stays independent of the
/// platform and engine crates that emit into it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A request entered the system.
    RequestArrival {
        /// Request id.
        req: u64,
    },
    /// A function execution was launched into a pipeline slot.
    SlotLaunch {
        /// Request id.
        req: u64,
        /// Program-order slot index.
        slot: u64,
        /// Function id.
        func: u32,
        /// True if launched speculatively (not the head slot).
        speculative: bool,
    },
    /// A container was acquired for an execution.
    ContainerAcquire {
        /// Request id.
        req: u64,
        /// Function id.
        func: u32,
        /// Node the container lives on.
        node: u32,
        /// True on a cold start, false on a warm pool hit.
        cold: bool,
    },
    /// A timed span of one Fig. 3 phase on one node. `at` is the start.
    Span {
        /// Request id.
        req: u64,
        /// Function id.
        func: u32,
        /// Node the span ran on.
        node: u32,
        /// Phase label.
        phase: Phase,
        /// End of the span (start is the event timestamp).
        end: SimTime,
    },
    /// A memoization-table lookup returned a predicted output.
    MemoHit {
        /// Request id.
        req: u64,
        /// Function id.
        func: u32,
    },
    /// The branch predictor speculated a direction.
    BranchPredict {
        /// Request id.
        req: u64,
        /// Predicted direction.
        taken: bool,
    },
    /// A speculated branch resolved.
    BranchResolve {
        /// Request id.
        req: u64,
        /// Predicted direction.
        predicted: bool,
        /// Actual direction.
        actual: bool,
    },
    /// A speculative execution was squashed.
    Squash {
        /// Request id.
        req: u64,
        /// First squashed slot.
        slot: u64,
        /// Why it was squashed.
        cause: SquashCause,
        /// Number of executions killed in the cascade (≥ 1).
        cascade: u32,
    },
    /// Core-time charged to the squashed-CPU ledger (Table IV).
    ///
    /// Every increment of `RunMetrics::squashed_core_time` emits exactly
    /// one `SquashCharge` carrying the same amount, so summing the
    /// amounts over a trace reconciles exactly with the engine's ledger
    /// for the traced window. `site` names the charge point
    /// (a [`SquashCause`] name for pipeline squashes, or an engine path
    /// such as `"teardown"`, `"orphan_callee"`, `"abort"`).
    SquashCharge {
        /// Request id.
        req: u64,
        /// Function whose work was discarded.
        func: u32,
        /// Charge site: squash cause or engine teardown path.
        site: &'static str,
        /// Cascade size of the squash this charge belongs to (0 when the
        /// charge did not come from a pipeline squash).
        cascade: u32,
        /// Core-time discarded.
        amount: SimDuration,
    },
    /// A squashed slot was relaunched with corrected inputs.
    Replay {
        /// Request id.
        req: u64,
        /// Slot being re-executed.
        slot: u64,
    },
    /// A faulted execution entered retry backoff.
    RetryBackoff {
        /// Request id.
        req: u64,
        /// Function id.
        func: u32,
        /// Attempt number about to run (1-based).
        attempt: u32,
        /// Backoff delay before the retry.
        backoff: SimDuration,
    },
    /// The fault injector fired.
    FaultInjected {
        /// Request id.
        req: u64,
        /// Injection site name (e.g. `"container_crash"`).
        site: &'static str,
    },
    /// A slot's effects were committed in program order.
    Commit {
        /// Request id.
        req: u64,
        /// Committed slot index.
        slot: u64,
        /// Function id.
        func: u32,
    },
    /// The request reached a terminal state.
    Terminal {
        /// Request id.
        req: u64,
        /// True on success, false on abort.
        completed: bool,
    },
}

/// One recorded event: a [`SimTime`] stamp plus the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the event happened (for spans: when the span started).
    pub at: SimTime,
    /// What happened.
    pub kind: TraceEventKind,
}

/// Collects invariant violations instead of panicking, so both tests and
/// bench binaries can report every failure of a run at once.
#[derive(Debug, Default)]
pub struct InvariantChecker {
    /// Per-request commit history: last commit time plus the set of
    /// already-committed slot ids. Dropped at the request's terminal
    /// event, so it holds only requests in flight.
    commits: FxHashMap<u64, (SimTime, FxHashSet<u64>)>,
    /// Requests that arrived and have not reached a terminal state.
    live_requests: FxHashSet<u64>,
    violations: Vec<String>,
}

impl InvariantChecker {
    fn observe(&mut self, ev: &TraceEvent) {
        match &ev.kind {
            TraceEventKind::RequestArrival { req } => {
                self.live_requests.insert(*req);
                self.commits.remove(req);
            }
            TraceEventKind::Commit { req, slot, .. } => {
                if !self.live_requests.contains(req) {
                    self.violations.push(format!(
                        "commit order not monotone: request {req} committed slot {slot} \
                         outside its arrival..terminal lifetime"
                    ));
                }
                let (last_t, seen) = self
                    .commits
                    .entry(*req)
                    .or_insert_with(|| (ev.at, FxHashSet::default()));
                if ev.at < *last_t {
                    self.violations.push(format!(
                        "commit order not monotone: commit time went backwards for \
                         request {req} at slot {slot}"
                    ));
                }
                *last_t = ev.at;
                if !seen.insert(*slot) {
                    self.violations.push(format!(
                        "commit order not monotone: request {req} committed slot {slot} twice"
                    ));
                }
            }
            TraceEventKind::Terminal { req, .. } => {
                self.commits.remove(req);
                if !self.live_requests.remove(req) {
                    self.violations
                        .push(format!("request {req} reached a terminal state twice"));
                }
            }
            _ => {}
        }
    }

    /// Checks one memoization table against its capacity bound.
    pub fn check_memo_capacity(&mut self, func: u32, len: usize, capacity: usize) {
        if len > capacity {
            self.violations.push(format!(
                "memo table of function {func} holds {len} rows, capacity {capacity}"
            ));
        }
    }

    /// End-of-run validation: no leaked executions or requests, and the
    /// engine's attributed core-time (`useful + squashed`) exactly equals
    /// the cluster's integrated busy core-time over the same window.
    pub fn check_end_of_run(
        &mut self,
        live_instances: usize,
        useful: SimDuration,
        squashed: SimDuration,
        busy_integral: SimDuration,
    ) {
        if live_instances != 0 {
            self.violations.push(format!(
                "{live_instances} execution(s) never reached a terminal state"
            ));
        }
        if !self.live_requests.is_empty() {
            let mut ids: Vec<u64> = self.live_requests.iter().copied().collect();
            ids.sort_unstable();
            self.violations
                .push(format!("request(s) {ids:?} never reached a terminal state"));
        }
        let attributed = useful + squashed;
        if attributed != busy_integral {
            self.violations.push(format!(
                "core-time not conserved: useful {}us + squashed {}us = {}us, \
                 but integrated busy core-time is {}us",
                useful.as_micros(),
                squashed.as_micros(),
                attributed.as_micros(),
                busy_integral.as_micros()
            ));
        }
    }

    /// Violations found so far, in detection order.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }
}

#[derive(Debug)]
struct TracerInner {
    events: Vec<TraceEvent>,
    checker: Option<InvariantChecker>,
}

/// The recording sink engines emit into.
///
/// [`Tracer::disabled`] is the default no-op sink: [`Tracer::enabled`]
/// returns `false`, every emission site short-circuits on that one branch,
/// and no allocation ever happens — tracing is free when off.
///
/// # Example
///
/// ```
/// use specfaas_sim::trace::{TraceEventKind, Tracer};
/// use specfaas_sim::SimTime;
///
/// let mut t = Tracer::recording();
/// t.emit(SimTime::from_millis(1), TraceEventKind::RequestArrival { req: 0 });
/// assert_eq!(t.events().len(), 1);
/// let json = t.export_chrome_json();
/// assert!(json.starts_with("{\"traceEvents\":["));
/// ```
#[derive(Debug, Default)]
pub struct Tracer {
    inner: Option<Box<TracerInner>>,
}

impl Tracer {
    /// The no-op sink: records nothing, checks nothing.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// Records events without invariant checking.
    pub fn recording() -> Self {
        Tracer {
            inner: Some(Box::new(TracerInner {
                events: Vec::new(),
                checker: None,
            })),
        }
    }

    /// Records events and runs the online invariant checker.
    pub fn with_invariants() -> Self {
        Tracer {
            inner: Some(Box::new(TracerInner {
                events: Vec::new(),
                checker: Some(InvariantChecker::default()),
            })),
        }
    }

    /// True if events are being recorded. Emission sites gate on this so a
    /// disabled tracer costs a single predictable branch.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// True if the invariant checker is active.
    #[inline]
    pub fn checking(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.checker.is_some())
    }

    /// Records one event (no-op when disabled).
    pub fn emit(&mut self, at: SimTime, kind: TraceEventKind) {
        if let Some(inner) = &mut self.inner {
            let ev = TraceEvent { at, kind };
            if let Some(c) = &mut inner.checker {
                c.observe(&ev);
            }
            inner.events.push(ev);
        }
    }

    /// Forwards a memo-capacity check to the checker, if active.
    pub fn check_memo_capacity(&mut self, func: u32, len: usize, capacity: usize) {
        if let Some(c) = self.checker_mut() {
            c.check_memo_capacity(func, len, capacity);
        }
    }

    /// Forwards the end-of-run validation to the checker, if active.
    pub fn check_end_of_run(
        &mut self,
        live_instances: usize,
        useful: SimDuration,
        squashed: SimDuration,
        busy_integral: SimDuration,
    ) {
        if let Some(c) = self.checker_mut() {
            c.check_end_of_run(live_instances, useful, squashed, busy_integral);
        }
    }

    fn checker_mut(&mut self) -> Option<&mut InvariantChecker> {
        self.inner.as_mut().and_then(|i| i.checker.as_mut())
    }

    /// Invariant violations found so far (empty when not checking).
    pub fn violations(&self) -> &[String] {
        self.inner
            .as_ref()
            .and_then(|i| i.checker.as_ref())
            .map(|c| c.violations())
            .unwrap_or(&[])
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        self.inner
            .as_ref()
            .map(|i| i.events.as_slice())
            .unwrap_or(&[])
    }

    /// Exports the recorded events as Chrome-trace / Perfetto JSON.
    ///
    /// Layout: one *process* per cluster node (plus a synthetic
    /// `orchestrator` process for request-level events), and within each
    /// node one *thread lane* per concurrently-running span, assigned
    /// greedily — the visual equivalent of the node's occupied cores.
    /// Spans become `"ph":"X"` complete events; everything else becomes a
    /// `"ph":"i"` instant. Timestamps are simulated microseconds, so the
    /// output is byte-identical across same-seed runs.
    pub fn export_chrome_json(&self) -> String {
        export_chrome_json(self.events())
    }
}

/// Synthetic pid for request-level events with no node affinity.
const ORCH_PID: u32 = 1000;
/// Synthetic tid within a node process for instant events.
const EVENT_LANE: u32 = 999;

/// Bytes reserved per event for the Chrome-trace export, enough for a
/// span or instant with simulation-sized numbers, so a whole export
/// normally fills one allocation.
const EXPORT_BYTES_PER_EVENT: usize = 144;

fn export_chrome_json(events: &[TraceEvent]) -> String {
    // Spans first: sort by (node, start, end, emission index) and assign
    // each to the first free lane of its node. The key is unique per
    // span, so lane assignment is deterministic.
    let mut spans: Vec<(u32, SimTime, SimTime, usize)> = events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e.kind {
            TraceEventKind::Span { node, end, .. } => Some((node, e.at, end, i)),
            _ => None,
        })
        .collect();
    spans.sort_unstable();

    let mut out = String::with_capacity(events.len() * EXPORT_BYTES_PER_EVENT + 256);
    out.push_str("{\"traceEvents\":[");
    // Every element is written with a trailing comma; the orchestrator's
    // name record closes the array without one.
    //
    // `tracks` holds (node, lanes used) for each node with spans, in node
    // order; `lanes` the free-from instants of the current node's lanes.
    let mut tracks: Vec<(u32, usize)> = Vec::new();
    let mut lanes: Vec<SimTime> = Vec::new();
    for &(node, start, end, i) in &spans {
        if tracks.last().map(|&(n, _)| n) != Some(node) {
            tracks.push((node, 0));
            lanes.clear();
        }
        let lane = match lanes.iter().position(|free| *free <= start) {
            Some(l) => {
                lanes[l] = end;
                l
            }
            None => {
                lanes.push(end);
                lanes.len() - 1
            }
        };
        if let Some(track) = tracks.last_mut() {
            track.1 = lanes.len();
        }
        let TraceEventKind::Span {
            req, func, phase, ..
        } = events[i].kind
        else {
            unreachable!("only spans were collected");
        };
        out.push_str("{\"name\":\"");
        out.push_str(phase.name());
        field(&mut out, "\",\"ph\":\"X\",\"pid\":", node.into());
        field(&mut out, ",\"tid\":", lane as u64);
        field(&mut out, ",\"ts\":", start.as_micros());
        field(
            &mut out,
            ",\"dur\":",
            end.saturating_since(start).as_micros(),
        );
        field(&mut out, ",\"args\":{\"req\":", req);
        field(&mut out, ",\"func\":", func.into());
        out.push_str("}},");
    }

    // Instant events, in emission order.
    for ev in events {
        let ts = ev.at.as_micros();
        match ev.kind {
            TraceEventKind::Span { .. } => continue,
            TraceEventKind::RequestArrival { req } => {
                instant(&mut out, "request_arrival", ORCH_PID, ts, req);
            }
            TraceEventKind::SlotLaunch {
                req,
                slot,
                func,
                speculative,
            } => {
                instant(&mut out, "slot_launch", ORCH_PID, ts, req);
                field(&mut out, ",\"slot\":", slot);
                field(&mut out, ",\"func\":", func.into());
                flag(&mut out, ",\"speculative\":", speculative);
            }
            TraceEventKind::ContainerAcquire {
                req,
                func,
                node,
                cold,
            } => {
                instant(&mut out, "container_acquire", node, ts, req);
                field(&mut out, ",\"func\":", func.into());
                flag(&mut out, ",\"cold\":", cold);
            }
            TraceEventKind::MemoHit { req, func } => {
                instant(&mut out, "memo_hit", ORCH_PID, ts, req);
                field(&mut out, ",\"func\":", func.into());
            }
            TraceEventKind::BranchPredict { req, taken } => {
                instant(&mut out, "branch_predict", ORCH_PID, ts, req);
                flag(&mut out, ",\"taken\":", taken);
            }
            TraceEventKind::BranchResolve {
                req,
                predicted,
                actual,
            } => {
                instant(&mut out, "branch_resolve", ORCH_PID, ts, req);
                flag(&mut out, ",\"predicted\":", predicted);
                flag(&mut out, ",\"actual\":", actual);
            }
            TraceEventKind::Squash {
                req,
                slot,
                cause,
                cascade,
            } => {
                instant(&mut out, "squash", ORCH_PID, ts, req);
                field(&mut out, ",\"slot\":", slot);
                text(&mut out, ",\"cause\":", cause.name());
                field(&mut out, ",\"cascade\":", cascade.into());
            }
            TraceEventKind::SquashCharge {
                req,
                func,
                site,
                cascade,
                amount,
            } => {
                instant(&mut out, "squash_charge", ORCH_PID, ts, req);
                field(&mut out, ",\"func\":", func.into());
                text(&mut out, ",\"site\":", site);
                field(&mut out, ",\"cascade\":", cascade.into());
                field(&mut out, ",\"amount_us\":", amount.as_micros());
            }
            TraceEventKind::Replay { req, slot } => {
                instant(&mut out, "replay", ORCH_PID, ts, req);
                field(&mut out, ",\"slot\":", slot);
            }
            TraceEventKind::RetryBackoff {
                req,
                func,
                attempt,
                backoff,
            } => {
                instant(&mut out, "retry_backoff", ORCH_PID, ts, req);
                field(&mut out, ",\"func\":", func.into());
                field(&mut out, ",\"attempt\":", attempt.into());
                field(&mut out, ",\"backoff_us\":", backoff.as_micros());
            }
            TraceEventKind::FaultInjected { req, site } => {
                instant(&mut out, "fault_injected", ORCH_PID, ts, req);
                text(&mut out, ",\"site\":", site);
            }
            TraceEventKind::Commit { req, slot, func } => {
                instant(&mut out, "commit", ORCH_PID, ts, req);
                field(&mut out, ",\"slot\":", slot);
                field(&mut out, ",\"func\":", func.into());
            }
            TraceEventKind::Terminal { req, completed } => {
                instant(&mut out, "terminal", ORCH_PID, ts, req);
                flag(&mut out, ",\"completed\":", completed);
            }
        }
        out.push_str("}},");
    }

    // Process/thread naming metadata so Perfetto shows readable tracks.
    for &(node, lane_count) in &tracks {
        field(
            &mut out,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":",
            node.into(),
        );
        field(
            &mut out,
            ",\"tid\":0,\"args\":{\"name\":\"node",
            node.into(),
        );
        out.push_str("\"}},");
        for lane in 0..lane_count as u64 {
            field(
                &mut out,
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":",
                node.into(),
            );
            field(&mut out, ",\"tid\":", lane);
            field(&mut out, ",\"args\":{\"name\":\"core-lane ", lane);
            out.push_str("\"}},");
        }
    }
    field(
        &mut out,
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":",
        ORCH_PID.into(),
    );
    out.push_str(",\"tid\":0,\"args\":{\"name\":\"orchestrator\"}}]}");
    out
}

/// Opens an instant event through its first argument, `req`; the caller
/// appends the remaining arguments and closes it with `}},`.
fn instant(out: &mut String, name: &str, pid: u32, ts: u64, req: u64) {
    out.push_str("{\"name\":\"");
    out.push_str(name);
    field(out, "\",\"ph\":\"i\",\"s\":\"g\",\"pid\":", pid.into());
    field(out, ",\"tid\":", EVENT_LANE.into());
    field(out, ",\"ts\":", ts);
    field(out, ",\"args\":{\"req\":", req);
}

/// Appends `prefix` and then `v` in decimal.
fn field(out: &mut String, prefix: &str, v: u64) {
    out.push_str(prefix);
    push_u64(out, v);
}

/// Appends `prefix` and then `true` or `false`.
fn flag(out: &mut String, prefix: &str, b: bool) {
    out.push_str(prefix);
    out.push_str(if b { "true" } else { "false" });
}

/// Appends `prefix` and then `s` as a JSON string (`s` needs no escaping:
/// callers pass static identifiers).
fn text(out: &mut String, prefix: &str, s: &str) {
    out.push_str(prefix);
    out.push('"');
    out.push_str(s);
    out.push('"');
}

/// Appends `v` in decimal — the text `write!(out, "{v}")` produces,
/// without the formatting machinery or a UTF-8 check of the digits. The
/// exporters call this once per number.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
        2021222324252627282930313233343536373839\
        4041424344454647484950515253545556575859\
        6061626364656667686970717273747576777879\
        8081828384858687888990919293949596979899";
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    // SAFETY: `buf[i..]` holds only the ASCII digits written above, and
    // ASCII is valid UTF-8, so the string stays well-formed.
    unsafe { out.as_mut_vec() }.extend_from_slice(&buf[i..]);
}

/// Validates that `s` is well-formed JSON. Used by tests and the bench
/// `--trace` path in lieu of an external JSON crate.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                parse_value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                parse_value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_lit(b, pos, "true"),
        Some(b'f') => parse_lit(b, pos, "false"),
        Some(b'n') => parse_lit(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:#x} at {pos}")),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}"));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 2; // escape + escaped byte (\uXXXX not emitted here)
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(&c) = b.get(*pos) {
        if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        } else {
            break;
        }
    }
    if *pos == start {
        Err(format!("invalid number at byte {start}"))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn push_u64_writes_what_display_writes() {
        let mut values = vec![0, u64::MAX, u64::MAX - 1];
        let mut p = 1u64;
        while let Some(next) = p.checked_mul(10) {
            values.extend([p - 1, p, p + 1, next / 2]);
            p = next;
        }
        let mut out = String::new();
        for v in values {
            out.clear();
            out.push('x');
            push_u64(&mut out, v);
            assert_eq!(out, format!("x{v}"));
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        assert!(!tr.enabled());
        tr.emit(t(1), TraceEventKind::RequestArrival { req: 0 });
        assert!(tr.events().is_empty());
        assert!(tr.violations().is_empty());
    }

    #[test]
    fn recording_preserves_emission_order() {
        let mut tr = Tracer::recording();
        tr.emit(t(2), TraceEventKind::RequestArrival { req: 1 });
        tr.emit(t(1), TraceEventKind::RequestArrival { req: 0 });
        assert_eq!(tr.events().len(), 2);
        assert_eq!(tr.events()[0].at, t(2));
    }

    #[test]
    fn commit_monotonicity_violation_detected() {
        let mut tr = Tracer::with_invariants();
        tr.emit(t(0), TraceEventKind::RequestArrival { req: 7 });
        tr.emit(
            t(2),
            TraceEventKind::Commit {
                req: 7,
                slot: 2,
                func: 0,
            },
        );
        // Fork branches may commit out of slot-id order — not a violation.
        tr.emit(
            t(3),
            TraceEventKind::Commit {
                req: 7,
                slot: 1,
                func: 1,
            },
        );
        assert!(tr.violations().is_empty());
        // But commit time going backwards is one.
        tr.emit(
            t(1),
            TraceEventKind::Commit {
                req: 7,
                slot: 3,
                func: 2,
            },
        );
        assert_eq!(tr.violations().len(), 1);
        assert!(tr.violations()[0].contains("not monotone"));
    }

    #[test]
    fn double_commit_and_out_of_lifetime_commit_detected() {
        let mut tr = Tracer::with_invariants();
        tr.emit(t(0), TraceEventKind::RequestArrival { req: 4 });
        tr.emit(
            t(1),
            TraceEventKind::Commit {
                req: 4,
                slot: 0,
                func: 0,
            },
        );
        tr.emit(
            t(2),
            TraceEventKind::Commit {
                req: 4,
                slot: 0,
                func: 0,
            },
        );
        assert_eq!(tr.violations().len(), 1);
        assert!(tr.violations()[0].contains("twice"));
        tr.emit(
            t(3),
            TraceEventKind::Terminal {
                req: 4,
                completed: true,
            },
        );
        tr.emit(
            t(4),
            TraceEventKind::Commit {
                req: 4,
                slot: 1,
                func: 1,
            },
        );
        assert_eq!(tr.violations().len(), 2);
        assert!(tr.violations()[1].contains("lifetime"));
    }

    #[test]
    fn checker_drops_commit_sets_of_finished_requests() {
        let mut tr = Tracer::with_invariants();
        for req in 0..1_000u64 {
            let at = t(req);
            tr.emit(at, TraceEventKind::RequestArrival { req });
            for slot in 0..3 {
                tr.emit(at, TraceEventKind::Commit { req, slot, func: 0 });
            }
            tr.emit(
                at,
                TraceEventKind::Terminal {
                    req,
                    completed: req % 7 != 0,
                },
            );
        }
        assert!(tr.violations().is_empty(), "{:?}", tr.violations());
        let checker = tr.inner.as_ref().and_then(|i| i.checker.as_ref()).unwrap();
        assert_eq!(
            checker.commits.len(),
            0,
            "finished requests keep commit sets"
        );
        assert!(checker.live_requests.is_empty());
    }

    #[test]
    fn leaked_request_detected_at_end_of_run() {
        let mut tr = Tracer::with_invariants();
        tr.emit(t(0), TraceEventKind::RequestArrival { req: 3 });
        tr.check_end_of_run(0, SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO);
        assert!(tr.violations().iter().any(|v| v.contains("terminal")));
    }

    #[test]
    fn core_time_conservation_violation_detected() {
        let mut tr = Tracer::with_invariants();
        tr.check_end_of_run(
            0,
            SimDuration::from_millis(10),
            SimDuration::from_millis(5),
            SimDuration::from_millis(16),
        );
        assert!(tr.violations().iter().any(|v| v.contains("not conserved")));
    }

    #[test]
    fn memo_capacity_violation_detected() {
        let mut tr = Tracer::with_invariants();
        tr.check_memo_capacity(4, 51, 50);
        assert!(tr.violations().iter().any(|v| v.contains("memo table")));
        tr.check_memo_capacity(4, 50, 50);
        assert_eq!(tr.violations().len(), 1);
    }

    #[test]
    fn export_is_valid_json_and_deterministic() {
        let build = || {
            let mut tr = Tracer::recording();
            tr.emit(t(0), TraceEventKind::RequestArrival { req: 0 });
            tr.emit(
                t(1),
                TraceEventKind::Span {
                    req: 0,
                    func: 2,
                    node: 0,
                    phase: Phase::Execution,
                    end: t(5),
                },
            );
            tr.emit(
                t(2),
                TraceEventKind::Span {
                    req: 0,
                    func: 3,
                    node: 0,
                    phase: Phase::Execution,
                    end: t(4),
                },
            );
            tr.emit(
                t(5),
                TraceEventKind::Squash {
                    req: 0,
                    slot: 1,
                    cause: SquashCause::WrongPath,
                    cascade: 2,
                },
            );
            tr.export_chrome_json()
        };
        let a = build();
        assert_eq!(a, build(), "export must be byte-identical");
        validate_json(&a).expect("export must be valid JSON");
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ph\":\"i\""));
        assert!(a.contains("wrong_path"));
    }

    #[test]
    fn overlapping_spans_get_distinct_lanes() {
        let mut tr = Tracer::recording();
        for i in 0..2u64 {
            tr.emit(
                t(0),
                TraceEventKind::Span {
                    req: i,
                    func: 0,
                    node: 1,
                    phase: Phase::Execution,
                    end: t(10),
                },
            );
        }
        let json = tr.export_chrome_json();
        assert!(json.contains("\"pid\":1,\"tid\":0"));
        assert!(json.contains("\"pid\":1,\"tid\":1"));
    }

    #[test]
    fn sequential_spans_share_a_lane() {
        let mut tr = Tracer::recording();
        tr.emit(
            t(0),
            TraceEventKind::Span {
                req: 0,
                func: 0,
                node: 0,
                phase: Phase::Execution,
                end: t(5),
            },
        );
        tr.emit(
            t(5),
            TraceEventKind::Span {
                req: 1,
                func: 0,
                node: 0,
                phase: Phase::Execution,
                end: t(9),
            },
        );
        let json = tr.export_chrome_json();
        assert!(!json.contains("\"tid\":1,\"ts\""), "no second lane: {json}");
    }

    /// One event of every kind, plus spans that overlap on node 2 (three
    /// spans, two lanes, the third reusing a freed lane) and on node 0
    /// (two spans with the same start, ordered by end, and a zero-length
    /// one).
    fn every_kind_trace() -> Tracer {
        use TraceEventKind as K;
        let span = |req, func, node, phase, end| K::Span {
            req,
            func,
            node,
            phase,
            end,
        };
        let mut tr = Tracer::recording();
        tr.emit(t(0), K::RequestArrival { req: 1 });
        tr.emit(
            t(1),
            K::SlotLaunch {
                req: 1,
                slot: 0,
                func: 3,
                speculative: false,
            },
        );
        tr.emit(
            t(1),
            K::ContainerAcquire {
                req: 1,
                func: 3,
                node: 2,
                cold: true,
            },
        );
        tr.emit(t(1), span(1, 3, 2, Phase::ContainerCreation, t(6)));
        tr.emit(t(2), K::MemoHit { req: 1, func: 4 });
        tr.emit(t(2), span(1, 4, 2, Phase::Execution, t(4)));
        tr.emit(
            t(3),
            K::BranchPredict {
                req: 1,
                taken: true,
            },
        );
        tr.emit(t(3), span(1, 5, 0, Phase::RuntimeSetup, t(5)));
        tr.emit(t(3), span(1, 7, 0, Phase::Transfer, t(4)));
        tr.emit(
            t(4),
            K::BranchResolve {
                req: 1,
                predicted: true,
                actual: false,
            },
        );
        tr.emit(
            t(4),
            K::Squash {
                req: 1,
                slot: 2,
                cause: SquashCause::WrongInput,
                cascade: 3,
            },
        );
        tr.emit(
            t(4),
            K::SquashCharge {
                req: 1,
                func: 4,
                site: "wrong_input",
                cascade: 3,
                amount: SimDuration::from_micros(1_500),
            },
        );
        tr.emit(t(4), span(1, 6, 2, Phase::Platform, t(9)));
        tr.emit(t(5), K::Replay { req: 1, slot: 2 });
        tr.emit(
            t(5),
            K::RetryBackoff {
                req: 1,
                func: 6,
                attempt: 2,
                backoff: SimDuration::from_micros(250),
            },
        );
        tr.emit(
            t(6),
            K::FaultInjected {
                req: 1,
                site: "container_crash",
            },
        );
        tr.emit(t(7), span(1, 6, 0, Phase::RetryBackoff, t(7)));
        tr.emit(
            t(8),
            K::Commit {
                req: 1,
                slot: 0,
                func: 3,
            },
        );
        tr.emit(
            t(10),
            K::Terminal {
                req: 1,
                completed: true,
            },
        );
        tr
    }

    #[test]
    fn chrome_export_renders_every_kind_exactly() {
        assert_eq!(
            every_kind_trace().export_chrome_json(),
            concat!(
                "{\"traceEvents\":[",
                // Spans by (node, start, end, emission index), first free lane.
                "{\"name\":\"transfer\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":3000,\"dur\":1000,\
                 \"args\":{\"req\":1,\"func\":7}},",
                "{\"name\":\"runtime_setup\",\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":3000,\"dur\":2000,\
                 \"args\":{\"req\":1,\"func\":5}},",
                "{\"name\":\"retry_backoff\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":7000,\"dur\":0,\
                 \"args\":{\"req\":1,\"func\":6}},",
                "{\"name\":\"container_creation\",\"ph\":\"X\",\"pid\":2,\"tid\":0,\"ts\":1000,\
                 \"dur\":5000,\"args\":{\"req\":1,\"func\":3}},",
                "{\"name\":\"execution\",\"ph\":\"X\",\"pid\":2,\"tid\":1,\"ts\":2000,\"dur\":2000,\
                 \"args\":{\"req\":1,\"func\":4}},",
                "{\"name\":\"platform\",\"ph\":\"X\",\"pid\":2,\"tid\":1,\"ts\":4000,\"dur\":5000,\
                 \"args\":{\"req\":1,\"func\":6}},",
                // Instants in emission order.
                "{\"name\":\"request_arrival\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1000,\"tid\":999,\
                 \"ts\":0,\"args\":{\"req\":1}},",
                "{\"name\":\"slot_launch\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1000,\"tid\":999,\
                 \"ts\":1000,\"args\":{\"req\":1,\"slot\":0,\"func\":3,\"speculative\":false}},",
                "{\"name\":\"container_acquire\",\"ph\":\"i\",\"s\":\"g\",\"pid\":2,\"tid\":999,\
                 \"ts\":1000,\"args\":{\"req\":1,\"func\":3,\"cold\":true}},",
                "{\"name\":\"memo_hit\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1000,\"tid\":999,\
                 \"ts\":2000,\"args\":{\"req\":1,\"func\":4}},",
                "{\"name\":\"branch_predict\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1000,\"tid\":999,\
                 \"ts\":3000,\"args\":{\"req\":1,\"taken\":true}},",
                "{\"name\":\"branch_resolve\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1000,\"tid\":999,\
                 \"ts\":4000,\"args\":{\"req\":1,\"predicted\":true,\"actual\":false}},",
                "{\"name\":\"squash\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1000,\"tid\":999,\
                 \"ts\":4000,\"args\":{\"req\":1,\"slot\":2,\"cause\":\"wrong_input\",\"cascade\":3}},",
                "{\"name\":\"squash_charge\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1000,\"tid\":999,\
                 \"ts\":4000,\"args\":{\"req\":1,\"func\":4,\"site\":\"wrong_input\",\"cascade\":3,\
                 \"amount_us\":1500}},",
                "{\"name\":\"replay\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1000,\"tid\":999,\
                 \"ts\":5000,\"args\":{\"req\":1,\"slot\":2}},",
                "{\"name\":\"retry_backoff\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1000,\"tid\":999,\
                 \"ts\":5000,\"args\":{\"req\":1,\"func\":6,\"attempt\":2,\"backoff_us\":250}},",
                "{\"name\":\"fault_injected\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1000,\"tid\":999,\
                 \"ts\":6000,\"args\":{\"req\":1,\"site\":\"container_crash\"}},",
                "{\"name\":\"commit\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1000,\"tid\":999,\
                 \"ts\":8000,\"args\":{\"req\":1,\"slot\":0,\"func\":3}},",
                "{\"name\":\"terminal\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1000,\"tid\":999,\
                 \"ts\":10000,\"args\":{\"req\":1,\"completed\":true}},",
                // Track names: each node with spans and its lanes, then
                // the orchestrator.
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
                 \"args\":{\"name\":\"node0\"}},",
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
                 \"args\":{\"name\":\"core-lane 0\"}},",
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,\
                 \"args\":{\"name\":\"core-lane 1\"}},",
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\
                 \"args\":{\"name\":\"node2\"}},",
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\
                 \"args\":{\"name\":\"core-lane 0\"}},",
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":1,\
                 \"args\":{\"name\":\"core-lane 1\"}},",
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1000,\"tid\":0,\
                 \"args\":{\"name\":\"orchestrator\"}}",
                "]}",
            )
        );
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        validate_json("{\"a\":[1,2.5,-3e4,true,false,null,\"s\\\"x\"]}").unwrap();
        assert!(validate_json("{\"a\":1").is_err());
        assert!(validate_json("[1,]").is_err());
        assert!(validate_json("{} extra").is_err());
        assert!(validate_json("").is_err());
    }
}
