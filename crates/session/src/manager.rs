//! Persistent per-tenant sessions with incremental recompilation.
//!
//! A [`SessionManager`] keeps compiled-program state alive *between*
//! submissions: the resident program's content hash, a session-owned
//! [`KernelCache`] (bytecode plus promoted native tiers), and named
//! result bindings. Resubmitting an edited program recompiles only the
//! kernels whose content fingerprint moved (see [`crate::hash`]) and
//! transplants everything else, invalidating exactly the stale
//! [`KernelCache`]/[`ProgramCache`] entries it replaced.
//!
//! Time is explicit: every method takes `now: f64` so REPL scripts and
//! the virtual-clock backend share one deterministic clock (the caller's
//! command counter). Nothing in here reads a wall clock.
//!
//! Accounting closes two identities, checked by
//! [`SessionStats::identities_hold`]:
//!
//! ```text
//! opened           == active + closed + expired + evicted
//! resident_kernels == reused_kernels + recompiled_kernels
//! ```
//!
//! The second holds *by construction*: a LOAD eagerly resolves every
//! loop of the incoming program, and each one is either transplanted
//! (`reused`) or compiled fresh (`recompiled`) — there is no third path.

use crate::hash::{kernel_fingerprints, KernelFingerprint, KernelKey};
use japonica::Compiled;
use japonica_ir::{Heap, KernelCache, ParamTy, Ty, Value};
use japonica_serve::{
    content_hash, JobHandle, JobRequest, ProgramCache, ResourceRequest, Serve, ServeStats,
    SimJobOutcome, SimServe, SimServeConfig,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// Session-layer failures, each with a stable protocol error code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// No session with that id is resident (wrong id, or it was closed,
    /// expired or evicted).
    UnknownSession(u64),
    /// The session has no loaded program to run.
    NoProgram(u64),
    /// The submitted source failed to compile.
    Compile(String),
    /// The entry function is missing or not `(double[], int)`.
    BadEntry(String),
    /// Execution failed (rejected, exhausted, or a runtime fault).
    Run(String),
    /// `SHOW`/`RUN @name` named a binding the session does not hold.
    UnknownBinding(String),
    /// `BIND` with no completed run to bind.
    NoResult(u64),
}

impl SessionError {
    /// The line-protocol error code (`ERR <code> <msg>`).
    pub fn code(&self) -> u32 {
        match self {
            SessionError::UnknownSession(_) => 11,
            SessionError::NoProgram(_) => 12,
            SessionError::Compile(_) => 13,
            SessionError::BadEntry(_) => 14,
            SessionError::Run(_) => 15,
            SessionError::UnknownBinding(_) => 16,
            SessionError::NoResult(_) => 17,
        }
    }
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::UnknownSession(s) => write!(f, "unknown session {s}"),
            SessionError::NoProgram(s) => write!(f, "session {s} has no loaded program"),
            SessionError::Compile(m) => write!(f, "compile failed: {m}"),
            SessionError::BadEntry(m) => write!(f, "bad entry: {m}"),
            SessionError::Run(m) => write!(f, "run failed: {m}"),
            SessionError::UnknownBinding(n) => write!(f, "unknown binding {n}"),
            SessionError::NoResult(s) => write!(f, "session {s} has no result to bind"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Manager-level policy knobs.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Base idle-lease TTL in session-clock seconds. A session whose
    /// last activity is older than its (seeded) TTL is reaped by
    /// [`SessionManager::expire_idle`].
    pub ttl_s: f64,
    /// Seed for per-session TTL jitter: each session's lease is
    /// `ttl_s * (0.75 + 0.5 * u)` with `u` drawn deterministically from
    /// `fnv(ttl_salt ^ sid)`, so expiry waves don't synchronize across
    /// sessions yet replay bit-identically for a fixed salt.
    pub ttl_salt: u64,
    /// LRU cap on resident sessions; opening past the cap evicts the
    /// least-recently-used session (completing its in-flight jobs first).
    pub max_sessions: usize,
    /// Device slice leased by every session-submitted job.
    pub resources: ResourceRequest,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            ttl_s: 1.0e9,
            ttl_salt: 0,
            max_sessions: 64,
            resources: ResourceRequest::new(7, 8),
        }
    }
}

/// What a `LOAD` did to the session's resident compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadReport {
    /// Content hash of the newly resident program.
    pub phash: u64,
    /// Kernels resident after the load (every loop of the program).
    pub resident: u64,
    /// Kernels transplanted unchanged from the previous version.
    pub reused: u64,
    /// Kernels compiled fresh (changed, or first load).
    pub recompiled: u64,
    /// Stale entries dropped: previous-version kernel-cache entries that
    /// were not transplanted, plus the superseded program-cache entry.
    pub invalidated: u64,
}

/// One completed run, bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// `RunReport::total_s` bits (simulated wall seconds).
    pub total_bits: u64,
    /// Bits of the index-order sum of the output array.
    pub sum_bits: u64,
    /// The output array itself (feeds `BIND`).
    pub out: Vec<f64>,
}

/// What a `RUN` executes over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunInput {
    /// A deterministic fresh array of `n` doubles: `a[i] = (i % 97) + 1`.
    Fresh(usize),
    /// A previously bound result, fed back as input.
    Binding(String),
}

/// Session-layer counters. All monotone except `active`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Sessions ever opened.
    pub opened: u64,
    /// Sessions currently resident.
    pub active: u64,
    /// Sessions closed by their tenant.
    pub closed: u64,
    /// Sessions reaped by idle expiry.
    pub expired: u64,
    /// Sessions displaced by the LRU cap.
    pub evicted: u64,
    /// `LOAD`s accepted (source compiled).
    pub loads: u64,
    /// Runs completed successfully.
    pub runs: u64,
    /// Kernels made resident across all loads.
    pub resident_kernels: u64,
    /// Kernels transplanted from a previous program version.
    pub reused_kernels: u64,
    /// Kernels compiled fresh at load.
    pub recompiled_kernels: u64,
    /// Stale kernel-cache + program-cache entries dropped by reloads.
    pub invalidations: u64,
}

impl SessionStats {
    /// Both closed accounting identities (see module docs).
    pub fn identities_hold(&self) -> bool {
        self.opened == self.active + self.closed + self.expired + self.evicted
            && self.resident_kernels == self.reused_kernels + self.recompiled_kernels
    }
}

/// The compiled state a session keeps warm between submissions.
struct Resident {
    source: String,
    phash: u64,
    compiled: Arc<Compiled>,
    prints: BTreeMap<KernelKey, KernelFingerprint>,
    kernels: Arc<KernelCache>,
}

/// A run submitted without waiting; resolved by drain/close/shutdown.
struct PendingRun {
    handle: JobHandle,
    arr: japonica_ir::ArrayId,
}

struct Session {
    tenant: u32,
    ttl_s: f64,
    last_used: f64,
    program: Option<Resident>,
    bindings: BTreeMap<String, Vec<f64>>,
    last: Option<RunOutput>,
    pending: Vec<PendingRun>,
}

enum Backend {
    /// Real threads over a running [`Serve`]; shares its program cache.
    Threaded(Serve),
    /// Deterministic virtual clock: each run is a one-job batch on a
    /// [`SimServe`], which shares its program cache the same way.
    /// Bit-identical outputs to the threaded path.
    Virtual(Box<SimServe>),
}

#[derive(Default)]
struct Counters {
    opened: u64,
    closed: u64,
    expired: u64,
    evicted: u64,
    loads: u64,
    runs: u64,
    resident_kernels: u64,
    reused_kernels: u64,
    recompiled_kernels: u64,
    invalidations: u64,
}

struct State {
    sessions: BTreeMap<u64, Session>,
    next_sid: u64,
    counters: Counters,
}

/// Persistent per-tenant sessions over a serving backend. See module docs.
pub struct SessionManager {
    backend: Backend,
    cache: Arc<ProgramCache>,
    cfg: SessionConfig,
    state: Mutex<State>,
}

fn fnv_u64(x: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The deterministic fresh-input convention shared by both backends and
/// every differential oracle: `a[i] = (i % 97) + 1`.
pub fn fresh_input(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i % 97) + 1) as f64).collect()
}

impl SessionManager {
    /// Sessions over a running threaded service. The manager shares the
    /// service's program cache, so session invalidations are visible in
    /// `Serve::stats().cache_invalidations`.
    pub fn threaded(serve: Serve, cfg: SessionConfig) -> SessionManager {
        let cache = serve.program_cache();
        SessionManager {
            backend: Backend::Threaded(serve),
            cache,
            cfg,
            state: Mutex::new(State {
                sessions: BTreeMap::new(),
                next_sid: 0,
                counters: Counters::default(),
            }),
        }
    }

    /// Sessions over the deterministic virtual-clock simulator.
    pub fn virtual_clock(sim: SimServeConfig, cfg: SessionConfig) -> SessionManager {
        let sim = SimServe::new(sim);
        SessionManager {
            cache: sim.program_cache(),
            backend: Backend::Virtual(Box::new(sim)),
            cfg,
            state: Mutex::new(State {
                sessions: BTreeMap::new(),
                next_sid: 0,
                counters: Counters::default(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// This session's seeded lease TTL (see [`SessionConfig::ttl_salt`]).
    pub fn ttl_for(&self, sid: u64) -> f64 {
        let u = (fnv_u64(self.cfg.ttl_salt ^ sid) % 1024) as f64 / 1024.0;
        self.cfg.ttl_s * (0.75 + 0.5 * u)
    }

    /// Open a session for `tenant`. Past the LRU cap, the
    /// least-recently-used session is evicted first — its in-flight jobs
    /// complete and its results are dropped.
    pub fn open(&self, tenant: u32, now: f64) -> u64 {
        let mut st = self.lock();
        while st.sessions.len() >= self.cfg.max_sessions.max(1) {
            let victim = st
                .sessions
                .iter()
                .min_by(|(ia, a), (ib, b)| {
                    a.last_used
                        .partial_cmp(&b.last_used)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(ia.cmp(ib))
                })
                .map(|(id, _)| *id);
            let Some(victim) = victim else { break };
            if let Some(mut s) = st.sessions.remove(&victim) {
                for p in s.pending.drain(..) {
                    let _ = p.handle.wait();
                }
                st.counters.evicted += 1;
            }
        }
        let sid = st.next_sid;
        st.next_sid += 1;
        let ttl_s = self.ttl_for(sid);
        st.sessions.insert(
            sid,
            Session {
                tenant,
                ttl_s,
                last_used: now,
                program: None,
                bindings: BTreeMap::new(),
                last: None,
                pending: Vec::new(),
            },
        );
        st.counters.opened += 1;
        sid
    }

    /// Reap sessions idle past their lease. Sessions with in-flight jobs
    /// are never idle. Returns the reaped ids.
    pub fn expire_idle(&self, now: f64) -> Vec<u64> {
        let mut st = self.lock();
        let dead: Vec<u64> = st
            .sessions
            .iter()
            .filter(|(_, s)| s.pending.is_empty() && now - s.last_used > s.ttl_s)
            .map(|(id, _)| *id)
            .collect();
        for id in &dead {
            st.sessions.remove(id);
            st.counters.expired += 1;
        }
        dead
    }

    /// Load (or reload) `source` into the session, recompiling only the
    /// kernels whose content fingerprint changed.
    pub fn load(&self, sid: u64, source: &str, now: f64) -> Result<LoadReport, SessionError> {
        let compiled = self
            .cache
            .get_or_compile(source)
            .map_err(|e| SessionError::Compile(e.to_string()))?;
        let phash = content_hash(source);

        {
            let mut st = self.lock();
            let session = st
                .sessions
                .get_mut(&sid)
                .ok_or(SessionError::UnknownSession(sid))?;
            session.last_used = now;
            // Identical resubmission: the resident state is already exact,
            // so there is nothing to fingerprint.
            let identical = session
                .program
                .as_ref()
                .filter(|o| o.phash == phash && o.source == source)
                .map(|o| o.prints.len() as u64);
            if let Some(resident) = identical {
                let report = LoadReport {
                    phash,
                    resident,
                    reused: resident,
                    recompiled: 0,
                    invalidated: 0,
                };
                let c = &mut st.counters;
                c.loads += 1;
                c.resident_kernels += report.resident;
                c.reused_kernels += report.reused;
                return Ok(report);
            }
        }
        // Fingerprint outside the lock. Whatever another load installed
        // meanwhile is diffed below like any other resident program.
        let prints = kernel_fingerprints(&compiled.program);

        let mut st = self.lock();
        let session = st
            .sessions
            .get_mut(&sid)
            .ok_or(SessionError::UnknownSession(sid))?;
        let old = session.program.take();

        let kernels = Arc::new(KernelCache::new());
        let (mut reused, mut recompiled, mut invalidated) = (0u64, 0u64, 0u64);
        let mut transplanted: BTreeSet<KernelKey> = BTreeSet::new();
        for (key, fp) in &prints {
            let moved = old
                .as_ref()
                .and_then(|o| {
                    o.prints
                        .get(key)
                        .filter(|ofp| ofp.text == fp.text)
                        .map(|ofp| kernels.adopt_from(&o.kernels, ofp.loop_id.0, fp.loop_id.0))
                })
                .unwrap_or(false);
            if moved {
                reused += 1;
                transplanted.insert(key.clone());
            } else {
                if let Some((_, _, l)) = compiled.program.find_loop(fp.loop_id) {
                    let _ = kernels.get_or_compile(&compiled.program, l);
                }
                recompiled += 1;
            }
        }
        if let Some(o) = &old {
            for (key, ofp) in &o.prints {
                if !transplanted.contains(key) && o.kernels.invalidate(ofp.loop_id.0) {
                    invalidated += 1;
                }
            }
            if o.phash != phash {
                invalidated += self.cache.invalidate(o.phash) as u64;
            }
        }

        let report = LoadReport {
            phash,
            resident: prints.len() as u64,
            reused,
            recompiled,
            invalidated,
        };
        debug_assert_eq!(report.resident, report.reused + report.recompiled);
        session.program = Some(Resident {
            source: source.to_string(),
            phash,
            compiled,
            prints,
            kernels,
        });
        let c = &mut st.counters;
        c.loads += 1;
        c.resident_kernels += report.resident;
        c.reused_kernels += report.reused;
        c.recompiled_kernels += report.recompiled;
        c.invalidations += report.invalidated;
        Ok(report)
    }

    /// Snapshot what a run needs, releasing the lock before execution.
    fn prepare(
        &self,
        sid: u64,
        entry: &str,
        input: &RunInput,
        now: f64,
    ) -> Result<(JobRequest, japonica_ir::ArrayId), SessionError> {
        let mut st = self.lock();
        let session = st
            .sessions
            .get_mut(&sid)
            .ok_or(SessionError::UnknownSession(sid))?;
        session.last_used = now;
        let resident = session
            .program
            .as_ref()
            .ok_or(SessionError::NoProgram(sid))?;
        let (_, f) = resident
            .compiled
            .program
            .function_by_name(entry)
            .ok_or_else(|| SessionError::BadEntry(format!("no function named {entry}")))?;
        let sig_ok = f.params.len() == 2
            && f.params[0].ty == ParamTy::Array(Ty::Double)
            && f.params[1].ty == ParamTy::Scalar(Ty::Int);
        if !sig_ok {
            return Err(SessionError::BadEntry(format!(
                "{entry} must take (double[], int)"
            )));
        }
        let data = match input {
            RunInput::Fresh(n) => fresh_input(*n),
            RunInput::Binding(name) => session
                .bindings
                .get(name)
                .cloned()
                .ok_or_else(|| SessionError::UnknownBinding(name.clone()))?,
        };
        let mut heap = Heap::new();
        let arr = heap.alloc_doubles(&data);
        let req = JobRequest::new(
            resident.source.clone(),
            entry,
            vec![Value::Array(arr), Value::Int(data.len() as i32)],
            heap,
            self.cfg.resources,
        )
        .with_tenant(session.tenant)
        .with_kernels(Arc::clone(&resident.kernels));
        Ok((req, arr))
    }

    fn finish(
        report_total_s: f64,
        heap: &Heap,
        arr: japonica_ir::ArrayId,
    ) -> Result<RunOutput, SessionError> {
        let out = heap
            .read_doubles(arr)
            .map_err(|e| SessionError::Run(e.to_string()))?;
        let sum: f64 = out.iter().sum();
        Ok(RunOutput {
            total_bits: report_total_s.to_bits(),
            sum_bits: sum.to_bits(),
            out,
        })
    }

    fn record(&self, sid: u64, output: &RunOutput, now: f64) {
        let mut st = self.lock();
        st.counters.runs += 1;
        if let Some(s) = st.sessions.get_mut(&sid) {
            s.last = Some(output.clone());
            s.last_used = now;
        }
    }

    /// Run `entry` over `input`, blocking until the result is bit-final.
    pub fn run(
        &self,
        sid: u64,
        entry: &str,
        input: RunInput,
        now: f64,
    ) -> Result<RunOutput, SessionError> {
        let (req, arr) = self.prepare(sid, entry, &input, now)?;
        let output = match &self.backend {
            Backend::Threaded(serve) => {
                let handle = serve
                    .submit(req)
                    .map_err(|e| SessionError::Run(e.to_string()))?;
                let result = handle
                    .wait()
                    .map_err(|e| SessionError::Run(e.to_string()))?;
                SessionManager::finish(result.report.total_s, &result.heap, arr)?
            }
            Backend::Virtual(sim) => match sim.run(vec![(0.0, req)]).outcomes.into_iter().next() {
                Some(SimJobOutcome::Completed { report, heap, .. }) => {
                    SessionManager::finish(report.total_s, &heap, arr)?
                }
                Some(SimJobOutcome::Failed(e)) => return Err(SessionError::Run(e.to_string())),
                Some(SimJobOutcome::RejectedFull) => {
                    return Err(SessionError::Run("queue full".to_string()))
                }
                Some(SimJobOutcome::RejectedInvalid) => {
                    return Err(SessionError::Run("invalid request".to_string()))
                }
                Some(SimJobOutcome::DeadlineMissed { .. }) => {
                    return Err(SessionError::Run("deadline missed".to_string()))
                }
                None => return Err(SessionError::Run("no outcome".to_string())),
            },
        };
        self.record(sid, &output, now);
        Ok(output)
    }

    /// Submit a run without waiting. On the threaded backend the job is
    /// left in flight (resolved by [`drain`], [`close`] or [`shutdown`],
    /// which complete it before the session goes away); the virtual
    /// backend executes synchronously, so the observable state after a
    /// drain is identical either way.
    ///
    /// [`drain`]: SessionManager::drain
    /// [`close`]: SessionManager::close
    /// [`shutdown`]: SessionManager::shutdown
    pub fn run_detached(
        &self,
        sid: u64,
        entry: &str,
        input: RunInput,
        now: f64,
    ) -> Result<(), SessionError> {
        match &self.backend {
            Backend::Virtual(_) => self.run(sid, entry, input, now).map(|_| ()),
            Backend::Threaded(serve) => {
                let (req, arr) = self.prepare(sid, entry, &input, now)?;
                let handle = serve
                    .submit(req)
                    .map_err(|e| SessionError::Run(e.to_string()))?;
                let mut st = self.lock();
                match st.sessions.get_mut(&sid) {
                    Some(s) => s.pending.push(PendingRun { handle, arr }),
                    None => {
                        // Session vanished between prepare and submit
                        // (concurrent close): complete the job so no
                        // lease leaks, drop the result.
                        drop(st);
                        let _ = handle.wait();
                    }
                }
                Ok(())
            }
        }
    }

    fn drain_pending(
        &self,
        pending: Vec<PendingRun>,
        sid: u64,
        now: f64,
    ) -> Result<usize, SessionError> {
        let mut done = 0usize;
        let mut first_err = None;
        for p in pending {
            match p.handle.wait() {
                Ok(result) => {
                    match SessionManager::finish(result.report.total_s, &result.heap, p.arr) {
                        Ok(out) => {
                            self.record(sid, &out, now);
                            done += 1;
                        }
                        Err(e) => first_err = first_err.or(Some(e)),
                    }
                }
                Err(e) => first_err = first_err.or(Some(SessionError::Run(e.to_string()))),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(done),
        }
    }

    /// Complete every in-flight job of the session, recording results in
    /// submission order (the last becomes the bindable result).
    pub fn drain(&self, sid: u64, now: f64) -> Result<usize, SessionError> {
        let pending = {
            let mut st = self.lock();
            let session = st
                .sessions
                .get_mut(&sid)
                .ok_or(SessionError::UnknownSession(sid))?;
            std::mem::take(&mut session.pending)
        };
        self.drain_pending(pending, sid, now)
    }

    /// Name the session's most recent result. Returns its length.
    pub fn bind(&self, sid: u64, name: &str, now: f64) -> Result<usize, SessionError> {
        let mut st = self.lock();
        let session = st
            .sessions
            .get_mut(&sid)
            .ok_or(SessionError::UnknownSession(sid))?;
        session.last_used = now;
        let last = session.last.as_ref().ok_or(SessionError::NoResult(sid))?;
        let out = last.out.clone();
        let len = out.len();
        session.bindings.insert(name.to_string(), out);
        Ok(len)
    }

    /// Length and index-order sum bits of a named binding.
    pub fn show(&self, sid: u64, name: &str, now: f64) -> Result<(usize, u64), SessionError> {
        let mut st = self.lock();
        let session = st
            .sessions
            .get_mut(&sid)
            .ok_or(SessionError::UnknownSession(sid))?;
        session.last_used = now;
        let v = session
            .bindings
            .get(name)
            .ok_or_else(|| SessionError::UnknownBinding(name.to_string()))?;
        let sum: f64 = v.iter().sum();
        Ok((v.len(), sum.to_bits()))
    }

    /// Close the session, completing its in-flight jobs first.
    pub fn close(&self, sid: u64, now: f64) -> Result<(), SessionError> {
        let pending = {
            let mut st = self.lock();
            let session = st
                .sessions
                .get_mut(&sid)
                .ok_or(SessionError::UnknownSession(sid))?;
            std::mem::take(&mut session.pending)
        };
        // Complete in-flight work while the session still exists, so
        // results land and no device lease is abandoned.
        let drained = self.drain_pending(pending, sid, now);
        let mut st = self.lock();
        if st.sessions.remove(&sid).is_some() {
            st.counters.closed += 1;
        }
        drained.map(|_| ())
    }

    /// Current counters. `active` is the live session count.
    pub fn stats(&self) -> SessionStats {
        let st = self.lock();
        let c = &st.counters;
        SessionStats {
            opened: c.opened,
            active: st.sessions.len() as u64,
            closed: c.closed,
            expired: c.expired,
            evicted: c.evicted,
            loads: c.loads,
            runs: c.runs,
            resident_kernels: c.resident_kernels,
            reused_kernels: c.reused_kernels,
            recompiled_kernels: c.recompiled_kernels,
            invalidations: c.invalidations,
        }
    }

    /// The program cache this manager diffs and invalidates against — the
    /// backend's own, on either backend.
    pub fn program_cache(&self) -> Arc<ProgramCache> {
        Arc::clone(&self.cache)
    }

    /// Run `f` against the threaded backend's service (lease-leak and
    /// counter oracles); `None` on the virtual backend.
    pub fn with_serve<R>(&self, f: impl FnOnce(&Serve) -> R) -> Option<R> {
        match &self.backend {
            Backend::Threaded(serve) => Some(f(serve)),
            Backend::Virtual(_) => None,
        }
    }

    /// Drain every in-flight job, then shut the backend down. Resident
    /// sessions stay counted as `active` in the returned snapshot (they
    /// were never closed, expired or evicted). The second element is the
    /// threaded service's final counters (`None` on virtual).
    pub fn shutdown(self) -> (SessionStats, Option<ServeStats>) {
        let sids: Vec<u64> = {
            let st = self.lock();
            st.sessions.keys().copied().collect()
        };
        for sid in sids {
            let _ = self.drain(sid, f64::MAX);
        }
        let stats = self.stats();
        let serve_stats = match self.backend {
            Backend::Threaded(serve) => Some(serve.shutdown()),
            Backend::Virtual(_) => None,
        };
        (stats, serve_stats)
    }
}
