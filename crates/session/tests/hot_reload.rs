//! Differential oracles for incremental recompilation: a warm session's
//! post-edit run must be bit-identical to a cold compile of the edited
//! program — against a fresh session manager, against a solo
//! `simulate_batch`, and across the threaded/virtual backends.

use japonica_serve::{
    simulate_batch, JobRequest, ResourceRequest, Serve, ServeConfig, SimJobOutcome, SimServeConfig,
};
use japonica_session::{fresh_input, RunInput, SessionConfig, SessionError, SessionManager};

const V1: &str = "static double gain(double x) { return x * 2.0; }
static void fa(double[] a, int n) {
    /* acc parallel */
    for (int i = 0; i < n; i++) { a[i] = gain(a[i]) + 1.0; }
}
static void fb(double[] a, int n) {
    /* acc parallel */
    for (int i = 0; i < n; i++) { a[i] = a[i] * 3.0; }
}";

fn v2() -> String {
    V1.replace("a[i] * 3.0", "a[i] * 5.0 - 1.0")
}

fn virtual_mgr() -> SessionManager {
    SessionManager::virtual_clock(SimServeConfig::default(), SessionConfig::default())
}

fn threaded_mgr() -> SessionManager {
    SessionManager::threaded(
        Serve::start(ServeConfig::default()),
        SessionConfig::default(),
    )
}

/// Bit-exact solo reference: compile the source cold and run it through
/// the virtual-clock simulator with the session input convention.
fn solo_bits(source: &str, entry: &str, n: usize) -> (u64, u64) {
    let mut heap = japonica_ir::Heap::new();
    let data = fresh_input(n);
    let arr = heap.alloc_doubles(&data);
    let req = JobRequest::new(
        source,
        entry,
        vec![
            japonica_ir::Value::Array(arr),
            japonica_ir::Value::Int(n as i32),
        ],
        heap,
        ResourceRequest::new(7, 8),
    );
    let batch = simulate_batch(&SimServeConfig::default(), vec![(0.0, req)]);
    match batch.outcomes.into_iter().next() {
        Some(SimJobOutcome::Completed { report, heap, .. }) => {
            let out = heap.read_doubles(arr).expect("output array readable");
            let sum: f64 = out.iter().sum();
            (report.total_s.to_bits(), sum.to_bits())
        }
        other => panic!("solo run did not complete: {other:?}"),
    }
}

#[test]
fn warm_reload_recompiles_only_the_edited_kernel() {
    let mgr = virtual_mgr();
    let sid = mgr.open(0, 0.0);

    let first = mgr.load(sid, V1, 1.0).expect("v1 loads");
    assert_eq!(first.resident, 2);
    assert_eq!(first.reused, 0);
    assert_eq!(first.recompiled, 2);
    assert_eq!(first.invalidated, 0);

    let cold = mgr
        .run(sid, "fb", RunInput::Fresh(256), 2.0)
        .expect("v1 runs");

    // Edit touches only `fb`; `fa` (and its callee `gain`) are untouched.
    let edited = v2();
    let second = mgr.load(sid, &edited, 3.0).expect("v2 loads");
    assert_eq!(second.resident, 2);
    assert_eq!(second.reused, 1, "fa must transplant");
    assert_eq!(second.recompiled, 1, "only fb recompiles");
    // Stale fb kernel entry + superseded v1 program-cache entry.
    assert_eq!(second.invalidated, 2);
    assert_ne!(second.phash, first.phash);

    let warm = mgr
        .run(sid, "fb", RunInput::Fresh(256), 4.0)
        .expect("v2 runs");
    assert_ne!(warm.sum_bits, cold.sum_bits, "the edit changed fb's output");

    // Differential oracle 1: warm incremental state vs a cold manager.
    let fresh = virtual_mgr();
    let fsid = fresh.open(0, 0.0);
    let load = fresh.load(fsid, &edited, 1.0).expect("cold v2 loads");
    assert_eq!(load.reused, 0);
    let cold_run = fresh
        .run(fsid, "fb", RunInput::Fresh(256), 2.0)
        .expect("cold v2 runs");
    assert_eq!(warm.total_bits, cold_run.total_bits);
    assert_eq!(warm.sum_bits, cold_run.sum_bits);
    assert_eq!(warm.out, cold_run.out);

    // Differential oracle 2: vs a solo simulate_batch with no session
    // layer at all.
    let (solo_total, solo_sum) = solo_bits(&edited, "fb", 256);
    assert_eq!(warm.total_bits, solo_total);
    assert_eq!(warm.sum_bits, solo_sum);

    // Counter identities close, and the invalidations surfaced in the
    // shared program cache.
    let stats = mgr.stats();
    assert!(stats.identities_hold(), "{stats:?}");
    assert!(stats.reused_kernels > 0);
    assert_eq!(mgr.program_cache().invalidations(), 1);
}

#[test]
fn editing_a_shared_helper_invalidates_its_callers() {
    let mgr = virtual_mgr();
    let sid = mgr.open(0, 0.0);
    mgr.load(sid, V1, 1.0).expect("v1 loads");
    // `gain` is called from `fa`'s kernel: editing it must recompile
    // `fa` even though fa's own text is unchanged, while `fb` reuses.
    let edited = V1.replace("x * 2.0", "x * 2.5");
    let r = mgr.load(sid, &edited, 2.0).expect("edited helper loads");
    assert_eq!(r.reused, 1, "fb must transplant");
    assert_eq!(r.recompiled, 1, "fa must recompile via its callee");
}

#[test]
fn identical_resubmission_reuses_everything() {
    let mgr = virtual_mgr();
    let sid = mgr.open(3, 0.0);
    mgr.load(sid, V1, 1.0).expect("first load");
    let again = mgr.load(sid, V1, 2.0).expect("identical reload");
    assert_eq!(again.reused, 2);
    assert_eq!(again.recompiled, 0);
    assert_eq!(again.invalidated, 0);
    let stats = mgr.stats();
    assert!(stats.identities_hold(), "{stats:?}");
}

#[test]
fn threaded_and_virtual_sessions_agree_bit_for_bit() {
    let edited = v2();
    let script: &[(&str, &str)] = &[
        ("load", V1),
        ("run", "fb"),
        ("load", &edited),
        ("run", "fb"),
    ];
    let mut fingerprints = Vec::new();
    for backend in ["threaded", "virtual"] {
        let mgr = if backend == "threaded" {
            threaded_mgr()
        } else {
            virtual_mgr()
        };
        let sid = mgr.open(0, 0.0);
        let mut fp = String::new();
        for (i, (op, arg)) in script.iter().enumerate() {
            let now = (i + 1) as f64;
            match *op {
                "load" => {
                    let r = mgr.load(sid, arg, now).expect("load");
                    fp.push_str(&format!(
                        "L {:016x} {} {} {}\n",
                        r.phash, r.reused, r.recompiled, r.invalidated
                    ));
                }
                _ => {
                    let o = mgr.run(sid, arg, RunInput::Fresh(192), now).expect("run");
                    fp.push_str(&format!("R {:016x} {:016x}\n", o.total_bits, o.sum_bits));
                }
            }
        }
        let (stats, serve_stats) = mgr.shutdown();
        assert!(stats.identities_hold(), "{backend}: {stats:?}");
        if let Some(ss) = serve_stats {
            assert!(ss.accounts_for_every_job(), "{backend}: {ss:?}");
            assert_eq!(ss.in_flight, 0, "{backend} leaked a lease");
        }
        fingerprints.push(fp);
    }
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "threaded and virtual session transcripts diverged"
    );
}

#[test]
fn detached_runs_complete_on_close_and_leak_nothing() {
    let mgr = threaded_mgr();
    let sid = mgr.open(0, 0.0);
    mgr.load(sid, V1, 1.0).expect("load");
    for i in 0..4 {
        mgr.run_detached(sid, "fa", RunInput::Fresh(128), 2.0 + i as f64)
            .expect("detached submit");
    }
    mgr.close(sid, 10.0).expect("close drains in-flight work");
    assert_eq!(mgr.stats().runs, 4, "all detached runs recorded");
    let snap = mgr
        .with_serve(|s| s.pool_snapshots()[0])
        .expect("threaded backend");
    assert_eq!(snap.free_sms, snap.sm_count, "device leases all released");
    let (stats, serve_stats) = mgr.shutdown();
    assert!(stats.identities_hold(), "{stats:?}");
    let ss = serve_stats.expect("threaded stats");
    assert!(ss.accounts_for_every_job(), "{ss:?}");
    assert_eq!(ss.in_flight, 0);
}

#[test]
fn lifecycle_errors_have_stable_codes() {
    let mgr = virtual_mgr();
    assert_eq!(mgr.load(99, V1, 0.0), Err(SessionError::UnknownSession(99)));
    let sid = mgr.open(0, 1.0);
    assert_eq!(
        mgr.run(sid, "fb", RunInput::Fresh(8), 2.0),
        Err(SessionError::NoProgram(sid))
    );
    assert!(matches!(
        mgr.load(sid, "static void broken(", 3.0),
        Err(SessionError::Compile(_))
    ));
    mgr.load(sid, V1, 4.0).expect("load");
    assert!(matches!(
        mgr.run(sid, "nope", RunInput::Fresh(8), 5.0),
        Err(SessionError::BadEntry(_))
    ));
    assert!(matches!(
        mgr.run(sid, "gain", RunInput::Fresh(8), 6.0),
        Err(SessionError::BadEntry(_)),
    ));
    assert_eq!(mgr.bind(sid, "x", 7.0), Err(SessionError::NoResult(sid)));
    mgr.run(sid, "fa", RunInput::Fresh(8), 8.0).expect("run");
    assert_eq!(mgr.bind(sid, "x", 9.0), Ok(8));
    let (len, _) = mgr.show(sid, "x", 10.0).expect("show");
    assert_eq!(len, 8);
    assert_eq!(
        mgr.show(sid, "y", 11.0),
        Err(SessionError::UnknownBinding("y".to_string()))
    );
    // A bound result feeds back as input.
    let o = mgr
        .run(sid, "fa", RunInput::Binding("x".to_string()), 12.0)
        .expect("run on binding");
    assert_eq!(o.out.len(), 8);
}

#[test]
fn ttl_expiry_and_lru_eviction_close_the_session_identity() {
    let cfg = SessionConfig {
        ttl_s: 10.0,
        ttl_salt: 42,
        max_sessions: 2,
        ..SessionConfig::default()
    };
    let mgr = SessionManager::virtual_clock(SimServeConfig::default(), cfg);
    let a = mgr.open(0, 0.0);
    let _b = mgr.open(1, 1.0);
    // Cap is 2: a third open evicts the LRU session (a).
    let c = mgr.open(2, 2.0);
    assert_eq!(mgr.stats().evicted, 1);
    assert!(matches!(
        mgr.load(a, V1, 3.0),
        Err(SessionError::UnknownSession(_))
    ));
    // Seeded lease TTLs are deterministic and within [0.75, 1.25]·base.
    let ttl = mgr.ttl_for(c);
    assert!((7.5..=12.5).contains(&ttl));
    assert_eq!(ttl, mgr.ttl_for(c));
    // Far past every lease: both survivors expire.
    let dead = mgr.expire_idle(1.0e6);
    assert_eq!(dead.len(), 2);
    let stats = mgr.stats();
    assert_eq!(stats.active, 0);
    assert_eq!(stats.expired, 2);
    assert!(stats.identities_hold(), "{stats:?}");
}
