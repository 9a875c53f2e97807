//! Property: under arbitrary interleavings of OPEN / LOAD / edit / RUN /
//! detached RUN / expiry / CLOSE, the session accounting identities stay
//! closed after **every** operation, and the serving layer never leaks a
//! device lease — the pool returns to fully free and the final service
//! counters account for every job. The threaded and virtual-clock backends
//! give the same reply to every operation.

use japonica_serve::{Serve, ServeConfig, SimServeConfig};
use japonica_session::{RunInput, SessionConfig, SessionManager};
use proptest::prelude::*;

const BASE: &str = "static void fa(double[] a, int n) {
    /* acc parallel */
    for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0 + 1.0; }
}
static void fb(double[] a, int n) {
    /* acc parallel */
    for (int i = 0; i < n; i++) { a[i] = a[i] - 0.5; }
}";

fn variant(v: u8) -> String {
    match v % 3 {
        0 => BASE.to_string(),
        1 => BASE.replace("* 2.0", "* 3.0"),
        _ => BASE.replace("- 0.5", "- 0.25"),
    }
}

/// Apply `ops` to `mgr`, returning every reply. With `settle`, each
/// detached run is drained at once, so it leaves no work in flight.
fn churn(mgr: &SessionManager, ops: &[(u8, u8)], threaded: bool, settle: bool) -> Vec<String> {
    let mut sids: Vec<u64> = Vec::new();
    let mut replies = Vec::new();
    let mut now = 0.0f64;
    for &(op, arg) in ops {
        now += 1.0;
        let picked = (!sids.is_empty()).then(|| sids[arg as usize % sids.len()]);
        // Errors (unknown session after eviction/expiry) are part of the
        // property: identities must still hold.
        let reply = match (op % 6, picked) {
            (0, _) => {
                let sid = mgr.open(u32::from(arg % 4), now);
                sids.push(sid);
                sid.to_string()
            }
            (1, Some(sid)) => format!("{:?}", mgr.load(sid, &variant(arg), now)),
            (2, Some(sid)) => {
                let entry = if arg % 2 == 0 { "fa" } else { "fb" };
                format!("{:?}", mgr.run(sid, entry, RunInput::Fresh(64), now))
            }
            (3, Some(sid)) => {
                let reply = format!(
                    "{:?}",
                    mgr.run_detached(sid, "fa", RunInput::Fresh(64), now)
                );
                if settle {
                    let _ = mgr.drain(sid, now);
                }
                reply
            }
            (4, _) => {
                now += f64::from(arg);
                format!("{:?}", mgr.expire_idle(now))
            }
            (5, Some(sid)) => format!("{:?}", mgr.close(sid, now)),
            _ => String::new(),
        };
        replies.push(reply);
        let stats = mgr.stats();
        assert!(
            stats.identities_hold(),
            "identity broken after op {op} arg {arg}: {stats:?}"
        );
    }
    if threaded {
        // Every lease must already be back (close/drain complete
        // in-flight jobs; sync runs release at completion). In-flight
        // detached work may remain on still-open sessions, so drain
        // those first.
        for &sid in &sids {
            let _ = mgr.drain(sid, now);
        }
        let snap = mgr
            .with_serve(|s| s.pool_snapshots()[0])
            .expect("threaded backend");
        assert_eq!(snap.free_sms, snap.sm_count, "leaked SM lease");
        assert_eq!(snap.free_cpu_slots, snap.cpu_slots, "leaked CPU slots");
    }
    replies
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    #[test]
    fn session_churn_keeps_identities_closed_virtual(
        ops in proptest::collection::vec((0u8..6, 0u8..16), 1..50),
        salt in 0u64..1000,
    ) {
        let cfg = SessionConfig {
            ttl_s: 6.0,
            ttl_salt: salt,
            max_sessions: 3,
            ..SessionConfig::default()
        };
        let mgr = SessionManager::virtual_clock(SimServeConfig::default(), cfg);
        churn(&mgr, &ops, false, false);
        let (stats, _) = mgr.shutdown();
        prop_assert!(stats.identities_hold(), "{stats:?}");
    }

    #[test]
    fn session_churn_keeps_identities_closed_and_leases_freed_threaded(
        ops in proptest::collection::vec((0u8..6, 0u8..16), 1..40),
    ) {
        let cfg = SessionConfig {
            ttl_s: 6.0,
            ttl_salt: 7,
            max_sessions: 3,
            ..SessionConfig::default()
        };
        let serve = Serve::start(ServeConfig { workers: 3, ..ServeConfig::default() });
        let mgr = SessionManager::threaded(serve, cfg);
        churn(&mgr, &ops, true, false);
        let (stats, serve_stats) = mgr.shutdown();
        prop_assert!(stats.identities_hold(), "{stats:?}");
        let ss = serve_stats.expect("threaded stats");
        prop_assert!(ss.accounts_for_every_job(), "{ss:?}");
        prop_assert_eq!(ss.in_flight, 0, "job left in flight");
    }
}

proptest! {
    // Runs are rare among uniform ops (a session must be opened and loaded
    // before it expires), so this property needs more cases to compare any.
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The same ops through the virtual clock and through threads give the
    /// same replies and the same final counters. Detached runs settle at
    /// once: on threads a run left in flight keeps its session from
    /// expiring, which the virtual clock never sees.
    #[test]
    fn session_churn_threaded_and_virtual_agree(
        ops in proptest::collection::vec((0u8..6, 0u8..16), 1..50),
        salt in 0u64..1000,
    ) {
        let cfg = SessionConfig {
            ttl_s: 6.0,
            ttl_salt: salt,
            max_sessions: 3,
            ..SessionConfig::default()
        };
        let virt = SessionManager::virtual_clock(SimServeConfig::default(), cfg.clone());
        let serve = Serve::start(ServeConfig { workers: 3, ..ServeConfig::default() });
        let thr = SessionManager::threaded(serve, cfg);
        prop_assert_eq!(churn(&virt, &ops, false, true), churn(&thr, &ops, true, true));
        let ((stats, _), (thr_stats, _)) = (virt.shutdown(), thr.shutdown());
        prop_assert!(stats.identities_hold(), "{stats:?}");
        prop_assert_eq!(stats, thr_stats);
    }
}
