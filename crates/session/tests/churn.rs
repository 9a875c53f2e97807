//! Property: under arbitrary interleavings of OPEN / LOAD / edit / RUN /
//! detached RUN / expiry / CLOSE, the session accounting identities stay
//! closed after **every** operation, and the serving layer never leaks a
//! device lease — the pool returns to fully free and the final service
//! counters account for every job.

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

fn churn(mgr: &SessionManager, ops: &[(u8, u8)], threaded: bool) {
    let mut sids: Vec<u64> = Vec::new();
    let mut now = 0.0f64;
    for &(op, arg) in ops {
        now += 1.0;
        let pick = |sids: &[u64]| -> Option<u64> {
            if sids.is_empty() {
                None
            } else {
                Some(sids[arg as usize % sids.len()])
            }
        };
        match op % 6 {
            0 => sids.push(mgr.open(u32::from(arg % 4), now)),
            1 => {
                if let Some(sid) = pick(&sids) {
                    // Errors (unknown session after eviction/expiry) are
                    // part of the property: identities must still hold.
                    let _ = mgr.load(sid, &variant(arg), now);
                }
            }
            2 => {
                if let Some(sid) = pick(&sids) {
                    let entry = if arg % 2 == 0 { "fa" } else { "fb" };
                    let _ = mgr.run(sid, entry, RunInput::Fresh(64), now);
                }
            }
            3 => {
                if let Some(sid) = pick(&sids) {
                    let _ = mgr.run_detached(sid, "fa", RunInput::Fresh(64), now);
                }
            }
            4 => {
                now += f64::from(arg);
                mgr.expire_idle(now);
            }
            _ => {
                if let Some(sid) = pick(&sids) {
                    let _ = mgr.close(sid, now);
                }
            }
        }
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
        churn(&mgr, &ops, false);
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
        churn(&mgr, &ops, true);
        let (stats, serve_stats) = mgr.shutdown();
        prop_assert!(stats.identities_hold(), "{stats:?}");
        let ss = serve_stats.expect("threaded stats");
        prop_assert!(ss.accounts_for_every_job(), "{ss:?}");
        prop_assert_eq!(ss.in_flight, 0, "job left in flight");
    }
}
