//! `session_edit`: the line protocol over persistent sessions on the
//! threaded service. A seeded script interleaves two sessions that load a
//! four-kernel program, edit one kernel at a time and run between edits,
//! so LOAD (fingerprint, invalidate, recompile) writes beside RUN's reads
//! of the resident tiers. Every reply is compared with the virtual-clock
//! backend's reply to the same script.

use crate::harness::{shuffle, timed_setup, Budget, Ledger, Measured};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use japonica_serve::{Serve, ServeConfig, SimServeConfig};
use japonica_session::{Engine, SessionConfig, SessionManager, SessionStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const SESSIONS: usize = 2;
const KERNELS: usize = 4;
/// Steps per pass; each step is one RUN per session.
const STEPS: usize = 32;
const EDIT_SHARE: f64 = 0.3;
const RUN_SIZES: [usize; 3] = [4096, 8192, 16384];

/// The program a session holds: four kernels over `(double[], int)`, each
/// carrying one constant an edit bumps, so an edit changes exactly one
/// kernel's text.
fn program(variants: &[u32; KERNELS]) -> String {
    let c = |k: usize| 2 + variants[k];
    format!(
        "static void k0(double[] a, int n) {{\n\
         \x20   /* acc parallel */\n\
         \x20   for (int i = 0; i < n; i++) {{ a[i] = a[i] * {}.0 + 0.5; }}\n\
         }}\n\
         static void k1(double[] a, int n) {{\n\
         \x20   /* acc parallel */\n\
         \x20   for (int i = 0; i < n; i++) {{ a[i] = a[i] * a[i] * 0.001 + {}.0; }}\n\
         }}\n\
         static void k2(double[] a, int n) {{\n\
         \x20   /* acc parallel */\n\
         \x20   for (int i = 0; i < n; i++) {{ a[i] = Math.sqrt(Math.abs(a[i])) + {}.0; }}\n\
         }}\n\
         static void k3(double[] a, int n) {{\n\
         \x20   /* acc parallel */\n\
         \x20   for (int i = 0; i < n; i++) {{\n\
         \x20       double s = a[i];\n\
         \x20       for (int j = 0; j < 4; j++) {{ s = s * 0.75 + {}.0; }}\n\
         \x20       a[i] = s;\n\
         \x20   }}\n\
         }}",
        c(0),
        c(1),
        c(2),
        c(3)
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Open,
    /// A session's first LOAD: everything compiles.
    LoadCold,
    /// A LOAD after an edit: one kernel recompiles, three are reused.
    Reload,
    /// A LOAD of the source already resident.
    LoadWarm,
    Run,
    Bind,
    Show,
    Close,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Open => "session.open",
            Kind::LoadCold | Kind::Reload | Kind::LoadWarm => "session.load",
            Kind::Run => "session.run",
            Kind::Bind => "session.bind",
            Kind::Show => "session.show",
            Kind::Close => "session.close",
        }
    }
}

/// One protocol command: the lines that make it up (a LOAD is a header
/// plus its payload).
struct Command {
    kind: Kind,
    lines: Vec<String>,
}

fn load(kind: Kind, sid: usize, variants: &[u32; KERNELS]) -> Command {
    let src = program(variants);
    let mut lines = vec![format!("LOAD {sid} {}", src.lines().count())];
    lines.extend(src.lines().map(str::to_string));
    Command { kind, lines }
}

/// The seeded script of one pass. Every seed's script does the same work
/// — exactly `EDIT_SHARE` of the steps edit, kernels and RUN sizes are used
/// equally often — in a seeded order. Session ids are the manager's first
/// two (a pass starts a fresh manager), so the script is the same text
/// every pass and on both backends.
fn script(seed: u64) -> Vec<Command> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e55_ed17);
    let one = |kind, line: String| Command {
        kind,
        lines: vec![line],
    };
    let slots = STEPS * SESSIONS;
    let edits = (slots as f64 * EDIT_SHARE).round() as usize;
    let mut edit: Vec<bool> = (0..slots).map(|i| i < edits).collect();
    let mut edited: Vec<usize> = (0..slots).map(|i| i % KERNELS).collect();
    shuffle(&mut rng, &mut edit);
    shuffle(&mut rng, &mut edited);
    // A step with `step % 8 == 4` runs over the result of the step before
    // it; those two steps use the middle size so that the fed-back length
    // is the same under every seed. Every other slot draws from a balanced
    // (kernel, size) product.
    let fixed = |step: usize| matches!(step % 8, 3 | 4);
    let free = (0..STEPS).filter(|s| !fixed(*s)).count() * SESSIONS;
    let mut pairs: Vec<(usize, usize)> = (0..free)
        .map(|i| (i % KERNELS, RUN_SIZES[(i / KERNELS) % RUN_SIZES.len()]))
        .collect();
    let mut mid: Vec<usize> = (0..slots - free).map(|i| i % KERNELS).collect();
    shuffle(&mut rng, &mut pairs);
    shuffle(&mut rng, &mut mid);
    let (mut pairs, mut mid) = (pairs.into_iter(), mid.into_iter());
    let (entry, size): (Vec<usize>, Vec<usize>) = (0..slots)
        .map(|slot| {
            if fixed(slot / SESSIONS) {
                (mid.next().expect("one per fixed slot"), RUN_SIZES[1])
            } else {
                pairs.next().expect("one per free slot")
            }
        })
        .unzip();

    let mut cmds = Vec::new();
    let mut variants = [[0u32; KERNELS]; SESSIONS];
    for (sid, v) in variants.iter().enumerate() {
        cmds.push(one(Kind::Open, format!("OPEN {sid}")));
        cmds.push(load(Kind::LoadCold, sid, v));
    }
    for step in 0..STEPS {
        for (sid, v) in variants.iter_mut().enumerate() {
            let slot = step * SESSIONS + sid;
            if step % 8 == 7 {
                cmds.push(load(Kind::LoadWarm, sid, v));
            }
            if edit[slot] {
                v[edited[slot]] += 1;
                cmds.push(load(Kind::Reload, sid, v));
            }
            // Every eighth step feeds the previous result back in.
            if step % 8 == 4 {
                cmds.push(one(Kind::Bind, format!("BIND {sid} r{step}")));
                cmds.push(one(Kind::Show, format!("SHOW {sid} r{step}")));
                cmds.push(one(
                    Kind::Run,
                    format!("RUN {sid} k{} @r{step}", entry[slot]),
                ));
            } else {
                cmds.push(one(
                    Kind::Run,
                    format!("RUN {sid} k{} {}", entry[slot], size[slot]),
                ));
            }
        }
    }
    for sid in 0..SESSIONS {
        cmds.push(one(Kind::Close, format!("CLOSE {sid}")));
    }
    cmds
}

fn threaded_engine() -> Engine {
    let serve = Serve::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    Engine::new(SessionManager::threaded(serve, SessionConfig::default()))
}

struct State {
    script: Vec<Command>,
    engine: Engine,
    /// The reference output: the same script through the virtual-clock
    /// backend. Nothing in a reply depends on wall time, so every pass
    /// must match it line for line and end with its counters.
    oracle: Pass,
}

fn setup(seed: u64) -> State {
    let script = script(seed);
    let virtual_clock = Engine::new(SessionManager::virtual_clock(
        SimServeConfig::default(),
        SessionConfig::default(),
    ));
    State {
        oracle: pass(virtual_clock, &script, &Tracer::off()),
        engine: threaded_engine(),
        script,
    }
}

/// One pass: the whole script through `engine`, each command timed over
/// the `feed_line` calls that complete it.
struct Pass {
    /// `(kind, host seconds)` per command.
    walls: Vec<(Kind, f64)>,
    replies: Vec<String>,
    stats: SessionStats,
}

fn pass(engine: Engine, script: &[Command], tracer: &Tracer) -> Pass {
    let mut engine = engine;
    let mut walls = Vec::with_capacity(script.len());
    let mut replies = Vec::with_capacity(script.len());
    tracer.span("pass", None, 0, |parent| {
        for (i, cmd) in script.iter().enumerate() {
            let t0 = Instant::now();
            let reply = tracer.span(cmd.kind.span(), parent, i as u64, |_| {
                let mut reply = None;
                for line in &cmd.lines {
                    reply = engine.feed_line(line);
                }
                reply
            });
            walls.push((cmd.kind, t0.elapsed().as_secs_f64()));
            replies.push(
                reply
                    .map(|r| r.line)
                    .unwrap_or_else(|| "ERR no reply".to_string()),
            );
        }
    });
    let stats = engine.stats();
    engine.finish();
    Pass {
        walls,
        replies,
        stats,
    }
}

impl Pass {
    fn total(&self) -> f64 {
        self.walls.iter().map(|(_, w)| w).sum()
    }

    fn of(&self, kind: Kind) -> Vec<f64> {
        self.walls
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, w)| *w)
            .collect()
    }
}

/// An untimed warm-up pass if asked, then timed passes until the budget is
/// spent, each on a fresh manager.
fn passes(
    first: Engine,
    script: &[Command],
    budget: Budget,
    warmup: bool,
    tracer: &Tracer,
) -> Vec<Pass> {
    let mut engine = Some(first);
    if warmup {
        pass(engine.take().expect("just set"), script, &Tracer::off());
    }
    let started = Instant::now();
    let mut out = Vec::new();
    while budget.another_pass(started, out.len()) {
        out.push(pass(
            engine.take().unwrap_or_else(threaded_engine),
            script,
            tracer,
        ));
    }
    out
}

pub fn run(seed: u64, budget: Budget, traced: bool) -> (Measured, Summary, Tracer) {
    let (state, setup_s) = timed_setup(budget, || setup(seed));
    let plain = if traced { budget.share(0.4) } else { budget };
    let done = passes(
        state.engine,
        &state.script,
        plain,
        budget.warmup(),
        &Tracer::off(),
    );

    let mut m = Measured {
        pass_walls: done.iter().map(Pass::total).collect(),
        latencies: done
            .iter()
            .flat_map(|p| p.walls.iter().map(|(_, w)| *w))
            .collect(),
        ..Measured::default()
    };
    m.extra.insert(
        "ops_per_s",
        Summary::single(m.latencies.len() as f64 / m.pass_walls.iter().sum::<f64>()),
    );
    let pooled = |kind| done.iter().flat_map(|p| p.of(kind)).collect::<Vec<f64>>();
    // Each pass's own median, so the quartiles say how the median moves
    // from pass to pass, not how wide one pass's reloads are.
    let reloads: Vec<f64> = done.iter().map(|p| median(&p.of(Kind::Reload))).collect();
    m.extra.insert("reload_p50_s", Summary::of(&reloads));

    let tracer = if traced { Tracer::on() } else { Tracer::off() };
    let mut spanned = Vec::new();
    if traced {
        spanned = passes(
            threaded_engine(),
            &state.script,
            budget.share(0.25),
            false,
            &tracer,
        );
        let spanned_wall = median(&spanned.iter().map(Pass::total).collect::<Vec<_>>());
        m.layer.insert(
            "trace_overhead_ratio".into(),
            spanned_wall / median(&m.pass_walls),
        );
        m.layer.insert(
            "session.load_cold_p50_s".into(),
            median(&pooled(Kind::LoadCold)),
        );
        m.layer.insert(
            "session.load_warm_p50_s".into(),
            median(&pooled(Kind::LoadWarm)),
        );
        m.layer
            .insert("session.run_p50_s".into(), median(&pooled(Kind::Run)));
        let s = done[0].stats;
        m.layer.insert(
            "session.reused_ratio".into(),
            s.reused_kernels as f64 / s.resident_kernels.max(1) as f64,
        );
        m.layer
            .insert("session.recompiled".into(), s.recompiled_kernels as f64);
        m.layer
            .insert("session.invalidations".into(), s.invalidations as f64);
    }

    let oracle = &state.oracle;
    let mut ledger = Ledger::default();
    for p in done.iter().chain(&spanned) {
        for ((cmd, got), want) in state.script.iter().zip(&p.replies).zip(&oracle.replies) {
            ledger.check(if !got.starts_with("OK") {
                Err(format!("{}: {got}", cmd.lines[0]))
            } else if got != want {
                Err(format!(
                    "{}: threaded `{got}` != virtual `{want}`",
                    cmd.lines[0]
                ))
            } else {
                Ok(())
            });
        }
        if p.stats != oracle.stats || !p.stats.identities_hold() {
            ledger.fail(format!(
                "session counters diverged: {:?} vs {:?}",
                p.stats, oracle.stats
            ));
        }
    }
    m.ledger = ledger;
    (m, setup_s, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_edit_changes_exactly_one_kernel_text() {
        let a = program(&[0, 0, 0, 0]);
        let b = program(&[0, 0, 1, 0]);
        let differing = a.lines().zip(b.lines()).filter(|(x, y)| x != y).count();
        assert_eq!(differing, 1);
        assert!(japonica::compile(&a).is_ok() && japonica::compile(&b).is_ok());
    }

    fn count_of(s: &[Command], k: Kind) -> usize {
        s.iter().filter(|c| c.kind == k).count()
    }

    #[test]
    fn the_script_is_seeded_and_has_the_declared_shape() {
        let s = script(42);
        let text = |s: &[Command]| s.iter().flat_map(|c| c.lines.clone()).collect::<Vec<_>>();
        assert_eq!(text(&s), text(&script(42)));
        assert_ne!(text(&s), text(&script(43)));
        let count = |k| s.iter().filter(|c| c.kind == k).count();
        assert_eq!(count(Kind::Run), SESSIONS * STEPS);
        assert_eq!(count(Kind::LoadCold), SESSIONS);
        assert_eq!(count(Kind::Reload), 19);
        assert_eq!(
            (count(Kind::LoadWarm), count(Kind::Bind), count(Kind::Show)),
            (8, 8, 8)
        );
        // Same work under another seed: only the order differs.
        for k in [Kind::Run, Kind::Reload, Kind::LoadWarm, Kind::Bind] {
            assert_eq!(count_of(&script(43), k), count(k));
        }
    }
}
